#include "src/dist/comm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "src/base/error.h"

namespace qhip::dist {
namespace {

TEST(Comm, RankAndSize) {
  std::atomic<int> seen{0};
  run_spmd(4, [&](Comm& c) {
    EXPECT_EQ(c.size(), 4);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 4);
    seen.fetch_add(1 << c.rank());
  });
  EXPECT_EQ(seen.load(), 0b1111);
}

TEST(Comm, PointToPointOrdered) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.send(1, 7, &i, sizeof(i));
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        c.recv(0, 7, &v, sizeof(v));
        EXPECT_EQ(v, i);  // FIFO per (src, tag)
      }
    }
  });
}

TEST(Comm, TagsAreIndependentChannels) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      const int a = 1, b = 2;
      c.send(1, 100, &a, sizeof(a));
      c.send(1, 200, &b, sizeof(b));
    } else {
      int vb = 0, va = 0;
      c.recv(0, 200, &vb, sizeof(vb));  // out of send order, by tag
      c.recv(0, 100, &va, sizeof(va));
      EXPECT_EQ(va, 1);
      EXPECT_EQ(vb, 2);
    }
  });
}

TEST(Comm, SizeMismatchDiagnosed) {
  EXPECT_THROW(run_spmd(2,
                        [](Comm& c) {
                          if (c.rank() == 0) {
                            const double v = 1.0;
                            c.send(1, 1, &v, sizeof(v));
                          } else {
                            float w;
                            c.recv(0, 1, &w, sizeof(w));  // wrong size
                          }
                        }),
               Error);
}

TEST(Comm, SendrecvBidirectional) {
  run_spmd(4, [](Comm& c) {
    const int partner = c.rank() ^ 1;
    const int mine = c.rank() * 10;
    int theirs = -1;
    c.sendrecv(partner, 3, &mine, &theirs, sizeof(int));
    EXPECT_EQ(theirs, partner * 10);
  });
}

TEST(Comm, AllreduceSum) {
  run_spmd(8, [](Comm& c) {
    const double total = c.allreduce_sum(static_cast<double>(c.rank() + 1));
    EXPECT_DOUBLE_EQ(total, 36.0);  // 1+..+8
    const cplx64 ct = c.allreduce_sum(cplx64(1.0, static_cast<double>(c.rank())));
    EXPECT_DOUBLE_EQ(ct.real(), 8.0);
    EXPECT_DOUBLE_EQ(ct.imag(), 28.0);
  });
}

TEST(Comm, BackToBackReductionsDoNotRace) {
  run_spmd(4, [](Comm& c) {
    for (int round = 0; round < 50; ++round) {
      const double total =
          c.allreduce_sum(static_cast<double>(c.rank() + round));
      EXPECT_DOUBLE_EQ(total, 6.0 + 4.0 * round) << round;
    }
  });
}

TEST(Comm, AllgatherOrderedByRank) {
  run_spmd(4, [](Comm& c) {
    const auto all = c.allgather(static_cast<double>(c.rank() * c.rank()));
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(all[r], r * r);
  });
}

TEST(Comm, BarrierSynchronizes) {
  std::atomic<int> phase{0};
  run_spmd(4, [&](Comm& c) {
    phase.fetch_add(1);
    c.barrier();
    // After the barrier every rank's increment is visible.
    EXPECT_EQ(phase.load(), 4);
  });
}

TEST(Comm, ExceptionPropagates) {
  EXPECT_THROW(run_spmd(2,
                        [](Comm& c) {
                          if (c.rank() == 1) throw Error("rank 1 failed");
                        }),
               Error);
}

// Regression: the mailbox key gives tags 20 bits, and an unmasked tag used
// to bleed into the dst field, silently cross-wiring (src, dst, tag) with
// (src, dst + 1, tag - 2^20). Out-of-range tags must be rejected loudly,
// and the largest in-range tag must still be a working channel.
TEST(Comm, TagRangeEnforced) {
  run_spmd(2, [](Comm& c) {
    const int v = c.rank();
    EXPECT_THROW(c.send(c.rank() ^ 1, kMaxTag + 1, &v, sizeof(v)), Error);
    int w = -1;
    EXPECT_THROW(c.recv(c.rank() ^ 1, 1 << 20, &w, sizeof(w)), Error);
    EXPECT_THROW(c.send(c.rank() ^ 1, -1, &v, sizeof(v)), Error);
    // kMaxTag itself is valid end to end.
    c.sendrecv(c.rank() ^ 1, kMaxTag, &v, &w, sizeof(int));
    EXPECT_EQ(w, c.rank() ^ 1);
  });
}

// Regression: recv_vec used to write through v->data() without resizing, so
// receiving into an unsized vector failed. It now probes and resizes to the
// incoming message.
TEST(Comm, RecvVecResizesToMessage) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<double> payload{1.5, 2.5, 3.5, 4.5, 5.5};
      c.send_vec(1, 4, payload);
    } else {
      std::vector<double> got;  // empty: pre-fix this was a size mismatch
      c.recv_vec(0, 4, &got);
      ASSERT_EQ(got.size(), 5u);
      EXPECT_DOUBLE_EQ(got[0], 1.5);
      EXPECT_DOUBLE_EQ(got[4], 5.5);
    }
  });
}

TEST(Comm, RecvVecRejectsPartialElements) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<float> payload{1.f, 2.f, 3.f};  // 12 bytes
      c.send_vec(1, 4, payload);
      c.barrier();
    } else {
      std::vector<double> got;  // 12 % sizeof(double) != 0
      EXPECT_THROW(c.recv_vec(0, 4, &got), Error);
      c.barrier();
    }
  });
}

TEST(Comm, ProbeReportsSizeWithoutConsuming) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<int> payload{7, 8, 9};
      c.send_vec(1, 6, payload);
    } else {
      EXPECT_EQ(c.probe(0, 6), 3 * sizeof(int));
      EXPECT_EQ(c.probe(0, 6), 3 * sizeof(int));  // still queued
      std::vector<int> got(3);
      c.recv(0, 6, got.data(), 3 * sizeof(int));
      EXPECT_EQ(got[2], 9);
    }
  });
}

TEST(Comm, IrecvCompletesViaWait) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.barrier();  // rank 1 posts its irecv before the message exists
      const int v = 42;
      c.isend(1, 5, &v, sizeof(v));
    } else {
      int w = 0;
      Comm::Request r = c.irecv(0, 5, &w, sizeof(w));
      EXPECT_TRUE(r.pending());  // nothing sent yet
      c.barrier();
      c.wait(r);
      EXPECT_FALSE(r.pending());
      EXPECT_EQ(w, 42);
      c.wait(r);  // completed requests wait as no-ops
    }
  });
}

TEST(Comm, IrecvMatchesImmediatelyWhenQueued) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      const int v = 7;
      c.isend(1, 5, &v, sizeof(v));
      c.barrier();
    } else {
      c.barrier();  // message guaranteed queued
      int w = 0;
      Comm::Request r = c.irecv(0, 5, &w, sizeof(w));
      EXPECT_FALSE(r.pending());
      EXPECT_EQ(w, 7);
      c.wait(r);
    }
  });
}

// The chunked-swap usage pattern: both sides stream chunks through two
// in-flight requests, waiting in post order.
TEST(Comm, DoubleBufferedExchange) {
  constexpr int kChunks = 8;
  run_spmd(2, [](Comm& c) {
    const int partner = c.rank() ^ 1;
    int rbuf[2] = {0, 0};
    Comm::Request rreq[2];
    for (int k = 0; k < kChunks; ++k) {
      rreq[k & 1] = c.irecv(partner, 9, &rbuf[k & 1], sizeof(int));
      const int v = c.rank() * 100 + k;
      c.isend(partner, 9, &v, sizeof(v));
      if (k > 0) {
        c.wait(rreq[(k - 1) & 1]);
        EXPECT_EQ(rbuf[(k - 1) & 1], partner * 100 + (k - 1));
      }
    }
    c.wait(rreq[(kChunks - 1) & 1]);
    EXPECT_EQ(rbuf[(kChunks - 1) & 1], partner * 100 + (kChunks - 1));
  });
}

TEST(Comm, AllreduceVectorElementwiseAndDeterministic) {
  run_spmd(4, [](Comm& c) {
    const double r = static_cast<double>(c.rank());
    const std::vector<double> v{r, 2 * r, 1.0};
    const auto sum = c.allreduce_sum(v);
    ASSERT_EQ(sum.size(), 3u);
    EXPECT_DOUBLE_EQ(sum[0], 6.0);   // 0+1+2+3
    EXPECT_DOUBLE_EQ(sum[1], 12.0);
    EXPECT_DOUBLE_EQ(sum[2], 4.0);
    // Interleaved scalar and vector reductions use independent slots.
    for (int round = 0; round < 20; ++round) {
      const auto s = c.allreduce_sum(std::vector<double>{r + round});
      EXPECT_DOUBLE_EQ(s[0], 6.0 + 4.0 * round) << round;
      EXPECT_DOUBLE_EQ(c.allreduce_sum(r), 6.0);
    }
  });
}

TEST(Comm, SingleRankWorld) {
  run_spmd(1, [](Comm& c) {
    EXPECT_EQ(c.size(), 1);
    EXPECT_DOUBLE_EQ(c.allreduce_sum(5.0), 5.0);
    c.barrier();
  });
}

}  // namespace
}  // namespace qhip::dist
