// Tests for the SIMT executor: thread indexing, shared memory, barriers,
// wavefront collectives at widths 32 and 64, and misuse diagnostics.
#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <numeric>
#include <string>
#include <vector>

#include "src/base/error.h"
#include "src/vgpu/device.h"
#include "src/vgpu/fiber_exec.h"

namespace qhip::vgpu {
namespace {

Device make_device(unsigned warp) {
  DeviceProps p = test_device(warp);
  return Device(p);
}

TEST(Exec, GlobalIndexingCoversGrid) {
  Device dev = make_device(64);
  const unsigned grid = 7, block = 33;
  std::vector<std::atomic<int>> hits(grid * block);
  dev.launch("idx", {grid, block, 0, false, {}}, [&](KernelCtx& ctx) {
    hits[ctx.global_idx()].fetch_add(1);
    EXPECT_EQ(ctx.block_dim(), block);
    EXPECT_EQ(ctx.grid_dim(), grid);
    EXPECT_LT(ctx.thread_idx(), block);
    EXPECT_LT(ctx.block_idx(), grid);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Exec, LaneAndWarpId) {
  for (unsigned warp : {32u, 64u}) {
    Device dev = make_device(warp);
    dev.launch("lanes", {1, 128, 0, false, {}}, [&](KernelCtx& ctx) {
      EXPECT_EQ(ctx.lane(), ctx.thread_idx() % warp);
      EXPECT_EQ(ctx.warp_id(), ctx.thread_idx() / warp);
      EXPECT_EQ(ctx.warp_size(), warp);
    });
  }
}

TEST(Exec, SyncthreadsOrdersSharedWrites) {
  Device dev = make_device(64);
  const unsigned block = 64;
  std::vector<int> out(block, -1);
  // Classic reversal: each thread writes shared[tid], syncs, reads the
  // mirror slot. Without a working barrier this reads stale data.
  dev.launch("rev", {1, block, block * sizeof(int), true, {}},
             [&](KernelCtx& ctx) {
               int* sh = ctx.shared_as<int>();
               sh[ctx.thread_idx()] = static_cast<int>(ctx.thread_idx()) * 10;
               ctx.syncthreads();
               out[ctx.thread_idx()] = sh[block - 1 - ctx.thread_idx()];
             });
  for (unsigned t = 0; t < block; ++t) {
    EXPECT_EQ(out[t], static_cast<int>(block - 1 - t) * 10);
  }
}

TEST(Exec, MultipleBarriersInLoop) {
  Device dev = make_device(32);
  const unsigned block = 32;
  std::vector<int> result(block);
  // Parallel prefix-doubling sum in shared memory: needs a barrier per step.
  dev.launch("scan", {1, block, 2 * block * sizeof(int), true, {}},
             [&](KernelCtx& ctx) {
               int* a = ctx.shared_as<int>();
               int* b = a + block;
               const unsigned t = ctx.thread_idx();
               a[t] = 1;
               ctx.syncthreads();
               for (unsigned step = 1; step < block; step <<= 1) {
                 b[t] = a[t] + (t >= step ? a[t - step] : 0);
                 ctx.syncthreads();
                 a[t] = b[t];
                 ctx.syncthreads();
               }
               result[t] = a[t];
             });
  for (unsigned t = 0; t < block; ++t) {
    EXPECT_EQ(result[t], static_cast<int>(t + 1));
  }
}

TEST(Exec, SyncthreadsInDirectModeThrows) {
  Device dev = make_device(64);
  EXPECT_THROW(
      dev.launch("bad", {1, 2, 0, false, {}},
                 [](KernelCtx& ctx) { ctx.syncthreads(); }),
      Error);
}

TEST(Exec, ExitedThreadsCountAsArrivedAtBarrier) {
  // PTX bar.sync semantics (and this executor): threads that already exited
  // are treated as having arrived, so early-exit + barrier completes.
  Device dev = make_device(64);
  std::vector<int> out(4, 0);
  EXPECT_NO_THROW(dev.launch("early", {1, 4, 0, true, {}},
                             [&](KernelCtx& ctx) {
                               if (ctx.thread_idx() == 0) return;
                               ctx.syncthreads();
                               out[ctx.thread_idx()] = 1;
                             }));
  EXPECT_EQ(out[0], 0);
  for (unsigned t = 1; t < 4; ++t) EXPECT_EQ(out[t], 1);
}

TEST(Exec, MixedBarrierKindsDeadlockDetected) {
  // Half the warp waits at a block barrier, the other half at a wavefront
  // collective: neither rendezvous can ever complete.
  Device dev = make_device(64);
  EXPECT_THROW(dev.launch("dead", {1, 64, 0, true, {}},
                          [](KernelCtx& ctx) {
                            if (ctx.lane() < 32) {
                              ctx.syncthreads();
                            } else {
                              ctx.shfl_down(1, 1);
                            }
                          }),
               Error);
}

TEST(Exec, ShflDownBasic) {
  for (unsigned warp : {32u, 64u}) {
    Device dev = make_device(warp);
    std::vector<int> out(warp);
    dev.launch("shfl", {1, warp, 0, true, {}}, [&](KernelCtx& ctx) {
      const int v = static_cast<int>(ctx.lane());
      out[ctx.lane()] = ctx.shfl_down(v, 1);
    });
    for (unsigned l = 0; l + 1 < warp; ++l) {
      EXPECT_EQ(out[l], static_cast<int>(l + 1));
    }
    // Last lane keeps its own value (out-of-segment source).
    EXPECT_EQ(out[warp - 1], static_cast<int>(warp - 1));
  }
}

TEST(Exec, ShflDownDoubleValues) {
  Device dev = make_device(64);
  std::vector<double> out(64);
  dev.launch("shfld", {1, 64, 0, true, {}}, [&](KernelCtx& ctx) {
    const double v = 0.5 * ctx.lane();
    out[ctx.lane()] = ctx.shfl_down(v, 8);
  });
  for (unsigned l = 0; l < 56; ++l) EXPECT_DOUBLE_EQ(out[l], 0.5 * (l + 8));
}

TEST(Exec, ShflDownWidthSegments) {
  // width=16 partitions the warp into segments; values never cross them.
  Device dev = make_device(64);
  std::vector<int> out(64);
  dev.launch("shflw", {1, 64, 0, true, {}}, [&](KernelCtx& ctx) {
    out[ctx.lane()] = ctx.shfl_down(static_cast<int>(ctx.lane()), 8, 16);
  });
  for (unsigned l = 0; l < 64; ++l) {
    const unsigned seg_end = (l / 16 + 1) * 16;
    const int want = l + 8 < seg_end ? static_cast<int>(l + 8)
                                     : static_cast<int>(l);
    EXPECT_EQ(out[l], want) << l;
  }
}

TEST(Exec, ShflBroadcast) {
  Device dev = make_device(64);
  std::vector<int> out(64);
  dev.launch("bc", {1, 64, 0, true, {}}, [&](KernelCtx& ctx) {
    const int v = static_cast<int>(ctx.lane()) * 3;
    out[ctx.lane()] = ctx.shfl(v, 5);
  });
  for (unsigned l = 0; l < 64; ++l) EXPECT_EQ(out[l], 15);
}

TEST(Exec, WarpSumViaShflDownWidth64) {
  Device dev = make_device(64);
  std::vector<long> out(1, -1);
  dev.launch("wsum", {1, 64, 0, true, {}}, [&](KernelCtx& ctx) {
    long v = static_cast<long>(ctx.lane()) + 1;  // 1..64
    for (unsigned off = ctx.warp_size() / 2; off > 0; off >>= 1) {
      v += ctx.shfl_down(v, off);
    }
    if (ctx.lane() == 0) out[0] = v;
  });
  EXPECT_EQ(out[0], 64L * 65 / 2);
}

TEST(Exec, RaggedWarpShflDownClampsToLiveLanes) {
  // block_dim = warp_size + 5: the second warp has only 5 live lanes. A
  // shuffle whose source lane does not exist must return the caller's own
  // value, not rendezvous with a dead lane.
  for (unsigned warp : {32u, 64u}) {
    Device dev = make_device(warp);
    const unsigned block = warp + 5;
    std::vector<int> out(block, -1);
    dev.launch("ragged", {1, block, 0, true, {}}, [&](KernelCtx& ctx) {
      const int v = static_cast<int>(ctx.thread_idx());
      out[ctx.thread_idx()] = ctx.shfl_down(v, 2);
    });
    for (unsigned t = 0; t < warp; ++t) {
      const int want = t + 2 < warp ? static_cast<int>(t + 2)
                                    : static_cast<int>(t);
      EXPECT_EQ(out[t], want) << "warp " << warp << " thread " << t;
    }
    for (unsigned t = warp; t < block; ++t) {
      const unsigned lane = t - warp;
      const int want = lane + 2 < 5 ? static_cast<int>(t + 2)
                                    : static_cast<int>(t);
      EXPECT_EQ(out[t], want) << "warp " << warp << " thread " << t;
    }
  }
}

TEST(Exec, RaggedWarpReductionSumsLiveLanes) {
  // Tree reduction over a ragged final warp: dead-lane reads are defined
  // (own value) so the collective completes, and guarding the accumulation
  // with live_lanes() yields exactly the sum of the live lanes.
  for (unsigned warp : {32u, 64u}) {
    Device dev = make_device(warp);
    const unsigned block = warp + 3;
    std::vector<long> out(2, -1);
    dev.launch("rsum", {1, block, 0, true, {}}, [&](KernelCtx& ctx) {
      long v = static_cast<long>(ctx.thread_idx()) + 1;  // 1..block
      for (unsigned off = ctx.warp_size() / 2; off > 0; off >>= 1) {
        const long other = ctx.shfl_down(v, off);
        if (ctx.lane() + off < ctx.live_lanes()) v += other;
      }
      if (ctx.lane() == 0) out[ctx.warp_id()] = v;
    });
    EXPECT_EQ(out[0], static_cast<long>(warp) * (warp + 1) / 2);
    // Partial warp holds warp+1, warp+2, warp+3.
    EXPECT_EQ(out[1], 3L * warp + 6);
  }
}

TEST(Exec, Ballot) {
  for (unsigned warp : {32u, 64u}) {
    Device dev = make_device(warp);
    std::vector<std::uint64_t> out(warp);
    dev.launch("ballot", {1, warp, 0, true, {}}, [&](KernelCtx& ctx) {
      out[ctx.lane()] = ctx.ballot(ctx.lane() % 3 == 0);
    });
    std::uint64_t want = 0;
    for (unsigned l = 0; l < warp; ++l) {
      if (l % 3 == 0) want |= std::uint64_t{1} << l;
    }
    for (unsigned l = 0; l < warp; ++l) EXPECT_EQ(out[l], want);
  }
}

TEST(Exec, CollectiveInDirectModeThrows) {
  Device dev = make_device(64);
  EXPECT_THROW(dev.launch("bad", {1, 64, 0, false, {}},
                          [](KernelCtx& ctx) { ctx.shfl_down(1, 1); }),
               Error);
}

TEST(Exec, MultiWarpBlockCollectivesStayInWarp) {
  // 2 warps of 32: shuffles must not leak across the warp boundary.
  Device dev = make_device(32);
  std::vector<int> out(64);
  dev.launch("2warp", {1, 64, 0, true, {}}, [&](KernelCtx& ctx) {
    const int v = static_cast<int>(ctx.thread_idx());
    out[ctx.thread_idx()] = ctx.shfl(v, 0);  // broadcast lane 0 of own warp
  });
  for (unsigned t = 0; t < 32; ++t) EXPECT_EQ(out[t], 0);
  for (unsigned t = 32; t < 64; ++t) EXPECT_EQ(out[t], 32);
}

TEST(Exec, ManyBlocksWithBarriers) {
  Device dev = make_device(64);
  const unsigned grid = 50, block = 64;
  std::vector<int> out(grid, 0);
  dev.launch("many", {grid, block, block * sizeof(int), true, {}},
             [&](KernelCtx& ctx) {
               int* sh = ctx.shared_as<int>();
               sh[ctx.thread_idx()] = 1;
               ctx.syncthreads();
               if (ctx.thread_idx() == 0) {
                 int s = 0;
                 for (unsigned t = 0; t < block; ++t) s += sh[t];
                 out[ctx.block_idx()] = s;
               }
             });
  for (unsigned b = 0; b < grid; ++b) EXPECT_EQ(out[b], static_cast<int>(block));
}

TEST(Exec, BlocksDistributeAcrossHostWorkers) {
  // A device backed by a multi-worker pool must produce identical results:
  // every block lands exactly once regardless of the host-thread split.
  ThreadPool pool(3);
  DeviceProps props = test_device(64);
  Device dev(props, nullptr, &pool);
  const unsigned grid = 37, block = 64;
  std::vector<std::atomic<int>> hits(grid);
  dev.launch("mt", {grid, block, block * sizeof(int), true, {}},
             [&](KernelCtx& ctx) {
               int* sh = ctx.shared_as<int>();
               sh[ctx.thread_idx()] = 1;
               ctx.syncthreads();
               if (ctx.thread_idx() == 0) {
                 int s = 0;
                 for (unsigned t = 0; t < block; ++t) s += sh[t];
                 if (s == static_cast<int>(block)) hits[ctx.block_idx()].fetch_add(1);
               }
             });
  for (unsigned b = 0; b < grid; ++b) EXPECT_EQ(hits[b].load(), 1) << b;
}

TEST(Exec, KernelExceptionPropagates) {
  Device dev = make_device(64);
  EXPECT_THROW(dev.launch("throws", {1, 8, 0, true, {}},
                          [](KernelCtx& ctx) {
                            ctx.syncthreads();
                            if (ctx.thread_idx() == 3) throw Error("kernel bug");
                            ctx.syncthreads();
                          }),
               Error);
  // Device still usable.
  EXPECT_NO_THROW(dev.launch("ok", {1, 8, 0, true, {}},
                             [](KernelCtx& ctx) { ctx.syncthreads(); }));
}

// The rendezvous counters under churn: a 1024-thread block where some lanes
// of every warp exit before the first collective (including each warp's
// last lane, so an exit completes the warp sync) and more exit between the
// barriers (including the block's last thread, so an exit completes the
// barrier). Dead shuffle sources return the caller's own value; ballots see
// only live lanes.
TEST(Exec, ThousandLaneBlockWithEarlyExitsInEveryWarp) {
  constexpr unsigned kBlock = 1024;
  for (unsigned warp : {32u, 64u}) {
    BlockExec exec(kBlock, 0, warp);
    struct Out {
      unsigned r1 = 0, r2 = 0, r3 = 0;
      std::uint64_t b1 = 0, b2 = 0;
      int phase = 0;
    };
    std::vector<Out> out(kBlock);
    auto exits_first = [&](unsigned lane) {
      return lane % 5 == 4 || lane == warp - 1;
    };
    auto exits_second = [&](unsigned t, unsigned lane) {
      return lane % 5 == 0 || t == kBlock - 1;
    };
    exec.run_block(
        [&](KernelCtx& ctx) {
          const unsigned t = ctx.thread_idx(), lane = ctx.lane();
          Out& o = out[t];
          if (exits_first(lane)) return;
          o.r1 = ctx.shfl_down(t, 1);
          o.b1 = ctx.ballot(t % 3 == 0);
          ctx.syncthreads();
          o.phase = 1;
          if (exits_second(t, lane)) return;
          ctx.syncthreads();
          o.r2 = ctx.shfl(t, 1);
          o.r3 = ctx.shfl(t, 0);
          o.b2 = ctx.ballot(true);
          ctx.syncthreads();
          o.phase = 2;
        },
        0, kBlock, 1, 0, /*needs_sync=*/true);

    for (unsigned t = 0; t < kBlock; ++t) {
      const unsigned lane = t % warp, base = t - lane;
      const Out& o = out[t];
      if (exits_first(lane)) {
        EXPECT_EQ(o.phase, 0) << t;
        continue;
      }
      std::uint64_t b1 = 0, b2 = 0;
      for (unsigned l = 0; l < warp; ++l) {
        if (exits_first(l)) continue;
        if ((base + l) % 3 == 0) b1 |= std::uint64_t{1} << l;
        if (!exits_second(base + l, l)) b2 |= std::uint64_t{1} << l;
      }
      const bool src_live = lane + 1 < warp && !exits_first(lane + 1);
      EXPECT_EQ(o.r1, src_live ? t + 1 : t) << "warp " << warp << " t " << t;
      EXPECT_EQ(o.b1, b1) << "warp " << warp << " t " << t;
      if (exits_second(t, lane)) {
        EXPECT_EQ(o.phase, 1) << t;
        continue;
      }
      EXPECT_EQ(o.phase, 2) << t;
      EXPECT_EQ(o.r2, base + 1) << t;  // lane 1 stays live throughout
      EXPECT_EQ(o.r3, t) << t;         // lane 0 exited: own value
      EXPECT_EQ(o.b2, b2) << "warp " << warp << " t " << t;
    }
  }
}

// A failed run abandons its lanes mid-block; the next runs on the same
// executor must start from clean counters. Also pins the deadlock census
// text.
TEST(Exec, CountersResetAfterThrowAndDeadlock) {
  constexpr unsigned kBlock = 256;
  BlockExec exec(1024, kBlock * sizeof(long), 64);
  try {
    exec.run_block(
        [](KernelCtx& ctx) {
          ctx.syncthreads();
          if (ctx.thread_idx() == 77) throw Error("lane 77 failed");
          ctx.syncthreads();
        },
        3, kBlock, 8, 0, true);
    ADD_FAILURE() << "expected the lane's exception";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "lane 77 failed");
  }

  // 16 lanes exit, 24 wait at the barrier, 24 at a shuffle: no rendezvous
  // can complete.
  try {
    exec.run_block(
        [](KernelCtx& ctx) {
          if (ctx.thread_idx() < 16) return;
          if (ctx.thread_idx() < 40) {
            ctx.syncthreads();
          } else {
            ctx.shfl_down(1, 1);
          }
        },
        5, 64, 8, 0, true);
    ADD_FAILURE() << "expected a deadlock";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "vgpu: __syncthreads deadlock in block 5: 48 thread(s) waiting "
              "at a barrier that 16 already-exited thread(s) can never reach");
  }

  // Clean block reduction: warp shuffles, then a shared-memory combine.
  for (int rep = 0; rep < 2; ++rep) {
    long total = -1;
    exec.run_block(
        [&](KernelCtx& ctx) {
          long v = static_cast<long>(ctx.thread_idx()) + 1;
          for (unsigned off = ctx.warp_size() / 2; off > 0; off >>= 1) {
            v += ctx.shfl_down(v, off);
          }
          long* sh = ctx.shared_as<long>();
          if (ctx.lane() == 0) sh[ctx.warp_id()] = v;
          ctx.syncthreads();
          if (ctx.thread_idx() == 0) {
            total = 0;
            for (unsigned w = 0; w < kBlock / 64; ++w) total += sh[w];
          }
          ctx.syncthreads();
        },
        0, kBlock, 1, kBlock * sizeof(long), true);
    EXPECT_EQ(total, long{kBlock} * (kBlock + 1) / 2) << "rep " << rep;
  }
}

// Each block thread owns its floating-point control state, as each GPU
// thread owns its registers: a rounding mode one lane sets survives that
// lane's barrier and never leaks into a sibling, including one that starts
// after it, and the launching thread's mode is untouched.
TEST(Exec, RoundingModeStaysWithItsThread) {
  BlockExec exec(64, 0, 64);
  std::vector<int> before(3), after(3);
  exec.run_block(
      [&](KernelCtx& ctx) {
        const unsigned t = ctx.thread_idx();
        if (t == 0) std::fesetround(FE_UPWARD);
        before[t] = std::fegetround();
        ctx.syncthreads();
        after[t] = std::fegetround();
        std::fesetround(FE_TONEAREST);
      },
      0, 3, 1, 0, true);
  EXPECT_EQ(before[0], FE_UPWARD);
  EXPECT_EQ(after[0], FE_UPWARD);
  for (unsigned t = 1; t < 3; ++t) {
    EXPECT_EQ(before[t], FE_TONEAREST) << t;
    EXPECT_EQ(after[t], FE_TONEAREST) << t;
  }
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

}  // namespace
}  // namespace qhip::vgpu
