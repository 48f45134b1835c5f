// Distributed simulator parity: SPMD slices must reproduce the
// single-process reference for any circuit, across 2/4/8 ranks, including
// gates on distributed qubits, norms and distributed expectation values.
#include "src/dist/simulator_dist.h"

#include <gtest/gtest.h>

#include <numbers>

#include "src/base/rng.h"
#include "src/core/gates.h"
#include "src/fusion/fuser.h"
#include "src/rqc/rqc.h"
#include "src/simulator/reference.h"
#include "src/simulator/simulator_cpu.h"

namespace qhip::dist {
namespace {

Circuit random_circuit(unsigned n, unsigned depth, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Circuit c;
  c.num_qubits = n;
  for (unsigned t = 0; t < depth; ++t) {
    std::vector<bool> used(n, false);
    for (unsigned q = 0; q < n; ++q) {
      if (used[q]) continue;
      const double r = rng.uniform();
      if (r < 0.35 && q + 1 < n && !used[q + 1]) {
        c.gates.push_back(gates::fs(t, q, q + 1, rng.uniform() * 2, rng.uniform()));
        used[q] = used[q + 1] = true;
      } else if (r < 0.7) {
        c.gates.push_back(gates::rxy(t, q, rng.uniform() * 6, rng.uniform() * 3));
        used[q] = true;
      }
    }
  }
  return c;
}

template <typename FP>
void expect_parity(const Circuit& c, int ranks, double tol) {
  StateVector<FP> ref(c.num_qubits);
  reference_run(c, ref);
  run_spmd(ranks, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<FP> sim(comm, c.num_qubits, pool);
    sim.run(c);
    const StateVector<FP> got = sim.gather();
    if (comm.rank() == 0) {
      EXPECT_LT(statespace::max_abs_diff(got, ref), tol) << ranks << " ranks";
    }
  });
}

TEST(SimulatorDist, GhzAcrossRanks) {
  const unsigned n = 8;
  run_spmd(4, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<float> sim(comm, n, pool);
    sim.apply_gate(gates::h(0, 0));
    for (unsigned q = 1; q < n; ++q) sim.apply_gate(gates::cnot(q, q - 1, q));
    EXPECT_NEAR(sim.norm2(), 1.0, 1e-5);
    const StateVector<float> s = sim.gather();
    if (comm.rank() == 0) {
      const double r = 1 / std::numbers::sqrt2;
      EXPECT_NEAR(s[0].real(), r, 1e-5);
      EXPECT_NEAR(s[s.size() - 1].real(), r, 1e-5);
    }
  });
}

TEST(SimulatorDist, RandomCircuitsMatchReference) {
  for (int ranks : {2, 4}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      expect_parity<float>(random_circuit(8, 8, seed), ranks,
                           4 * state_tol<float>());
    }
  }
  expect_parity<double>(random_circuit(9, 8, 3), 8, 4 * state_tol<double>());
}

TEST(SimulatorDist, FusedRqcMatchesReference) {
  rqc::RqcOptions opt;
  opt.rows = 2;
  opt.cols = 5;
  opt.depth = 8;
  const Circuit fused = fuse_circuit(rqc::generate_rqc(opt), {4}).circuit;
  expect_parity<float>(fused, 4, 4 * state_tol<float>());
}

TEST(SimulatorDist, GlobalGateCausesCommunication) {
  const unsigned n = 8;
  run_spmd(2, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<float> sim(comm, n, pool);
    sim.apply_gate(gates::h(0, 2));  // local: no traffic
    EXPECT_EQ(sim.stats().slot_swaps, 0u);
    sim.apply_gate(gates::h(1, n - 1));  // global slot: one swap
    EXPECT_EQ(sim.stats().slot_swaps, 1u);
    EXPECT_GT(sim.stats().bytes_sent, 0u);
    sim.apply_gate(gates::h(2, n - 1));  // now local: no new swap
    EXPECT_EQ(sim.stats().slot_swaps, 1u);
  });
}

TEST(SimulatorDist, DistributedExpectationMatchesHost) {
  const unsigned n = 8;
  const Circuit c = random_circuit(n, 6, 9);
  StateVector<double> ref(n);
  reference_run(c, ref);
  const obs::Observable h = obs::transverse_field_ising(n, 1.0, 0.8);
  const cplx64 want = obs::expectation(h, ref);

  run_spmd(4, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<double> sim(comm, n, pool);
    sim.run(c);
    const cplx64 got = sim.expectation(h);
    EXPECT_NEAR(got.real(), want.real(), 1e-9);
    EXPECT_NEAR(got.imag(), want.imag(), 1e-9);
  });
}

TEST(SimulatorDist, ExpectationOnGlobalQubits) {
  // A Pauli string touching the top (distributed) qubit forces swaps inside
  // expectation() and must still match.
  const unsigned n = 7;
  const Circuit c = random_circuit(n, 5, 4);
  StateVector<double> ref(n);
  reference_run(c, ref);
  obs::PauliString p{0.9, {{n - 1, obs::Pauli::kY}, {0, obs::Pauli::kZ}}};
  const cplx64 want = obs::expectation(p, ref);
  run_spmd(2, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<double> sim(comm, n, pool);
    sim.run(c);
    const cplx64 got = sim.expectation(p);
    EXPECT_NEAR(got.real(), want.real(), 1e-9);
    EXPECT_NEAR(got.imag(), want.imag(), 1e-9);
  });
}

TEST(SimulatorDist, NormPreservedThroughManySwaps) {
  const unsigned n = 8;
  run_spmd(4, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<float> sim(comm, n, pool);
    Xoshiro256 rng(5);
    for (int i = 0; i < 20; ++i) {
      const qubit_t q = static_cast<qubit_t>(rng.uniform() * n);
      sim.apply_gate(gates::rxy(static_cast<unsigned>(i), q,
                                rng.uniform() * 6, rng.uniform() * 3));
    }
    EXPECT_NEAR(sim.norm2(), 1.0, 1e-4);
    EXPECT_GT(sim.stats().slot_swaps, 0u);
  });
}

// Regression for the swap-tag wraparound: the old per-swap incrementing tag
// (kSwapTagBase + slot_swaps) collided with the gather tag after 8001 swaps
// and, far enough out, overflowed the 20-bit mailbox tag field. Swaps now
// use one fixed tag, so thousands of swaps before a gather must stay
// correct. apply_gate (no lookahead) ping-pongs q2/q1 through the single
// free slot, costing one swap per gate.
TEST(SimulatorDist, ManySwapsBeforeGatherStaysCorrect) {
  const unsigned n = 3;
  constexpr unsigned kGates = 8002;
  Circuit c;
  c.num_qubits = n;
  for (unsigned i = 0; i < kGates; ++i) {
    c.gates.push_back(gates::h(i, (i % 2) ? 1 : 2));
  }
  StateVector<float> ref(n);
  reference_run(c, ref);
  run_spmd(2, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<float> sim(comm, n, pool);
    for (const auto& g : c.gates) sim.apply_gate(g);
    EXPECT_GT(sim.stats().slot_swaps, 8001u);
    const StateVector<float> got = sim.gather();
    if (comm.rank() == 0) {
      EXPECT_LT(statespace::max_abs_diff(got, ref), 1e-4);
    }
  });
}

// run() schedules evictions by farthest next use (Belady): localizing q3
// must evict a never-again-used qubit rather than q2, which the very next
// gate needs — one swap instead of two.
TEST(SimulatorDist, LookaheadPicksFarthestNextUseEviction) {
  const unsigned n = 4;
  Circuit c;
  c.num_qubits = n;
  c.gates.push_back(gates::h(0, 3));
  c.gates.push_back(gates::h(1, 2));
  StateVector<float> ref(n);
  reference_run(c, ref);
  run_spmd(2, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<float> greedy(comm, n, pool);
    for (const auto& g : c.gates) greedy.apply_gate(g);  // no lookahead
    EXPECT_EQ(greedy.stats().slot_swaps, 2u);

    SimulatorDist<float> planned(comm, n, pool);
    planned.run(c);
    EXPECT_EQ(planned.stats().slot_swaps, 1u);
    const StateVector<float> got = planned.gather();
    if (comm.rank() == 0) {
      EXPECT_LT(statespace::max_abs_diff(got, ref), 1e-5);
    }
  });
}

// The chunked double-buffered swap must be bit-identical with the cpu
// backend, chunk boundaries included: at this size every swap ships its
// half-slice in two chunks of kSwapChunkAmps.
TEST(SimulatorDist, ChunkedSwapMatchesCpuBitExact) {
  const unsigned n = 17;
  const Circuit c = fuse_circuit(random_circuit(n, 6, 21), {3}).circuit;
  ThreadPool ref_pool(1);
  SimulatorCPU<float> cpu(ref_pool);
  StateVector<float> ref(n);
  cpu.run(c, ref);
  run_spmd(2, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<float> sim(comm, n, pool);
    ASSERT_EQ(sim.local_slice().size() / 2,
              2 * SimulatorDist<float>::kSwapChunkAmps);
    sim.run(c);
    EXPECT_GT(sim.stats().slot_swaps, 0u);
    EXPECT_EQ(sim.stats().swap_chunks, 2 * sim.stats().slot_swaps);
    const StateVector<float> got = sim.gather();
    if (comm.rank() == 0) {
      EXPECT_EQ(statespace::max_abs_diff(got, ref), 0.0);
    }
  });
}

// In-circuit measurements: same Philox streams and seed formula as
// SimulatorCPU, so outcomes agree exactly; the collapsed state matches to
// float tolerance.
TEST(SimulatorDist, MeasurementsMatchCpuSimulator) {
  const unsigned n = 8;
  Circuit c = random_circuit(n, 5, 13);
  c.gates.push_back(gates::measure(5, {0, n - 1}));
  Circuit tail = random_circuit(n, 3, 14);
  for (auto& g : tail.gates) c.gates.push_back(g);
  c.gates.push_back(gates::measure(9, {2, 3}));

  for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
    ThreadPool ref_pool(1);
    SimulatorCPU<float> cpu(ref_pool);
    StateVector<float> ref(n);
    std::vector<index_t> ref_meas;
    cpu.run(c, ref, seed, &ref_meas);

    run_spmd(4, [&](Comm& comm) {
      ThreadPool pool(1);
      SimulatorDist<float> sim(comm, n, pool);
      std::vector<index_t> meas;
      sim.run(c, seed, &meas);
      EXPECT_EQ(meas, ref_meas) << "seed " << seed;
      const StateVector<float> got = sim.gather();
      if (comm.rank() == 0) {
        EXPECT_LT(statespace::max_abs_diff(got, ref), 1e-4) << "seed " << seed;
      }
    });
  }
}

// Measuring qubits living in global (rank-index) slots: the outcome bits
// are fixed by the rank id and collapse may zero whole slices.
TEST(SimulatorDist, MeasureGlobalQubit) {
  const unsigned n = 6;
  run_spmd(4, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<double> sim(comm, n, pool);
    // Localizing q5 evicts a local holder into global slot 5; measuring the
    // evicted qubit exercises the fixed-bit path (it is |0>, so the outcome
    // is deterministic and no slice survives on half the ranks... except
    // all amplitude lives in the q=0 half here).
    sim.apply_gate(gates::h(0, n - 1));
    const index_t out_evicted = sim.measure({3}, 3);
    EXPECT_EQ(out_evicted, 0u);
    EXPECT_NEAR(sim.norm2(), 1.0, 1e-12);
    // Measure the superposed qubit too (local slot, random outcome): every
    // rank must draw the same result.
    const index_t outcome = sim.measure({n - 1}, 3);
    EXPECT_NEAR(sim.norm2(), 1.0, 1e-12);
    const auto all = comm.allgather(static_cast<double>(outcome));
    for (double o : all) EXPECT_EQ(o, static_cast<double>(outcome));
  });
}

TEST(SimulatorDist, AmplitudesMatchGatheredState) {
  const unsigned n = 9;
  const Circuit c = random_circuit(n, 7, 31);
  run_spmd(8, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<float> sim(comm, n, pool);
    sim.run(c);
    const std::vector<index_t> idx{0, 1, 5, 100, pow2(n) - 1};
    const std::vector<cplx64> amps = sim.amplitudes(idx);  // collective
    const StateVector<float> full = sim.gather();
    if (comm.rank() == 0) {
      ASSERT_EQ(amps.size(), idx.size());
      for (std::size_t k = 0; k < idx.size(); ++k) {
        EXPECT_EQ(amps[k].real(), static_cast<double>(full[idx[k]].real()));
        EXPECT_EQ(amps[k].imag(), static_cast<double>(full[idx[k]].imag()));
      }
    }
    EXPECT_THROW(sim.amplitudes({pow2(n)}), Error);
  });
}

// An expired deadline must abort every rank at the same collective
// checkpoint — a lone local throw would leave partners blocked in recv.
TEST(SimulatorDist, DeadlineAbortsAllRanksTogether) {
  const unsigned n = 8;
  const Circuit c = random_circuit(n, 6, 2);
  run_spmd(4, [&](Comm& comm) {
    ThreadPool pool(1);
    SimulatorDist<float> sim(comm, n, pool);
    try {
      sim.run(c, 1, nullptr, Deadline::after(0));
      ADD_FAILURE() << "rank " << comm.rank() << ": deadline did not fire";
    } catch (const CodedError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    }
  });
}

TEST(SimulatorDist, Validation) {
  run_spmd(2, [](Comm& comm) {
    ThreadPool pool(1);
    EXPECT_THROW(SimulatorDist<float>(comm, 1, pool), Error);
    SimulatorDist<float> sim(comm, 6, pool);
    Gate wide;
    wide.name = "fused";
    for (qubit_t q = 0; q < 6; ++q) wide.qubits.push_back(q);
    wide.matrix = CMatrix::identity(64);
    EXPECT_THROW(sim.apply_gate(wide), Error);
  });
}

}  // namespace
}  // namespace qhip::dist
