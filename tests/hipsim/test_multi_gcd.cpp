// Multi-GCD backend correctness: the distributed simulator must agree with
// the single-device reference for any circuit, including gates on global
// (distributed) qubits, across 2 and 4 GCDs and both precisions.
#include "src/hipsim/multi_gcd.h"

#include <gtest/gtest.h>

#include <numbers>
#include <set>

#include "src/base/rng.h"
#include "src/core/gates.h"
#include "src/dist/simulator_dist.h"
#include "src/fusion/fuser.h"
#include "src/rqc/rqc.h"
#include "src/simulator/reference.h"

namespace qhip::hipsim {
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

template <typename T>
class MultiGcdTyped : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(MultiGcdTyped, Precisions);

TYPED_TEST(MultiGcdTyped, ZeroStateAndNorm) {
  MultiGcdSimulator<TypeParam> sim(8, 2);
  EXPECT_NEAR(sim.norm2(), 1.0, 1e-6);
  const StateVector<TypeParam> h = sim.to_host();
  EXPECT_EQ(h[0], (cplx<TypeParam>{1}));
  for (index_t i = 1; i < h.size(); ++i) EXPECT_EQ(h[i], (cplx<TypeParam>{}));
}

TYPED_TEST(MultiGcdTyped, LocalGateMatchesReference) {
  MultiGcdSimulator<TypeParam> sim(8, 2);
  StateVector<TypeParam> ref(8);
  const Gate g = gates::h(0, 3);  // local on every GCD
  sim.apply_gate(g);
  reference_apply_gate(g, ref);
  EXPECT_LT(statespace::max_abs_diff(sim.to_host(), ref), state_tol<TypeParam>());
  EXPECT_EQ(sim.stats().slot_swaps, 0u);
}

TYPED_TEST(MultiGcdTyped, GlobalGateTriggersSwapAndMatches) {
  const unsigned n = 8;
  MultiGcdSimulator<TypeParam> sim(n, 2);
  StateVector<TypeParam> ref(n);
  // Qubit 7 is the global (distributed) qubit with 2 GCDs.
  const Gate h7 = gates::h(0, n - 1);
  sim.apply_gate(h7);
  reference_apply_gate(h7, ref);
  EXPECT_LT(statespace::max_abs_diff(sim.to_host(), ref), state_tol<TypeParam>());
  EXPECT_GE(sim.stats().slot_swaps, 1u);
  EXPECT_GT(sim.stats().peer_bytes, 0u);
}

TYPED_TEST(MultiGcdTyped, GhzAcrossTheSplit) {
  const unsigned n = 9;
  MultiGcdSimulator<TypeParam> sim(n, 4);  // 2 global qubits
  sim.apply_gate(gates::h(0, 0));
  for (unsigned q = 1; q < n; ++q) sim.apply_gate(gates::cnot(q, q - 1, q));
  const StateVector<TypeParam> h = sim.to_host();
  const double r = 1 / std::numbers::sqrt2;
  EXPECT_NEAR(h[0].real(), r, 1e-5);
  EXPECT_NEAR(h[h.size() - 1].real(), r, 1e-5);
  EXPECT_NEAR(statespace::norm2(h), 1.0, 1e-5);
}

TYPED_TEST(MultiGcdTyped, RandomCircuitsMatchReference) {
  for (unsigned gcds : {2u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const unsigned n = 8;
      const Circuit c = random_circuit(n, 8, seed);
      MultiGcdSimulator<TypeParam> sim(n, gcds);
      sim.run(c);
      StateVector<TypeParam> ref(n);
      reference_run(c, ref);
      EXPECT_LT(statespace::max_abs_diff(sim.to_host(), ref),
                4 * state_tol<TypeParam>())
          << gcds << " gcds, seed " << seed;
    }
  }
}

TYPED_TEST(MultiGcdTyped, FusedRqcMatchesSingleDevice) {
  const unsigned n = 10;
  rqc::RqcOptions opt;
  opt.rows = 2;
  opt.cols = 5;
  opt.depth = 8;
  const Circuit fused = fuse_circuit(rqc::generate_rqc(opt), {4}).circuit;

  MultiGcdSimulator<TypeParam> multi(n, 2);
  multi.run(fused);

  vgpu::Device dev{vgpu::mi250x_gcd()};
  SimulatorHIP<TypeParam> single(dev);
  DeviceStateVector<TypeParam> ds(dev, n);
  single.state_space().set_zero_state(ds);
  single.run(fused, ds);

  EXPECT_LT(statespace::max_abs_diff(multi.to_host(), ds.to_host()),
            4 * state_tol<TypeParam>());
}

TYPED_TEST(MultiGcdTyped, SamplingMatchesDistribution) {
  // Bell pair across the GCD boundary: samples only 0...0 and 1...1.
  const unsigned n = 7;
  MultiGcdSimulator<TypeParam> sim(n, 2);
  sim.apply_gate(gates::h(0, 0));
  sim.apply_gate(gates::cnot(1, 0, n - 1));
  const auto samples = sim.sample(400, 9);
  ASSERT_EQ(samples.size(), 400u);
  const index_t both = 1 | (index_t{1} << (n - 1));
  std::size_t ones = 0;
  for (index_t s : samples) {
    EXPECT_TRUE(s == 0 || s == both) << s;
    ones += s == both ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / 400.0, 0.5, 0.15);
}

TYPED_TEST(MultiGcdTyped, MeasureCollapsesGlobalQubit) {
  const unsigned n = 7;
  MultiGcdSimulator<TypeParam> sim(n, 2);
  sim.apply_gate(gates::h(0, 0));
  sim.apply_gate(gates::cnot(1, 0, n - 1));  // entangle across the split
  const index_t outcome = sim.measure({n - 1}, 5);
  ASSERT_LE(outcome, 1u);
  const StateVector<TypeParam> h = sim.to_host();
  EXPECT_NEAR(statespace::norm2(h), 1.0, 1e-5);
  // Qubit 0 must have collapsed to the same value.
  EXPECT_NEAR(statespace::probability(h, {0, n - 1},
                                      outcome | (outcome << 1)),
              1.0, 1e-5);
}

TYPED_TEST(MultiGcdTyped, LayoutRestoredSemanticsToHost) {
  // After many swaps, to_host() must still give logical ordering: apply X
  // to each qubit in turn and verify the basis index.
  const unsigned n = 7;
  MultiGcdSimulator<TypeParam> sim(n, 2);
  for (qubit_t q = 0; q < n; ++q) {
    sim.apply_gate(gates::x(q, q));
    const StateVector<TypeParam> h = sim.to_host();
    const index_t want = low_mask(q + 1);
    EXPECT_NEAR(std::abs(h[want]), 1.0, 1e-5) << q;
  }
}

TYPED_TEST(MultiGcdTyped, SampleAfterCollapseStaysConsistent) {
  // Regression: measure() collapses the state, leaving the unchosen GCD
  // with zero mass. sample()'s rounding tail used to draw from the *last*
  // GCD unconditionally, so post-collapse samples could report outcomes
  // with zero probability.
  const unsigned n = 7;
  MultiGcdSimulator<TypeParam> sim(n, 2);
  sim.apply_gate(gates::h(0, 0));
  sim.apply_gate(gates::cnot(1, 0, n - 1));
  const index_t outcome = sim.measure({n - 1}, 5);
  const index_t want = outcome | (outcome << (n - 1));
  const auto samples = sim.sample(64, 11);
  ASSERT_EQ(samples.size(), 64u);
  for (const index_t s : samples) EXPECT_EQ(s, want);
}

TYPED_TEST(MultiGcdTyped, SampleTailAvoidsZeroMassGcdAndAdvancesSeed) {
  // Drive the rounding tail directly through resolve_sorted_positions:
  // positions >= 1.0 fall past every cumulative boundary. With qubit n-1
  // left in |0>, GCD 1 holds zero mass, so tail draws must come from GCD 0
  // — and must not all be copies of one draw (the old code reused a frozen
  // seed ^ 0x777 for every tail sample).
  const unsigned n = 7;
  MultiGcdSimulator<TypeParam> sim(n, 2);
  for (qubit_t q = 0; q + 1 < n; ++q) sim.apply_gate(gates::h(q, q));
  std::vector<double> rs = {0.25, 0.5};
  for (int i = 0; i < 16; ++i) rs.push_back(1.0 + i);
  const auto samples = sim.resolve_sorted_positions(rs, 13);
  ASSERT_EQ(samples.size(), rs.size());
  std::set<index_t> tail;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i] >> (n - 1), 0u) << "sample " << i << " in empty GCD";
    if (i >= 2) tail.insert(samples[i]);
  }
  // 16 draws from a uniform 64-state distribution: a frozen seed yields one
  // repeated value; distinct seeds collide all 16 ways with p ~ 1e-28.
  EXPECT_GT(tail.size(), 4u);
}

TEST(MultiGcd, Validation) {
  EXPECT_THROW(MultiGcdSimulator<float>(8, 3), Error);   // not a power of two
  EXPECT_THROW(MultiGcdSimulator<float>(2, 2), Error);   // too few qubits
  MultiGcdSimulator<float> sim(8, 2);
  Gate wide;
  wide.name = "fused";
  for (qubit_t q = 0; q < 8; ++q) wide.qubits.push_back(q);
  wide.matrix = CMatrix::identity(256);
  EXPECT_THROW(sim.apply_gate(wide), Error);  // wider than local count
}

// hip:N and dist:N share one eviction policy, so the same fused circuit
// needs the same number of slot swaps over either transport.
TEST(MultiGcd, SlotSwapsMatchDistBackend) {
  rqc::RqcOptions opt;
  opt.rows = 2;
  opt.cols = 4;
  opt.depth = 8;
  const Circuit circuit = rqc::generate_rqc(opt);
  for (unsigned parts : {2u, 4u}) {
    for (unsigned f : {2u, 4u}) {
      const Circuit fused = fuse_circuit(circuit, {f}).circuit;
      MultiGcdSimulator<float> multi(circuit.num_qubits, parts);
      multi.run(fused);
      EXPECT_GT(multi.stats().slot_swaps, 0u);
      dist::run_spmd(static_cast<int>(parts), [&](dist::Comm& comm) {
        ThreadPool pool(1);
        dist::SimulatorDist<float> sim(comm, circuit.num_qubits, pool);
        sim.run(fused);
        EXPECT_EQ(sim.stats().slot_swaps, multi.stats().slot_swaps)
            << parts << " parts, f=" << f;
      });
    }
  }
}

TEST(MultiGcd, StatsAccumulate) {
  MultiGcdSimulator<float> sim(8, 2);
  sim.apply_gate(gates::h(0, 7));
  sim.apply_gate(gates::h(1, 7));
  const auto& st = sim.stats();
  // Second gate on qubit 7 needs no new swap (still local after the first).
  EXPECT_EQ(st.slot_swaps, 1u);
  EXPECT_GT(st.local_gate_launches, 0u);
}

}  // namespace
}  // namespace qhip::hipsim
