#include "src/simulator/simulator_cpu.h"

#include <gtest/gtest.h>

#include <numbers>

#include "src/base/rng.h"
#include "src/core/gates.h"
#include "src/fusion/fuser.h"
#include "src/simulator/reference.h"

namespace qhip {
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
class SimulatorCPUTyped : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(SimulatorCPUTyped, Precisions);

TYPED_TEST(SimulatorCPUTyped, BellState) {
  SimulatorCPU<TypeParam> sim;
  StateVector<TypeParam> s(2);
  sim.apply_gate(gates::h(0, 0), s);
  sim.apply_gate(gates::cnot(1, 0, 1), s);
  const double r = 1 / std::numbers::sqrt2;
  EXPECT_NEAR(s[0].real(), r, 1e-6);
  EXPECT_NEAR(s[3].real(), r, 1e-6);
  EXPECT_NEAR(std::abs(s[1]), 0, 1e-6);
  EXPECT_NEAR(std::abs(s[2]), 0, 1e-6);
}

TYPED_TEST(SimulatorCPUTyped, GhzState) {
  const unsigned n = 8;
  SimulatorCPU<TypeParam> sim;
  StateVector<TypeParam> s(n);
  sim.apply_gate(gates::h(0, 0), s);
  for (unsigned q = 1; q < n; ++q) {
    sim.apply_gate(gates::cnot(q, q - 1, q), s);
  }
  const double r = 1 / std::numbers::sqrt2;
  EXPECT_NEAR(s[0].real(), r, 1e-5);
  EXPECT_NEAR(s[s.size() - 1].real(), r, 1e-5);
  EXPECT_NEAR(statespace::norm2(s), 1.0, 1e-5);
}

TYPED_TEST(SimulatorCPUTyped, MatchesReferenceOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Circuit c = random_circuit(7, 8, seed);
    SimulatorCPU<TypeParam> sim;
    StateVector<TypeParam> fast(7), slow(7);
    for (const auto& g : c.gates) sim.apply_gate(g, fast);
    reference_run(c, slow);
    EXPECT_LT(statespace::max_abs_diff(fast, slow), state_tol<TypeParam>()) << seed;
  }
}

TYPED_TEST(SimulatorCPUTyped, WideFusedGatesMatchReference) {
  // Exercise the q = 3..6 dispatch paths with random unitaries built by
  // fusing random product circuits.
  Xoshiro256 rng(77);
  for (unsigned q = 3; q <= 6; ++q) {
    Circuit small = random_circuit(q, 6, 100 + q);
    const CMatrix u = circuit_unitary(small);
    Gate g;
    g.name = "fused";
    g.time = 0;
    for (unsigned j = 0; j < q; ++j) g.qubits.push_back(j + 1);  // offset 1
    g.matrix = u;

    StateVector<TypeParam> fast(q + 2), slow(q + 2);
    // Seed a non-trivial input state.
    SimulatorCPU<TypeParam> sim;
    sim.apply_gate(gates::h(0, 0), fast);
    sim.apply_gate(gates::h(0, q + 1), fast);
    reference_apply_gate(gates::h(0, 0), slow);
    reference_apply_gate(gates::h(0, q + 1), slow);

    sim.apply_gate(g, fast);
    reference_apply_gate(g, slow);
    EXPECT_LT(statespace::max_abs_diff(fast, slow), state_tol<TypeParam>()) << q;
  }
}

TYPED_TEST(SimulatorCPUTyped, ThreadCountInvariance) {
  const Circuit c = random_circuit(9, 10, 3);
  StateVector<TypeParam> s1(9), s4(9);
  ThreadPool p1(1), p4(4);
  SimulatorCPU<TypeParam> sim1(p1), sim4(p4);
  for (const auto& g : c.gates) sim1.apply_gate(g, s1);
  for (const auto& g : c.gates) sim4.apply_gate(g, s4);
  EXPECT_LT(statespace::max_abs_diff(s1, s4), 1e-7);
}

TYPED_TEST(SimulatorCPUTyped, ControlledGateMatchesExpanded) {
  StateVector<TypeParam> a(4), b(4);
  SimulatorCPU<TypeParam> sim;
  for (unsigned q = 0; q < 4; ++q) sim.apply_gate(gates::h(0, q), a);
  for (unsigned q = 0; q < 4; ++q) sim.apply_gate(gates::h(0, q), b);
  const Gate cg = gates::controlled(gates::ry(1, 3, 0.9), {0, 2});
  sim.apply_gate(cg, a);
  sim.apply_gate(expand_controls(cg), b);
  EXPECT_LT(statespace::max_abs_diff(a, b), state_tol<TypeParam>());
}

TYPED_TEST(SimulatorCPUTyped, RunWithMeasurement) {
  Circuit c;
  c.num_qubits = 2;
  c.gates.push_back(gates::h(0, 0));
  c.gates.push_back(gates::cnot(1, 0, 1));
  c.gates.push_back(gates::measure(2, {0, 1}));
  SimulatorCPU<TypeParam> sim;
  StateVector<TypeParam> s(2);
  std::vector<index_t> meas;
  sim.run(c, s, 17, &meas);
  ASSERT_EQ(meas.size(), 1u);
  // Bell state measures 00 or 11.
  EXPECT_TRUE(meas[0] == 0b00 || meas[0] == 0b11) << meas[0];
  EXPECT_NEAR(statespace::norm2(s), 1.0, 1e-5);
}

TYPED_TEST(SimulatorCPUTyped, NormPreservedOverDeepCircuit) {
  const Circuit c = random_circuit(10, 20, 5);
  SimulatorCPU<TypeParam> sim;
  StateVector<TypeParam> s(10);
  for (const auto& g : c.gates) sim.apply_gate(g, s);
  const double norm_tol = std::is_same_v<TypeParam, float> ? 1e-4 : 1e-11;
  EXPECT_NEAR(statespace::norm2(s), 1.0, norm_tol);
}

TYPED_TEST(SimulatorCPUTyped, RunnerFusedMatchesUnfused) {
  const Circuit c = random_circuit(8, 10, 21);
  StateVector<TypeParam> unfused(8);
  SimulatorCPU<TypeParam> sim;
  for (const auto& g : c.gates) sim.apply_gate(g, unfused);

  for (unsigned f : {2u, 3u, 4u, 5u}) {
    StateVector<TypeParam> fused(8);
    const FusionResult r = fuse_circuit(c, {f});
    sim.run(r.circuit, fused);
    EXPECT_LT(statespace::max_abs_diff(unfused, fused),
              10 * state_tol<TypeParam>())
        << f;
    EXPECT_LE(r.stats.output_gates, c.size());
  }
}

TYPED_TEST(SimulatorCPUTyped, RunnerSamples) {
  Circuit c;
  c.num_qubits = 3;
  c.gates.push_back(gates::x(0, 0));
  c.gates.push_back(gates::x(1, 2));
  SimulatorCPU<TypeParam> sim;
  StateVector<TypeParam> s(3);
  sim.run(fuse_circuit(c, {}).circuit, s);
  const std::vector<index_t> samples = statespace::sample(s, 50, 1);
  ASSERT_EQ(samples.size(), 50u);
  for (index_t v : samples) EXPECT_EQ(v, 0b101u);
}

TEST(SimulatorCPU, ApplyRejectsUnsortedDirectCall) {
  // apply_gate_inplace requires normalized gates; SimulatorCPU::apply_gate
  // normalizes internally, so this checks the low-level contract.
  StateVector<float> s(3);
  Gate g = gates::cnot(0, 2, 0);  // unsorted qubits {2, 0}
  EXPECT_THROW(apply_gate_inplace(g, s, ThreadPool::shared()), Error);
}

}  // namespace
}  // namespace qhip
