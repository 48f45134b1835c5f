// The host apply kernels (src/simulator/apply.cpp), each called directly.
//
// HostKernel*: the AVX2/FMA kernel must equal, bit for bit, a scalar oracle
// doing its per-lane arithmetic with std::fma — for every width 1..6, every
// slot placement (the L path's slots 0/1 included) and unsorted slot orders.
// Its H and L paths cannot then disagree in a single bit, which is what
// keeps cpu and dist:N (the same gate routed to different slots) bit
// identical. The scalar fallback is checked against the reference
// simulator to tolerance.
//
// SimulatorAVXTyped: the AVX2 kernel against the reference and the scalar
// kernel on whole gates and circuits.
#include "src/simulator/apply.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "src/base/rng.h"
#include "src/core/gates.h"
#include "src/fusion/fuser.h"
#include "src/rqc/rqc.h"
#include "src/simulator/reference.h"

namespace qhip {
namespace {

bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#define SKIP_WITHOUT_AVX2() \
  if (!cpu_has_avx2_fma()) GTEST_SKIP() << "CPU lacks AVX2/FMA"

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

// A dense gate with arbitrary (not unitary) complex entries: every bit of
// the arithmetic shows, nothing cancels to round numbers.
Gate dense_gate(unsigned q, Xoshiro256& rng) {
  Gate g;
  g.name = "dense";
  for (unsigned j = 0; j < q; ++j) g.qubits.push_back(j);
  g.matrix = CMatrix(std::size_t{1} << q);
  for (cplx64& v : g.matrix.data()) {
    v = {rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
  }
  return g;
}

template <typename FP>
StateVector<FP> random_state(unsigned n, Xoshiro256& rng) {
  StateVector<FP> s(n);
  for (index_t i = 0; i < s.size(); ++i) {
    s[i] = {static_cast<FP>(rng.uniform() * 2 - 1),
            static_cast<FP>(rng.uniform() * 2 - 1)};
  }
  return s;
}

// The AVX2 kernel's arithmetic, one amplitude at a time: output i sums its
// row over the columns in the gate's target order, each product as
// re = fma(a.re, b.re, -a.im*b.im), im = fma(a.im, b.re, a.re*b.im).
template <typename FP>
void fma_oracle(const Gate& g, const std::vector<qubit_t>& slots,
                StateVector<FP>& s) {
  const std::size_t d = std::size_t{1} << slots.size();
  const std::vector<cplx<FP>> in(s.data(), s.data() + s.size());
  index_t mask = 0;
  for (qubit_t t : slots) mask |= pow2(t);
  for (index_t i = 0; i < s.size(); ++i) {
    const index_t r = gather_bits(i, slots);
    FP re = 0, im = 0;
    for (std::size_t c = 0; c < d; ++c) {
      const cplx<FP> a = in[(i & ~mask) | scatter_bits(c, slots)];
      const cplx64 m = g.matrix.at(r, c);
      const FP bre = static_cast<FP>(m.real()), bim = static_cast<FP>(m.imag());
      re += std::fma(a.real(), bre, -(a.imag() * bim));
      im += std::fma(a.imag(), bre, a.real() * bim);
    }
    s[i] = {re, im};
  }
}

// Every q-subset of n slots, each in ascending order and in one shuffled
// order (plus every order of each subset when q <= 3).
std::vector<std::vector<qubit_t>> slot_placements(unsigned n, unsigned q,
                                                  Xoshiro256& rng) {
  std::vector<std::vector<qubit_t>> out;
  for (index_t set = 0; set < pow2(n); ++set) {
    if (static_cast<unsigned>(std::popcount(set)) != q) continue;
    std::vector<qubit_t> slots;
    for (qubit_t b = 0; b < n; ++b) {
      if (set & pow2(b)) slots.push_back(b);
    }
    if (q <= 3) {
      do {
        out.push_back(slots);
      } while (std::next_permutation(slots.begin(), slots.end()));
      continue;
    }
    out.push_back(slots);
    for (std::size_t i = slots.size(); i > 1; --i) {
      std::swap(slots[i - 1], slots[static_cast<std::size_t>(rng.uniform() * i)]);
    }
    out.push_back(slots);
  }
  return out;
}

template <typename T>
class HostKernelTyped : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(HostKernelTyped, Precisions);

TYPED_TEST(HostKernelTyped, Avx2MatchesFmaOracleBitForBit) {
  SKIP_WITHOUT_AVX2();
  Xoshiro256 rng(11);
  ThreadPool pool(2);
  const unsigned n = 8;
  for (unsigned q = 1; q <= 6; ++q) {
    const Gate g = dense_gate(q, rng);
    for (const std::vector<qubit_t>& slots : slot_placements(n, q, rng)) {
      StateVector<TypeParam> got = random_state<TypeParam>(n, rng);
      StateVector<TypeParam> want = got;
      apply_gate_routed_with(HostKernel::kAvx2Fma, g, slots, got, pool);
      fma_oracle(g, slots, want);
      std::string where = "q=" + std::to_string(q) + " slots=";
      for (qubit_t t : slots) where += std::to_string(t) + ",";
      EXPECT_EQ(statespace::max_abs_diff(got, want), 0.0) << where;
    }
  }
}

TYPED_TEST(HostKernelTyped, Avx2MatchesFmaOracleOnStatesSmallerThanARegister) {
  SKIP_WITHOUT_AVX2();
  Xoshiro256 rng(12);
  ThreadPool pool(1);
  for (unsigned n = 1; n <= 3; ++n) {
    for (unsigned q = 1; q <= n; ++q) {
      const Gate g = dense_gate(q, rng);
      for (const std::vector<qubit_t>& slots : slot_placements(n, q, rng)) {
        StateVector<TypeParam> got = random_state<TypeParam>(n, rng);
        StateVector<TypeParam> want = got;
        apply_gate_routed_with(HostKernel::kAvx2Fma, g, slots, got, pool);
        fma_oracle(g, slots, want);
        EXPECT_EQ(statespace::max_abs_diff(got, want), 0.0)
            << "n=" << n << " q=" << q;
      }
    }
  }
}

TYPED_TEST(HostKernelTyped, Avx2HandlesGatesWiderThanSix) {
  SKIP_WITHOUT_AVX2();
  Xoshiro256 rng(13);
  ThreadPool pool(2);
  const unsigned n = 9;
  const Gate g = dense_gate(7, rng);
  for (const std::vector<qubit_t>& slots :
       {std::vector<qubit_t>{2, 3, 4, 5, 6, 7, 8},
        std::vector<qubit_t>{8, 0, 5, 1, 3, 6, 2}}) {
    StateVector<TypeParam> got = random_state<TypeParam>(n, rng);
    StateVector<TypeParam> want = got;
    apply_gate_routed_with(HostKernel::kAvx2Fma, g, slots, got, pool);
    fma_oracle(g, slots, want);
    EXPECT_EQ(statespace::max_abs_diff(got, want), 0.0);
  }
}

TYPED_TEST(HostKernelTyped, ScalarMatchesReference) {
  Xoshiro256 rng(14);
  ThreadPool pool(2);
  const unsigned n = 8;
  for (unsigned q = 1; q <= 6; ++q) {
    Circuit small = random_circuit(q, 6, 60 + q);
    Gate g;
    g.name = "fused";
    g.matrix = circuit_unitary(small);
    for (const std::vector<qubit_t>& slots : slot_placements(n, q, rng)) {
      g.qubits = slots;
      StateVector<TypeParam> got = random_state<TypeParam>(n, rng);
      StateVector<TypeParam> want = got;
      apply_gate_routed_with(HostKernel::kScalar, g, slots, got, pool);
      reference_apply_gate(g, want);
      EXPECT_LT(statespace::max_abs_diff(got, want), 4 * state_tol<TypeParam>())
          << "q=" << q;
    }
  }
}

TEST(HostKernel, DispatchFollowsCpuSupport) {
  EXPECT_EQ(host_kernel() == HostKernel::kAvx2Fma, cpu_has_avx2_fma());
  EXPECT_STREQ(host_kernel_name(), cpu_has_avx2_fma() ? "avx2+fma" : "scalar");
  if (!cpu_has_avx2_fma()) {
    StateVector<float> s(4);
    ThreadPool pool(1);
    EXPECT_THROW(apply_gate_routed_with(HostKernel::kAvx2Fma, gates::h(0, 2),
                                        {2}, s, pool),
                 Error);
  }
}

// --- the AVX2 kernel on whole gates and circuits ------------------------------

template <typename FP>
void avx2_apply(const Gate& gate, StateVector<FP>& s, ThreadPool& pool) {
  const Gate g = normalized(gate.controls.empty() ? gate : expand_controls(gate));
  apply_gate_routed_with(HostKernel::kAvx2Fma, g, g.qubits, s, pool);
}

template <typename FP>
void run_with(HostKernel k, const Circuit& c, StateVector<FP>& s,
              ThreadPool& pool) {
  for (const Gate& gate : c.gates) {
    const Gate g = normalized(gate.controls.empty() ? gate : expand_controls(gate));
    apply_gate_routed_with(k, g, g.qubits, s, pool);
  }
}

template <typename T>
class SimulatorAVXTyped : public ::testing::Test {};
TYPED_TEST_SUITE(SimulatorAVXTyped, Precisions);

TYPED_TEST(SimulatorAVXTyped, SingleQubitGateEveryTarget) {
  SKIP_WITHOUT_AVX2();
  const unsigned n = 10;
  ThreadPool pool(1);
  for (qubit_t t = 0; t < n; ++t) {
    StateVector<TypeParam> a(n), b(n);
    a.set_uniform_state();
    b.set_uniform_state();
    const Gate g = gates::rxy(0, t, 0.4, 1.3);
    avx2_apply(g, a, pool);
    reference_apply_gate(g, b);
    EXPECT_LT(statespace::max_abs_diff(a, b), state_tol<TypeParam>()) << t;
  }
}

TYPED_TEST(SimulatorAVXTyped, WideGatesEveryWidth) {
  SKIP_WITHOUT_AVX2();
  ThreadPool pool(2);
  for (unsigned q = 2; q <= 6; ++q) {
    const unsigned n = q + 4;
    // Random unitary over qubits starting at slot 3 (H path) and at slot 0
    // (L path).
    for (qubit_t start : {qubit_t{3}, qubit_t{0}}) {
      if (start + q > n) continue;
      Circuit small = random_circuit(q, 6, 40 + q);
      Gate g;
      g.name = "fused";
      for (unsigned j = 0; j < q; ++j) g.qubits.push_back(start + j);
      g.matrix = circuit_unitary(small);

      StateVector<TypeParam> a(n), b(n);
      a.set_uniform_state();
      b.set_uniform_state();
      avx2_apply(g, a, pool);
      reference_apply_gate(g, b);
      EXPECT_LT(statespace::max_abs_diff(a, b), 2 * state_tol<TypeParam>())
          << "q=" << q << " start=" << start;
    }
  }
}

TYPED_TEST(SimulatorAVXTyped, FusedRandomCircuits) {
  SKIP_WITHOUT_AVX2();
  ThreadPool pool(2);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const unsigned n = 10;
    const Circuit fused =
        fuse_circuit(random_circuit(n, 10, seed), {4}).circuit;
    StateVector<TypeParam> a(n), b(n);
    run_with(HostKernel::kAvx2Fma, fused, a, pool);
    reference_run(fused, b);
    EXPECT_LT(statespace::max_abs_diff(a, b), 4 * state_tol<TypeParam>()) << seed;
  }
}

TYPED_TEST(SimulatorAVXTyped, TinyStatesFallBack) {
  // States smaller than a register must still be exact.
  SKIP_WITHOUT_AVX2();
  ThreadPool pool(1);
  for (unsigned n = 1; n <= 4; ++n) {
    StateVector<TypeParam> a(n), b(n);
    const Gate g = gates::h(0, n - 1);
    avx2_apply(g, a, pool);
    reference_apply_gate(g, b);
    EXPECT_LT(statespace::max_abs_diff(a, b), state_tol<TypeParam>()) << n;
  }
}

TYPED_TEST(SimulatorAVXTyped, RqcEndToEndMatchesScalarBackend) {
  SKIP_WITHOUT_AVX2();
  rqc::RqcOptions opt;
  opt.rows = 3;
  opt.cols = 4;
  opt.depth = 10;
  const Circuit fused = fuse_circuit(rqc::generate_rqc(opt), {4}).circuit;
  ThreadPool pool(2);
  StateVector<TypeParam> a(12), b(12);
  run_with(HostKernel::kAvx2Fma, fused, a, pool);
  run_with(HostKernel::kScalar, fused, b, pool);
  EXPECT_LT(statespace::max_abs_diff(a, b), 4 * state_tol<TypeParam>());
}

}  // namespace
}  // namespace qhip
