// Shared gate-application core for host backends.
//
// Applying a q-qubit unitary to an n-qubit state partitions the 2^n
// amplitudes into 2^{n-q} independent groups of 2^q (Figure 4 of the
// paper): group `o` lives at indices expand_bits(o) | scatter_mask(k).
// Each group update is a dense 2^q x 2^q matrix-vector product — the
// "small matrix-vector multiplication with low arithmetic intensity" the
// paper identifies as the computational building block.
//
// Two kernels implement it (src/simulator/apply.cpp): an AVX2/FMA kernel,
// the ancestor of the GPU H/L kernels (paper §2.3), and a portable scalar
// kernel. Each process picks one once, from the CPU it runs on, and every
// host backend — SimulatorCPU, SimulatorDist's rank-local applies and the
// trajectory runner — goes through it.
#pragma once

#include <algorithm>
#include <vector>

#include "src/base/error.h"
#include "src/base/threadpool.h"
#include "src/core/gate.h"
#include "src/statespace/statevector.h"

namespace qhip {
namespace detail {

// Converts the double-precision gate matrix to the simulation precision.
template <typename FP>
std::vector<cplx<FP>> matrix_as(const CMatrix& m) {
  std::vector<cplx<FP>> out(m.data().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = cplx<FP>(static_cast<FP>(m.data()[i].real()),
                      static_cast<FP>(m.data()[i].imag()));
  }
  return out;
}

}  // namespace detail

// The host apply kernels.
//   kScalar   std::complex multiply-add per amplitude; runs anywhere.
//   kAvx2Fma  256-bit lanes, complex products as fmaddsub (needs AVX2+FMA).
// The two round differently, so a process must use one for every backend:
// apply_gate_routed_inplace always runs host_kernel().
enum class HostKernel { kScalar, kAvx2Fma };

// The kernel this process dispatches to: kAvx2Fma when the CPU supports
// AVX2 and FMA, else kScalar. Decided once, on first use.
HostKernel host_kernel();

// "avx2+fma" or "scalar" — the label backends report.
const char* host_kernel_name(HostKernel k = host_kernel());

// Applies a (normalized, uncontrolled) unitary gate with its j-th target
// routed to bit position `slots[j]` of the state index, with kernel `k`
// (kAvx2Fma throws on a CPU without AVX2/FMA). The slots may be in any
// relative order: the matrix stays in the gate's own target basis and only
// the amplitude addressing is permuted. Each output amplitude accumulates
// its row over the matrix columns in the gate's target order with the same
// per-lane arithmetic whichever slots the targets land on — so the result,
// bit for bit, is identical for every routing. The distributed simulator
// relies on this to apply logically-normalized gates onto its permuted
// physical slot layout and still match the single-node backends exactly.
// Instantiated for float and double in apply.cpp.
template <typename FP>
void apply_gate_routed_with(HostKernel k, const Gate& g,
                            const std::vector<qubit_t>& slots,
                            StateVector<FP>& state, ThreadPool& pool);

// apply_gate_routed_with on this process's kernel.
template <typename FP>
void apply_gate_routed_inplace(const Gate& g, const std::vector<qubit_t>& slots,
                               StateVector<FP>& state, ThreadPool& pool) {
  apply_gate_routed_with(host_kernel(), g, slots, state, pool);
}

// Applies a (normalized, uncontrolled) unitary gate to `state`, splitting the
// outer groups across `pool`.
template <typename FP>
void apply_gate_inplace(const Gate& g, StateVector<FP>& state, ThreadPool& pool) {
  check(std::is_sorted(g.qubits.begin(), g.qubits.end()),
        "apply_gate_inplace: gate must be normalized (sorted qubits)");
  apply_gate_routed_inplace(g, g.qubits, state, pool);
}

}  // namespace qhip
