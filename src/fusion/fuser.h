// Gate fusion transpiler (qsim BasicGateFuser equivalent).
//
// Fusion combines adjacent gates into larger unitaries before simulation:
// gates acting on the same qubit compose by matrix product, gates acting in
// parallel on different qubits compose by tensor product (paper Figure 5).
// The single knob is the maximum number of qubits a fused gate may span —
// the x-axis of the paper's Figures 7-9 ("maximum number of fused gates").
//
// Algorithm: greedy time-ordered clustering. Open fusion blocks have
// pairwise-disjoint qubit sets. Each incoming gate either merges into the
// union of the blocks it touches (when the union stays within the limit) or
// closes those blocks and starts a new one. Closed blocks are emitted in
// close order, which preserves program order per qubit; measurements act as
// barriers on their qubits. The fused matrix is accumulated left-to-right
// with CMatrix::compose_on_qubits, so the expanded sparse matrix of
// Figure 4 is never materialized.
#pragma once

#include <cstdint>
#include <map>

#include "src/core/circuit.h"

namespace qhip {

struct FusionOptions {
  // Maximum qubits per fused gate; 1 disables multi-qubit fusion entirely
  // (every gate is still normalized). Paper sweeps 2..6, optimum 4.
  unsigned max_fused_qubits = 2;

  // Moments a fusion block may stay open after its last absorbed gate.
  // qsim's BasicGateFuser grows clusters along a bounded temporal frontier
  // rather than globally; this window reproduces that behaviour (a global
  // clusterer would collapse a deep circuit into a handful of maximal-width
  // gates, which real fusers do not do). 0 = unlimited.
  unsigned window_moments = 4;

  // Both fields are words of the fused-circuit cache key in src/engine,
  // beside the circuit's identity bytes: two fuse_circuit calls with equal
  // inputs and equal options are interchangeable.
};

struct FusionStats {
  std::size_t input_gates = 0;
  std::size_t output_gates = 0;
  // Histogram: fused gate qubit count -> number of fused gates emitted.
  std::map<unsigned, std::size_t> width_histogram;
  double seconds = 0;  // transpile wall time (paper: < 2% of total)

  double mean_width() const;
};

struct FusionResult {
  Circuit circuit;  // fused circuit; gate times renumbered sequentially
  FusionStats stats;
};

// Fuses `in` under `opt`. Controlled gates are folded into plain unitaries
// first (expand_controls); measurement gates pass through as barriers.
// The result satisfies: circuit_unitary(out) == circuit_unitary(in) up to
// floating-point error (property-tested).
FusionResult fuse_circuit(const Circuit& in, const FusionOptions& opt);

}  // namespace qhip
