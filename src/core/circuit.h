// Circuit IR: an ordered list of gates over a fixed qubit count.
//
// Gates carry a `time` (moment) index; the invariant, checked by validate(),
// is that times are non-decreasing in program order and gates sharing a
// moment act on disjoint qubits — the same contract qsim's circuit reader
// enforces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/gate.h"

namespace qhip {

struct Circuit {
  unsigned num_qubits = 0;
  std::vector<Gate> gates;

  std::size_t size() const { return gates.size(); }

  // Highest moment index + 1 (0 for an empty circuit).
  unsigned depth() const;

  // Gate count per mnemonic, for reports.
  std::map<std::string, std::size_t> histogram() const;

  // Number of measurement gates.
  std::size_t num_measurements() const;

  // Throws qhip::Error if any gate references a qubit >= num_qubits, repeats
  // a qubit, has times out of order, or overlaps another gate in its moment.
  void validate() const;
};

// Appends `v`'s 8 bytes to `out`: the unit of every canonical identity
// encoding (the circuit bytes below and the engine's request summary).
inline void append_word(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Appends the canonical identity bytes of `c` to `out`: the qubit count, the
// gate count and, per gate, its kind, length-prefixed mnemonic, moment,
// count-prefixed targets, controls and parameters (bit-exact), the matrix
// dimension and the raw matrix entries. Two circuits append equal bytes iff
// they are structurally identical, bit for bit. Every engine cache keys on
// these bytes (src/engine), so a lookup compares the full identity.
void append_circuit_identity(std::string& out, const Circuit& c);

// Total unitary of a (measurement-free) circuit as a dense 2^n x 2^n matrix.
// Exponential in n — intended for tests with n <= 10.
CMatrix circuit_unitary(const Circuit& c);

// The inverse circuit: gates reversed, each matrix replaced by its adjoint
// (controls preserved). Running c then inverse_circuit(c) is the identity —
// the Loschmidt echo construction. Throws on measurement gates.
Circuit inverse_circuit(const Circuit& c);

// `a` followed by `b` (times renumbered so moments stay monotone).
Circuit concatenate(const Circuit& a, const Circuit& b);

// The gate-for-gate normal form of `c`: controls folded into plain unitaries
// and every unitary normalized (sorted targets, matrix bits permuted to
// match); measurement gates pass through untouched. Unlike fusion — which
// composes even same-qubit neighbours at max_fused_qubits = 1 — this keeps
// the gate boundaries intact, so per-gate instrumentation points (the
// trajectory runner's noise-channel applications) land exactly where they
// would on the raw circuit. Pure and deterministic: preparing once and
// sharing the result across trajectory sub-runs is bit-identical to
// normalizing per gate per run.
Circuit normalize_circuit(const Circuit& c);

}  // namespace qhip
