// Runtime backend API: the polymorphic seam between circuits and simulators.
//
// The template simulators (SimulatorCPU<FP>, SimulatorHIP<FP>,
// MultiGcdSimulator<FP>) bind backend and precision at compile time, which
// forced every driver to clone a cpu/hip/multi-gcd dispatch ladder. Backend
// wraps each of them behind one virtual interface selected at runtime from a
// spec string — the same strings the CLIs already use:
//
//   "cpu"     multithreaded host backend
//   "hip"     virtual MI250X GCD (wavefront 64)
//   "a100"    virtual A100 (warp 32)
//   "hip:N"   state distributed over N virtual GCDs (N a power of two >= 2)
//   "dist:N"  state distributed over N thread-ranks on the in-process
//             message-passing communicator (N a power of two >= 2)
//
// The grammar is owned by qhip::BackendSpec (src/core/backend_spec.h); this
// layer only consumes the typed form. "auto" parses as a valid spec but is
// resolved by the engine's cost-model planner, not by create_backend.
//
// A Backend instance is long-lived: it owns its (virtual) device and a
// BufferPool of state vectors keyed by qubit count, so serving many requests
// reuses both the device and the allocations. run() executes an
// already-fused circuit from |0...0> — transpiling is the caller's business
// (the engine caches it; one-shot callers call fuse_circuit first).
//
// Calls to run() on one instance must be serialized by the caller (the
// engine holds a per-instance lock); distinct instances are independent.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/deadline.h"
#include "src/base/types.h"
#include "src/core/backend_spec.h"
#include "src/core/circuit.h"
#include "src/engine/buffer_pool.h"
#include "src/obs/observable.h"
#include "src/prof/trace.h"

namespace qhip {

// What a single run should produce beyond executing the circuit.
struct BackendRunSpec {
  std::uint64_t seed = 1;            // measurement + sampling seed
  std::size_t num_samples = 0;       // Born-rule samples of the final state
  std::vector<index_t> amplitude_indices;  // amplitudes to gather (host order)
  bool want_state = false;           // download the full final state
  // Cooperative cancellation: checked between fused-gate applications; on
  // expiry run() aborts with CodedError(kDeadlineExceeded). Default:
  // inactive (never fires).
  Deadline deadline;
  // Request correlation id (DESIGN.md §11): when non-zero, every kernel and
  // memcpy trace event produced by this run carries the id, and backends
  // record a "sample" span on the request's trace row. 0 = untraced.
  std::uint64_t corr = 0;
  // When non-null, evaluate <psi| P |psi> of every Pauli string in the
  // observable over the final state (DESIGN.md §14). GPU backends run the
  // hipsim::expectation device kernel; host backends use the obs:: path.
  // The pointer must stay valid for the duration of run().
  const obs::Observable* observable = nullptr;
};

struct BackendRunOutput {
  std::vector<index_t> measurements;  // in-circuit 'm' gate outcomes
  std::vector<index_t> samples;
  std::vector<cplx64> amplitudes;     // one per requested index
  std::vector<cplx64> state;          // full state iff want_state
  // Wall-clock spent drawing Born-rule samples (0 when none requested);
  // feeds the engine's per-stage sample-latency histogram.
  double sample_seconds = 0;
  // Backend-specific counters ("slot_swaps", "peer_bytes", ... for hip:N).
  std::map<std::string, double> counters;
  // One entry per Pauli string of BackendRunSpec::observable, in order,
  // coefficients included (empty when no observable was requested).
  std::vector<cplx64> expectations;
};

class Backend {
 public:
  virtual ~Backend() = default;

  // The spec string this backend was created from ("cpu", "hip", "hip:4").
  virtual const std::string& spec() const = 0;
  // Typed form of spec() — the planner's capability/score hook (always a
  // runnable kind; create_backend refuses "auto").
  virtual BackendSpec spec_info() const;
  // Human-readable device description for reports.
  virtual const std::string& description() const = 0;
  virtual Precision precision() const = 0;

  // Largest qubit count a request may use before it must be rejected
  // (bounded by the virtual device's global memory for GPU backends):
  // backend_max_qubits(spec_info(), precision()).
  unsigned max_qubits() const;

  // Runs `fused` from |0...0> and gathers the requested outputs. The circuit
  // must already be transpiled (or be intentionally unfused). Throws
  // qhip::Error on malformed input and qhip::CodedError for device failures
  // (kOutOfMemory, kBackendFault, kDeadlineExceeded) — GPU backends drain
  // and clear their deferred stream errors before rethrowing, so a failed
  // run leaves the device reusable for a retry. Callers serialize calls per
  // instance.
  virtual BackendRunOutput run(const Circuit& fused, const BackendRunSpec& spec) = 0;

  // State-buffer pool counters (hits/misses/bytes parked).
  virtual engine::PoolStats pool_stats() const = 0;
  // Frees pooled state buffers (e.g. under memory pressure).
  virtual void trim_pool() = 0;
};

// True if `spec` parses as a known backend spec, including "auto"
// (convenience wrapper over BackendSpec::try_parse).
bool is_backend_spec(const std::string& spec);

// --- Planner capability hooks (no backend instance required) ----------------

// Largest qubit count a backend created from `spec` would accept — the one
// definition behind Backend::max_qubits(), evaluated from the spec alone so
// the planner can score candidates it has not created yet. Returns 0 for
// Kind::kAuto.
unsigned backend_max_qubits(const BackendSpec& spec, Precision p);

// True if an n-qubit request fits `spec`: n <= backend_max_qubits plus the
// distributed floor (dist:N needs n > log2(N) so every rank holds a slice).
bool backend_fits(const BackendSpec& spec, unsigned num_qubits, Precision p);

// True if a backend created from `spec` can run trajectory (noise) workloads.
// The trajectory runner streams Kraus selections over a host state vector,
// so only the cpu backend qualifies today; "auto" filters its candidate list
// with this (DESIGN.md §14). Returns false for Kind::kAuto itself.
bool backend_supports_noise(const BackendSpec& spec);

// Builds a backend from its typed spec. Throws qhip::Error for
// Kind::kAuto — "auto" is resolved by the engine's planner (DESIGN.md §13),
// never instantiated directly. The tracer, when non-null, must outlive the
// backend; kernel and memcpy events land on it exactly as before.
// `fault_spec`, when non-empty, installs a vgpu::FaultPlan (QHIP_FAULT_SPEC
// grammar; see src/vgpu/fault.h) into the backend's virtual device(s) —
// ignored by the cpu backend, which has no device to break.
std::unique_ptr<Backend> create_backend(const BackendSpec& spec, Precision precision,
                                        Tracer* tracer = nullptr,
                                        const std::string& fault_spec = {});

// String-spec convenience: BackendSpec::parse + the overload above.
std::unique_ptr<Backend> create_backend(const std::string& spec, Precision precision,
                                        Tracer* tracer = nullptr,
                                        const std::string& fault_spec = {});

// Convenience for CLIs: accepts "single" | "double". Throws on anything else.
std::unique_ptr<Backend> create_backend(const std::string& spec,
                                        const std::string& precision,
                                        Tracer* tracer = nullptr,
                                        const std::string& fault_spec = {});

}  // namespace qhip
