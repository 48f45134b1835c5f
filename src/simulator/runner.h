// High-level runner: fusion + simulation + sampling in one call.
//
// This is the equivalent of qsim's Runner / qsim_base driver: it transpiles
// the circuit with the gate fuser, executes it on the chosen backend, and
// optionally draws Born-rule samples — reporting the same timing split the
// paper quotes (fusion is claimed to be < 2% of total execution time).
#pragma once

#include <cstdint>
#include <vector>

#include "src/base/timer.h"
#include "src/fusion/fuser.h"
#include "src/statespace/statevector.h"

namespace qhip {

struct RunOptions {
  FusionOptions fusion;           // gate-fusion knobs (shared struct; the
                                  // engine's SimRequest and the CLIs use the
                                  // same type, DESIGN.md §13)
  std::uint64_t seed = 1;         // measurement + sampling seed
  std::size_t num_samples = 0;    // basis-state samples to draw at the end
};

struct RunResult {
  FusionStats fusion;
  double fuse_seconds = 0;
  double sim_seconds = 0;
  double sample_seconds = 0;
  double total_seconds = 0;
  std::vector<index_t> measurements;  // outcomes of in-circuit 'm' gates
  std::vector<index_t> samples;       // final-state samples
};

namespace detail {

// The post-transpile half of a run: execute + sample + fill timings. Shared
// by the legacy template path below and the Backend implementations in
// src/engine/backend.cpp, so both produce bit-identical results for the same
// simulator kind, fused circuit, and seed.
template <typename Simulator, typename FP>
void run_fused(const Circuit& fused, Simulator& sim, StateVector<FP>& state,
               const RunOptions& opt, RunResult& r) {
  Timer t1;
  sim.run(fused, state, opt.seed, &r.measurements);
  r.sim_seconds = t1.seconds();

  if (opt.num_samples > 0) {
    Timer t2;
    r.samples = statespace::sample(state, opt.num_samples, opt.seed);
    r.sample_seconds = t2.seconds();
  }
}

}  // namespace detail

// Runs `circuit` on `sim` starting from `state` as-is (callers usually call
// state.set_zero_state() first).
//
// Legacy compat shim: this template re-transpiles and uses the caller's
// simulator and state on every call. New code should go through the runtime
// Backend API (src/engine/backend.h) — or SimulationEngine for serving —
// which add fused-circuit caching and state-buffer pooling on top of the
// same detail::run_fused core.
template <typename Simulator, typename FP>
RunResult run_circuit(const Circuit& circuit, Simulator& sim, StateVector<FP>& state,
                      const RunOptions& opt = {}) {
  RunResult r;
  Timer total;

  Timer t0;
  FusionResult fused = fuse_circuit(circuit, opt.fusion);
  r.fusion = fused.stats;
  r.fuse_seconds = t0.seconds();

  detail::run_fused(fused.circuit, sim, state, opt, r);
  r.total_seconds = total.seconds();
  return r;
}

}  // namespace qhip
