// Multithreaded CPU backend (qsim's AVX/OpenMP simulator equivalent).
//
// The paper's CPU baseline runs qsim with 128 OpenMP threads on a 64-core
// EPYC "Trento"; here the thread count is a runtime parameter of the shared
// ThreadPool. Gate application is the host apply kernel behind
// src/simulator/apply.h (AVX2/FMA or scalar, picked once per process);
// measurement gates collapse via the state-space layer with a per-gate
// Philox stream so results are independent of the thread count.
#pragma once

#include <cstdint>

#include "src/base/deadline.h"
#include "src/base/threadpool.h"
#include "src/core/circuit.h"
#include "src/prof/trace.h"
#include "src/simulator/apply.h"
#include "src/statespace/statevector.h"

namespace qhip {

template <typename FP>
class SimulatorCPU {
 public:
  using fp_type = FP;

  explicit SimulatorCPU(ThreadPool& pool = ThreadPool::shared(),
                        Tracer* tracer = nullptr)
      : pool_(&pool), tracer_(tracer) {}

  static constexpr const char* backend_name() { return "cpu"; }

  // Request correlation (DESIGN.md §11): gate events recorded while a
  // correlation id is set carry it, linking them to the request span. The
  // CPU backend has no device to stamp ops on, so the simulator holds the id
  // itself. 0 clears it.
  void set_correlation(std::uint64_t corr) { corr_ = corr; }
  std::uint64_t correlation() const { return corr_; }

  // Applies one unitary gate (controls folded in here if present).
  void apply_gate(const Gate& g, StateVector<FP>& state) {
    const Gate n = normalized(g.controls.empty() ? g : expand_controls(g));
    ScopedTrace span(tracer_, "ApplyGate_CPU", TraceKind::kKernel, 0,
                     state.size() * sizeof(cplx<FP>) * 2, corr_);
    apply_gate_inplace(n, state, *pool_);
  }

  // Runs the whole circuit; measurement gate k uses Philox stream
  // (seed, k) and returns its outcome in `measurements` if non-null.
  // `deadline` is checked between gate applications (the cooperative
  // cancellation points — a single gate is never interrupted), aborting
  // with CodedError(kDeadlineExceeded) once it lapses.
  void run(const Circuit& c, StateVector<FP>& state, std::uint64_t seed = 0,
           std::vector<index_t>* measurements = nullptr,
           const Deadline& deadline = {}) {
    check(state.num_qubits() == c.num_qubits, "SimulatorCPU::run: qubit mismatch");
    std::uint64_t meas_idx = 0;
    for (const auto& g : c.gates) {
      deadline.check("SimulatorCPU::run");
      if (g.is_measurement()) {
        const index_t outcome =
            statespace::measure(state, g.qubits, seed ^ (0x9E3779B97F4A7C15 * ++meas_idx),
                                *pool_);
        if (measurements) measurements->push_back(outcome);
      } else {
        apply_gate(g, state);
      }
    }
  }

  ThreadPool& pool() { return *pool_; }

 private:
  ThreadPool* pool_;
  Tracer* tracer_;
  std::uint64_t corr_ = 0;  // current request correlation id
};

}  // namespace qhip
