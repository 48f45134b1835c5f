#include "src/engine/backend.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "src/base/error.h"
#include "src/base/strings.h"
#include "src/base/timer.h"
#include "src/dist/simulator_dist.h"
#include "src/hipsim/expectation_hip.h"
#include "src/hipsim/multi_gcd.h"
#include "src/vgpu/fault.h"
#include "src/hipsim/simulator_hip.h"
#include "src/simulator/simulator_cpu.h"
#include "src/statespace/partition_layout.h"
#include "src/vgpu/device.h"
#include "src/vgpu/device_props.h"

namespace qhip {

namespace {

template <typename FP>
std::vector<cplx64> state_as_cplx64(const StateVector<FP>& s) {
  std::vector<cplx64> out(s.size());
  for (index_t i = 0; i < s.size(); ++i) {
    out[i] = cplx64(s[i].real(), s[i].imag());
  }
  return out;
}

// Runs `fn` at scope exit: clears correlation ids on every path (a run that
// throws must not leave the device tagged with a dead request's id).
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  Fn fn_;
};

// Host-path observable evaluation: one entry per Pauli string, in order,
// coefficients included (DESIGN.md §14).
template <typename FP>
std::vector<cplx64> host_expectations(const obs::Observable& o,
                                      const StateVector<FP>& state,
                                      ThreadPool& pool) {
  std::vector<cplx64> out;
  out.reserve(o.strings.size());
  for (const auto& p : o.strings) {
    out.push_back(obs::expectation(p, state, pool));
  }
  return out;
}

// Times `fn` and, when the run is request-bound, records a "sample" span on
// the request's trace row (DESIGN.md §11). Returns elapsed seconds.
template <typename Fn>
double timed_sample(Tracer* tracer, std::uint64_t corr, Fn&& fn) {
  Timer t;
  const std::uint64_t t0 = Timer::now_micros();
  fn();
  const double seconds = t.seconds();
  if (tracer != nullptr && corr != 0) {
    tracer->record("sample", TraceKind::kSpan, t0,
                   static_cast<std::uint64_t>(seconds * 1e6), span_lane(corr),
                   0, corr);
  }
  return seconds;
}

// ---------------------------------------------------------------------------
// CPU backend: SimulatorCPU over pooled host StateVectors.

// Parses a non-empty fault spec into a shared plan (empty spec -> nullptr).
std::shared_ptr<vgpu::FaultPlan> make_fault_plan(const std::string& fault_spec) {
  if (fault_spec.empty()) return nullptr;
  return std::make_shared<vgpu::FaultPlan>(
      vgpu::FaultPlan::parse(fault_spec).rules());
}

template <typename FP>
class CpuBackend final : public Backend {
 public:
  explicit CpuBackend(Tracer* tracer)
      : sim_(ThreadPool::shared(), tracer),
        tracer_(tracer),
        description_(strfmt("CPU (%s, %u threads)", host_kernel_name(),
                            ThreadPool::shared().num_threads())) {}

  const std::string& spec() const override { return spec_; }
  const std::string& description() const override { return description_; }
  Precision precision() const override { return precision_of<FP>(); }

  BackendRunOutput run(const Circuit& fused, const BackendRunSpec& rs) override {
    sim_.set_correlation(rs.corr);
    ScopeExit clear_corr([this] { sim_.set_correlation(0); });
    const unsigned n = fused.num_qubits;
    std::optional<StateVector<FP>> pooled = pool_.acquire(n);
    StateVector<FP> state = pooled ? std::move(*pooled) : StateVector<FP>(n);
    state.set_zero_state();

    BackendRunOutput out;
    sim_.run(fused, state, rs.seed, &out.measurements, rs.deadline);
    if (rs.num_samples > 0) {
      out.sample_seconds = timed_sample(tracer_, rs.corr, [&] {
        out.samples = statespace::sample(state, rs.num_samples, rs.seed);
      });
    }
    out.amplitudes.reserve(rs.amplitude_indices.size());
    for (index_t i : rs.amplitude_indices) {
      check(i < state.size(), "Backend::run: amplitude index out of range");
      out.amplitudes.push_back(cplx64(state[i].real(), state[i].imag()));
    }
    if (rs.want_state) out.state = state_as_cplx64(state);
    if (rs.observable != nullptr) {
      out.expectations =
          host_expectations(*rs.observable, state, ThreadPool::shared());
    }

    pool_.release(n, std::move(state), pow2(n) * sizeof(cplx<FP>));
    return out;
  }

  engine::PoolStats pool_stats() const override { return pool_.stats(); }
  void trim_pool() override { pool_.clear(); }

 private:
  SimulatorCPU<FP> sim_;
  Tracer* tracer_;
  std::string spec_ = "cpu";
  std::string description_;
  engine::BufferPool<StateVector<FP>> pool_;
};

// ---------------------------------------------------------------------------
// Single virtual GPU backend ("hip" = MI250X GCD, "a100" = A100).

template <typename FP>
class GpuBackend final : public Backend {
 public:
  GpuBackend(std::string spec, const vgpu::DeviceProps& props, Tracer* tracer,
             const std::string& fault_spec)
      : spec_(std::move(spec)),
        dev_(props, tracer),
        sim_(dev_),
        description_(strfmt("%s (warp %u)", props.name.c_str(), props.warp_size)) {
    // Installed after the simulator's own staging allocations, so fault
    // occurrence counters ("the Nth allocation") start at the first request.
    if (!fault_spec.empty()) dev_.set_fault_plan(make_fault_plan(fault_spec));
  }

  const std::string& spec() const override { return spec_; }
  const std::string& description() const override { return description_; }
  Precision precision() const override { return precision_of<FP>(); }

  BackendRunOutput run(const Circuit& fused, const BackendRunSpec& rs) override {
    dev_.set_correlation(rs.corr);
    ScopeExit clear_corr([this] { dev_.set_correlation(0); });
    try {
      const unsigned n = fused.num_qubits;
      std::optional<hipsim::DeviceStateVector<FP>> pooled = pool_.acquire(n);
      hipsim::DeviceStateVector<FP> state =
          pooled ? std::move(*pooled) : hipsim::DeviceStateVector<FP>(dev_, n);
      sim_.state_space().set_zero_state(state);

      BackendRunOutput out;
      sim_.run(fused, state, rs.seed, &out.measurements, rs.deadline);
      // run() only enqueues; join so execution errors surface here and the
      // caller's wall-clock covers the real work.
      dev_.synchronize();
      if (rs.num_samples > 0) {
        out.sample_seconds = timed_sample(dev_.tracer(), rs.corr, [&] {
          out.samples = sim_.state_space().sample(state, rs.num_samples, rs.seed);
        });
      }
      if (!rs.amplitude_indices.empty()) {
        const auto amps = sim_.state_space().get_amplitudes(state, rs.amplitude_indices);
        out.amplitudes.reserve(amps.size());
        for (const auto& a : amps) out.amplitudes.push_back(cplx64(a.real(), a.imag()));
      }
      if (rs.want_state) out.state = state_as_cplx64(state.to_host());
      if (rs.observable != nullptr) {
        // The device kernel path (paper §1's VQE-style workloads); the
        // device is already synchronized above.
        out.expectations.reserve(rs.observable->strings.size());
        for (const auto& p : rs.observable->strings) {
          out.expectations.push_back(hipsim::expectation(p, state, dev_));
        }
      }

      pool_.release(n, std::move(state), pow2(n) * sizeof(cplx<FP>));
      return out;
    } catch (...) {
      // Leave the device clean for a retry: join every stream and swallow
      // any further deferred errors so they cannot surface in a later run.
      // The aborted request's state buffer was freed by its destructor; the
      // pool is not polluted with garbage.
      try {
        dev_.synchronize();
      } catch (...) {
      }
      throw;
    }
  }

  engine::PoolStats pool_stats() const override { return pool_.stats(); }
  void trim_pool() override { pool_.clear(); }

 private:
  std::string spec_;
  vgpu::Device dev_;
  hipsim::SimulatorHIP<FP> sim_;
  std::string description_;
  engine::BufferPool<hipsim::DeviceStateVector<FP>> pool_;
};

// ---------------------------------------------------------------------------
// Multi-GCD backend ("hip:N"). A MultiGcdSimulator owns its devices and
// state slabs, so the "pool" here keeps whole simulators keyed by qubit
// count and zero-resets them between requests.

template <typename FP>
class MultiGcdBackend final : public Backend {
 public:
  MultiGcdBackend(std::string spec, unsigned num_gcds, Tracer* tracer,
                  const std::string& fault_spec)
      : spec_(std::move(spec)),
        num_gcds_(num_gcds),
        tracer_(tracer),
        props_(vgpu::mi250x_gcd()),
        faults_(make_fault_plan(fault_spec)),
        description_(strfmt("%u x MI250X GCD (multi-GCD HIP)", num_gcds)) {}

  const std::string& spec() const override { return spec_; }
  const std::string& description() const override { return description_; }
  Precision precision() const override { return precision_of<FP>(); }

  BackendRunOutput run(const Circuit& fused, const BackendRunSpec& rs) override {
    const unsigned n = fused.num_qubits;
    auto it = sims_.find(n);
    if (it == sims_.end()) {
      ++pool_misses_;
      it = sims_
               .emplace(n, std::make_unique<hipsim::MultiGcdSimulator<FP>>(
                               n, num_gcds_, props_, tracer_, faults_))
               .first;
    } else {
      ++pool_hits_;
      it->second->set_zero_state();
    }
    hipsim::MultiGcdSimulator<FP>& sim = *it->second;

    for (unsigned k = 0; k < sim.num_gcds(); ++k) {
      sim.device(k).set_correlation(rs.corr);
    }
    ScopeExit clear_corr([&sim] {
      for (unsigned k = 0; k < sim.num_gcds(); ++k) {
        sim.device(k).set_correlation(0);
      }
    });
    try {
      return run_on(sim, fused, rs);
    } catch (...) {
      // Drain every GCD's streams and swallow further deferred errors so a
      // retry starts from a clean device (set_zero_state above resets both
      // the amplitudes and the qubit layout).
      for (unsigned k = 0; k < sim.num_gcds(); ++k) {
        try {
          sim.device(k).synchronize();
        } catch (...) {
        }
      }
      throw;
    }
  }

 private:
  BackendRunOutput run_on(hipsim::MultiGcdSimulator<FP>& sim,
                          const Circuit& fused, const BackendRunSpec& rs) {
    const hipsim::MultiGcdStats before = sim.stats();
    BackendRunOutput out;
    sim.run(fused, rs.seed, &out.measurements, rs.deadline);
    sim.synchronize();
    if (rs.num_samples > 0) {
      out.sample_seconds = timed_sample(tracer_, rs.corr, [&] {
        out.samples = sim.sample(rs.num_samples, rs.seed);
      });
    }
    if (!rs.amplitude_indices.empty() || rs.want_state ||
        rs.observable != nullptr) {
      const StateVector<FP> host = sim.to_host();
      out.amplitudes.reserve(rs.amplitude_indices.size());
      for (index_t i : rs.amplitude_indices) {
        check(i < host.size(), "Backend::run: amplitude index out of range");
        out.amplitudes.push_back(cplx64(host[i].real(), host[i].imag()));
      }
      if (rs.want_state) out.state = state_as_cplx64(host);
      if (rs.observable != nullptr) {
        out.expectations =
            host_expectations(*rs.observable, host, ThreadPool::shared());
      }
    }
    const hipsim::MultiGcdStats after = sim.stats();
    out.counters["slot_swaps"] = static_cast<double>(after.slot_swaps - before.slot_swaps);
    out.counters["peer_bytes"] = static_cast<double>(after.peer_bytes - before.peer_bytes);
    out.counters["local_gate_launches"] =
        static_cast<double>(after.local_gate_launches - before.local_gate_launches);
    return out;
  }

  engine::PoolStats pool_stats() const override {
    engine::PoolStats s;
    s.hits = pool_hits_;
    s.misses = pool_misses_;
    for (const auto& [n, sim] : sims_) {
      // Local slab + half-size exchange buffer per GCD. buffers_pooled
      // counts one buffer per GCD slab, matching the byte accounting (it
      // used to count one per qubit size while the bytes summed every GCD).
      const std::size_t local = pow2(n - log2_exact(num_gcds_)) * sizeof(cplx<FP>);
      s.bytes_pooled += num_gcds_ * (local + local / 2);
      s.buffers_pooled += num_gcds_;
    }
    return s;
  }
  void trim_pool() override { sims_.clear(); }

 private:
  std::string spec_;
  unsigned num_gcds_;
  Tracer* tracer_;
  vgpu::DeviceProps props_;
  std::shared_ptr<vgpu::FaultPlan> faults_;  // shared across all GCDs
  std::string description_;
  std::map<unsigned, std::unique_ptr<hipsim::MultiGcdSimulator<FP>>> sims_;
  std::uint64_t pool_hits_ = 0, pool_misses_ = 0;
};

// ---------------------------------------------------------------------------
// Distributed backend ("dist:N"): SimulatorDist over N thread-ranks on the
// in-process message-passing communicator — the MPI-flavoured path, serving
// the same BackendRunSpec contract as cpu|hip|hip:N. Each request runs one
// SPMD region; rank 0 assembles the output. Ranks are threads over host
// memory, so like the cpu backend there is no device to install a fault
// plan on (fault_spec is accepted and ignored).
//
// Ranks x threads, as in qHiPSTER: rank r applies its gates on its own pool
// of max(1, nproc / N) threads, owned by the backend across requests, so N
// ranks together use the host's cores and never more threads than cores
// (for N <= nproc). Gate application is per-amplitude, so the thread count
// changes no amplitude bit; only the renormalization after an in-circuit
// measurement (statespace::norm2's per-thread partial sums) depends on it,
// as cpu's does on the shared pool's size.

// Threads each of `ranks` rank pools gets on this host.
unsigned threads_per_rank(unsigned ranks) {
  return std::max(1u, ThreadPool::shared().num_threads() / ranks);
}

template <typename FP>
class DistBackend final : public Backend {
 public:
  DistBackend(std::string spec, unsigned ranks, Tracer* tracer)
      : spec_(std::move(spec)),
        ranks_(ranks),
        tracer_(tracer),
        description_(strfmt("%u thread-ranks x %u threads (message-passing "
                            "dist, %s)",
                            ranks, threads_per_rank(ranks), host_kernel_name())),
        pool_(/*max_per_key=*/ranks),
        gathered_(/*max_per_key=*/1) {
    for (unsigned r = 0; r < ranks; ++r) {
      rank_pools_.push_back(std::make_unique<ThreadPool>(threads_per_rank(ranks)));
    }
  }

  const std::string& spec() const override { return spec_; }
  const std::string& description() const override { return description_; }
  Precision precision() const override { return precision_of<FP>(); }

  BackendRunOutput run(const Circuit& fused, const BackendRunSpec& rs) override {
    const unsigned n = fused.num_qubits;

    BackendRunOutput out;
    dist::DistStats round;  // rank-0 copy of the per-run stats
    std::array<double, 4> summed{};  // bytes + phase ns summed over ranks
    const bool gather_state =
        rs.want_state || rs.num_samples > 0 || rs.observable != nullptr;

    dist::run_spmd(ranks_, [&](dist::Comm& comm) {
      ThreadPool& pool = *rank_pools_[static_cast<std::size_t>(comm.rank())];
      std::optional<StateVector<FP>> pooled = pool_.acquire(n);
      dist::SimulatorDist<FP> sim(comm, n, pool,
                                  pooled ? std::move(*pooled) : StateVector<FP>());

      std::vector<index_t> meas;
      sim.run(fused, rs.seed, &meas, rs.deadline);

      std::vector<cplx64> amps;
      if (!rs.amplitude_indices.empty()) {
        amps = sim.amplitudes(rs.amplitude_indices);
      }

      StateVector<FP> full(1);
      if (gather_state) {
        std::optional<StateVector<FP>> reuse;
        if (comm.rank() == 0) reuse = gathered_.acquire(n);
        full = sim.gather(reuse ? std::move(*reuse) : StateVector<FP>());
      }

      const dist::DistStats& st = sim.stats();
      const std::vector<double> agg = comm.allreduce_sum(std::vector<double>{
          static_cast<double>(st.bytes_sent), static_cast<double>(st.pack_ns),
          static_cast<double>(st.exchange_ns),
          static_cast<double>(st.unpack_ns)});

      if (comm.rank() == 0) {
        out.measurements = std::move(meas);
        out.amplitudes = std::move(amps);
        if (rs.num_samples > 0) {
          out.sample_seconds = timed_sample(tracer_, rs.corr, [&] {
            out.samples = statespace::sample(full, rs.num_samples, rs.seed);
          });
        }
        if (rs.want_state) out.state = state_as_cplx64(full);
        if (rs.observable != nullptr) {
          // On the shared pool, as cpu does: the same state reduced over
          // the same partial sums gives cpu's values bit for bit.
          out.expectations =
              host_expectations(*rs.observable, full, ThreadPool::shared());
        }
        round = st;
        std::copy(agg.begin(), agg.end(), summed.begin());
        if (gather_state) {
          gathered_.release(n, std::move(full), pow2(n) * sizeof(cplx<FP>));
        }
      }

      pool_.release(n, sim.release_slice(),
                    pow2(sim.local_qubits()) * sizeof(cplx<FP>));
    });

    out.counters["slot_swaps"] = static_cast<double>(round.slot_swaps);
    out.counters["swap_rounds"] = static_cast<double>(round.swap_rounds);
    out.counters["swap_chunks"] = static_cast<double>(round.swap_chunks);
    out.counters["peer_bytes"] = summed[0];
    out.counters["pack_ns"] = summed[1];
    out.counters["exchange_ns"] = summed[2];
    out.counters["unpack_ns"] = summed[3];
    export_counters(out.counters);
    return out;
  }

  engine::PoolStats pool_stats() const override {
    engine::PoolStats s = pool_.stats();
    const engine::PoolStats g = gathered_.stats();
    s.hits += g.hits;
    s.misses += g.misses;
    s.discarded += g.discarded;
    s.bytes_pooled += g.bytes_pooled;
    s.buffers_pooled += g.buffers_pooled;
    return s;
  }
  void trim_pool() override {
    pool_.clear();
    gathered_.clear();
  }

 private:
  // Cumulative dist counters on the trace (Chrome "C" events), alongside
  // the engine's serving metrics (docs/OBSERVABILITY.md).
  void export_counters(const std::map<std::string, double>& delta) {
    if (tracer_ == nullptr) return;
    for (const auto& [name, v] : delta) {
      cumulative_[name] += v;
      tracer_->set_counter("dist/" + name, cumulative_[name]);
    }
  }

  std::string spec_;
  unsigned ranks_;
  Tracer* tracer_;
  std::string description_;
  std::vector<std::unique_ptr<ThreadPool>> rank_pools_;  // one per rank
  engine::BufferPool<StateVector<FP>> pool_;      // rank slices
  engine::BufferPool<StateVector<FP>> gathered_;  // rank 0's gathered state
  std::map<std::string, double> cumulative_;
};

template <typename FP>
std::unique_ptr<Backend> make_backend(const BackendSpec& spec, Tracer* tracer,
                                      const std::string& fault_spec) {
  switch (spec.kind) {
    case BackendSpec::Kind::kCpu:
      return std::make_unique<CpuBackend<FP>>(tracer);
    case BackendSpec::Kind::kHip:
      return std::make_unique<GpuBackend<FP>>(spec.to_string(),
                                              vgpu::mi250x_gcd(), tracer,
                                              fault_spec);
    case BackendSpec::Kind::kA100:
      return std::make_unique<GpuBackend<FP>>(spec.to_string(), vgpu::a100(),
                                              tracer, fault_spec);
    case BackendSpec::Kind::kMultiGcd:
      return std::make_unique<MultiGcdBackend<FP>>(spec.to_string(), spec.ranks,
                                                   tracer, fault_spec);
    case BackendSpec::Kind::kDist:
      return std::make_unique<DistBackend<FP>>(spec.to_string(), spec.ranks,
                                               tracer);
    case BackendSpec::Kind::kAuto:
      break;
  }
  throw Error(
      "backend 'auto' names a placement policy, not a device: submit through "
      "SimulationEngine, whose planner places it (DESIGN.md §13)");
}

}  // namespace

BackendSpec Backend::spec_info() const { return BackendSpec::parse(spec()); }

unsigned Backend::max_qubits() const {
  return backend_max_qubits(spec_info(), precision());
}

bool is_backend_spec(const std::string& spec) {
  return BackendSpec::try_parse(spec).has_value();
}

unsigned backend_max_qubits(const BackendSpec& spec, Precision p) {
  const std::size_t amp = amp_bytes(p);
  // Device backends: DeviceStateVector itself caps at 34 (the emulator's
  // host-memory sanity bound); below that, the virtual device's HBM
  // capacity decides.
  switch (spec.kind) {
    case BackendSpec::Kind::kCpu:
      // Bounded by host memory rather than a device; 2^30 single-precision
      // amplitudes are 8 GiB, which is where a shared host stops being sane.
      return 30;
    case BackendSpec::Kind::kHip:
      return std::min(34u, vgpu::max_state_qubits(vgpu::mi250x_gcd(), amp));
    case BackendSpec::Kind::kA100:
      return std::min(34u, vgpu::max_state_qubits(vgpu::a100(), amp));
    case BackendSpec::Kind::kMultiGcd: {
      // Each GCD holds 2^(n-d) local amplitudes plus a half-size exchange
      // staging buffer, hence the -1 headroom below the per-GCD capacity.
      const unsigned d = log2_exact(spec.ranks);
      const unsigned local_cap = vgpu::max_state_qubits(vgpu::mi250x_gcd(), amp);
      return std::min(34u, local_cap > 0 ? local_cap - 1 + d : 0);
    }
    case BackendSpec::Kind::kDist:
      // Same budget as cpu: the ranks partition one host allocation, they
      // do not multiply it.
      return 30;
    case BackendSpec::Kind::kAuto:
      return 0;
  }
  return 0;
}

bool backend_supports_noise(const BackendSpec& spec) {
  // The trajectory runner (src/noise/trajectory.h) streams Kraus selections
  // over a host StateVector; only the cpu backend exposes one per sub-run.
  return spec.kind == BackendSpec::Kind::kCpu;
}

bool backend_fits(const BackendSpec& spec, unsigned num_qubits, Precision p) {
  if (spec.kind == BackendSpec::Kind::kAuto) return false;
  if (num_qubits < 1 || num_qubits > backend_max_qubits(spec, p)) return false;
  if (spec.kind == BackendSpec::Kind::kDist ||
      spec.kind == BackendSpec::Kind::kMultiGcd) {
    return PartitionLayout::fits(num_qubits, spec.ranks);
  }
  return true;
}

std::unique_ptr<Backend> create_backend(const BackendSpec& spec,
                                        Precision precision, Tracer* tracer,
                                        const std::string& fault_spec) {
  return precision == Precision::kSingle
             ? make_backend<float>(spec, tracer, fault_spec)
             : make_backend<double>(spec, tracer, fault_spec);
}

std::unique_ptr<Backend> create_backend(const std::string& spec, Precision precision,
                                        Tracer* tracer,
                                        const std::string& fault_spec) {
  return create_backend(BackendSpec::parse(spec), precision, tracer, fault_spec);
}

std::unique_ptr<Backend> create_backend(const std::string& spec,
                                        const std::string& precision, Tracer* tracer,
                                        const std::string& fault_spec) {
  check(precision == "single" || precision == "double",
        "unknown precision '" + precision + "' (expected single|double)");
  return create_backend(
      spec, precision == "single" ? Precision::kSingle : Precision::kDouble, tracer,
      fault_spec);
}

}  // namespace qhip
