#include "src/engine/engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "src/base/error.h"
#include "src/base/strings.h"
#include "src/base/timer.h"
#include "src/perfmodel/workload.h"
#include "src/prof/prom.h"

namespace qhip::engine {

namespace {

// Results above this size are served but not memoized: a single 26-qubit
// want_state result is 1 GiB, which would make the LRU a memory bomb.
constexpr std::size_t kMaxCachedResultBytes = std::size_t{32} << 20;

// Fused circuits held by the engine's FusedCircuitCache (LRU).
constexpr std::size_t kFusedCacheCapacity = 128;

// Early stop needs a minimum sample before the stderr estimate means
// anything; below this many accumulated trajectories the tolerance is
// never consulted.
constexpr std::size_t kMinTrajectoriesForStop = 8;

void app_f64(std::string& s, double v) {
  append_word(s, std::bit_cast<std::uint64_t>(v));
}

void app_str(std::string& s, const std::string& v) {
  append_word(s, v.size());
  s += v;
}

std::size_t approx_result_bytes(const SimResult& r) {
  return r.samples.size() * sizeof(index_t) +
         r.measurements.size() * sizeof(index_t) +
         r.amplitudes.size() * sizeof(cplx64) +
         r.state.size() * sizeof(cplx64) +
         r.distribution.size() * sizeof(double);
}

// Standard error of the running trajectory mean over the first k ordered
// contributions (real parts; Hermitian observables have real expectations).
double stderr_of_mean(const cplx64& sum, double sumsq, std::size_t k) {
  if (k < 2) return 0;
  const double mean = sum.real() / static_cast<double>(k);
  const double var =
      std::max(0.0, (sumsq - static_cast<double>(k) * mean * mean) /
                        static_cast<double>(k - 1));
  return std::sqrt(var / static_cast<double>(k));
}

// The detail text of a request's enclosing `request` span.
std::string outcome_text(const SimResult& r) {
  if (!r.ok) return to_string(r.code);
  if (r.result_cache_hit) return "ok: cache-hit";
  if (r.kind == RequestKind::kTrajectory) {
    return strfmt("ok on %s (trajectory x%zu)", r.backend_used.c_str(),
                  r.trajectories_run);
  }
  return "ok on " + r.backend_used + (r.fallback_used ? " (fallback)" : "");
}

// The planner's candidate list: the EngineOptions allowlist, parsed.
PlannerOptions planner_options(const std::vector<std::string>& allowlist) {
  std::vector<std::string> cands = allowlist;
  if (cands.empty()) cands = {"cpu", "hip", "a100"};
  PlannerOptions po;
  po.candidates.reserve(cands.size());
  for (const std::string& c : cands) {
    po.candidates.push_back(BackendSpec::parse(c));
  }
  return po;
}

SimErrorCode classify(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOutOfMemory: return SimErrorCode::kOutOfMemory;
    case ErrorCode::kBackendFault: return SimErrorCode::kBackendFault;
    case ErrorCode::kDeadlineExceeded: return SimErrorCode::kDeadlineExceeded;
    case ErrorCode::kMalformedInput: return SimErrorCode::kRejected;
    case ErrorCode::kGeneric: break;
  }
  return SimErrorCode::kInternal;
}

// Worth re-running on the same backend / degrading to the fallback?
bool transient(SimErrorCode code) {
  return code == SimErrorCode::kOutOfMemory ||
         code == SimErrorCode::kBackendFault;
}

}  // namespace

const char* to_string(SimErrorCode code) {
  switch (code) {
    case SimErrorCode::kOk: return "ok";
    case SimErrorCode::kRejected: return "rejected";
    case SimErrorCode::kOutOfMemory: return "out-of-memory";
    case SimErrorCode::kBackendFault: return "backend-fault";
    case SimErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case SimErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kCircuit: return "circuit";
    case RequestKind::kExpectation: return "expectation";
    case RequestKind::kTrajectory: return "trajectory";
  }
  return "unknown";
}

std::string canonical_request_summary(const SimRequest& req) {
  std::string s;
  app_str(s, req.backend);
  append_word(s, req.precision == Precision::kSingle ? 1 : 2);
  append_word(s, req.fusion.max_fused_qubits);
  append_word(s, req.fusion.window_moments);
  append_word(s, req.seed);
  append_word(s, req.num_samples);
  append_word(s, req.amplitude_indices.size());
  for (index_t i : req.amplitude_indices) {
    append_word(s, static_cast<std::uint64_t>(i));
  }
  append_word(s, req.want_state ? 1 : 0);
  // Workload kind and its payloads (DESIGN.md §14): the noise channel's
  // Kraus matrices and the observable's strings are part of what the result
  // is a function of, bit-exactly like the circuit matrices.
  append_word(s, static_cast<std::uint64_t>(req.kind));
  append_word(s, req.num_trajectories);
  app_f64(s, req.trajectory_tolerance);
  app_str(s, req.noise.channel.name);
  append_word(s, req.noise.channel.ops.size());
  for (const CMatrix& k : req.noise.channel.ops) {
    append_word(s, k.dim());
    for (const cplx64& v : k.data()) {
      app_f64(s, v.real());
      app_f64(s, v.imag());
    }
  }
  append_word(s, req.observable.strings.size());
  for (const obs::PauliString& p : req.observable.strings) {
    app_f64(s, p.coefficient.real());
    app_f64(s, p.coefficient.imag());
    append_word(s, p.terms.size());
    for (const obs::PauliTerm& t : p.terms) {
      append_word(s, t.qubit);
      append_word(s, static_cast<std::uint64_t>(t.op));
    }
  }
  append_circuit_identity(s, req.circuit);
  return s;
}

struct SimulationEngine::Job {
  SimRequest req;
  std::promise<SimResult> promise;
  // Push-style completion (the serving front-end's seam). When set, the
  // result is delivered through it instead of the promise.
  CompletionFn on_done;
  Timer queued;  // started at submit
  std::uint64_t corr = 0;       // request id = trace correlation id
  std::uint64_t submit_us = 0;  // trace timestamp of submit (Timer clock)
  // Result-cache identity (canonical_request_summary), set once a cacheable
  // request passes validation, and the in-flight record this job owns —
  // non-null iff it simulates that identity, which finish() then publishes
  // and memoizes.
  std::string identity;
  std::shared_ptr<Flight> flight;
  // Non-null for a trajectory sub-job: the worker runs sub-runs of this
  // batch instead of process() (the batch owns the request's job).
  std::shared_ptr<TrajectoryBatch> sub_batch;
};

// Shared state of one fanned-out trajectory batch (DESIGN.md §14). The
// launching worker moves the request's Job in, fills the immutable section,
// enqueues min(N, workers) sub-jobs at the queue front, and returns to the
// pool — it never blocks on the batch. Sub-runs claim trajectory indices
// from next_run and stream their contributions through the reorder buffer
// (pending_*) so the accumulation happens in strict trajectory order:
// bit-identical to the serial reference loop, and the early-stop decision
// is a deterministic function of the ordered prefix. The last sub-run to
// exit finalizes.
struct SimulationEngine::TrajectoryBatch {
  // Immutable after launch.
  Job job;  // the request; finish()ed by the last sub-run
  std::shared_ptr<const FusionResult> prepared;  // normalized circuit
  bool observable_mode = false;
  Booking booking;  // N x per-trajectory roofline pricing on the backend
  Deadline deadline;
  std::uint64_t run_start_us = 0;
  Timer run_timer;  // started at launch (run_seconds)
  SimResult base;   // queue/fuse fields prefilled by the launcher

  // Guarded by mu.
  std::mutex mu;
  std::size_t next_run = 0;    // next trajectory index to claim
  std::size_t next_accum = 0;  // ordered-accumulation cursor (== count done)
  std::size_t stop_at = 0;     // N, lowered once by a deterministic early stop
  std::size_t executed = 0;    // sub-runs completed (includes discarded tail)
  unsigned active_subs = 0;
  bool failed = false;
  bool early_stopped = false;
  SimErrorCode fail_code = SimErrorCode::kInternal;
  std::string fail_error;
  // Distribution mode: ordered elementwise accumulation + reorder buffer.
  std::vector<double> dist;
  std::map<std::size_t, std::vector<double>> pending_dist;
  // Observable mode: running sum / sum-of-squares + reorder buffer.
  std::map<std::size_t, cplx64> pending_vals;
  cplx64 val_sum{};
  double val_sumsq = 0;  // over real parts, for the stderr estimate
};

struct SimulationEngine::BackendSlot {
  std::unique_ptr<Backend> backend;
  std::mutex run_mu;  // Backend::run is not reentrant per instance
};

SimulationEngine::SimulationEngine(EngineOptions opt)
    : opt_(std::move(opt)),
      fused_cache_(kFusedCacheCapacity),
      planner_(planner_options(opt_.planner_candidates)) {
  // The header promises "min 1"; clamp the stored options so options()
  // reports what actually runs and num_workers = 0 cannot deadlock submit.
  opt_.num_workers = std::max(1u, opt_.num_workers);
  if (opt_.flight_recorder_capacity > 0) {
    prof::FlightRecorderOptions fro;
    fro.capacity = opt_.flight_recorder_capacity;
    recorder_ = std::make_unique<prof::FlightRecorder>(fro);
    recorder_->set_downstream(opt_.tracer);
    trace_ = &recorder_->sink();
  } else {
    trace_ = opt_.tracer;
  }
  if (!opt_.watchdog.rules.empty()) {
    watchdog_ = std::make_unique<SloWatchdog>(opt_.watchdog);
  }
  workers_.reserve(opt_.num_workers);
  for (unsigned i = 0; i < opt_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SimulationEngine::~SimulationEngine() { stop(); }

void SimulationEngine::stop() {
  // One caller drains; concurrent stop()/destructor callers block here and
  // return once the drain is complete.
  std::lock_guard stop_lk(stop_mu_);
  std::list<Job> dropped;
  {
    std::lock_guard lk(queue_mu_);
    stop_ = true;
    // Fail only *queued requests*. Trajectory sub-jobs stay: their batch was
    // already dequeued and launched — it is in-flight from the client's
    // point of view — and the workers drain sub-jobs before exiting. The
    // old path (swap the whole queue, join, then finalize orphans) could
    // deadlock: a coalesced waiter occupying a worker sleeps on the batch's
    // flight, which only completed *after* the join it was blocking.
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->sub_batch) {
        ++it;
        continue;
      }
      const auto doomed = it++;
      dropped.splice(dropped.end(), queue_, doomed);
    }
  }
  queue_cv_.notify_all();
  for (Job& job : dropped) {
    finish(job, rejected("engine stopped: request drained from queue"));
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

SimResult SimulationEngine::rejected(std::string why, SimErrorCode code) {
  SimResult r;
  r.ok = false;
  r.code = code;
  r.error = std::move(why);
  return r;
}

void SimulationEngine::span(const char* name, std::uint64_t corr,
                            std::uint64_t ts_us, std::uint64_t dur_us,
                            std::string detail) const {
  if (trace_ == nullptr || corr == 0) return;
  trace_->record(name, TraceKind::kSpan, ts_us, dur_us, span_lane(corr),
                 0, corr, std::move(detail));
}

std::uint64_t SimulationEngine::submit_job(Job&& job) {
  job.corr = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  job.submit_us = Timer::now_micros();
  const std::uint64_t corr = job.corr;
  const std::uint64_t submit_us = job.submit_us;
  {
    std::lock_guard lk(metrics_mu_);
    ++metrics_.submitted;
  }
  bool reject_now = false;
  std::string why;
  {
    std::lock_guard lk(queue_mu_);
    if (stop_) {
      reject_now = true;
      why = "engine stopped";
    } else if (queue_.size() >= opt_.max_pending) {
      reject_now = true;
      why = strfmt("engine queue full (%zu pending)", queue_.size());
    } else {
      queue_.push_back(std::move(job));
    }
  }
  span("admit", corr, submit_us, Timer::now_micros() - submit_us,
       reject_now ? why : std::string());
  if (reject_now) {
    finish(job, rejected(std::move(why)));
  } else {
    queue_cv_.notify_one();
  }
  return corr;
}

std::future<SimResult> SimulationEngine::submit(SimRequest req) {
  Job job;
  job.req = std::move(req);
  std::future<SimResult> fut = job.promise.get_future();
  submit_job(std::move(job));
  return fut;
}

std::uint64_t SimulationEngine::submit(SimRequest req, CompletionFn on_done) {
  Job job;
  job.req = std::move(req);
  job.on_done = std::move(on_done);
  return submit_job(std::move(job));
}

SimResult SimulationEngine::run(SimRequest req) {
  return submit(std::move(req)).get();
}

void SimulationEngine::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    if (job.sub_batch) {
      trajectory_sub_loop(job.sub_batch);
      continue;
    }
    process(job);
  }
}

SimulationEngine::BackendSlot& SimulationEngine::resolve_backend(
    const std::string& spec, Precision precision) {
  const std::string key =
      spec + (precision == Precision::kSingle ? "/single" : "/double");
  std::lock_guard lk(backends_mu_);
  auto it = backends_.find(key);
  if (it == backends_.end()) {
    auto slot = std::make_unique<BackendSlot>();
    slot->backend = create_backend(spec, precision, trace_, opt_.fault_spec);
    it = backends_.emplace(key, std::move(slot)).first;
  }
  return *it->second;
}

double SimulationEngine::queued_load(const std::string& spec) const {
  std::lock_guard lk(load_mu_);
  auto it = backend_load_s_.find(spec);
  return it == backend_load_s_.end() ? 0.0 : it->second;
}

void SimulationEngine::adjust_load(const std::string& spec, double delta) {
  if (delta == 0) return;
  std::lock_guard lk(load_mu_);
  double& v = backend_load_s_[spec];
  v = std::max(0.0, v + delta);
}

SimulationEngine::Booking SimulationEngine::book(const std::string& spec,
                                                 const Circuit& circuit,
                                                 Precision precision,
                                                 std::size_t runs) {
  Booking b{spec, 0};
  try {
    b.raw_seconds = static_cast<double>(runs) *
                    Planner::raw_predict(
                        BackendSpec::parse(spec),
                        perfmodel::WorkloadStats::from_circuit(circuit),
                        precision);
  } catch (const Error&) {
    b.raw_seconds = 0;  // un-modellable: run unpriced
  }
  adjust_load(spec, b.raw_seconds);
  return b;
}

void SimulationEngine::settle(const Booking& booking, unsigned num_qubits,
                              unsigned max_fused, double observed_seconds) {
  if (booking.raw_seconds <= 0) return;
  adjust_load(booking.spec, -booking.raw_seconds);
  // book() already parsed the spec, or raw_seconds would be 0.
  planner_.observe(BackendSpec::parse(booking.spec), num_qubits, max_fused,
                   booking.raw_seconds, observed_seconds);
}

void SimulationEngine::count_fault(SimErrorCode code) {
  std::lock_guard lk(metrics_mu_);
  switch (code) {
    case SimErrorCode::kOutOfMemory: ++metrics_.faults_oom; break;
    case SimErrorCode::kBackendFault: ++metrics_.faults_backend; break;
    case SimErrorCode::kDeadlineExceeded: ++metrics_.faults_deadline; break;
    default: break;
  }
}

SimResult SimulationEngine::execute_with_retries(const SimRequest& q,
                                                 const std::string& spec,
                                                 const FusionOptions& fusion,
                                                 const Deadline& deadline,
                                                 std::uint64_t corr,
                                                 unsigned* attempts) {
  SimResult res;
  try {
    bool fused_hit = false;
    Timer tf;
    const std::uint64_t fuse_start_us = Timer::now_micros();
    std::shared_ptr<const FusionResult> fused =
        fused_cache_.get_or_fuse(q.circuit, fusion, &fused_hit);
    res.fuse_seconds = tf.seconds();
    res.fused_cache_hit = fused_hit;
    res.fusion = fused->stats;
    span("fuse", corr, fuse_start_us,
         static_cast<std::uint64_t>(res.fuse_seconds * 1e6),
         fused_hit ? "cache-hit" : "cache-miss");

    BackendSlot& slot = resolve_backend(spec, q.precision);
    if (const unsigned cap = slot.backend->max_qubits();
        q.circuit.num_qubits > cap) {
      // OOM-class by construction: the state cannot fit, so the fallback
      // ladder (if any) is the right next step, but retrying here is not.
      SimResult r = rejected(
          strfmt("request uses %u qubits but backend '%s' fits at most %u in "
                 "device memory",
                 q.circuit.num_qubits, spec.c_str(), cap),
          SimErrorCode::kOutOfMemory);
      r.backend_used = spec;
      return r;
    }

    // Price this run on the load map (and feed its observed time back to
    // calibration) — for every backend, not just planner placements, so the
    // planner sees *all* in-flight work. Reuses the fused result above: no
    // extra fused-cache traffic. The guard settles on every exit path.
    struct SettleGuard {
      SimulationEngine* eng;
      Booking booking;
      unsigned num_qubits, max_fused;
      double observed = 0;  // execute seconds of a successful attempt
      ~SettleGuard() { eng->settle(booking, num_qubits, max_fused, observed); }
    } settle_guard{this, book(spec, fused->circuit, q.precision, 1),
                   q.circuit.num_qubits, fusion.max_fused_qubits};

    BackendRunSpec rs;
    rs.seed = q.seed;
    rs.num_samples = q.num_samples;
    rs.amplitude_indices = q.amplitude_indices;
    rs.want_state = q.want_state;
    rs.deadline = deadline;
    rs.corr = corr;
    // Expectation requests evaluate the observable over the final state in
    // the same backend run — the device kernel on hip backends, the host
    // path on cpu (DESIGN.md §14). `q` outlives the run.
    rs.observable =
        q.kind == RequestKind::kExpectation ? &q.observable : nullptr;

    const unsigned max_attempts = std::max(1u, opt_.max_attempts);
    double backoff = std::max(0.0, opt_.retry_backoff_seconds);
    for (unsigned attempt = 1;; ++attempt) {
      ++*attempts;
      const std::uint64_t run_start_us = Timer::now_micros();
      try {
        Timer tr;
        BackendRunOutput out;
        {
          std::lock_guard run_lk(slot.run_mu);
          out = slot.backend->run(fused->circuit, rs);
        }
        res.run_seconds = tr.seconds();
        span("execute", corr, run_start_us,
             static_cast<std::uint64_t>(res.run_seconds * 1e6),
             strfmt("attempt %u on %s: ok", attempt, spec.c_str()));
        res.measurements = std::move(out.measurements);
        res.samples = std::move(out.samples);
        res.amplitudes = std::move(out.amplitudes);
        res.state = std::move(out.state);
        res.counters = std::move(out.counters);
        res.sample_seconds = out.sample_seconds;
        for (const cplx64& e : out.expectations) res.expectation += e;
        res.ok = true;
        res.code = SimErrorCode::kOk;
        res.backend_used = spec;
        // Sampling time is excluded: the roofline models gate application.
        settle_guard.observed = res.run_seconds - res.sample_seconds;
        return res;
      } catch (const CodedError& e) {
        const SimErrorCode code = classify(e.code());
        count_fault(code);
        span("execute", corr, run_start_us,
             Timer::now_micros() - run_start_us,
             strfmt("attempt %u on %s: %s", attempt, spec.c_str(),
                    to_string(code)));
        if (!transient(code) || attempt >= max_attempts || deadline.expired()) {
          SimResult r = rejected(e.what(), code);
          r.backend_used = spec;
          return r;
        }
        {
          std::lock_guard lk(metrics_mu_);
          ++metrics_.retries;
        }
        if (backoff > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
          backoff *= 2;
        }
      }
    }
  } catch (const Error& e) {
    // Malformed input, fusion failure, bad fault spec: not retryable.
    return rejected(e.what());
  } catch (const std::exception& e) {
    return rejected(std::string("internal error: ") + e.what(),
                    SimErrorCode::kInternal);
  }
}

void SimulationEngine::process(Job& job) {
  const SimRequest& q = job.req;
  SimResult res;
  res.queue_seconds = job.queued.seconds();
  span("queue", job.corr, job.submit_us,
       static_cast<std::uint64_t>(res.queue_seconds * 1e6));

  try {
    if (q.timeout_seconds > 0 && res.queue_seconds > q.timeout_seconds) {
      count_fault(SimErrorCode::kDeadlineExceeded);
      const double queued = res.queue_seconds;
      res = rejected(strfmt("deadline exceeded: %.1f ms in queue > %.1f ms timeout",
                            queued * 1e3, q.timeout_seconds * 1e3),
                     SimErrorCode::kDeadlineExceeded);
      res.queue_seconds = queued;
    } else if (q.circuit.num_qubits < 1) {
      res = rejected("request has no qubits");
    } else if (q.circuit.num_qubits > opt_.max_qubits) {
      res = rejected(strfmt("request uses %u qubits; engine cap is %u",
                            q.circuit.num_qubits, opt_.max_qubits));
    } else if (!is_backend_spec(q.backend)) {
      res = rejected("unknown backend '" + q.backend + "' (expected " +
                     backend_spec_grammar() + ")");
    } else if (q.kind == RequestKind::kExpectation &&
               q.observable.strings.empty()) {
      res = rejected("expectation request has an empty observable");
    } else if (q.kind == RequestKind::kTrajectory && q.num_trajectories < 1) {
      res = rejected("trajectory request needs num_trajectories >= 1");
    } else if (q.kind == RequestKind::kTrajectory &&
               (q.num_samples > 0 || !q.amplitude_indices.empty() ||
                q.want_state)) {
      res = rejected(
          "trajectory requests return a mean distribution or an observable "
          "mean; samples/amplitudes/state are not available");
    } else if (q.kind == RequestKind::kTrajectory &&
               q.circuit.num_measurements() > 0) {
      res = rejected("trajectory requests do not support measurement gates");
    } else if (q.kind == RequestKind::kTrajectory &&
               BackendSpec::parse(q.backend).kind != BackendSpec::Kind::kAuto &&
               !backend_supports_noise(BackendSpec::parse(q.backend))) {
      res = rejected(strfmt(
          "backend '%s' cannot run trajectory (noise) workloads; use 'cpu' "
          "or 'auto'",
          q.backend.c_str()));
    } else {
      // Kind-specific payload validation; a throw lands in the catch below
      // as a structured rejection.
      if (q.kind != RequestKind::kCircuit && !q.observable.strings.empty()) {
        q.observable.validate(q.circuit.num_qubits);
      }
      if (q.kind == RequestKind::kTrajectory) {
        q.noise.channel.validate();
        // The trajectory sampler applies the channel qubit by qubit.
        check(q.noise.channel.num_qubits() == 1,
              strfmt("noise channel '%s' acts on %u qubits; trajectory "
                     "requests take 1-qubit channels",
                     q.noise.channel.name.c_str(),
                     q.noise.channel.num_qubits()));
      }
      if (q.kind == RequestKind::kExpectation) {
        std::lock_guard lk(metrics_mu_);
        ++metrics_.expectation_requests;
      }
      const bool cacheable =
          !q.bypass_result_cache && opt_.result_cache_capacity > 0;
      bool served = false;
      if (cacheable) {
        // The request's canonical bytes are its cache key: every lookup
        // compares the full identity.
        job.identity = canonical_request_summary(q);
        std::unique_lock lk(results_mu_);
        for (;;) {
          auto it = result_index_.find(job.identity);
          if (it != result_index_.end()) {
            result_lru_.splice(result_lru_.begin(), result_lru_, it->second);
            const double queued = res.queue_seconds;
            res = it->second->result;  // copy the cached payload
            res.result_cache_hit = true;
            res.queue_seconds = queued;
            res.run_seconds = 0;
            res.fuse_seconds = 0;
            res.attempts = 0;
            served = true;
            break;
          }
          auto fit = in_flight_.find(job.identity);
          if (fit == in_flight_.end()) {
            // We simulate this identity; identical requests dequeued
            // meanwhile wait below instead of duplicating the run
            // (anti-stampede).
            job.flight = std::make_shared<Flight>();
            in_flight_.emplace(job.identity, job.flight);
            break;
          }
          std::shared_ptr<Flight> f = fit->second;
          results_cv_.wait(lk, [&] { return f->done; });
          if (!f->result.ok &&
              f->result.code == SimErrorCode::kDeadlineExceeded) {
            // The owner ran out of *its* budget; ours may differ (timeouts
            // are not part of the key). Loop — likely becoming the owner.
            continue;
          }
          const double queued = res.queue_seconds;
          res = f->result;  // owner's outcome, success or failure
          res.queue_seconds = queued;
          if (res.ok) {
            res.result_cache_hit = true;
            res.run_seconds = 0;
            res.fuse_seconds = 0;
            res.attempts = 0;
          } else {
            std::lock_guard mk(metrics_mu_);
            ++metrics_.coalesced_failures;
          }
          served = true;
          break;
        }
      }

      if (!served) {
        Deadline deadline;
        if (q.timeout_seconds > 0) {
          deadline = Deadline::after(q.timeout_seconds - res.queue_seconds);
        }

        if (q.kind == RequestKind::kTrajectory) {
          // Resolve the backend (for "auto": the first noise-capable
          // candidate that fits — trajectory batches are priced as N x the
          // per-trajectory prediction, but all noise work runs host-side
          // today, so there is exactly one placement class), then fan the
          // batch out across the workers. The batch takes over the job; the
          // last sub-run finishes it.
          std::string traj_spec = q.backend;
          if (BackendSpec::parse(q.backend).kind == BackendSpec::Kind::kAuto) {
            traj_spec.clear();
            for (const BackendSpec& c : planner_.options().candidates) {
              if (backend_supports_noise(c) &&
                  backend_fits(c, q.circuit.num_qubits, q.precision)) {
                traj_spec = c.to_string();
                break;
              }
            }
          }
          if (traj_spec.empty()) {
            res = rejected(
                "backend 'auto' found no noise-capable candidate for this "
                "trajectory workload (planner_candidates needs 'cpu')");
          } else {
            launch_trajectory_batch(job, traj_spec, deadline,
                                    res.queue_seconds);
            return;
          }
        } else {
          // Resolve "auto" through the planner: score every candidate backend
          // over the request's fused workload and pick backend AND fusion
          // (DESIGN.md §13). The result is cached under the *auto* key, so
          // identical auto requests coalesce and memoize like any other.
          std::string run_spec = q.backend;
          FusionOptions run_fusion = q.fusion;
          PlanChoice plan;
          bool planned = false;
          if (BackendSpec::parse(q.backend).kind == BackendSpec::Kind::kAuto) {
            const std::uint64_t plan_start_us = Timer::now_micros();
            const auto load_of = [this](const BackendSpec& s) {
              return queued_load(s.to_string());
            };
            std::string plan_key;
            append_word(plan_key, q.precision == Precision::kSingle ? 1 : 2);
            append_word(plan_key, q.fusion.window_moments);
            append_circuit_identity(plan_key, q.circuit);
            std::shared_ptr<const PlanChoice> hit;
            {
              std::lock_guard lk(plan_mu_);
              auto it = plan_cache_.find(plan_key);
              if (it != plan_cache_.end()) hit = it->second;
            }
            const bool plan_cached = static_cast<bool>(hit);
            if (hit) {
              plan = planner_.rescore(*hit, q.circuit.num_qubits, load_of);
            } else {
              plan = planner_.plan(
                  q.circuit.num_qubits, q.precision,
                  {q.fusion.window_moments, 2 * q.fusion.window_moments},
                  [this, &q](const FusionOptions& fo) {
                    bool hit = false;
                    return perfmodel::WorkloadStats::from_circuit(
                        fused_cache_.get_or_fuse(q.circuit, fo, &hit)->circuit);
                  },
                  load_of, opt_.max_qubits);
              std::lock_guard lk(plan_mu_);
              if (plan_cache_.size() >= 512) plan_cache_.clear();
              plan_cache_.insert_or_assign(
                  std::move(plan_key), std::make_shared<const PlanChoice>(plan));
            }
            run_spec = plan.backend.to_string();
            run_fusion = plan.fusion;
            planned = true;
            span("plan", job.corr, plan_start_us,
                 Timer::now_micros() - plan_start_us,
                 strfmt("-> %s f=%u w=%u pred=%.3fms wait=%.3fms cal=%.2f "
                        "(%zu scored%s)",
                        run_spec.c_str(),
                        plan.fusion.max_fused_qubits, plan.fusion.window_moments,
                        plan.predicted_seconds * 1e3, plan.wait_seconds * 1e3,
                        plan.calibration, plan.candidates_scored,
                        plan_cached ? ", cached" : ""));
          }

          unsigned attempts = 0;
          SimResult ex = execute_with_retries(q, run_spec, run_fusion, deadline,
                                              job.corr, &attempts);
          bool fell_back = false;
          const std::optional<BackendSpec> fb =
              BackendSpec::try_parse(opt_.fallback_backend);
          if (!ex.ok && transient(ex.code) && fb && fb->runnable() &&
              opt_.fallback_backend != run_spec) {
            ex = execute_with_retries(q, opt_.fallback_backend, run_fusion,
                                      deadline, job.corr, &attempts);
            fell_back = true;
            std::lock_guard lk(metrics_mu_);
            ++metrics_.fallbacks;
          }
          const double queued = res.queue_seconds;
          res = std::move(ex);
          res.queue_seconds = queued;
          res.attempts = attempts;
          res.fallback_used = fell_back;
          if (planned) {
            res.counters["planner/raw_seconds"] = plan.raw_seconds;
            res.counters["planner/predicted_seconds"] = plan.predicted_seconds;
            res.counters["planner/wait_seconds"] = plan.wait_seconds;
            res.counters["planner/calibration"] = plan.calibration;
            res.counters["planner/candidates_scored"] =
                static_cast<double>(plan.candidates_scored);
            res.counters["planner/max_fused"] =
                static_cast<double>(plan.fusion.max_fused_qubits);
            res.counters["planner/window"] =
                static_cast<double>(plan.fusion.window_moments);
          }
        }
      }
    }
  } catch (const Error& e) {
    res = rejected(e.what());
  } catch (const std::exception& e) {
    res = rejected(std::string("internal error: ") + e.what(),
                   SimErrorCode::kInternal);
  }
  finish(job, std::move(res));
}

void SimulationEngine::finish(Job& job, SimResult res) {
  if (job.flight) {
    // Publish the outcome — success or failure — to every coalesced waiter
    // and release the key so later requests can start fresh. A success is
    // memoized under the same lock, so a request dequeued meanwhile finds
    // either the flight or the cache entry, never neither.
    std::lock_guard lk(results_mu_);
    job.flight->result = res;
    job.flight->done = true;
    in_flight_.erase(job.identity);
    if (res.ok && approx_result_bytes(res) <= kMaxCachedResultBytes) {
      // The owner held the flight, so no entry for this identity exists.
      result_lru_.push_front(CacheEntry{std::move(job.identity), res});
      result_index_.emplace(result_lru_.front().identity, result_lru_.begin());
      while (result_lru_.size() > opt_.result_cache_capacity) {
        result_index_.erase(result_lru_.back().identity);
        result_lru_.pop_back();
      }
    }
    results_cv_.notify_all();
  }

  res.request_id = job.corr;
  res.kind = job.req.kind;
  res.total_seconds = job.queued.seconds();
  // Enclosing span: the flow-event anchor linking this request's trace row
  // to the kernels and memcpys its backend run produced.
  const std::string outcome = outcome_text(res);
  span("request", job.corr, job.submit_us,
       static_cast<std::uint64_t>(res.total_seconds * 1e6), outcome);
  record_done(res, outcome);
  if (job.on_done) {
    job.on_done(std::move(res));
  } else {
    job.promise.set_value(std::move(res));
  }
}

void SimulationEngine::launch_trajectory_batch(Job& job,
                                               const std::string& spec,
                                               const Deadline& deadline,
                                               double queue_seconds) {
  auto batch = std::make_shared<TrajectoryBatch>();
  const SimRequest& q = job.req;
  const std::size_t n_traj = q.num_trajectories;

  // Prepare (normalize) the circuit once, shared by every sub-run. This is
  // the trajectory analogue of the fuse stage — fusion itself would compose
  // same-qubit neighbours and move the noise-insertion points, so the cache
  // holds the gate-for-gate normal form instead.
  bool prep_hit = false;
  Timer tf;
  const std::uint64_t prep_start_us = Timer::now_micros();
  batch->prepared = fused_cache_.get_or_normalize(q.circuit, &prep_hit);
  batch->base.fuse_seconds = tf.seconds();
  batch->base.fused_cache_hit = prep_hit;
  batch->base.fusion = batch->prepared->stats;
  span("fuse", job.corr, prep_start_us,
       static_cast<std::uint64_t>(batch->base.fuse_seconds * 1e6),
       prep_hit ? "normalize cache-hit" : "normalize cache-miss");

  // Price the batch as N x the per-trajectory roofline prediction so the
  // load map (and through it, "auto" placement of concurrent requests) sees
  // noisy workloads at their real weight (DESIGN.md §14).
  batch->booking = book(spec, batch->prepared->circuit, q.precision, n_traj);
  batch->observable_mode = !q.observable.strings.empty();
  batch->stop_at = n_traj;
  batch->deadline = deadline;
  batch->run_start_us = Timer::now_micros();
  batch->base.queue_seconds = queue_seconds;
  if (!batch->observable_mode) {
    batch->dist.assign(pow2(q.circuit.num_qubits), 0.0);
  }
  batch->job = std::move(job);  // `q` is gone from here on
  {
    std::lock_guard lk(metrics_mu_);
    ++metrics_.trajectory_batches;
  }

  const unsigned fan = static_cast<unsigned>(
      std::min<std::size_t>(n_traj, opt_.num_workers));
  batch->active_subs = fan;
  {
    std::lock_guard lk(queue_mu_);
    // Enqueued even mid-drain (stop_ set): the batch is in-flight — its
    // request was already dequeued — and the drain contract finishes
    // in-flight work. The launching worker is alive (it is running this
    // function), and the workers drain sub-jobs before exiting, so the subs
    // always run even if every other worker has already returned.
    for (unsigned i = 0; i < fan; ++i) {
      Job sub;
      sub.sub_batch = batch;
      sub.corr = batch->job.corr;
      // Sub-jobs jump the queue: the launching worker returns to the pool
      // rather than blocking, and draining subs first keeps coalesced
      // waiters (which occupy workers) from starving the batch they wait
      // on — the fan-out cannot deadlock even with one worker.
      queue_.push_front(std::move(sub));
    }
  }
  queue_cv_.notify_all();
}

void SimulationEngine::trajectory_sub_loop(
    const std::shared_ptr<TrajectoryBatch>& batch) {
  if (batch->job.req.precision == Precision::kSingle) {
    run_trajectory_subs<float>(*batch);
  } else {
    run_trajectory_subs<double>(*batch);
  }
  bool last = false;
  {
    std::lock_guard lk(batch->mu);
    last = (--batch->active_subs == 0);
  }
  if (last) finalize_trajectory_batch(*batch);
}

template <typename FP>
void SimulationEngine::run_trajectory_subs(TrajectoryBatch& b) {
  // A dedicated one-thread pool per sub-run: the pool width fixes the fp
  // reduction order inside apply_channel / obs::expectation, and width 1
  // reproduces the serial reference bit for bit regardless of how many
  // engine workers share the batch (DESIGN.md §14).
  ThreadPool pool(1);
  const SimRequest& q = b.job.req;
  StateVector<FP> state(q.circuit.num_qubits);
  std::vector<double> contrib;
  for (;;) {
    std::size_t t;
    {
      std::lock_guard lk(b.mu);
      if (b.failed || b.next_run >= b.stop_at) return;
      t = b.next_run++;
    }
    try {
      noise::run_trajectory_prepared<FP>(b.prepared->circuit, q.noise, q.seed,
                                         t, state, pool, b.deadline);
      if (b.observable_mode) {
        const cplx64 v = obs::expectation(q.observable, state, pool);
        std::lock_guard lk(b.mu);
        ++b.executed;
        if (t < b.stop_at) b.pending_vals.emplace(t, v);
        // Drain the ordered prefix; every accumulation advances the running
        // mean/stderr and (deterministically) may trigger the early stop.
        while (!b.pending_vals.empty() && b.next_accum < b.stop_at &&
               b.pending_vals.begin()->first == b.next_accum) {
          const cplx64 u = b.pending_vals.begin()->second;
          b.pending_vals.erase(b.pending_vals.begin());
          b.val_sum += u;
          b.val_sumsq += u.real() * u.real();
          ++b.next_accum;
          const std::size_t k = b.next_accum;
          if (q.trajectory_tolerance > 0 && k >= kMinTrajectoriesForStop &&
              k < b.stop_at &&
              stderr_of_mean(b.val_sum, b.val_sumsq, k) <=
                  q.trajectory_tolerance) {
            b.stop_at = k;
            b.early_stopped = true;
            // Everything still pending is at index >= k: discarded.
            b.pending_vals.clear();
          }
        }
      } else {
        contrib.resize(state.size());
        for (index_t i = 0; i < state.size(); ++i) {
          contrib[i] = std::norm(cplx64(state[i].real(), state[i].imag()));
        }
        std::lock_guard lk(b.mu);
        ++b.executed;
        if (t < b.stop_at) {
          b.pending_dist.emplace(t, std::move(contrib));
          contrib = {};
        }
        // Elementwise accumulation in strict trajectory order — the same
        // addition order as the serial reference loop, hence bit-identical.
        while (!b.pending_dist.empty() && b.next_accum < b.stop_at &&
               b.pending_dist.begin()->first == b.next_accum) {
          const std::vector<double>& c = b.pending_dist.begin()->second;
          for (std::size_t i = 0; i < b.dist.size(); ++i) b.dist[i] += c[i];
          b.pending_dist.erase(b.pending_dist.begin());
          ++b.next_accum;
        }
      }
    } catch (const CodedError& e) {
      const SimErrorCode code = classify(e.code());
      count_fault(code);
      std::lock_guard lk(b.mu);
      if (!b.failed) {
        b.failed = true;
        b.fail_code = code;
        b.fail_error = e.what();
      }
      return;
    } catch (const std::exception& e) {
      std::lock_guard lk(b.mu);
      if (!b.failed) {
        b.failed = true;
        b.fail_code = SimErrorCode::kInternal;
        b.fail_error = std::string("trajectory failed: ") + e.what();
      }
      return;
    }
  }
}

void SimulationEngine::finalize_trajectory_batch(TrajectoryBatch& b) {
  // Last sub-run standing: every other accessor is gone, so the batch state
  // is ours without the lock.
  const std::string& spec = b.booking.spec;
  const std::size_t total = b.job.req.num_trajectories;
  const std::size_t k = b.next_accum;
  SimResult res = std::move(b.base);
  res.backend_used = spec;
  if (b.failed) {
    res.ok = false;
    res.code = b.fail_code;
    res.error = std::move(b.fail_error);
  } else {
    res.ok = true;
    res.code = SimErrorCode::kOk;
    res.attempts = 1;
    res.trajectories_run = k;
    res.run_seconds = b.run_timer.seconds();
    if (b.observable_mode) {
      res.expectation = b.val_sum / static_cast<double>(k);
      res.expectation_stderr = stderr_of_mean(b.val_sum, b.val_sumsq, k);
    } else {
      res.distribution = std::move(b.dist);
      for (double& v : res.distribution) v /= static_cast<double>(k);
    }
    res.counters["trajectory/requested"] = static_cast<double>(total);
    res.counters["trajectory/executed"] = static_cast<double>(b.executed);
    res.counters["trajectory/early_stopped"] = b.early_stopped ? 1.0 : 0.0;
    std::lock_guard lk(metrics_mu_);
    metrics_.trajectories_run += b.executed;
    if (b.early_stopped) ++metrics_.trajectory_early_stops;
    metrics_.trajectories_per_batch.record(static_cast<double>(k));
  }
  // Calibration learns the batch wall-clock: the effective per-trajectory
  // rate including the fan-out speedup.
  settle(b.booking, b.job.req.circuit.num_qubits, 1,
         res.ok ? res.run_seconds : 0);
  span("trajectory", b.job.corr, b.run_start_us,
       static_cast<std::uint64_t>(res.run_seconds * 1e6),
       strfmt("%zu/%zu trajectories on %s%s", k, total, spec.c_str(),
              b.early_stopped ? " (early stop)" : ""));
  finish(b.job, std::move(res));
}

void SimulationEngine::record_done(const SimResult& res,
                                   const std::string& outcome) {
  const std::uint64_t now_us = Timer::now_micros();
  const std::size_t result_bytes = approx_result_bytes(res);
  {
    std::lock_guard lk(metrics_mu_);
    EngineMetrics& m = metrics_;
    // Records one stage latency and keeps the slowest request as exemplar.
    const auto stage = [&](prof::Histogram& h, const char* name, double ms) {
      h.record(ms);
      auto& e = m.exemplars[name];
      if (ms > e.ms) {
        e.ms = ms;
        e.request_id = res.request_id;
      }
    };
    if (res.ok) {
      ++m.completed;
      stage(m.queue_ms, "queue", res.queue_seconds * 1e3);
      stage(m.total_ms, "total", res.total_seconds * 1e3);
      m.result_bytes.record(static_cast<double>(result_bytes));
      if (!res.result_cache_hit) {
        // Stage latencies and fusion width only exist for actual runs; a
        // cache hit would record misleading zeros.
        stage(m.fuse_ms, "fuse", res.fuse_seconds * 1e3);
        stage(m.execute_ms, "execute", res.run_seconds * 1e3);
        if (res.sample_seconds > 0) {
          stage(m.sample_ms, "sample", res.sample_seconds * 1e3);
        }
        m.fused_gates.record(static_cast<double>(res.fusion.output_gates));
      }
    } else {
      ++m.rejected;
    }
    if (res.result_cache_hit) ++m.result_cache_hits;
  }

  // Flight-recorder publication: this is what moves the request's pending
  // trace events into its ring entry, so it must run for every completion —
  // rejections included (they are exactly the requests an incident
  // investigation wants to see).
  if (recorder_) {
    prof::RequestRecord rec;
    rec.corr = res.request_id;
    rec.kind = to_string(res.kind);
    rec.backend = res.backend_used;
    if (const auto it = res.counters.find("planner/predicted_seconds");
        it != res.counters.end()) {
      double cal = 0;
      if (const auto c = res.counters.find("planner/calibration");
          c != res.counters.end()) {
        cal = c->second;
      }
      rec.planner = strfmt("predicted=%.3gs calibration=%.3g", it->second, cal);
    }
    rec.outcome = outcome;
    rec.ok = res.ok;
    rec.cache_hit = res.result_cache_hit;
    rec.attempts = res.attempts;
    rec.bytes = result_bytes;
    const auto total_us = static_cast<std::uint64_t>(res.total_seconds * 1e6);
    rec.submit_us = now_us > total_us ? now_us - total_us : 0;
    rec.queue_ms = res.queue_seconds * 1e3;
    rec.fuse_ms = res.fuse_seconds * 1e3;
    rec.execute_ms = res.run_seconds * 1e3;
    rec.sample_ms = res.sample_seconds * 1e3;
    rec.total_ms = res.total_seconds * 1e3;
    recorder_->record_request(std::move(rec));
  }

  if (watchdog_) {
    std::optional<SloBreach> breach;
    {
      std::lock_guard lk(metrics_mu_);
      breach = watchdog_->observe(static_cast<int>(res.kind) + 1,
                                  res.total_seconds * 1e3, res.ok, now_us);
      if (breach) ++metrics_.slo_breaches;
    }
    if (breach) {
      const std::string path = trigger_snapshot(breach->reason);
      if (trace_ != nullptr) {
        trace_->set_counter("engine/slo_breaches",
                            static_cast<double>(watchdog_->breaches()));
      }
      (void)path;
    }
  }
}

std::string SimulationEngine::debug_text() const {
  std::string out;
  if (recorder_) {
    out += recorder_->text_dump();
  } else {
    out += "flight recorder disabled\n";
  }
  if (watchdog_) {
    std::lock_guard lk(metrics_mu_);  // watchdog_ is driven under this lock
    out += watchdog_->status_text();
    if (metrics_.snapshots_written > 0) {
      out += "  last snapshot: " + metrics_.last_snapshot_path + "\n";
    }
  }
  return out;
}

std::string SimulationEngine::trigger_snapshot(const std::string& reason,
                                               const std::string& dir) {
  if (!recorder_) return {};
  const std::string& target = dir.empty() ? opt_.snapshot_dir : dir;
  if (target.empty()) return {};
  // Filename-safe reason: the watchdog emits safe reasons already, but the
  // debug endpoint accepts caller-provided ones.
  std::string safe;
  for (char c : reason) {
    const bool ok_char = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9') || c == '-' || c == '_';
    safe += ok_char ? c : '-';
  }
  if (safe.empty()) safe = "manual";
  ::mkdir(target.c_str(), 0755);  // best-effort; EEXIST is the common case
  const std::string stem =
      target + "/snapshot-" + std::to_string(Timer::now_micros()) + "-" + safe;
  const std::string trace_path = stem + ".trace.json";
  try {
    recorder_->write_snapshot(trace_path, reason);
    std::ofstream txt(stem + ".flightrec.txt", std::ios::binary);
    if (txt.good()) {
      const std::string dump = debug_text();
      txt.write(dump.data(), static_cast<std::streamsize>(dump.size()));
    }
  } catch (const std::exception&) {
    return {};  // best-effort: a full disk must not take the engine down
  }
  std::uint64_t written;
  {
    std::lock_guard lk(metrics_mu_);
    written = ++metrics_.snapshots_written;
    metrics_.last_snapshot_path = trace_path;
  }
  if (trace_ != nullptr) {
    trace_->set_counter("engine/snapshots_written",
                        static_cast<double>(written));
  }
  return trace_path;
}

EngineMetrics SimulationEngine::metrics() const {
  std::unique_lock lk(metrics_mu_);
  EngineMetrics m = metrics_;
  lk.unlock();
  m.fused_cache = fused_cache_.stats();
  const PlannerStats pl = planner_.stats();
  m.planner_decisions = pl.decisions;
  m.planner_calibrated_decisions = pl.calibrated_decisions;
  m.planner_observations = pl.observations;
  m.planner_predicted_seconds = pl.predicted_seconds_total;
  m.planner_observed_seconds = pl.observed_seconds_total;
  m.planner_chosen = pl.chosen;
  m.planner_calibration = pl.calibration;
  {
    std::lock_guard blk(backends_mu_);
    m.backends_created = backends_.size();
    for (const auto& [key, slot] : backends_) {
      const PoolStats ps = slot->backend->pool_stats();
      m.pool_hits += ps.hits;
      m.pool_misses += ps.misses;
      m.pool_discarded += ps.discarded;
      m.bytes_pooled += ps.bytes_pooled;
      m.buffers_pooled += ps.buffers_pooled;
    }
  }
  return m;
}

namespace {

// The one definition of every scalar engine metric: to_prom_text() renders
// each row as the qhip_engine_<name> family, to_trace_counters() as the
// engine/<name> counter. Adding a metric is one EngineMetrics field plus
// one row here.
struct ScalarMetric {
  const char* name;
  const char* type;  // Prometheus type: "counter" or "gauge"
  const char* help;
  double (*get)(const EngineMetrics&);
};

template <auto Field>
double field(const EngineMetrics& m) {
  return static_cast<double>(m.*Field);
}

constexpr ScalarMetric kScalarMetrics[] = {
    {"requests_submitted", "counter", "Requests submitted",
     field<&EngineMetrics::submitted>},
    {"requests_completed", "counter", "Requests served ok",
     field<&EngineMetrics::completed>},
    {"requests_rejected", "counter", "Requests failed or rejected",
     field<&EngineMetrics::rejected>},
    {"result_cache_hits", "counter",
     "Requests served from the result cache or a coalesced flight",
     field<&EngineMetrics::result_cache_hits>},
    {"retries", "counter", "Backend run retries",
     field<&EngineMetrics::retries>},
    {"fallbacks", "counter", "Requests degraded to the fallback backend",
     field<&EngineMetrics::fallbacks>},
    {"coalesced_failures", "counter", "Waiters served a propagated failure",
     field<&EngineMetrics::coalesced_failures>},
    {"faults_oom", "counter", "Out-of-memory attempt failures",
     field<&EngineMetrics::faults_oom>},
    {"faults_backend", "counter", "Device-fault attempt failures",
     field<&EngineMetrics::faults_backend>},
    {"faults_deadline", "counter", "Deadline expiries",
     field<&EngineMetrics::faults_deadline>},
    {"expectation_requests", "counter", "Expectation-kind requests admitted",
     field<&EngineMetrics::expectation_requests>},
    {"trajectory_batches", "counter", "Trajectory batches launched",
     field<&EngineMetrics::trajectory_batches>},
    {"trajectories_run", "counter",
     "Individual trajectories executed (including any discarded past an "
     "early stop)",
     field<&EngineMetrics::trajectories_run>},
    {"trajectory_early_stops", "counter",
     "Trajectory batches stopped early by tolerance",
     field<&EngineMetrics::trajectory_early_stops>},
    {"fused_cache_hit_rate", "gauge", "Fused-circuit cache hit rate",
     [](const EngineMetrics& m) { return m.fused_cache.hit_rate(); }},
    {"fused_cache_entries", "gauge", "Fused circuits held in the cache",
     [](const EngineMetrics& m) {
       return static_cast<double>(m.fused_cache.entries);
     }},
    {"fused_cache_bytes", "gauge",
     "Matrix payload bytes of the cached fused circuits",
     [](const EngineMetrics& m) {
       return static_cast<double>(m.fused_cache.approx_bytes);
     }},
    {"pool_hits", "counter", "State-buffer pool hits",
     field<&EngineMetrics::pool_hits>},
    {"pool_misses", "counter", "State-buffer pool misses",
     field<&EngineMetrics::pool_misses>},
    {"pool_discarded", "counter", "State buffers dropped by the pools",
     field<&EngineMetrics::pool_discarded>},
    {"bytes_pooled", "gauge", "Bytes parked in pools",
     field<&EngineMetrics::bytes_pooled>},
    {"buffers_pooled", "gauge", "Buffers parked in pools",
     field<&EngineMetrics::buffers_pooled>},
    {"backends_created", "gauge", "Live backend instances",
     field<&EngineMetrics::backends_created>},
    {"planner_decisions", "counter", "Auto-placement decisions made",
     field<&EngineMetrics::planner_decisions>},
    {"planner_calibrated_decisions", "counter",
     "Decisions that used a learned calibration factor",
     field<&EngineMetrics::planner_calibrated_decisions>},
    {"planner_observations", "counter", "Calibration observations recorded",
     field<&EngineMetrics::planner_observations>},
    {"planner_predicted_seconds_total", "counter",
     "Calibrated predicted seconds over planner decisions",
     field<&EngineMetrics::planner_predicted_seconds>},
    {"planner_observed_seconds_total", "counter",
     "Observed execute seconds fed to calibration",
     field<&EngineMetrics::planner_observed_seconds>},
    {"slo_breaches", "counter",
     "SLO watchdog breaches (each one armed a snapshot trigger)",
     field<&EngineMetrics::slo_breaches>},
    {"snapshots_written", "counter",
     "Flight-recorder snapshots written to the snapshot dir",
     field<&EngineMetrics::snapshots_written>},
};

// The histograms: Prometheus family qhip_engine_<family> (the stage
// latencies share one family under a stage="..." label), trace counters
// engine/hist/<key>/le_<bound>.
struct HistogramMetric {
  const char* key;
  const char* family;
  const char* stage;  // stage label value; nullptr for unlabeled families
  const char* help;
  prof::Histogram EngineMetrics::*hist;
};

constexpr const char* kStageHelp = "Per-stage request latency";
constexpr HistogramMetric kHistogramMetrics[] = {
    {"queue_ms", "stage_latency_ms", "queue", kStageHelp,
     &EngineMetrics::queue_ms},
    {"fuse_ms", "stage_latency_ms", "fuse", kStageHelp,
     &EngineMetrics::fuse_ms},
    {"execute_ms", "stage_latency_ms", "execute", kStageHelp,
     &EngineMetrics::execute_ms},
    {"sample_ms", "stage_latency_ms", "sample", kStageHelp,
     &EngineMetrics::sample_ms},
    {"total_ms", "stage_latency_ms", "total", kStageHelp,
     &EngineMetrics::total_ms},
    {"fused_gates", "fused_gates", nullptr,
     "Fused gates per executed request", &EngineMetrics::fused_gates},
    {"result_bytes", "result_bytes", nullptr,
     "Result payload bytes per request", &EngineMetrics::result_bytes},
    {"trajectories_per_batch", "trajectories_per_batch", nullptr,
     "Accumulated trajectories per served batch",
     &EngineMetrics::trajectories_per_batch},
};

// Trims the trailing zeros strfmt("%g") would not produce; bucket bounds
// like 0.08 and 81.92 stay short and stable across platforms.
std::string bound_label(double b) { return strfmt("%g", b); }

// One histogram as Prometheus exposition text: cumulative le buckets
// (including +Inf), then _sum and _count. `labels` is the inner label set
// without braces (e.g. "stage=\"queue\""), may be empty.
void prom_histogram(std::string& out, const std::string& family,
                    const std::string& labels, const prof::Histogram& h) {
  std::uint64_t cum = 0;
  const std::string sep = labels.empty() ? "" : ",";
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    cum += h.bucket_count(i);
    out += strfmt("%s_bucket{%s%sle=\"%s\"} %llu\n", family.c_str(),
                  labels.c_str(), sep.c_str(),
                  bound_label(h.upper_bound(i)).c_str(),
                  static_cast<unsigned long long>(cum));
  }
  cum += h.bucket_count(h.num_buckets());
  out += strfmt("%s_bucket{%s%sle=\"+Inf\"} %llu\n", family.c_str(),
                labels.c_str(), sep.c_str(),
                static_cast<unsigned long long>(cum));
  const std::string brace = labels.empty() ? "" : "{" + labels + "}";
  out += strfmt("%s_sum%s %.9g\n", family.c_str(), brace.c_str(), h.sum());
  out += strfmt("%s_count%s %llu\n", family.c_str(), brace.c_str(),
                static_cast<unsigned long long>(h.count()));
}

}  // namespace

std::string EngineMetrics::to_prom_text() const {
  std::string out;
  out.reserve(16384);
  for (const ScalarMetric& s : kScalarMetrics) {
    out += strfmt("# HELP qhip_engine_%s %s\n# TYPE qhip_engine_%s %s\n"
                  "qhip_engine_%s %.9g\n",
                  s.name, s.help, s.name, s.type, s.name, s.get(*this));
  }
  if (!planner_chosen.empty()) {
    out += "# HELP qhip_engine_planner_chosen Auto placements by backend\n";
    out += "# TYPE qhip_engine_planner_chosen counter\n";
    for (const auto& [spec, n] : planner_chosen) {
      out += strfmt("qhip_engine_planner_chosen{backend=\"%s\"} %llu\n",
                    prof::prom_escape_label(spec).c_str(),
                    static_cast<unsigned long long>(n));
    }
  }
  if (!planner_calibration.empty()) {
    out += "# HELP qhip_engine_planner_calibration "
           "EWMA observed/predicted ratio per backend and qubit bucket\n";
    out += "# TYPE qhip_engine_planner_calibration gauge\n";
    for (const auto& [key, f] : planner_calibration) {
      // Keys are "spec/q<bucket>" (Planner::stats()).
      const std::size_t slash = key.rfind('/');
      const std::string spec = key.substr(0, slash);
      const std::string bucket =
          slash == std::string::npos ? "" : key.substr(slash + 1);
      out += strfmt(
          "qhip_engine_planner_calibration{backend=\"%s\",bucket=\"%s\"} "
          "%.9g\n",
          prof::prom_escape_label(spec).c_str(),
          prof::prom_escape_label(bucket).c_str(), f);
    }
  }

  std::string_view family;
  for (const HistogramMetric& hm : kHistogramMetrics) {
    const std::string name = std::string("qhip_engine_") + hm.family;
    if (family != hm.family) {
      family = hm.family;
      out += strfmt("# HELP %s %s\n# TYPE %s histogram\n", name.c_str(),
                    hm.help, name.c_str());
    }
    if (hm.stage == nullptr) {
      prom_histogram(out, name, "", this->*hm.hist);
      continue;
    }
    prom_histogram(out, name, strfmt("stage=\"%s\"", hm.stage), this->*hm.hist);
    // Exemplar-style annotation: text-format 0.0.4 has no native exemplars,
    // so the slowest request behind each stage family rides along as a
    // comment line scrapers ignore and humans grep (corr resolves in
    // /debug/requests or any flight-recorder snapshot).
    if (const auto it = exemplars.find(hm.stage); it != exemplars.end()) {
      out += strfmt(
          "# EXEMPLAR %s{stage=\"%s\"} corr=%llu value_ms=%.9g\n",
          name.c_str(), hm.stage,
          static_cast<unsigned long long>(it->second.request_id),
          it->second.ms);
    }
  }
  return out;
}

void EngineMetrics::to_trace_counters(Tracer& t) const {
  for (const ScalarMetric& s : kScalarMetrics) {
    t.set_counter(std::string("engine/") + s.name, s.get(*this));
  }
  for (const auto& [spec, n] : planner_chosen) {
    t.set_counter("engine/planner/chosen/" + spec, static_cast<double>(n));
  }
  for (const auto& [key, f] : planner_calibration) {
    t.set_counter("engine/planner/calibration/" + key, f);
  }
  // Histogram buckets, one counter per non-empty bucket so the trace JSON
  // carries the full distributions next to the kernel timeline.
  for (const HistogramMetric& hm : kHistogramMetrics) {
    const prof::Histogram& h = this->*hm.hist;
    for (std::size_t i = 0; i <= h.num_buckets(); ++i) {
      if (h.bucket_count(i) == 0) continue;
      const std::string le = i < h.num_buckets()
                                 ? bound_label(h.upper_bound(i))
                                 : std::string("inf");
      t.set_counter(strfmt("engine/hist/%s/le_%s", hm.key, le.c_str()),
                    static_cast<double>(h.bucket_count(i)));
    }
  }
}

void SimulationEngine::export_metrics() const {
  if (opt_.tracer != nullptr) metrics().to_trace_counters(*opt_.tracer);
}

}  // namespace qhip::engine
