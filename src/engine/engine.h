// SimulationEngine: a batched, cache-aware serving layer over the runtime
// Backend API.
//
// The one-shot drivers pay transpile + allocation + device construction on
// every circuit execution. The engine amortizes all three for a long-lived
// service: requests are queued and executed by a small worker pool; fused
// circuits come from an LRU FusedCircuitCache; state vectors come from each
// backend's BufferPool; identical requests (same circuit, backend, fusion,
// seed, outputs) can be served straight from a result cache keyed on the
// request's canonical bytes (canonical_request_summary), which is sound
// because a simulation with a fixed seed is a pure function of the request.
//
// Requests on *different* backend instances run concurrently; calls into one
// backend are serialized with a per-instance lock (the simulators are not
// reentrant). Oversized requests — beyond the engine cap or the backend's
// device memory — are rejected gracefully with ok=false, as are requests
// whose deadline lapses while queued or mid-run (backends check the
// deadline cooperatively between fused-gate applications).
//
// Error recovery (DESIGN.md §10): device failures surface as structured
// SimErrorCodes, never strings alone. Transient device faults (OOM,
// backend faults — real or injected via EngineOptions::fault_spec) are
// retried with exponential backoff up to max_attempts per backend; when the
// primary backend keeps failing and fallback_backend is configured, the
// request degrades gracefully onto it (e.g. hip -> cpu), flagged in the
// result and the metrics. Identical in-flight requests coalesce onto one
// run; the owner's outcome — success or failure — propagates to every
// waiter, so a persistent fault costs one retry ladder, not one per waiter.
//
// Placement (DESIGN.md §13): a request may name backend = "auto" instead of
// a device. The engine's Planner then scores every candidate backend and
// fusion option with the calibrated roofline perfmodel plus the predicted
// seconds already queued per backend, runs the request on the winner, and
// feeds the observed execute time back into the calibration table — so
// placement converges on the machine actually serving, not the paper's.
//
// Engine metrics (request counts, cache hit rates, per-stage latency
// histograms, pooled bytes, retry/fallback/fault counters, planner decisions
// and calibration factors) export as counters into the same prof/trace JSON
// as the kernel timeline via export_metrics(), and as Prometheus text via
// EngineMetrics::to_prom_text() — both rendered from one metric table.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/circuit.h"
#include "src/engine/backend.h"
#include "src/engine/circuit_cache.h"
#include "src/engine/planner.h"
#include "src/noise/trajectory.h"
#include "src/obs/observable.h"
#include "src/engine/watchdog.h"
#include "src/prof/flight_recorder.h"
#include "src/prof/histogram.h"
#include "src/prof/trace.h"

namespace qhip::engine {

// Structured outcome classes for SimResult. Everything except kOk implies
// ok=false; `error` carries the human-readable detail.
enum class SimErrorCode {
  kOk = 0,
  kRejected,          // admission: bad request, engine cap, queue full
  kOutOfMemory,       // device allocation failed (real or injected)
  kBackendFault,      // device runtime error (failed stream op / kernel)
  kDeadlineExceeded,  // timed out in queue or at a mid-run checkpoint
  kInternal,          // unclassified execution failure
};

const char* to_string(SimErrorCode code);

// What the request asks the engine to compute (DESIGN.md §14).
//
//  kCircuit      — today's workloads: final state / samples / amplitudes.
//  kExpectation  — <psi| O |psi> of SimRequest::observable over the ideal
//                  final state; runs on any backend (hipsim::expectation on
//                  device, the obs:: host path on cpu).
//  kTrajectory   — quantum-trajectory noise simulation: num_trajectories
//                  sub-runs under SimRequest::noise, fanned out across the
//                  engine's workers and aggregated into a mean distribution
//                  (or, with a non-empty observable, a mean ± stderr with
//                  optional early stop). Noise runs on host state vectors,
//                  so only cpu-class backends qualify; "auto" picks among
//                  the noise-capable planner candidates.
enum class RequestKind {
  kCircuit = 0,
  kExpectation,
  kTrajectory,
};

const char* to_string(RequestKind kind);

struct SimRequest {
  Circuit circuit;
  // Any BackendSpec string: "cpu" | "hip" | "a100" | "hip:N" | "dist:N",
  // or "auto" to let the engine's cost-model planner pick both the backend
  // AND the fusion options among EngineOptions::planner_candidates
  // (DESIGN.md §13).
  std::string backend = "cpu";
  Precision precision = Precision::kSingle;
  // How to fuse — the same FusionOptions the FusedCircuitCache keys on and
  // the CLIs carry. Ignored (planner-chosen) when backend is "auto".
  FusionOptions fusion;
  std::uint64_t seed = 1;
  std::size_t num_samples = 0;
  std::vector<index_t> amplitude_indices;
  bool want_state = false;
  // Deadline in seconds since submit; 0 = none. Enforced at dequeue AND
  // cooperatively between fused-gate applications mid-run.
  double timeout_seconds = 0;
  // Forces a fresh simulation even when an identical request is cached; the
  // run neither reads nor fills the result cache and coalesces with nothing.
  bool bypass_result_cache = false;

  // Workload kind; the fields below it are only read for the kinds noted.
  RequestKind kind = RequestKind::kCircuit;
  // kExpectation: the observable to evaluate. kTrajectory: optional — empty
  // means "return the mean distribution", non-empty means "return the
  // trajectory mean ± stderr of this observable".
  obs::Observable observable;
  // kTrajectory only.
  noise::NoiseModel noise;
  std::size_t num_trajectories = 0;
  // kTrajectory with an observable: stop early once the standard error of
  // the running mean falls to or below this (0 = always run all N). The
  // stopping decision is made on the ordered trajectory prefix, so it is
  // deterministic regardless of worker scheduling.
  double trajectory_tolerance = 0;
};

struct SimResult {
  bool ok = false;
  SimErrorCode code = SimErrorCode::kOk;  // != kOk exactly when !ok
  std::string error;  // set when !ok (rejection or execution failure)
  RequestKind kind = RequestKind::kCircuit;  // echoed from the request

  // Stable per-request id, assigned at submit (1, 2, ...). Doubles as the
  // trace correlation id: the request's spans and the kernel/memcpy events
  // its backend run produced all carry it (DESIGN.md §11).
  std::uint64_t request_id = 0;

  std::vector<index_t> measurements;
  std::vector<index_t> samples;
  std::vector<cplx64> amplitudes;
  std::vector<cplx64> state;
  std::map<std::string, double> counters;  // backend extras (slot_swaps, ...)

  // kExpectation: <psi| O |psi> (exactly real for Hermitian O up to fp).
  // kTrajectory with an observable: the trajectory mean of <O>, with
  // expectation_stderr the standard error of that mean.
  cplx64 expectation{};
  double expectation_stderr = 0;
  // kTrajectory: trajectories actually executed (< num_trajectories only
  // when early stop triggered) and, without an observable, the mean output
  // probability distribution over those trajectories (2^n entries).
  std::size_t trajectories_run = 0;
  std::vector<double> distribution;

  FusionStats fusion;
  bool fused_cache_hit = false;
  bool result_cache_hit = false;
  std::string backend_used;   // spec that produced the result ("" if none ran)
  unsigned attempts = 0;      // backend run attempts (0 on cache hit/rejection)
  bool fallback_used = false; // served by EngineOptions::fallback_backend
  double fuse_seconds = 0;
  double queue_seconds = 0;  // submit -> dispatch
  double run_seconds = 0;    // backend execution (0 on a result-cache hit)
  double sample_seconds = 0; // Born-rule sampling within the backend run
  double total_seconds = 0;  // submit -> completion
};

struct EngineOptions {
  unsigned num_workers = 2;                // scheduler threads (min 1)
  std::size_t result_cache_capacity = 64;  // requests; 0 disables memoization
  unsigned max_qubits = 26;     // engine-wide cap (the drivers' host cap)
  std::size_t max_pending = 1024;  // queue bound; beyond it submissions reject
  Tracer* tracer = nullptr;     // sink for backend events + engine counters

  // Error recovery. A request failing with a transient device code (OOM,
  // backend fault) is re-run up to max_attempts times on its backend, with
  // retry_backoff_seconds doubling per retry; if the backend keeps failing
  // and fallback_backend names a different valid spec, one final attempt
  // ladder runs there (graceful degradation, e.g. "hip" -> "cpu").
  // Deadline expiry is never retried.
  unsigned max_attempts = 3;
  double retry_backoff_seconds = 0.001;
  std::string fallback_backend;  // "" = no fallback

  // Installed as a vgpu::FaultPlan into every virtual-GPU backend the
  // engine creates (QHIP_FAULT_SPEC grammar; see src/vgpu/fault.h).
  std::string fault_spec;

  // Cost-model planner behind backend = "auto" (DESIGN.md §13): the engine
  // owns a Planner that scores every candidate backend against the
  // calibrated roofline and current load, and calibrates online from every
  // completed run (explicit-backend runs included). This is the allowlist of
  // backend specs "auto" may place onto; empty means {"cpu", "hip", "a100"}.
  // Each entry must parse as a runnable spec — the constructor throws
  // qhip::Error otherwise.
  std::vector<std::string> planner_candidates;

  // Always-on flight recorder (src/prof/flight_recorder.h): the last
  // this-many completed requests are reconstructible as a Perfetto snapshot
  // after the fact. 0 disables it (trace_sink() then returns opt_.tracer).
  std::size_t flight_recorder_capacity = 256;

  // SLO watchdog (src/engine/watchdog.h): armed iff watchdog.rules is
  // non-empty. A breach bumps EngineMetrics::slo_breaches and — when
  // snapshot_dir is non-empty — writes snapshot-<ts>-<reason>.trace.json
  // plus a .flightrec.txt text dump there (rate-limited by
  // watchdog.min_trigger_interval_seconds).
  WatchdogOptions watchdog;
  std::string snapshot_dir;
};

struct EngineMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  // ok results
  std::uint64_t rejected = 0;   // !ok results (cap, memory, deadline, queue)
  std::uint64_t result_cache_hits = 0;
  // Error-recovery counters.
  std::uint64_t retries = 0;            // extra attempts beyond each first
  std::uint64_t fallbacks = 0;          // requests that ran on the fallback
  std::uint64_t coalesced_failures = 0; // waiters served a propagated failure
  std::uint64_t faults_oom = 0;         // failed attempts by code
  std::uint64_t faults_backend = 0;
  std::uint64_t faults_deadline = 0;    // queue + mid-run deadline expiries
  FusedCacheStats fused_cache;
  std::uint64_t pool_hits = 0;   // summed over live backends
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_discarded = 0;  // buffers dropped (capacity or trim)
  std::size_t bytes_pooled = 0;
  std::size_t buffers_pooled = 0;
  std::size_t backends_created = 0;

  // Fixed-bucket log-scale distributions over *all* completed (ok) requests
  // since engine start: they never forget and aggregate across engines
  // (docs/OBSERVABILITY.md). Completion-latency quantiles come from
  // total_ms.quantile(p); the SLO watchdog keeps the windowed view.
  prof::Histogram queue_ms = prof::latency_ms_histogram();
  prof::Histogram fuse_ms = prof::latency_ms_histogram();
  prof::Histogram execute_ms = prof::latency_ms_histogram();
  prof::Histogram sample_ms = prof::latency_ms_histogram();
  prof::Histogram total_ms = prof::latency_ms_histogram();
  prof::Histogram fused_gates = prof::count_histogram();
  prof::Histogram result_bytes = prof::bytes_histogram();

  // Workload-kind counters (DESIGN.md §14): expectation requests admitted
  // (cache hits included), trajectory batches launched, trajectories
  // actually executed across all batches, and batches that stopped early on
  // the stderr tolerance; trajectories_per_batch is the per-batch executed
  // count distribution.
  std::uint64_t expectation_requests = 0;
  std::uint64_t trajectory_batches = 0;
  std::uint64_t trajectories_run = 0;
  std::uint64_t trajectory_early_stops = 0;
  prof::Histogram trajectories_per_batch = prof::count_histogram();

  // Planner (backend = "auto") decision and calibration state; all zero /
  // empty when the planner is disabled (DESIGN.md §13).
  std::uint64_t planner_decisions = 0;
  std::uint64_t planner_calibrated_decisions = 0;  // used a learned factor
  std::uint64_t planner_observations = 0;
  double planner_predicted_seconds = 0;  // calibrated, summed over decisions
  double planner_observed_seconds = 0;   // summed over observations
  std::map<std::string, std::uint64_t> planner_chosen;  // spec -> picks
  std::map<std::string, double> planner_calibration;  // "spec/q<bucket>" -> f

  // SLO watchdog / snapshot trigger state (0 / empty when no rules are
  // configured).
  std::uint64_t slo_breaches = 0;
  std::uint64_t snapshots_written = 0;
  std::string last_snapshot_path;

  // Slowest request seen per stage since engine start: what to_prom_text
  // emits as "# EXEMPLAR" comment lines so a scrape can name the request
  // behind each latency family's tail (fetch it from /debug/requests or a
  // snapshot by corr id). Keys: queue, fuse, execute, sample, total.
  struct StageExemplar {
    std::uint64_t request_id = 0;
    double ms = 0;
  };
  std::map<std::string, StageExemplar> exemplars;

  // Prometheus text exposition (version 0.0.4): counters, gauges and the
  // histograms above as qhip_engine_* families, ready for a /metrics scrape
  // or `qsim_base_hip --prom` (field reference in docs/OBSERVABILITY.md).
  std::string to_prom_text() const;

  // The same metrics as "engine/..." trace counters: every scalar
  // qhip_engine_<name> family lands as engine/<name> with the same value,
  // histograms as one engine/hist/<name>/le_<bound> counter per non-empty
  // bucket.
  void to_trace_counters(Tracer& t) const;
};

// Exact identity of a request's result: every field that affects the
// simulation output, ending with the circuit's append_circuit_identity bytes
// (matrices as bit-exact doubles). Two requests are interchangeable iff their
// summaries are equal. The result cache and the in-flight map key on these
// bytes themselves, so a lookup compares the full identity and can never
// serve another request's payload.
std::string canonical_request_summary(const SimRequest& req);

class SimulationEngine {
 public:
  // Completion callback for the push-style submit overload. Invoked exactly
  // once per request — on a worker thread for executed requests, or inline
  // on the submitting thread for synchronous rejections (queue full, engine
  // stopped). It must not call back into the engine's blocking APIs.
  using CompletionFn = std::function<void(SimResult)>;

  explicit SimulationEngine(EngineOptions opt = {});
  // Equivalent to stop(): drains gracefully, then tears down the backends.
  ~SimulationEngine();

  SimulationEngine(const SimulationEngine&) = delete;
  SimulationEngine& operator=(const SimulationEngine&) = delete;

  // Enqueues a request. Never throws on bad requests: rejections come back
  // through the future as ok=false results.
  std::future<SimResult> submit(SimRequest req);

  // Callback-style submit for serving front-ends that must not park a
  // thread per pending request: `on_done` fires with the result instead of
  // a future. Returns the assigned request id (== SimResult::request_id ==
  // the trace correlation id).
  std::uint64_t submit(SimRequest req, CompletionFn on_done);

  // Synchronous convenience: submit + wait.
  SimResult run(SimRequest req);

  // Graceful drain: stops accepting new requests, fails everything still
  // *queued* with a structured kRejected result, finishes everything
  // in-flight (including trajectory batches whose sub-jobs are still
  // fanning out), and joins the workers. Every accepted request is
  // guaranteed exactly one completion — future or callback — before stop()
  // returns. Idempotent and safe to race with concurrent submits (which
  // reject once the drain begins); the destructor calls it.
  void stop();

  // The options the engine actually runs with (post-validation: num_workers
  // is clamped to the promised minimum of 1).
  const EngineOptions& options() const { return opt_; }

  // The "auto" placement planner (never null). Exposed so callers can seed
  // or inspect calibration directly (tests inject observations; dashboards
  // read stats()).
  Planner* planner() { return &planner_; }
  const Planner* planner() const { return &planner_; }

  EngineMetrics metrics() const;

  // Writes the current metrics as "engine/..." counters into the tracer
  // passed at construction (no-op without one), so they serialize into the
  // Perfetto trace JSON next to the kernel events.
  void export_metrics() const;

  // The Tracer front-ends should install where they would use opt_.tracer:
  // the flight recorder's capture sink when the recorder is enabled
  // (forwarding to opt_.tracer), opt_.tracer itself (possibly null)
  // otherwise. All engine spans and backend device events flow through it.
  Tracer* trace_sink() const { return trace_; }

  // Flight recorder / watchdog accessors; null when disabled by options.
  prof::FlightRecorder* flight_recorder() { return recorder_.get(); }
  const prof::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }
  const SloWatchdog* watchdog() const { return watchdog_.get(); }

  // Human-readable debug payload: the flight recorder's request table plus
  // the watchdog's rule/window status (the {"op":"debug"} and
  // GET /debug/requests body).
  std::string debug_text() const;

  // Writes snapshot-<ts>-<reason>.trace.json and a matching .flightrec.txt
  // into `dir` (or opt_.snapshot_dir when empty). Returns the trace path,
  // or "" when the recorder is disabled, no directory is configured, or the
  // write fails — snapshots are best-effort and never throw.
  std::string trigger_snapshot(const std::string& reason,
                               const std::string& dir = {});

 private:
  struct Job;
  struct BackendSlot;
  // Shared state of one fanned-out trajectory batch (defined in engine.cpp).
  struct TrajectoryBatch;

  // One in-flight simulation of a cacheable key. Waiters block on the
  // engine-wide results_cv_ until done, then read the owner's result —
  // success or failure — directly (anti-stampede with failure propagation).
  struct Flight {
    bool done = false;
    SimResult result;  // valid once done
  };

  struct CacheEntry {
    std::string identity;  // canonical_request_summary; result_index_ views it
    SimResult result;
  };

  // A run's price on the load map (DESIGN.md §13): raw roofline seconds
  // queued on `spec` from book() to settle(); 0 = un-modellable, unpriced.
  struct Booking {
    std::string spec;
    double raw_seconds = 0;
  };

  void worker_loop();
  // Admission (queue bound, stop flag) shared by both submit overloads;
  // finishes the job immediately on rejection.
  std::uint64_t submit_job(Job&& job);
  // The one completion path of every request: publishes the owned flight to
  // coalesced waiters and memoizes an ok result, stamps request_id / kind /
  // total_seconds, emits the enclosing `request` span, records metrics and
  // the flight-recorder entry, then fulfils the promise or callback.
  void finish(Job& job, SimResult res);
  void process(Job& job);
  // One attempt ladder on `spec` with `fusion` (the request's own, or the
  // planner's choice): fuse (cached), admission-check against the backend's
  // device memory, run with retries/backoff. Returns the structured
  // outcome; never throws.
  SimResult execute_with_retries(const SimRequest& q, const std::string& spec,
                                 const FusionOptions& fusion,
                                 const Deadline& deadline, std::uint64_t corr,
                                 unsigned* attempts);
  // Records a request-lifecycle span ([ts_us, ts_us+dur_us]) on the trace
  // row of request `corr` (no-op without a tracer).
  void span(const char* name, std::uint64_t corr, std::uint64_t ts_us,
            std::uint64_t dur_us, std::string detail = {}) const;
  BackendSlot& resolve_backend(const std::string& spec, Precision precision);
  // book() puts `runs` executions of `circuit` on the load map; settle()
  // takes them off and feeds a success's observed seconds to calibration.
  Booking book(const std::string& spec, const Circuit& circuit,
               Precision precision, std::size_t runs);
  void settle(const Booking& booking, unsigned num_qubits, unsigned max_fused,
              double observed_seconds);
  // Trajectory fan-out (DESIGN.md §14). launch_trajectory_batch moves the
  // job into a new batch, prepares the circuit (normalized, cached), books
  // the batch as N x the per-trajectory roofline prediction, and enqueues
  // min(N, num_workers) sub-jobs at the FRONT of the worker queue — the
  // launching worker never blocks on them, so the fan-out cannot deadlock
  // even with one worker. Each sub-job claims trajectory indices from the
  // shared cursor and streams contributions into the ordered accumulator;
  // the last sub-run to exit aggregates the batch and finishes its job.
  void launch_trajectory_batch(Job& job, const std::string& spec,
                               const Deadline& deadline, double queue_seconds);
  void trajectory_sub_loop(const std::shared_ptr<TrajectoryBatch>& batch);
  template <typename FP>
  void run_trajectory_subs(TrajectoryBatch& batch);
  void finalize_trajectory_batch(TrajectoryBatch& batch);
  // Load map: predicted seconds of work queued/running per backend spec —
  // what the planner's queued_seconds hook reads for load-aware placement.
  double queued_load(const std::string& spec) const;
  void adjust_load(const std::string& spec, double delta);
  // `outcome` is the request span's detail; the flight-recorder record
  // carries the same text.
  void record_done(const SimResult& res, const std::string& outcome);
  void count_fault(SimErrorCode code);
  static SimResult rejected(std::string why,
                            SimErrorCode code = SimErrorCode::kRejected);

  EngineOptions opt_;
  FusedCircuitCache fused_cache_;
  Planner planner_;
  std::atomic<std::uint64_t> next_request_id_{1};

  // Trace plumbing (DESIGN.md §16): recorder_ is non-null iff
  // flight_recorder_capacity > 0; trace_ is the sink all spans and backends
  // record into — the recorder's capture sink (downstream = opt_.tracer)
  // when enabled, opt_.tracer directly (possibly null) otherwise.
  std::unique_ptr<prof::FlightRecorder> recorder_;
  Tracer* trace_ = nullptr;
  std::unique_ptr<SloWatchdog> watchdog_;  // non-null iff rules configured

  mutable std::mutex load_mu_;
  std::map<std::string, double> backend_load_s_;  // spec -> predicted seconds

  // Plan memo for hot circuits: (precision, window, circuit identity bytes)
  // -> the planner's full candidate list. Raw predictions depend only on the
  // workload, so a hit is re-scored with the *current* calibration and load
  // (Planner::rescore) — per-request planning cost drops from a fusion sweep
  // to one encoding plus a few map lookups, with no staleness.
  mutable std::mutex plan_mu_;
  std::unordered_map<std::string, std::shared_ptr<const PlanChoice>>
      plan_cache_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::list<Job> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  // Serializes stop()/destructor callers; whoever acquires it first drains
  // and joins, later callers fall through once the drain is complete.
  std::mutex stop_mu_;

  mutable std::mutex backends_mu_;
  std::map<std::string, std::unique_ptr<BackendSlot>> backends_;

  mutable std::mutex results_mu_;
  std::condition_variable results_cv_;  // signals in-flight completions
  // Result LRU (front = most recent) and its index, keyed on each request's
  // canonical_request_summary bytes; the index views the entry's string.
  std::list<CacheEntry> result_lru_;
  std::unordered_map<std::string_view, std::list<CacheEntry>::iterator>
      result_index_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> in_flight_;

  // Running counters, histograms, watchdog bookkeeping and per-stage
  // exemplars. metrics() copies this and fills the derived sections (fused
  // cache, planner, pools, backends_created).
  mutable std::mutex metrics_mu_;
  EngineMetrics metrics_;
};

}  // namespace qhip::engine
