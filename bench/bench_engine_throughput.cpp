// SimulationEngine serving throughput vs per-request cold runs.
//
// The serving scenario from the engine design: the same 20-qubit RQC is
// requested repeatedly (RQC amplitude/sampling services replay identical
// circuits with fixed seeds, so simulation is a pure function of the
// request). Three configurations over the virtual MI250X GCD:
//
//   cold        a fresh backend per request: device construction, state
//               allocation, and transpile paid every time (one
//               run_circuit per request)
//   engine-sim  SimulationEngine with the result cache bypassed: fused
//               circuits cached, state buffers pooled, every request still
//               simulated
//   engine      SimulationEngine serving config: identical requests beyond
//               the first are answered from the result cache
//
// The headline is the engine-sim speedup: every request still simulated,
// so it measures what caching fused circuits and pooling buffers buys. The
// engine leg is reported second and labeled as cache hits, since after the
// first request it replays stored results. Acceptance: the cache-hit leg
// serves N requests >= 1.3x faster than the cold per-request path, with
// bit-identical samples for the fixed seed across all three legs. The cold
// and engine-sim legs are measured over a smaller sample (their per-request
// cost is flat) and reported as per-request means; the comparisons use
// those means scaled to N — printed transparently below.
//
// A second mode compares the planner against static placement:
//
//   bench_engine_throughput auto [K]
//
// serves a mixed-size workload (a small RQC where launch overhead dominates
// and a larger one where bandwidth does) three ways: pinned to each planner
// candidate backend, and with backend = "auto" after an explicit-run
// calibration phase. Acceptance: per workload class, auto reaches >= 0.95x
// the best static backend's throughput AND >= 2x the worst static choice,
// with samples bit-identical to the chosen backend requested explicitly.
//
// A third mode measures trajectory-batch fan-out (DESIGN.md §14):
//
//   bench_engine_throughput trajectory [N] [workers]
//
// runs N noisy trajectories of a 12-qubit RQC twice — the serial
// trajectory_distribution reference loop on one thread, and as a single
// engine trajectory-kind request fanned across `workers` workers — and
// checks the averaged distributions are bit-identical. Acceptance: >= 4x
// speedup at 8 workers, scaled down when the host has fewer cores than
// workers (the fan-out cannot beat the physical parallelism available).
//
// A fourth mode prices the always-on flight recorder (docs/OBSERVABILITY.md):
//
//   bench_engine_throughput flightrec [N]
//
// serves N cache-bypassed requests of a serving-size RQC (the same 12-qubit
// shape the trajectory mode uses) through two engines with tracing off:
// flight recorder disabled (capacity 0) and enabled at the default capacity.
// Batches
// alternate between the legs and each leg reports its best batch, so clock
// drift hits both sides equally. Acceptance: recorder overhead <= 2%.
//
// Usage: bench_engine_throughput [N] [cold-sample] [qubits-rows cols depth]
//        bench_engine_throughput auto [K]
//        bench_engine_throughput trajectory [N] [workers]
//        bench_engine_throughput flightrec [N]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/error.h"
#include "src/base/strings.h"
#include "src/base/threadpool.h"
#include "src/base/timer.h"
#include "src/engine/backend.h"
#include "src/engine/engine.h"
#include "src/noise/trajectory.h"
#include "src/rqc/rqc.h"

using namespace qhip;

namespace {

struct WorkClass {
  const char* name;
  Circuit circuit;
};

// Best-observed seconds per request over `k` sequential bypass-cache runs of
// `cls` pinned to `backend` ("auto" included), distinct seeds so nothing
// coalesces. Minimum, not mean: the small class finishes in ~0.2 ms, where
// scheduler interference in either leg would otherwise dominate the
// auto-vs-static ratio; the fastest run is the interference-free cost.
double measure(engine::SimulationEngine& eng, const WorkClass& cls,
               const std::string& backend, std::size_t k,
               std::uint64_t seed_base) {
  engine::SimRequest req;
  req.circuit = cls.circuit;
  req.backend = backend;
  req.num_samples = 64;
  req.bypass_result_cache = true;
  std::vector<double> per_req;
  per_req.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    req.seed = seed_base + i;
    Timer t;
    const engine::SimResult r = eng.run(req);
    per_req.push_back(t.seconds());
    check(r.ok, std::string(cls.name) + " on " + backend + ": " + r.error);
  }
  return *std::min_element(per_req.begin(), per_req.end());
}

int run_auto_mode(std::size_t k) {
  const std::vector<std::string> candidates = {"cpu", "hip", "hip:2"};

  rqc::RqcOptions small_opt;  // 2x3 grid = 6 qubits: launch-overhead bound
  small_opt.rows = 2;
  small_opt.cols = 3;
  small_opt.depth = 16;
  small_opt.seed = 7;
  rqc::RqcOptions large_opt;  // 4x4 grid = 16 qubits: bandwidth bound
  large_opt.rows = 4;
  large_opt.cols = 4;
  large_opt.depth = 8;
  large_opt.seed = 7;
  WorkClass classes[] = {{"small-6q", rqc::generate_rqc(small_opt)},
                         {"large-16q", rqc::generate_rqc(large_opt)}};

  engine::EngineOptions opt;
  opt.num_workers = 1;  // sequential runs: per-request timing stays honest
  opt.planner_candidates = candidates;
  engine::SimulationEngine eng(opt);

  std::printf("auto vs static placement: %zu requests per (class, backend), "
              "candidates cpu|hip|hip:2\n\n", k);

  // Calibration phase: explicit runs on every candidate feed the planner's
  // EWMA table, so its roofline (the paper's hardware) is corrected to this
  // host before any auto decision is scored.
  for (const WorkClass& cls : classes) {
    for (const std::string& b : candidates) measure(eng, cls, b, 2, 1000);
  }

  bool all_ok = true;
  for (const WorkClass& cls : classes) {
    // The small class runs in ~0.2 ms, so its min-of-k needs more samples to
    // shake off scheduler jitter; they cost nothing next to one large run.
    const std::size_t runs = cls.circuit.num_qubits <= 8 ? k * 4 : k;
    double best = 0, worst = 0;
    std::string best_b, worst_b;
    for (const std::string& b : candidates) {
      const double s = measure(eng, cls, b, runs, 2000);
      std::printf("  %-10s %-6s %10.3f ms / request\n", cls.name, b.c_str(),
                  s * 1e3);
      if (best_b.empty() || s < best) { best = s; best_b = b; }
      if (worst_b.empty() || s > worst) { worst = s; worst_b = b; }
    }
    // Unmeasured auto warmup: the planner explores fusion settings it has
    // no per-f calibration for yet (each costs at most one mispredicted
    // run before its observed time corrects the finest table level), so
    // the measured legs see the converged steady state.
    measure(eng, cls, "auto", 8, 3000);
    const double auto_s = measure(eng, cls, "auto", runs, 2000);
    std::printf("  %-10s %-6s %10.3f ms / request\n", cls.name, "auto",
                auto_s * 1e3);

    // Bit-identity: re-run one auto request, read the placement from its
    // planner counters, and replay it explicitly — identical samples.
    engine::SimRequest probe;
    probe.circuit = cls.circuit;
    probe.backend = "auto";
    probe.num_samples = 64;
    probe.seed = 4242;
    probe.bypass_result_cache = true;
    const engine::SimResult ar = eng.run(probe);
    check(ar.ok, "auto probe failed: " + ar.error);
    engine::SimRequest replay = probe;
    replay.backend = ar.backend_used;
    replay.fusion.max_fused_qubits =
        static_cast<unsigned>(ar.counters.at("planner/max_fused"));
    replay.fusion.window_moments =
        static_cast<unsigned>(ar.counters.at("planner/window"));
    const engine::SimResult er = eng.run(replay);
    check(er.ok, "explicit replay failed: " + er.error);
    check(ar.samples == er.samples && ar.measurements == er.measurements,
          "auto result must be bit-identical to its chosen backend");

    const double vs_best = best / auto_s;   // >= 0.95 wanted
    const double vs_worst = worst / auto_s; // >= 2 wanted
    std::printf("  %-10s auto = %.2fx best static (%s), %.2fx worst (%s), "
                "placed on %s f=%u w=%u%s\n\n",
                cls.name, vs_best, best_b.c_str(), vs_worst, worst_b.c_str(),
                ar.backend_used.c_str(),
                static_cast<unsigned>(ar.counters.at("planner/max_fused")),
                static_cast<unsigned>(ar.counters.at("planner/window")),
                ar.samples == er.samples ? ", bit-identical" : "");
    if (vs_best < 0.95) {
      std::printf("  [FAIL] %s: auto below 0.95x the best static backend\n",
                  cls.name);
      all_ok = false;
    }
    if (vs_worst < 2.0) {
      std::printf("  [FAIL] %s: auto below 2x the worst static backend\n",
                  cls.name);
      all_ok = false;
    }
  }

  const engine::EngineMetrics m = eng.metrics();
  std::printf("planner: %llu decisions, %llu calibrated, %llu observations\n",
              static_cast<unsigned long long>(m.planner_decisions),
              static_cast<unsigned long long>(m.planner_calibrated_decisions),
              static_cast<unsigned long long>(m.planner_observations));
  check(all_ok, "auto placement acceptance thresholds");
  std::printf("  [ok] auto >= 0.95x best static and >= 2x worst static per "
              "class, bit-identical results\n");
  return 0;
}

int run_trajectory_mode(std::size_t n_traj, unsigned workers) {
  rqc::RqcOptions ropt;  // 3x4 grid = 12 qubits: big enough that a
  ropt.rows = 3;         // trajectory costs real work, small enough that the
  ropt.cols = 4;         // serial leg finishes in seconds
  ropt.depth = 8;
  ropt.seed = 7;
  const Circuit circuit = rqc::generate_rqc(ropt);
  const noise::NoiseModel model{noise::depolarizing(0.01)};
  const std::uint64_t seed = 42;

  std::printf("circuit: %s; depolarizing 0.01, %zu trajectories\n",
              rqc::describe(circuit).c_str(), n_traj);

  // --- serial reference: one trajectory at a time, one thread -------------
  ThreadPool serial_pool(1);
  Timer t_serial;
  const std::vector<double> ref = noise::trajectory_distribution<double>(
      circuit, model, n_traj, seed, serial_pool);
  const double serial_s = t_serial.seconds();
  std::printf("serial      %8.3f s (%.3f ms / trajectory)\n", serial_s,
              serial_s / n_traj * 1e3);

  // --- engine: one trajectory-kind request fanned across workers ----------
  engine::EngineOptions opt;
  opt.num_workers = workers;
  engine::SimulationEngine eng(opt);
  engine::SimRequest req;
  req.kind = engine::RequestKind::kTrajectory;
  req.circuit = circuit;
  req.backend = "cpu";
  req.precision = Precision::kDouble;
  req.seed = seed;
  req.noise = model;
  req.num_trajectories = n_traj;
  Timer t_eng;
  const engine::SimResult r = eng.run(std::move(req));
  const double engine_s = t_eng.seconds();
  check(r.ok, "engine trajectory batch failed: " + r.error);
  std::printf("engine      %8.3f s (%.3f ms / trajectory, %u workers)\n",
              engine_s, engine_s / n_traj * 1e3, workers);

  check(r.distribution.size() == ref.size(),
        "distribution size mismatch vs serial reference");
  for (std::size_t i = 0; i < ref.size(); ++i) {
    check(r.distribution[i] == ref[i],
          strfmt("distribution[%zu] diverged from the serial reference "
                 "(%.17g vs %.17g)", i, r.distribution[i], ref[i]));
  }
  std::printf("distribution: bit-identical to the serial reference loop\n\n");

  // The fan-out cannot exceed the physical parallelism of this host: scale
  // the acceptance threshold to min(workers, hardware threads).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned par = std::min(workers, hw);
  const double required =
      par >= 8 ? 4.0 : (par > 1 ? 0.45 * par : 0.85);
  const double speedup = serial_s / engine_s;
  std::printf("throughput: engine %.2fx vs serial (need >= %.2fx at "
              "parallelism %u = min(%u workers, %u hw threads))\n",
              speedup, required, par, workers, hw);
  check(speedup >= required,
        strfmt("trajectory batch speedup %.2fx below the %.2fx floor",
               speedup, required));
  std::printf("  [ok] trajectory batch meets the hardware-scaled speedup "
              "floor\n");
  return 0;
}

int run_flightrec_mode(std::size_t n_requests) {
  rqc::RqcOptions ropt;  // 3x4 grid = 12 qubits: the serving-size circuit the
  ropt.rows = 3;         // trajectory mode also uses, so the recorder's
  ropt.cols = 4;         // per-event constant is priced against a realistic
  ropt.depth = 8;        // per-request simulation cost
  ropt.seed = 7;
  const Circuit circuit = rqc::generate_rqc(ropt);
  std::printf("circuit: %s; %zu cache-bypassed requests per batch, "
              "tracing off\n", rqc::describe(circuit).c_str(), n_requests);

  auto make_engine = [&](std::size_t capacity) {
    engine::EngineOptions opt;
    opt.num_workers = 1;  // sequential: batch time is pure per-request cost
    opt.flight_recorder_capacity = capacity;
    return std::make_unique<engine::SimulationEngine>(opt);
  };
  auto batch_seconds = [&](engine::SimulationEngine& eng,
                           std::uint64_t seed_base) {
    engine::SimRequest req;
    req.circuit = circuit;
    req.backend = "cpu";
    req.num_samples = 16;
    req.bypass_result_cache = true;
    Timer t;
    for (std::size_t i = 0; i < n_requests; ++i) {
      req.seed = seed_base + i;  // distinct seeds: no memoization
      const engine::SimResult r = eng.run(req);
      check(r.ok, "flightrec bench request failed: " + r.error);
    }
    return t.seconds();
  };

  auto base = make_engine(0);
  auto rec = make_engine(engine::EngineOptions{}.flight_recorder_capacity);

  // Warmup both legs (fused-circuit cache, buffer pool, allocator), then
  // alternate measured batches; min-of-k per leg drops scheduler noise.
  batch_seconds(*base, 1);
  batch_seconds(*rec, 1);
  constexpr std::size_t kBatches = 5;
  double base_best = 0, rec_best = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const double bs = batch_seconds(*base, 1000 + b * n_requests);
    const double rs = batch_seconds(*rec, 1000 + b * n_requests);
    std::printf("  batch %zu: recorder-off %.3f s, recorder-on %.3f s\n",
                b + 1, bs, rs);
    if (b == 0 || bs < base_best) base_best = bs;
    if (b == 0 || rs < rec_best) rec_best = rs;
  }

  const engine::EngineMetrics m = rec->metrics();
  const auto* fr = rec->flight_recorder();
  check(fr != nullptr, "flight recorder must be on in the recorder leg");
  std::printf("recorder leg: %llu requests recorded, ring size %zu, "
              "%llu events dropped\n",
              static_cast<unsigned long long>(fr->total_recorded()),
              fr->size(),
              static_cast<unsigned long long>(fr->dropped_events()));
  check(m.completed >= (kBatches + 1) * n_requests,
        "recorder leg completed-request count");

  const double overhead =
      base_best > 0 ? (rec_best - base_best) / base_best : 0;
  std::printf("\nflight recorder overhead: %.2f%% (best batch %.3f s off vs "
              "%.3f s on; %.1f us / request)\n",
              overhead * 100.0, base_best, rec_best,
              (rec_best - base_best) / static_cast<double>(n_requests) * 1e6);
  check(overhead <= 0.02,
        strfmt("flight recorder overhead %.2f%% exceeds the 2%% budget",
               overhead * 100.0));
  std::printf("  [ok] always-on flight recorder costs <= 2%% with tracing "
              "off\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IOLBF, 0);  // progress lines even when piped
  if (argc > 1 && std::string(argv[1]) == "auto") {
    const std::size_t k = argc > 2 ? parse_uint(argv[2], "K") : 6;
    return run_auto_mode(std::max<std::size_t>(k, 1));
  }
  if (argc > 1 && std::string(argv[1]) == "flightrec") {
    const std::size_t n = argc > 2 ? parse_uint(argv[2], "N") : 150;
    return run_flightrec_mode(std::max<std::size_t>(n, 1));
  }
  if (argc > 1 && std::string(argv[1]) == "trajectory") {
    const std::size_t n = argc > 2 ? parse_uint(argv[2], "N") : 64;
    const unsigned w =
        argc > 3 ? static_cast<unsigned>(parse_uint(argv[3], "workers")) : 8;
    return run_trajectory_mode(std::max<std::size_t>(n, 1), std::max(w, 1u));
  }
  std::size_t n_requests = 100;
  std::size_t cold_sample = 3;  // a cold 20-qubit run is ~1 min on this host
  unsigned rows = 4, cols = 5, depth = 8;  // 4x5 grid = 20 qubits
  if (argc > 1) n_requests = parse_uint(argv[1], "N");
  if (argc > 2) cold_sample = parse_uint(argv[2], "cold-sample");
  if (argc > 5) {
    rows = static_cast<unsigned>(parse_uint(argv[3], "rows"));
    cols = static_cast<unsigned>(parse_uint(argv[4], "cols"));
    depth = static_cast<unsigned>(parse_uint(argv[5], "depth"));
  }
  cold_sample = std::min(cold_sample, n_requests);

  rqc::RqcOptions ropt;
  ropt.rows = rows;
  ropt.cols = cols;
  ropt.depth = depth;
  ropt.seed = 7;
  const Circuit circuit = rqc::generate_rqc(ropt);
  std::printf("circuit: %s\n", rqc::describe(circuit).c_str());
  std::printf("workload: %zu identical requests (seed fixed), backend hip, "
              "f=3, 64 samples each\n\n", n_requests);

  RunOptions ropts;
  ropts.fusion.max_fused_qubits = 3;
  ropts.seed = 42;
  ropts.num_samples = 64;

  // --- cold: fresh backend per request ------------------------------------
  std::vector<index_t> cold_samples;
  Timer t_cold;
  for (std::size_t k = 0; k < cold_sample; ++k) {
    const auto backend = create_backend("hip", Precision::kSingle);
    const RunResult r = run_circuit(*backend, circuit, ropts);
    if (k == 0) cold_samples = r.samples;
  }
  const double cold_per_req = t_cold.seconds() / cold_sample;
  std::printf("cold        %8.3f s / request (measured over %zu)\n",
              cold_per_req, cold_sample);

  engine::SimRequest req;
  req.circuit = circuit;
  req.backend = "hip";
  req.fusion = ropts.fusion;
  req.seed = ropts.seed;
  req.num_samples = ropts.num_samples;

  // --- engine-sim: caches on, result cache bypassed -----------------------
  double sim_per_req = 0;
  {
    engine::SimulationEngine eng;
    engine::SimRequest r = req;
    r.bypass_result_cache = true;
    Timer t;
    for (std::size_t k = 0; k < cold_sample; ++k) {
      const engine::SimResult s = eng.run(r);
      check(s.ok, "engine-sim request failed: " + s.error);
      check(s.samples == cold_samples, "engine-sim samples diverged");
    }
    sim_per_req = t.seconds() / cold_sample;
    const engine::EngineMetrics m = eng.metrics();
    std::printf("engine-sim  %8.3f s / request (measured over %zu; "
                "fused-cache hit rate %.2f, pool hits %llu)\n",
                sim_per_req, cold_sample, m.fused_cache.hit_rate(),
                static_cast<unsigned long long>(m.pool_hits));
  }

  // --- engine: full serving config ----------------------------------------
  double engine_total = 0;
  {
    engine::SimulationEngine eng;
    std::vector<std::future<engine::SimResult>> futs;
    futs.reserve(n_requests);
    Timer t;
    for (std::size_t k = 0; k < n_requests; ++k) futs.push_back(eng.submit(req));
    for (auto& f : futs) {
      const engine::SimResult s = f.get();
      check(s.ok, "engine request failed: " + s.error);
      check(s.samples == cold_samples,
            "engine samples diverged from the cold run");
    }
    engine_total = t.seconds();
    const engine::EngineMetrics m = eng.metrics();
    std::printf("engine      %8.3f s / request (%zu requests in %.3f s; "
                "%llu result-cache hits, p50 %.2f ms)\n\n",
                engine_total / n_requests, n_requests, engine_total,
                static_cast<unsigned long long>(m.result_cache_hits),
                m.total_ms.quantile(0.50));
  }

  const double cold_total_est = cold_per_req * n_requests;
  const double speedup = cold_total_est / engine_total;
  const double sim_speedup = cold_per_req / sim_per_req;
  std::printf("throughput: engine-sim %.2fx vs cold (every request "
              "simulated; result cache bypassed)\n", sim_speedup);
  std::printf("            cache hits %.1fx vs cold (%.3f s est. cold total / "
              "%.3f s engine; repeats served from the result cache)\n",
              speedup, cold_total_est, engine_total);
  std::printf("samples: bit-identical across cold, engine-sim, and engine "
              "(seed %llu)\n\n",
              static_cast<unsigned long long>(ropts.seed));

  std::printf("reproduction checks:\n");
  check(speedup >= 1.3,
        "result cache serves repeated requests >= 1.3x faster");
  std::printf("  [ok] result cache serves repeated requests >= 1.3x "
              "faster\n");
  return 0;
}
