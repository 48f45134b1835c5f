// Timing gates on the engine's serving path. Each case measures one claim
// from DESIGN.md against a fixed bound:
//
//   AutoPlacement           backend = "auto" reaches >= 0.95x the best static
//                           candidate (median of paired runs) and >= 2x the
//                           worst, per workload class,
//                           bit-identical to its chosen backend (§12)
//   TrajectoryFanout        one trajectory-kind request fanned over 8 workers
//                           beats the serial reference loop by a floor scaled
//                           to the host's cores (median of paired runs),
//                           bit-identically (§14)
//   FlightRecorderOverhead  the always-on flight recorder, with its ring
//                           full, costs <= 2% with tracing off
//                           (docs/OBSERVABILITY.md)
//
// The cases are labelled `bench` and run serially (tests/CMakeLists.txt), so
// no other test competes for the cores they time. Throughput and latency
// numbers for the repository live in perfbench/; this file only gates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/base/threadpool.h"
#include "src/base/timer.h"
#include "src/engine/engine.h"
#include "src/noise/trajectory.h"
#include "src/rqc/rqc.h"

namespace qhip::engine {
namespace {

Circuit make_rqc(unsigned rows, unsigned cols, unsigned depth) {
  rqc::RqcOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.depth = depth;
  opt.seed = 7;
  return rqc::generate_rqc(opt);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Seconds of one bypass-cache request of `c` pinned to `backend` ("auto"
// included); callers give distinct seeds so nothing coalesces.
double request_seconds(SimulationEngine& eng, const Circuit& c,
                       const std::string& backend, std::uint64_t seed) {
  SimRequest req;
  req.circuit = c;
  req.backend = backend;
  req.num_samples = 64;
  req.bypass_result_cache = true;
  req.seed = seed;
  Timer t;
  const SimResult r = eng.run(req);
  const double s = t.seconds();
  EXPECT_TRUE(r.ok) << backend << ": " << r.error;
  return s;
}

// Best-observed seconds per request over `k` sequential runs. Minimum, not
// mean: the small class finishes in ~0.2 ms, where scheduler interference
// would otherwise decide which static candidate looks best or worst; the
// fastest run is the interference-free cost.
double min_seconds(SimulationEngine& eng, const Circuit& c,
                   const std::string& backend, std::size_t k,
                   std::uint64_t seed_base) {
  double best = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double s = request_seconds(eng, c, backend, seed_base + i);
    if (i == 0 || s < best) best = s;
  }
  return best;
}

TEST(BenchGates, AutoPlacement) {
  const std::vector<std::string> candidates = {"cpu", "hip", "hip:2"};
  struct WorkClass {
    const char* name;
    Circuit circuit;
  };
  // 6 qubits, where launch overhead dominates, and 16, where bandwidth does.
  const WorkClass classes[] = {{"small-6q", make_rqc(2, 3, 16)},
                               {"large-16q", make_rqc(4, 4, 8)}};
  constexpr std::size_t kRuns = 6;

  EngineOptions opt;
  opt.num_workers = 1;  // sequential runs: per-request timing stays honest
  opt.planner_candidates = candidates;
  SimulationEngine eng(opt);

  // Calibration: explicit runs on every candidate feed the planner's EWMA
  // table, so its roofline (the paper's hardware) is corrected to this host
  // before any auto decision is scored.
  for (const WorkClass& cls : classes) {
    for (const std::string& b : candidates) {
      min_seconds(eng, cls.circuit, b, 2, 1000);
    }
  }

  for (const WorkClass& cls : classes) {
    // The small class needs more samples to shake off scheduler jitter; they
    // cost nothing next to one large run.
    const std::size_t runs =
        cls.circuit.num_qubits <= 8 ? kRuns * 4 : kRuns;
    double best = 0, worst = 0;
    std::string best_b, worst_b;
    for (const std::string& b : candidates) {
      const double s = min_seconds(eng, cls.circuit, b, runs, 2000);
      if (best_b.empty() || s < best) { best = s; best_b = b; }
      if (worst_b.empty() || s > worst) { worst = s; worst_b = b; }
    }
    // Unmeasured warm-up: the planner explores fusion settings it has no
    // per-f calibration for yet (each costs at most one mispredicted run),
    // so the measured leg sees the converged steady state.
    min_seconds(eng, cls.circuit, "auto", 8, 3000);
    // auto against the best static candidate in strict turns: the two legs
    // of a pair run back to back, each first in half the pairs, so a slow
    // phase of the shared host lands on both legs of a pair alike. The gate
    // reads the median of the per-pair ratios; the worst-candidate check
    // keeps its min-of-k legs (its margin is several-fold).
    std::vector<double> ratios;
    double auto_s = 0;
    for (std::size_t i = 0; i < 2 * runs; ++i) {
      const std::uint64_t seed = 4000 + i;
      double static_s = 0, a = 0;
      if (i % 2 == 0) {
        static_s = request_seconds(eng, cls.circuit, best_b, seed);
        a = request_seconds(eng, cls.circuit, "auto", seed);
      } else {
        a = request_seconds(eng, cls.circuit, "auto", seed);
        static_s = request_seconds(eng, cls.circuit, best_b, seed);
      }
      ratios.push_back(static_s / a);
      if (i == 0 || a < auto_s) auto_s = a;
    }

    // Bit-identity: read one auto request's placement from its planner
    // counters and replay it explicitly.
    SimRequest probe;
    probe.circuit = cls.circuit;
    probe.backend = "auto";
    probe.num_samples = 64;
    probe.seed = 4242;
    probe.bypass_result_cache = true;
    const SimResult ar = eng.run(probe);
    ASSERT_TRUE(ar.ok) << ar.error;
    SimRequest replay = probe;
    replay.backend = ar.backend_used;
    replay.fusion.max_fused_qubits =
        static_cast<unsigned>(ar.counters.at("planner/max_fused"));
    replay.fusion.window_moments =
        static_cast<unsigned>(ar.counters.at("planner/window"));
    const SimResult er = eng.run(replay);
    ASSERT_TRUE(er.ok) << er.error;
    EXPECT_EQ(ar.samples, er.samples) << cls.name;
    EXPECT_EQ(ar.measurements, er.measurements) << cls.name;

    const double vs_best = median(ratios);
    const double vs_worst = worst / auto_s;
    std::printf("%-10s auto %.3f ms = %.2fx best static (%s; median of %zu "
                "paired ratios), %.2fx worst (%s), placed on %s\n",
                cls.name, auto_s * 1e3, vs_best, best_b.c_str(), ratios.size(),
                vs_worst, worst_b.c_str(), ar.backend_used.c_str());
    EXPECT_GE(vs_best, 0.95) << cls.name << ": auto vs best static " << best_b;
    EXPECT_GE(vs_worst, 2.0) << cls.name << ": auto vs worst static "
                             << worst_b;
  }
}

TEST(BenchGates, TrajectoryFanout) {
  constexpr std::size_t kTrajectories = 32;
  constexpr unsigned kWorkers = 8;
  constexpr std::size_t kPairs = 6;
  const Circuit circuit = make_rqc(3, 4, 8);
  const noise::NoiseModel model{noise::depolarizing(0.01)};
  const std::uint64_t seed = 42;

  ThreadPool serial_pool(1);
  std::vector<double> ref;
  auto serial_seconds = [&] {
    Timer t;
    ref = noise::trajectory_distribution<double>(circuit, model, kTrajectories,
                                                 seed, serial_pool);
    return t.seconds();
  };
  EngineOptions opt;
  opt.num_workers = kWorkers;
  SimulationEngine eng(opt);
  std::vector<double> dist;
  auto engine_seconds = [&] {
    SimRequest req;
    req.kind = RequestKind::kTrajectory;
    req.circuit = circuit;
    req.backend = "cpu";
    req.precision = Precision::kDouble;
    req.seed = seed;
    req.noise = model;
    req.num_trajectories = kTrajectories;
    req.bypass_result_cache = true;
    Timer t;
    const SimResult r = eng.run(std::move(req));
    const double s = t.seconds();
    EXPECT_TRUE(r.ok) << r.error;
    dist = r.distribution;
    return s;
  };

  // Serial reference against the engine in strict turns, each leg first in
  // half the pairs, so a slow phase of the shared host (or the engine's
  // freshly started workers) lands on both legs of a pair alike. The gate
  // reads the median of the per-pair ratios.
  std::vector<double> ratios;
  for (std::size_t i = 0; i < kPairs; ++i) {
    double serial_s = 0, engine_s = 0;
    if (i % 2 == 0) {
      serial_s = serial_seconds();
      engine_s = engine_seconds();
    } else {
      engine_s = engine_seconds();
      serial_s = serial_seconds();
    }
    EXPECT_EQ(dist, ref) << "pair " << i;
    ratios.push_back(serial_s / engine_s);
  }

  // The fan-out cannot exceed the physical parallelism of this host: scale
  // the floor to min(workers, hardware threads).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned par = std::min(kWorkers, hw);
  const double floor = par >= 8 ? 4.0 : (par > 1 ? 0.45 * par : 0.85);
  const double speedup = median(ratios);
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  std::printf("engine %.2fx serial (median of %zu paired ratios, range "
              "%.2f-%.2f; floor %.2fx at parallelism %u)\n", speedup,
              ratios.size(), *lo, *hi, floor, par);
  EXPECT_GE(speedup, floor);
}

// The flight-recorder workload: `c` on cpu, 16 samples, never memoized.
SimRequest recorder_request(const Circuit& c, std::uint64_t seed) {
  SimRequest req;
  req.circuit = c;
  req.backend = "cpu";
  req.num_samples = 16;
  req.seed = seed;
  req.bypass_result_cache = true;
  return req;
}

// Per-request ratios time(b) / time(a) on identical requests. The engines
// take strict turns (a b a b ... a), so every request starts right after one
// on the other engine and both legs see the same conditions. Request b[i] is
// paired with a[i], which ran just before it, on even i and with a[i+1],
// which ran just after it, on odd i: each leg runs first in half the pairs,
// and drift between neighbouring requests cancels.
std::vector<double> interleaved_ratios(SimulationEngine& a,
                                       SimulationEngine& b, const Circuit& c,
                                       std::size_t pairs) {
  auto seconds = [&](SimulationEngine& eng, std::uint64_t seed) {
    const SimRequest req = recorder_request(c, seed);
    Timer t;
    const SimResult r = eng.run(req);
    const double s = t.seconds();
    EXPECT_TRUE(r.ok) << r.error;
    return s;
  };
  std::vector<double> ta(pairs + 1), tb(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    ta[i] = seconds(a, 1000 + i);
    tb[i] = seconds(b, 1000 + i);
  }
  ta[pairs] = seconds(a, 1000 + pairs);
  std::vector<double> ratios(pairs);
  for (std::size_t i = 0; i < pairs; ++i) ratios[i] = tb[i] / ta[i + i % 2];
  return ratios;
}

TEST(BenchGates, FlightRecorderOverhead) {
  // The serving-size circuit TrajectoryFanout also uses, so the recorder's
  // per-event constant is priced against a realistic per-request cost.
  const Circuit circuit = make_rqc(3, 4, 8);
  auto options = [](std::size_t capacity) {
    EngineOptions opt;
    opt.num_workers = 1;  // sequential: request time is pure per-request cost
    opt.flight_recorder_capacity = capacity;
    return opt;
  };
  // Fresh engines per round: each engine's worker thread lands on whatever
  // core the scheduler picks, and on a shared host one pair of engines reads
  // up to 1.5% apart even with both recorders off. Pooling several rounds
  // averages that placement bias out.
  constexpr std::size_t kCapacity = EngineOptions{}.flight_recorder_capacity;
  constexpr std::size_t kRounds = 6, kWarmup = 10, kPairs = 200;
  std::vector<double> ratios;
  for (std::size_t round = 0; round < kRounds; ++round) {
    SimulationEngine off(options(0));
    SimulationEngine on(options(kCapacity));
    ASSERT_EQ(off.flight_recorder(), nullptr);
    ASSERT_NE(on.flight_recorder(), nullptr);
    // Fill the ring first, so every timed request also evicts the oldest
    // record, as on a long-running server. Both engines run the fill side by
    // side: neither enters the timed pairs more warmed up than the other.
    std::vector<std::future<SimResult>> fill;
    for (std::size_t i = 0; i < kCapacity; ++i) {
      fill.push_back(off.submit(recorder_request(circuit, i)));
      fill.push_back(on.submit(recorder_request(circuit, i)));
    }
    for (auto& f : fill) EXPECT_TRUE(f.get().ok);
    ASSERT_EQ(on.flight_recorder()->size(), kCapacity);
    // Unmeasured pairs: settle the turn-taking before timing it.
    interleaved_ratios(off, on, circuit, kWarmup);
    const std::vector<double> r = interleaved_ratios(off, on, circuit, kPairs);
    ratios.insert(ratios.end(), r.begin(), r.end());
    EXPECT_EQ(on.flight_recorder()->total_recorded(),
              kCapacity + kWarmup + kPairs);
  }
  const double overhead = median(ratios) - 1;
  std::printf("flight recorder overhead: %.2f%% (median of %zu pairs)\n",
              overhead * 100, ratios.size());
  EXPECT_LE(overhead, 0.02);
}

}  // namespace
}  // namespace qhip::engine
