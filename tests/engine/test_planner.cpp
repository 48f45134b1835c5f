// Placement planner: golden decisions from the raw rooflines, online
// calibration (backend-level and fusion-level reordering), load-aware
// rescoring, option validation, and the engine's "auto" path — bit-identity
// with the explicitly-routed equivalent, planner counters, the plan memo's
// circuit identity, and the num_workers=0 clamp.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/base/error.h"
#include "src/engine/engine.h"
#include "src/engine/planner.h"
#include "src/fusion/fuser.h"
#include "src/perfmodel/workload.h"
#include "src/prof/trace.h"
#include "src/rqc/rqc.h"

namespace qhip::engine {
namespace {

Circuit make_rqc(unsigned rows, unsigned cols, unsigned depth,
                 std::uint64_t seed) {
  rqc::RqcOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.depth = depth;
  opt.seed = seed;
  return rqc::generate_rqc(opt);
}

PlannerOptions default_options() {
  PlannerOptions opt;
  opt.candidates = {BackendSpec::parse("cpu"), BackendSpec::parse("hip"),
                    BackendSpec::parse("a100")};
  return opt;
}

// stats_for hook: fuse on demand, exactly what the engine wires in.
std::function<perfmodel::WorkloadStats(const FusionOptions&)> stats_for(
    const Circuit& c) {
  return [&c](const FusionOptions& fo) {
    return perfmodel::WorkloadStats::from_circuit(fuse_circuit(c, fo).circuit);
  };
}

TEST(Planner, SmallCircuitGoesToCpuOnRawRoofline) {
  // 4 qubits, shallow: per-launch overhead dominates, and the rooflines put
  // a CPU dispatch (~1.5us) well under a GPU kernel launch (~7us).
  const Circuit c = make_rqc(2, 2, 4, 1);
  Planner p(default_options());
  const PlanChoice choice =
      p.plan(c.num_qubits, Precision::kSingle, {4}, stats_for(c));
  EXPECT_EQ(choice.backend.kind, BackendSpec::Kind::kCpu);
  EXPECT_GT(choice.candidates_scored, 0u);
  EXPECT_EQ(choice.calibration, 1.0);  // nothing observed yet
  EXPECT_EQ(choice.considered.size(), choice.candidates_scored);
}

TEST(Planner, DeepWideCircuitGoesToGpuOnRawRoofline) {
  // 26 qubits, deep: a 1 GiB state swept once per fused gate. Bandwidth
  // dominates and the paper's GPUs are ~7-9x the CPU roofline.
  const Circuit c = make_rqc(2, 13, 16, 3);
  ASSERT_EQ(c.num_qubits, 26u);
  Planner p(default_options());
  const PlanChoice choice =
      p.plan(c.num_qubits, Precision::kSingle, {4}, stats_for(c));
  EXPECT_NE(choice.backend.kind, BackendSpec::Kind::kCpu)
      << "placed on " << choice.backend.to_string();
}

TEST(Planner, CalibrationFlipsABackendAfterSlowObservations) {
  const Circuit c = make_rqc(2, 2, 4, 1);
  Planner p(default_options());
  const PlanChoice before =
      p.plan(c.num_qubits, Precision::kSingle, {4}, stats_for(c));
  ASSERT_EQ(before.backend.kind, BackendSpec::Kind::kCpu);

  // The chosen backend turns out to run 10^5x slower than its roofline on
  // this host; one honest observation must be enough to reorder.
  p.observe(before.backend, c.num_qubits, before.fusion.max_fused_qubits,
            before.raw_seconds, before.raw_seconds * 1e5);
  const PlanChoice after =
      p.plan(c.num_qubits, Precision::kSingle, {4}, stats_for(c));
  EXPECT_NE(after.backend.kind, BackendSpec::Kind::kCpu)
      << "still placed on " << after.backend.to_string();
  EXPECT_GT(p.calibration(before.backend, c.num_qubits,
                          before.fusion.max_fused_qubits),
            1.0);

  const PlannerStats s = p.stats();
  EXPECT_EQ(s.decisions, 2u);
  EXPECT_EQ(s.calibrated_decisions, 0u);  // the winner was never calibrated
  EXPECT_EQ(s.observations, 1u);
  EXPECT_FALSE(s.calibration.empty());
}

TEST(Planner, FusionLevelCalibrationReordersFusionChoices) {
  // A single-candidate planner: only the fusion setting can change. A shared
  // per-backend factor scales every candidate equally, so this reordering is
  // possible only because calibration is keyed per max_fused.
  const Circuit c = make_rqc(2, 3, 8, 2);
  PlannerOptions opt;
  opt.candidates = {BackendSpec::parse("cpu")};
  Planner p(opt);
  const PlanChoice before =
      p.plan(c.num_qubits, Precision::kSingle, {4}, stats_for(c));
  const unsigned f_star = before.fusion.max_fused_qubits;

  // Report every fusion setting at its predicted time, except the winner,
  // which turns out 1000x slower than predicted on this host.
  for (const PlanCandidate& pc : before.considered) {
    const double observed = pc.fusion.max_fused_qubits == f_star
                                ? pc.raw_seconds * 1000.0
                                : pc.raw_seconds;
    p.observe(pc.backend, c.num_qubits, pc.fusion.max_fused_qubits,
              pc.raw_seconds, observed);
  }

  const PlanChoice after = p.rescore(before, c.num_qubits);
  EXPECT_NE(after.fusion.max_fused_qubits, f_star);
  EXPECT_TRUE(after.considered.empty());  // rescore returns the summary only
  EXPECT_EQ(after.candidates_scored, before.candidates_scored);
}

TEST(Planner, RescoreIsLoadAware) {
  const Circuit c = make_rqc(2, 2, 4, 1);
  Planner p(default_options());
  const PlanChoice plan =
      p.plan(c.num_qubits, Precision::kSingle, {4}, stats_for(c));
  ASSERT_EQ(plan.backend.kind, BackendSpec::Kind::kCpu);

  // An hour of work queued on the cpu makes any idle backend the better bet.
  const auto loaded = [&](const BackendSpec& s) {
    return s.kind == BackendSpec::Kind::kCpu ? 3600.0 : 0.0;
  };
  const PlanChoice rerouted = p.rescore(plan, c.num_qubits, loaded);
  EXPECT_NE(rerouted.backend.kind, BackendSpec::Kind::kCpu);
  EXPECT_EQ(rerouted.wait_seconds, 0.0);
}

TEST(Planner, OptionValidation) {
  EXPECT_THROW(Planner(PlannerOptions{}), Error);  // no candidates

  PlannerOptions with_auto = default_options();
  with_auto.candidates.push_back(BackendSpec::parse("auto"));
  EXPECT_THROW(Planner(std::move(with_auto)), Error);  // policy, not a device

  PlannerOptions bad_sweep = default_options();
  bad_sweep.min_fused = 5;
  bad_sweep.max_fused = 3;
  EXPECT_THROW(Planner(std::move(bad_sweep)), Error);

  PlannerOptions bad_alpha = default_options();
  bad_alpha.alpha = 0.0;
  EXPECT_THROW(Planner(std::move(bad_alpha)), Error);
}

TEST(Planner, ObserveIgnoresDegenerateSamples) {
  Planner p(default_options());
  const BackendSpec cpu = BackendSpec::parse("cpu");
  p.observe(cpu, 4, 2, 0.0, 1.0);   // no prediction
  p.observe(cpu, 4, 2, 1.0, 0.0);   // zero-length timer read
  p.observe(cpu, 4, 2, -1.0, 1.0);  // nonsense
  EXPECT_EQ(p.stats().observations, 0u);
  EXPECT_EQ(p.calibration(cpu, 4, 2), 1.0);
}

// --- the engine's "auto" path ----------------------------------------------

SimRequest auto_request(const Circuit& c, std::uint64_t seed = 42) {
  SimRequest req;
  req.circuit = c;
  req.backend = "auto";
  req.seed = seed;
  req.num_samples = 32;
  return req;
}

TEST(SimulationEngine, AutoIsBitIdenticalToItsChosenBackend) {
  const Circuit c = make_rqc(2, 3, 8, 5);
  EngineOptions opt;
  opt.planner_candidates = {"cpu", "hip"};
  SimulationEngine eng(opt);

  SimRequest req = auto_request(c);
  req.bypass_result_cache = true;
  const SimResult ar = eng.run(req);
  ASSERT_TRUE(ar.ok) << ar.error;
  ASSERT_NE(ar.counters.count("planner/max_fused"), 0u);

  // Replay the planner's decision explicitly: same backend, same fusion.
  SimRequest replay = req;
  replay.backend = ar.backend_used;
  replay.fusion.max_fused_qubits =
      static_cast<unsigned>(ar.counters.at("planner/max_fused"));
  replay.fusion.window_moments =
      static_cast<unsigned>(ar.counters.at("planner/window"));
  const SimResult er = eng.run(replay);
  ASSERT_TRUE(er.ok) << er.error;
  EXPECT_EQ(ar.samples, er.samples);
  EXPECT_EQ(ar.measurements, er.measurements);
  EXPECT_GT(ar.counters.at("planner/candidates_scored"), 0.0);
}

TEST(SimulationEngine, AutoDecisionsCountedInMetricsAndProm) {
  const Circuit c = make_rqc(2, 2, 6, 11);
  EngineOptions opt;
  opt.planner_candidates = {"cpu", "hip"};
  SimulationEngine eng(opt);
  SimRequest req = auto_request(c);
  req.bypass_result_cache = true;
  ASSERT_TRUE(eng.run(req).ok);
  req.seed = 43;
  ASSERT_TRUE(eng.run(req).ok);  // second request re-scores the cached plan

  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.planner_decisions, 2u);
  EXPECT_EQ(m.planner_observations, 2u);
  EXPECT_FALSE(m.planner_chosen.empty());
  EXPECT_FALSE(m.planner_calibration.empty());
  EXPECT_GT(m.planner_predicted_seconds, 0.0);
  EXPECT_GT(m.planner_observed_seconds, 0.0);

  const std::string prom = m.to_prom_text();
  EXPECT_NE(prom.find("qhip_engine_planner_decisions 2"), std::string::npos);
  EXPECT_NE(prom.find("qhip_engine_planner_chosen{backend="),
            std::string::npos);
  EXPECT_NE(prom.find("qhip_engine_planner_calibration{backend="),
            std::string::npos);
}

// The plan memo keys on the circuit's identity bytes: the same circuit with
// one matrix entry moved by one ulp is another circuit and plans afresh, and
// the original still finds its memoized plan afterwards.
TEST(SimulationEngine, PlanMemoKeysOnCircuitIdentity) {
  const Circuit a = make_rqc(2, 3, 8, 5);
  Circuit nudged = a;
  cplx64& entry = nudged.gates[0].matrix.data()[0];  // unshares from `a`
  entry = cplx64(std::nextafter(entry.real(), 2.0), entry.imag());

  Tracer tracer;
  EngineOptions opt;
  opt.tracer = &tracer;
  opt.planner_candidates = {"cpu", "hip"};
  SimulationEngine eng(opt);
  std::vector<std::uint64_t> ids;
  for (const Circuit* c : std::vector<const Circuit*>{&a, &nudged, &a}) {
    SimRequest req = auto_request(*c);
    req.bypass_result_cache = true;  // every request reaches the planner
    const SimResult r = eng.run(req);
    ASSERT_TRUE(r.ok) << r.error;
    ids.push_back(r.request_id);
  }

  std::map<std::uint64_t, std::string> plan_detail;
  for (const TraceEvent& e : tracer.events()) {
    if (e.name == "plan") plan_detail[e.corr] = e.detail;
  }
  ASSERT_EQ(plan_detail.size(), 3u);
  EXPECT_EQ(plan_detail[ids[0]].find(", cached"), std::string::npos)
      << plan_detail[ids[0]];
  EXPECT_EQ(plan_detail[ids[1]].find(", cached"), std::string::npos)
      << plan_detail[ids[1]];
  EXPECT_NE(plan_detail[ids[2]].find(", cached)"), std::string::npos)
      << plan_detail[ids[2]];
}

TEST(SimulationEngine, BadPlannerCandidateListThrows) {
  EngineOptions opt;
  opt.planner_candidates = {"cpu", "bogus"};
  EXPECT_THROW(SimulationEngine{opt}, Error);
}

TEST(SimulationEngine, ZeroWorkersClampsToOne) {
  EngineOptions opt;
  opt.num_workers = 0;  // misconfiguration must not deadlock every submit
  SimulationEngine eng(opt);
  EXPECT_EQ(eng.options().num_workers, 1u);

  const Circuit c = make_rqc(2, 2, 4, 1);
  SimRequest req;
  req.circuit = c;
  req.backend = "cpu";
  req.seed = 42;
  req.num_samples = 16;
  const SimResult res = eng.run(req);
  EXPECT_TRUE(res.ok) << res.error;
}

}  // namespace
}  // namespace qhip::engine
