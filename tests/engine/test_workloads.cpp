// Engine workload kinds beyond plain circuits (DESIGN.md §14): trajectory
// batches fanned across workers must be bit-identical to the serial
// reference loop, expectation requests must match the host observable path,
// early stopping must be deterministic, and "auto" must place noisy
// workloads onto a noise-capable backend.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/threadpool.h"
#include "src/core/gates.h"
#include "src/engine/engine.h"
#include "src/noise/trajectory.h"
#include "src/obs/observable.h"
#include "src/rqc/rqc.h"
#include "src/simulator/simulator_cpu.h"

namespace qhip::engine {
namespace {

using obs::Observable;
using obs::Pauli;
using obs::PauliString;

Circuit make_rqc(unsigned rows, unsigned cols, unsigned depth,
                 std::uint64_t seed) {
  rqc::RqcOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.depth = depth;
  opt.seed = seed;
  return rqc::generate_rqc(opt);
}

Observable test_observable() {
  Observable o;
  o.strings.push_back(PauliString{1.0, {{0, Pauli::kZ}}});
  o.strings.push_back(PauliString{0.5, {{1, Pauli::kX}, {2, Pauli::kY}}});
  return o;
}

SimRequest trajectory_request(const Circuit& c, std::size_t n,
                              const char* backend = "cpu") {
  SimRequest req;
  req.kind = RequestKind::kTrajectory;
  req.circuit = c;
  req.backend = backend;
  req.precision = Precision::kDouble;
  req.seed = 42;
  req.noise = noise::NoiseModel{noise::depolarizing(0.1)};
  req.num_trajectories = n;
  return req;
}

TEST(EngineWorkloads, TrajectoryBatchBitIdenticalToSerialReference) {
  const Circuit c = make_rqc(2, 2, 6, 9);
  const std::size_t n_traj = 12;

  // Serial reference: one trajectory at a time on a single thread — the
  // same pool width the engine's sub-runs always use (one thread each), so
  // the fp reduction order inside apply_channel matches exactly.
  ThreadPool pool1(1);
  const std::vector<double> ref = noise::trajectory_distribution<double>(
      c, noise::NoiseModel{noise::depolarizing(0.1)}, n_traj, 42, pool1);

  EngineOptions opt;
  opt.num_workers = 4;
  SimulationEngine eng(opt);
  const SimResult res = eng.run(trajectory_request(c, n_traj));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.backend_used, "cpu");
  EXPECT_EQ(res.trajectories_run, n_traj);
  ASSERT_EQ(res.distribution.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(res.distribution[i], ref[i]) << i;  // bit-identical
  }

  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.trajectory_batches, 1u);
  EXPECT_GE(m.trajectories_run, n_traj);
  EXPECT_EQ(m.trajectories_per_batch.count(), 1u);
}

TEST(EngineWorkloads, ExpectationMatchesHostReferenceOnCpuAndHip) {
  const Circuit c = make_rqc(2, 3, 8, 5);
  const Observable o = test_observable();

  // Host reference: unfused straight simulation + the sparse host path.
  SimulatorCPU<double> sim;
  StateVector<double> state(c.num_qubits);
  sim.run(c, state);
  const cplx64 want = obs::expectation(o, state);

  SimulationEngine eng;
  SimRequest req;
  req.kind = RequestKind::kExpectation;
  req.circuit = c;
  req.backend = "cpu";
  req.precision = Precision::kDouble;
  req.observable = o;
  const SimResult cpu = eng.run(req);
  ASSERT_TRUE(cpu.ok) << cpu.error;
  // The engine fuses before running, so agreement is to fp error, not bits.
  EXPECT_NEAR(cpu.expectation.real(), want.real(), 1e-10);
  EXPECT_NEAR(cpu.expectation.imag(), want.imag(), 1e-10);

  req.backend = "hip";  // device kernel path (hipsim::expectation)
  const SimResult hip = eng.run(req);
  ASSERT_TRUE(hip.ok) << hip.error;
  EXPECT_NEAR(hip.expectation.real(), want.real(), 1e-10);
  EXPECT_NEAR(hip.expectation.imag(), want.imag(), 1e-10);
}

TEST(EngineWorkloads, ExpectationServedFromResultCache) {
  const Circuit c = make_rqc(2, 2, 6, 3);
  SimulationEngine eng;
  SimRequest req;
  req.kind = RequestKind::kExpectation;
  req.circuit = c;
  req.backend = "cpu";
  req.observable = test_observable();
  const SimResult a = eng.run(req);
  const SimResult b = eng.run(req);
  ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
  EXPECT_FALSE(a.result_cache_hit);
  EXPECT_TRUE(b.result_cache_hit);
  EXPECT_EQ(a.expectation, b.expectation);

  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.expectation_requests, 2u);
}

TEST(EngineWorkloads, TrajectoryEarlyStopIsDeterministic) {
  const Circuit c = make_rqc(2, 2, 6, 7);
  const Observable o = test_observable();
  const noise::NoiseModel m{noise::depolarizing(0.1)};

  EngineOptions opt;
  opt.num_workers = 4;
  SimulationEngine eng(opt);
  SimRequest req = trajectory_request(c, 64);
  req.observable = o;
  req.trajectory_tolerance = 10.0;  // absurdly loose: stops at the floor
  const SimResult res = eng.run(req);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.trajectories_run, 8u);  // kMinTrajectoriesForStop

  // The early-stopped mean is over exactly trajectories 0..7, accumulated
  // in index order — reproducible bit for bit from the public pieces.
  ThreadPool pool1(1);
  const Circuit prepared = normalize_circuit(c);
  StateVector<double> s(c.num_qubits);
  cplx64 sum = 0;
  for (std::uint64_t t = 0; t < 8; ++t) {
    noise::run_trajectory_prepared<double>(prepared, m, 42, t, s, pool1);
    sum += obs::expectation(o, s, pool1);
  }
  const cplx64 mean = sum / 8.0;
  EXPECT_EQ(res.expectation.real(), mean.real());
  EXPECT_EQ(res.expectation.imag(), mean.imag());
  EXPECT_GE(res.expectation_stderr, 0.0);

  const EngineMetrics em = eng.metrics();
  EXPECT_EQ(em.trajectory_early_stops, 1u);
  // Workers past the stop index may have executed discarded trajectories,
  // so the executed counter is a lower-bounded, not exact, quantity.
  EXPECT_GE(em.trajectories_run, 8u);
}

TEST(EngineWorkloads, AutoPlacesTrajectoriesOnNoiseCapableBackend) {
  const Circuit c = make_rqc(2, 2, 6, 2);
  SimulationEngine eng;
  const SimResult res = eng.run(trajectory_request(c, 4, "auto"));
  ASSERT_TRUE(res.ok) << res.error;
  // cpu is the only noise-capable candidate today.
  EXPECT_EQ(res.backend_used, "cpu");

  double total = 0;
  for (double v : res.distribution) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(EngineWorkloads, RejectsMalformedWorkloads) {
  const Circuit c = make_rqc(2, 2, 6, 4);
  SimulationEngine eng;

  SimRequest empty_obs;
  empty_obs.kind = RequestKind::kExpectation;
  empty_obs.circuit = c;
  empty_obs.backend = "cpu";
  EXPECT_FALSE(eng.run(empty_obs).ok);

  EXPECT_FALSE(eng.run(trajectory_request(c, 0)).ok);

  SimRequest with_samples = trajectory_request(c, 4);
  with_samples.num_samples = 8;
  EXPECT_FALSE(eng.run(with_samples).ok);

  SimRequest with_state = trajectory_request(c, 4);
  with_state.want_state = true;
  EXPECT_FALSE(eng.run(with_state).ok);

  Circuit measured = c;
  measured.gates.push_back(gates::measure(99, {0}));
  EXPECT_FALSE(eng.run(trajectory_request(measured, 4)).ok);

  // hip cannot stream Kraus selections: explicit routing there is rejected
  // up front rather than failed mid-run.
  const SimResult on_hip = eng.run(trajectory_request(c, 4, "hip"));
  EXPECT_FALSE(on_hip.ok);
}

TEST(EngineWorkloads, RejectsMultiQubitNoiseChannelAtAdmission) {
  // A complete 2-qubit channel passes KrausChannel::validate, but the
  // trajectory sampler applies channels qubit by qubit: admission must
  // reject it instead of failing every sub-run after the fan-out.
  SimRequest req = trajectory_request(make_rqc(2, 2, 6, 4), 4);
  req.noise = noise::NoiseModel{noise::KrausChannel{"id2", {CMatrix::identity(4)}}};
  SimulationEngine eng;
  const SimResult r = eng.run(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, SimErrorCode::kRejected) << r.error;
  EXPECT_NE(r.error.find("1-qubit"), std::string::npos) << r.error;
  EXPECT_EQ(r.trajectories_run, 0u);
}

TEST(EngineWorkloads, PrometheusExportsTrajectoryFamilies) {
  const Circuit c = make_rqc(2, 2, 6, 8);
  SimulationEngine eng;
  ASSERT_TRUE(eng.run(trajectory_request(c, 4)).ok);
  const std::string text = eng.metrics().to_prom_text();
  EXPECT_NE(text.find("qhip_engine_trajectory_batches 1"), std::string::npos);
  EXPECT_NE(text.find("qhip_engine_trajectories_run"), std::string::npos);
  EXPECT_NE(text.find("qhip_engine_trajectory_early_stops"),
            std::string::npos);
  EXPECT_NE(text.find("qhip_engine_expectation_requests"), std::string::npos);
  EXPECT_NE(text.find("qhip_engine_trajectories_per_batch_bucket"),
            std::string::npos);
}

}  // namespace
}  // namespace qhip::engine
