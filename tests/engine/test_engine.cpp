// SimulationEngine: result-cache bit-identity, buffer-pool reuse across
// requests, concurrent==serial on two backends, graceful rejection
// (engine cap, device memory, deadlines, queue bound), metrics export, one
// `request` span per completion, and the one request identity behind the
// result and fused-circuit cache keys.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/gates.h"
#include "src/engine/backend.h"
#include "src/engine/circuit_cache.h"
#include "src/engine/engine.h"
#include "src/fusion/fuser.h"
#include "src/noise/channels.h"
#include "src/obs/observable.h"
#include "src/prof/trace.h"
#include "src/prof/trace_reader.h"
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

SimRequest request(const Circuit& c, const char* backend,
                   std::uint64_t seed = 42) {
  SimRequest req;
  req.circuit = c;
  req.backend = backend;
  req.fusion.max_fused_qubits = 3;
  req.seed = seed;
  req.num_samples = 32;
  return req;
}

TEST(SimulationEngine, CacheHitIsBitIdenticalWithColdRun) {
  const Circuit c = make_rqc(2, 3, 10, 9);

  // Cold reference: a fresh backend with no engine in the loop.
  const auto cold_backend = create_backend("hip", Precision::kSingle);
  FusionOptions fusion;
  fusion.max_fused_qubits = 3;
  BackendRunSpec rs;
  rs.seed = 42;
  rs.num_samples = 32;
  const BackendRunOutput cold =
      cold_backend->run(fuse_circuit(c, fusion).circuit, rs);

  SimulationEngine eng;
  const SimResult first = eng.run(request(c, "hip"));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.result_cache_hit);

  const SimResult second = eng.run(request(c, "hip"));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.result_cache_hit);

  EXPECT_EQ(cold.samples, first.samples);
  EXPECT_EQ(first.samples, second.samples);
  EXPECT_EQ(first.measurements, second.measurements);

  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.result_cache_hits, 1u);
}

TEST(SimulationEngine, FusedCacheHitsWhenResultCacheBypassed) {
  const Circuit c = make_rqc(2, 3, 8, 3);
  SimulationEngine eng;
  SimRequest req = request(c, "cpu");
  req.bypass_result_cache = true;
  const SimResult a = eng.run(req);
  const SimResult b = eng.run(req);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_FALSE(a.fused_cache_hit);
  EXPECT_TRUE(b.fused_cache_hit);     // transpiled once, reused
  EXPECT_FALSE(b.result_cache_hit);   // but simulated both times
  EXPECT_EQ(a.samples, b.samples);    // deterministic seed -> same samples
  EXPECT_GT(b.run_seconds, 0.0);
  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.fused_cache.hits, 1u);
  EXPECT_EQ(m.fused_cache.misses, 1u);
}

TEST(SimulationEngine, PoolReusesBuffersAcrossQubitCounts) {
  SimulationEngine eng;
  const Circuit six = make_rqc(2, 3, 6, 1);
  const Circuit eight = make_rqc(2, 4, 6, 1);
  for (const Circuit* c : {&six, &eight, &six, &eight}) {
    SimRequest req = request(*c, "hip");
    req.bypass_result_cache = true;  // force real runs so buffers cycle
    ASSERT_TRUE(eng.run(req).ok);
  }
  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.pool_misses, 2u);  // one allocation per qubit count
  EXPECT_EQ(m.pool_hits, 2u);    // the repeats reuse parked buffers
  EXPECT_GT(m.bytes_pooled, 0u);
}

TEST(SimulationEngine, ConcurrentEqualsSerialOnTwoBackends) {
  const Circuit c1 = make_rqc(2, 3, 10, 21);
  const Circuit c2 = make_rqc(2, 3, 10, 22);

  // Serial reference, each on a dedicated engine.
  std::vector<SimResult> serial;
  for (int k = 0; k < 4; ++k) {
    SimulationEngine eng;
    SimRequest req = request(k % 2 == 0 ? c1 : c2, k < 2 ? "cpu" : "hip",
                             100 + static_cast<std::uint64_t>(k));
    serial.push_back(eng.run(std::move(req)));
    ASSERT_TRUE(serial.back().ok) << serial.back().error;
  }

  // The same four requests in flight together on one engine: two workers,
  // interleaving cpu and hip backends.
  EngineOptions opt;
  opt.num_workers = 2;
  SimulationEngine eng(opt);
  std::vector<std::future<SimResult>> futs;
  for (int k = 0; k < 4; ++k) {
    futs.push_back(eng.submit(request(k % 2 == 0 ? c1 : c2,
                                      k < 2 ? "cpu" : "hip",
                                      100 + static_cast<std::uint64_t>(k))));
  }
  for (int k = 0; k < 4; ++k) {
    const SimResult concurrent = futs[static_cast<std::size_t>(k)].get();
    ASSERT_TRUE(concurrent.ok) << concurrent.error;
    EXPECT_EQ(concurrent.samples, serial[static_cast<std::size_t>(k)].samples)
        << "request " << k;
  }
  EXPECT_EQ(eng.metrics().backends_created, 2u);
}

// Identical requests in flight at once must not each pay a simulation: the
// first becomes the owner, the rest wait and serve from the result cache.
TEST(SimulationEngine, ConcurrentIdenticalRequestsCoalesce) {
  const Circuit c = make_rqc(2, 3, 10, 33);
  EngineOptions opt;
  opt.num_workers = 2;
  SimulationEngine eng(opt);
  std::vector<std::future<SimResult>> futs;
  for (int k = 0; k < 4; ++k) futs.push_back(eng.submit(request(c, "cpu")));
  std::vector<SimResult> results;
  for (auto& f : futs) results.push_back(f.get());
  for (const SimResult& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.samples, results.front().samples);
  }
  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.completed, 4u);
  EXPECT_EQ(m.result_cache_hits, 3u);  // exactly one simulation happened
}

TEST(SimulationEngine, RejectsOversizedRequests) {
  Circuit big;
  big.num_qubits = 30;  // never allocated: rejected before any buffer exists
  SimulationEngine eng;
  const SimResult r = eng.run(request(big, "hip"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("engine cap"), std::string::npos) << r.error;
  EXPECT_EQ(eng.metrics().rejected, 1u);
}

TEST(SimulationEngine, RejectsBeyondDeviceMemory) {
  Circuit big;
  big.num_qubits = 32;  // a100/double fits 31 qubits in 40 GiB
  EngineOptions opt;
  opt.max_qubits = 34;  // lift the engine cap so the device limit decides
  SimulationEngine eng(opt);
  SimRequest req = request(big, "a100");
  req.precision = Precision::kDouble;
  const SimResult r = eng.run(std::move(req));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("device memory"), std::string::npos) << r.error;
}

TEST(SimulationEngine, RejectsUnknownBackend) {
  const Circuit c = make_rqc(2, 2, 4, 1);
  SimulationEngine eng;
  const SimResult r = eng.run(request(c, "cuda"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown backend"), std::string::npos) << r.error;
}

TEST(SimulationEngine, EnforcesAdmissionDeadline) {
  EngineOptions opt;
  opt.num_workers = 1;  // one lane, so the blocker delays the hurried request
  SimulationEngine eng(opt);
  const Circuit blocker = make_rqc(3, 4, 12, 5);
  const Circuit quick = make_rqc(2, 2, 4, 6);

  SimRequest hurried = request(quick, "cpu");
  hurried.timeout_seconds = 1e-9;  // lapses while the blocker runs

  auto f1 = eng.submit(request(blocker, "cpu"));
  auto f2 = eng.submit(std::move(hurried));
  ASSERT_TRUE(f1.get().ok);
  const SimResult r = f2.get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("deadline exceeded"), std::string::npos) << r.error;
}

TEST(SimulationEngine, RejectsWhenQueueFull) {
  EngineOptions opt;
  opt.num_workers = 1;
  opt.max_pending = 1;
  SimulationEngine eng(opt);
  const Circuit c = make_rqc(3, 4, 10, 7);  // slow enough to back up the queue
  std::vector<std::future<SimResult>> futs;
  for (int k = 0; k < 6; ++k) {
    futs.push_back(eng.submit(request(c, "cpu", static_cast<std::uint64_t>(k))));
  }
  std::size_t rejected = 0;
  for (auto& f : futs) {
    const SimResult r = f.get();
    if (!r.ok) {
      ++rejected;
      EXPECT_NE(r.error.find("queue full"), std::string::npos) << r.error;
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(eng.metrics().rejected, rejected);
}

TEST(SimulationEngine, ExportsMetricsIntoTrace) {
  Tracer tracer;
  EngineOptions opt;
  opt.tracer = &tracer;
  SimulationEngine eng(opt);
  const Circuit c = make_rqc(2, 3, 8, 2);
  ASSERT_TRUE(eng.run(request(c, "hip")).ok);
  ASSERT_TRUE(eng.run(request(c, "hip")).ok);  // result-cache hit
  eng.export_metrics();

  const auto counters = tracer.counters();
  ASSERT_FALSE(counters.empty());
  EXPECT_EQ(counters.at("engine/requests_completed"), 2.0);
  EXPECT_EQ(counters.at("engine/result_cache_hits"), 1.0);
  EXPECT_GT(counters.at("engine/pool_misses"), 0.0);
  // Completion latency travels as total_ms histogram buckets.
  double total_ms_bucketed = 0;
  for (const auto& [name, v] : counters) {
    if (name.rfind("engine/hist/total_ms/le_", 0) == 0) total_ms_bucketed += v;
  }
  EXPECT_EQ(total_ms_bucketed, 2.0);

  const std::string json = tracer.to_perfetto_json();
  EXPECT_NE(json.find("engine/requests_completed"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);

  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_GT(m.total_ms.quantile(0.50), 0.0);
  EXPECT_GE(m.total_ms.quantile(0.95), m.total_ms.quantile(0.50));
}

TEST(SimulationEngine, EmitsFlowLinkedRequestSpans) {
  Tracer tracer;
  EngineOptions opt;
  opt.tracer = &tracer;
  SimulationEngine eng(opt);
  const Circuit c = make_rqc(2, 3, 8, 4);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t s = 0; s < 3; ++s) {
    // Distinct seeds dodge the result cache so every request executes.
    const SimResult r = eng.run(request(c, "hip", 100 + s));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_NE(r.request_id, 0u);
    ids.push_back(r.request_id);
  }

  const prof::ParsedTrace pt =
      prof::parse_trace_json(tracer.to_perfetto_json());
  std::set<std::uint64_t> flow_ids;
  for (const auto& f : pt.flows) flow_ids.insert(f.corr);

  // Every completed request has its full span tree, at least one kernel
  // carrying its correlation id, and an s/t/f flow chain binding the two.
  for (const std::uint64_t id : ids) {
    std::set<std::string> spans;
    std::size_t kernels = 0;
    for (const auto& e : pt.events) {
      if (e.corr != id) continue;
      if (e.cat == "request") spans.insert(e.name);
      if (e.cat == "kernel") ++kernels;
    }
    for (const char* name :
         {"request", "admit", "queue", "fuse", "execute", "sample"}) {
      EXPECT_EQ(spans.count(name), 1u) << "request " << id << ": " << name;
    }
    EXPECT_GE(kernels, 1u) << "request " << id << " has no tagged kernels";
    EXPECT_TRUE(flow_ids.count(id)) << "request " << id << " not flow-linked";
  }

  // Histograms follow the completed requests.
  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.total_ms.count(), ids.size());
  EXPECT_EQ(m.execute_ms.count(), ids.size());
  EXPECT_EQ(m.sample_ms.count(), ids.size());
  EXPECT_GT(m.fused_gates.sum(), 0.0);
  const std::string prom = m.to_prom_text();
  EXPECT_NE(prom.find("qhip_engine_stage_latency_ms_bucket"),
            std::string::npos);
  EXPECT_NE(prom.find("stage=\"execute\""), std::string::npos);
  EXPECT_NE(prom.find("qhip_engine_fused_gates_count 3"), std::string::npos);
}

// A request submitted with a completion callback that parks the worker
// thread inside the callback until release() — so the test, not the
// scheduler, decides what is queued when.
class ParkedWorker {
 public:
  ParkedWorker(SimulationEngine& eng, const SimRequest& req) {
    id_ = eng.submit(req, [this](SimResult r) {
      result_.set_value(std::move(r));
      release_.get_future().wait();
    });
    done_ = result_.get_future();
    done_.wait();  // the worker is now parked in the callback
  }
  ParkedWorker(const ParkedWorker&) = delete;  // the callback holds `this`
  ParkedWorker& operator=(const ParkedWorker&) = delete;
  void release() { release_.set_value(); }
  std::uint64_t id() const { return id_; }
  SimResult get() { return done_.get(); }

 private:
  std::uint64_t id_ = 0;
  std::promise<SimResult> result_;
  std::future<SimResult> done_;
  std::promise<void> release_;
};

// Exactly one enclosing `request` span on the trace and one flight-recorder
// record per request id — and nothing for any other id.
void expect_one_request_span_each(const Tracer& tracer,
                                  const SimulationEngine& eng,
                                  const std::vector<std::uint64_t>& ids) {
  std::map<std::uint64_t, int> spans, records;
  for (const auto& e :
       prof::parse_trace_json(tracer.to_perfetto_json()).events) {
    if (e.cat == "request" && e.name == "request") ++spans[e.corr];
  }
  for (const auto& r : eng.flight_recorder()->recent()) ++records[r.corr];
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(spans[id], 1) << "request spans of request " << id;
    EXPECT_EQ(records[id], 1) << "flight records of request " << id;
  }
  EXPECT_EQ(spans.size(), ids.size());
  EXPECT_EQ(records.size(), ids.size());
}

SimRequest trajectory(const Circuit& c, std::size_t n) {
  SimRequest req;
  req.kind = RequestKind::kTrajectory;
  req.circuit = c;
  req.backend = "cpu";
  req.noise.channel = noise::depolarizing(0.01);
  req.num_trajectories = n;
  return req;
}

// Every way a request can complete goes through one finish path, so each
// one records exactly one `request` span and one flight-recorder entry —
// admission rejections (queue full, engine stopped) included, which
// complete inline in submit() on the caller's thread.
TEST(SimulationEngine, EveryCompletionPathRecordsOneRequestSpan) {
  const Circuit small = make_rqc(2, 2, 4, 1);
  std::vector<std::uint64_t> ids;
  {
    Tracer tracer;
    EngineOptions opt;
    opt.tracer = &tracer;
    opt.num_workers = 2;
    // The first stream op of each virtual GPU stalls 300 ms, so the owner of
    // the hip run below holds its flight open while the duplicate, taken by
    // the other worker, coalesces onto it.
    opt.fault_spec = "latency:ms=300,nth=1";
    SimulationEngine eng(opt);

    const SimResult ok = eng.run(request(small, "cpu"));
    ASSERT_TRUE(ok.ok && !ok.result_cache_hit) << ok.error;
    const SimResult hit = eng.run(request(small, "cpu"));
    ASSERT_TRUE(hit.ok && hit.result_cache_hit) << hit.error;
    const SimResult invalid = eng.run(request(small, "cuda"));
    ASSERT_FALSE(invalid.ok);

    auto owner = eng.submit(request(small, "hip"));
    auto waiter = eng.submit(request(small, "hip"));
    const SimResult o = owner.get(), w = waiter.get();
    ASSERT_TRUE(o.ok && w.ok) << o.error << w.error;
    EXPECT_EQ(o.result_cache_hit + w.result_cache_hit, 1);  // one ran

    const SimResult traj = eng.run(trajectory(small, 8));
    ASSERT_TRUE(traj.ok) << traj.error;
    // A batch far longer than its deadline fails mid-run in the sub-runs.
    SimRequest doomed = trajectory(make_rqc(3, 4, 12, 2), 50000);
    doomed.timeout_seconds = 0.5;
    const SimResult traj_fail = eng.run(doomed);
    ASSERT_EQ(traj_fail.code, SimErrorCode::kDeadlineExceeded)
        << traj_fail.error;
    EXPECT_EQ(traj_fail.backend_used, "cpu");  // failed running, not queued

    ids = {ok.request_id,  hit.request_id,  invalid.request_id,
           o.request_id,   w.request_id,    traj.request_id,
           traj_fail.request_id};
    expect_one_request_span_each(tracer, eng, ids);
  }
  {
    Tracer tracer;
    EngineOptions opt;
    opt.tracer = &tracer;
    opt.num_workers = 1;
    opt.max_pending = 2;
    SimulationEngine eng(opt);

    // Admission rejections complete inline in submit(), so their futures
    // are ready while the worker is still parked; no wait here can hang.
    const auto now = std::chrono::seconds(0);
    ParkedWorker first(eng, request(small, "cpu", 1));
    SimRequest hurried = request(small, "cpu", 2);
    hurried.timeout_seconds = 1e-9;  // lapses while the worker is parked
    auto late = eng.submit(hurried);
    auto queued = eng.submit(request(small, "cpu", 3));
    auto full = eng.submit(request(small, "cpu", 4));
    EXPECT_EQ(full.wait_for(now), std::future_status::ready);
    first.release();
    const SimResult late_r = late.get(), queued_r = queued.get();
    const SimResult full_r = full.get();
    EXPECT_EQ(late_r.code, SimErrorCode::kDeadlineExceeded) << late_r.error;
    EXPECT_TRUE(queued_r.ok) << queued_r.error;
    EXPECT_NE(full_r.error.find("queue full"), std::string::npos)
        << full_r.error;

    ParkedWorker second(eng, request(small, "cpu", 5));
    auto drained = eng.submit(request(small, "cpu", 6));
    std::thread stopper([&] { eng.stop(); });
    // Drained by the stopping thread; once it is, stop() has begun.
    EXPECT_EQ(drained.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    auto after = eng.submit(request(small, "cpu", 7));
    EXPECT_EQ(after.wait_for(now), std::future_status::ready);
    second.release();
    stopper.join();
    const SimResult drained_r = drained.get(), after_r = after.get();
    EXPECT_NE(drained_r.error.find("drained"), std::string::npos)
        << drained_r.error;
    EXPECT_NE(after_r.error.find("engine stopped"), std::string::npos)
        << after_r.error;

    ids = {first.id(),         late_r.request_id,    queued_r.request_id,
           full_r.request_id,  second.id(),          drained_r.request_id,
           after_r.request_id};
    EXPECT_TRUE(first.get().ok);
    EXPECT_TRUE(second.get().ok);
    expect_one_request_span_each(tracer, eng, ids);
  }
}

// The result-cache key is canonical_request_summary itself, and its circuit
// part is append_circuit_identity's bytes — what the fused cache and the plan
// memo key on — so there is one encoding of request identity. Mutating any
// identity field changes the summary, mutating any circuit field also misses
// the fused cache (both keyspaces), and the per-request knobs outside the
// identity (deadline, cache bypass) change neither.
TEST(SimulationEngine, EveryIdentityFieldChangesSummaryAndKey) {
  Circuit c;
  c.num_qubits = 3;
  c.gates = {gates::controlled(gates::rx(0, 1, 0.25), {0}), gates::h(1, 2)};
  SimRequest base = request(c, "cpu");
  base.amplitude_indices = {1, 6};
  base.noise.channel = noise::depolarizing(0.01);
  base.num_trajectories = 8;
  base.trajectory_tolerance = 0.125;
  base.observable.strings = {obs::pauli_zz(0, 1, 0.5)};
  const std::string s0 = canonical_request_summary(base);
  ASSERT_EQ(canonical_request_summary(base), s0);  // deterministic
  std::string circuit_bytes;
  append_circuit_identity(circuit_bytes, base.circuit);
  ASSERT_LT(circuit_bytes.size(), s0.size());
  EXPECT_EQ(s0.substr(s0.size() - circuit_bytes.size()), circuit_bytes);

  // {fused hit, normalized hit} for `r` in a cache primed with `base`. A
  // mutated circuit may not fuse; the hit flag is set before the build.
  const auto fused_cache_hits = [&base](const SimRequest& r) {
    FusedCircuitCache cache(4);
    cache.get_or_fuse(base.circuit, base.fusion);
    cache.get_or_normalize(base.circuit);
    bool fused = true, normalized = true;
    try {
      cache.get_or_fuse(r.circuit, r.fusion, &fused);
    } catch (const std::exception&) {
    }
    try {
      cache.get_or_normalize(r.circuit, &normalized);
    } catch (const std::exception&) {
    }
    return std::make_pair(fused, normalized);
  };

  const auto nudge = [](cplx64& v) {
    const double up = std::numeric_limits<double>::infinity();
    v = cplx64(std::nextafter(v.real(), up), v.imag());
  };
  using Mutation = std::pair<const char*, std::function<void(SimRequest&)>>;
  const std::vector<Mutation> circuit_fields = {
      {"gate kind",
       [](SimRequest& r) { r.circuit.gates[1].kind = GateKind::kMeasurement; }},
      {"gate name", [](SimRequest& r) { r.circuit.gates[1].name = "x"; }},
      {"gate time", [](SimRequest& r) { ++r.circuit.gates[1].time; }},
      {"gate qubit", [](SimRequest& r) { r.circuit.gates[1].qubits[0] = 0; }},
      {"gate control",
       [](SimRequest& r) { r.circuit.gates[0].controls[0] = 2; }},
      {"gate param", [](SimRequest& r) { r.circuit.gates[0].params[0] = 0.5; }},
      {"gate matrix",
       [&](SimRequest& r) { nudge(r.circuit.gates[1].matrix.data()[0]); }},
      {"gate count", [](SimRequest& r) { r.circuit.gates.pop_back(); }},
      {"num_qubits", [](SimRequest& r) { ++r.circuit.num_qubits; }},
  };
  const std::vector<Mutation> request_fields = {
      {"backend", [](SimRequest& r) { r.backend = "hip"; }},
      {"precision", [](SimRequest& r) { r.precision = Precision::kDouble; }},
      {"fusion.max_fused_qubits",
       [](SimRequest& r) { ++r.fusion.max_fused_qubits; }},
      {"fusion.window_moments",
       [](SimRequest& r) { ++r.fusion.window_moments; }},
      {"seed", [](SimRequest& r) { ++r.seed; }},
      {"num_samples", [](SimRequest& r) { ++r.num_samples; }},
      {"amplitude index", [](SimRequest& r) { r.amplitude_indices[1] = 7; }},
      {"amplitude count",
       [](SimRequest& r) { r.amplitude_indices.pop_back(); }},
      {"want_state", [](SimRequest& r) { r.want_state = true; }},
      {"kind", [](SimRequest& r) { r.kind = RequestKind::kExpectation; }},
      {"num_trajectories", [](SimRequest& r) { ++r.num_trajectories; }},
      {"trajectory_tolerance",
       [](SimRequest& r) { r.trajectory_tolerance *= 2; }},
      {"noise channel name",
       [](SimRequest& r) { r.noise.channel.name = "other"; }},
      {"noise Kraus entry",
       [&](SimRequest& r) { nudge(r.noise.channel.ops[0].data()[0]); }},
      {"noise Kraus dim",
       [](SimRequest& r) { r.noise.channel.ops[0] = CMatrix::identity(4); }},
      {"noise Kraus count",
       [](SimRequest& r) { r.noise.channel.ops.pop_back(); }},
      {"observable coefficient",
       [](SimRequest& r) { r.observable.strings[0].coefficient = 0.75; }},
      {"observable term qubit",
       [](SimRequest& r) { r.observable.strings[0].terms[1].qubit = 2; }},
      {"observable term op",
       [](SimRequest& r) {
         r.observable.strings[0].terms[0].op = obs::Pauli::kX;
       }},
      {"observable term count",
       [](SimRequest& r) { r.observable.strings[0].terms.pop_back(); }},
      {"observable string count",
       [](SimRequest& r) { r.observable.strings.push_back(obs::pauli_z(2)); }},
  };
  for (const auto* fields : {&circuit_fields, &request_fields}) {
    for (const auto& [what, mutate] : *fields) {
      SimRequest other = base;
      mutate(other);
      EXPECT_NE(canonical_request_summary(other), s0) << what;
    }
  }
  for (const auto& [what, mutate] : circuit_fields) {
    SimRequest other = base;
    mutate(other);
    const auto [fused, normalized] = fused_cache_hits(other);
    EXPECT_FALSE(fused) << what;
    EXPECT_FALSE(normalized) << what;
  }

  const std::vector<Mutation> not_identity = {
      {"timeout_seconds", [](SimRequest& r) { r.timeout_seconds = 5; }},
      {"bypass_result_cache",
       [](SimRequest& r) { r.bypass_result_cache = true; }},
  };
  for (const auto& [what, mutate] : not_identity) {
    SimRequest other = base;
    mutate(other);
    EXPECT_EQ(canonical_request_summary(other), s0) << what;
    const auto [fused, normalized] = fused_cache_hits(other);
    EXPECT_TRUE(fused) << what;
    EXPECT_TRUE(normalized) << what;
  }
}

}  // namespace
}  // namespace qhip::engine
