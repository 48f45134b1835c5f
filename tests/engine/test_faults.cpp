// SimulationEngine error recovery under vgpu fault injection: structured
// error codes, retry-with-backoff, fallback backends, deadline cancellation
// mid-run, failure propagation to coalesced waiters, and a 500-request soak
// with ~10% injected faults that must resolve every request to success
// (bit-identical with a fault-free run) or a structured error — no crashes,
// no hangs.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/engine/backend.h"
#include "src/engine/engine.h"
#include "src/prof/trace.h"
#include "src/rqc/rqc.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define QHIP_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define QHIP_SANITIZED_BUILD 1
#endif
#endif
#ifndef QHIP_SANITIZED_BUILD
#define QHIP_SANITIZED_BUILD 0
#endif

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
  req.num_samples = 16;
  return req;
}

TEST(EngineFaults, ErrorCodeNames) {
  EXPECT_STREQ(to_string(SimErrorCode::kOk), "ok");
  EXPECT_STREQ(to_string(SimErrorCode::kRejected), "rejected");
  EXPECT_STREQ(to_string(SimErrorCode::kOutOfMemory), "out-of-memory");
  EXPECT_STREQ(to_string(SimErrorCode::kBackendFault), "backend-fault");
  EXPECT_STREQ(to_string(SimErrorCode::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_STREQ(to_string(SimErrorCode::kInternal), "internal");
}

TEST(EngineFaults, RetryRecoversFromOomAtFirstAllocation) {
  const Circuit c = make_rqc(2, 3, 8, 5);

  // Reference: same request on a fault-free engine.
  SimulationEngine clean;
  const SimResult want = clean.run(request(c, "hip"));
  ASSERT_TRUE(want.ok) << want.error;

  EngineOptions opt;
  opt.fault_spec = "malloc:nth=1";  // first device allocation fails once
  SimulationEngine eng(opt);
  const SimResult r = eng.run(request(c, "hip"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.code, SimErrorCode::kOk);
  EXPECT_EQ(r.attempts, 2u);  // fault, then clean retry
  EXPECT_FALSE(r.fallback_used);
  EXPECT_EQ(r.backend_used, "hip");
  EXPECT_EQ(r.samples, want.samples);  // recovery is bit-identical

  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.retries, 1u);
  EXPECT_EQ(m.faults_oom, 1u);
  EXPECT_EQ(m.fallbacks, 0u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(EngineFaults, PersistentFaultExhaustsRetriesWithStructuredCode) {
  EngineOptions opt;
  opt.fault_spec = "memcpy:every=1";  // every stream copy fails, forever
  opt.max_attempts = 3;
  opt.retry_backoff_seconds = 0.0005;
  SimulationEngine eng(opt);
  const SimResult r = eng.run(request(make_rqc(2, 3, 6, 7), "hip"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, SimErrorCode::kBackendFault);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_NE(r.error.find("injected memcpy fault"), std::string::npos) << r.error;

  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.retries, 2u);
  EXPECT_EQ(m.faults_backend, 3u);
  EXPECT_EQ(m.rejected, 1u);
}

TEST(EngineFaults, FallbackBackendServesWhenPrimaryKeepsFailing) {
  const Circuit c = make_rqc(2, 3, 8, 9);

  SimulationEngine clean;
  const SimResult want = clean.run(request(c, "cpu"));
  ASSERT_TRUE(want.ok) << want.error;

  EngineOptions opt;
  opt.fault_spec = "memcpy:every=1";
  opt.max_attempts = 2;
  opt.retry_backoff_seconds = 0.0005;
  opt.fallback_backend = "cpu";  // no virtual device -> immune to the plan
  SimulationEngine eng(opt);
  const SimResult r = eng.run(request(c, "hip"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.fallback_used);
  EXPECT_EQ(r.backend_used, "cpu");
  EXPECT_EQ(r.attempts, 3u);  // 2 on hip + 1 on cpu
  EXPECT_EQ(r.samples, want.samples);  // degraded but bit-identical

  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.fallbacks, 1u);
  EXPECT_EQ(m.retries, 1u);
  EXPECT_GE(m.faults_backend, 2u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(EngineFaults, DeadlineCancelsMidRunViaLatencyInjection) {
  EngineOptions opt;
  // Every stream op carries 5 ms of injected latency: the circuit below
  // cannot finish inside the budget, so the cooperative checkpoint in
  // SimulatorHIP::run must fire.
  opt.fault_spec = "latency:ms=5,every=1";
  SimulationEngine eng(opt);
  SimRequest req = request(make_rqc(3, 3, 16, 3), "hip");
  req.timeout_seconds = 0.05;
  const SimResult r = eng.run(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, SimErrorCode::kDeadlineExceeded);
  EXPECT_NE(r.error.find("deadline exceeded"), std::string::npos) << r.error;
  EXPECT_EQ(r.attempts, 1u);  // deadline expiry is never retried

  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.faults_deadline, 1u);
  EXPECT_EQ(m.retries, 0u);
  EXPECT_EQ(m.fallbacks, 0u);
}

TEST(EngineFaults, OwnerFailurePropagatesToCoalescedWaiters) {
  EngineOptions opt;
  opt.num_workers = 4;
  // Slow, persistently failing primary: the owner's retry ladder holds the
  // flight open long enough for the other three identical requests to
  // coalesce onto it.
  opt.fault_spec = "memcpy:every=1;latency:ms=2,every=1";
  opt.max_attempts = 3;
  opt.retry_backoff_seconds = 0.002;
  SimulationEngine eng(opt);

  const Circuit c = make_rqc(2, 3, 6, 11);
  std::vector<std::future<SimResult>> futs;
  for (int k = 0; k < 4; ++k) futs.push_back(eng.submit(request(c, "hip")));
  for (auto& f : futs) {
    const SimResult r = f.get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, SimErrorCode::kBackendFault);
  }

  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.coalesced_failures, 3u);  // one owner ladder, three waiters
  EXPECT_EQ(m.retries, 2u);             // only the owner retried
  EXPECT_EQ(m.rejected, 4u);
}

TEST(EngineFaults, BadFaultSpecRejectsGracefully) {
  EngineOptions opt;
  opt.fault_spec = "frobnicate:nth=1";
  SimulationEngine eng(opt);
  // cpu ignores the plan entirely; hip must fail to build its device plan.
  const SimResult cpu = eng.run(request(make_rqc(2, 2, 4, 1), "cpu"));
  EXPECT_TRUE(cpu.ok) << cpu.error;
  const SimResult hip = eng.run(request(make_rqc(2, 2, 4, 1), "hip"));
  EXPECT_FALSE(hip.ok);
  EXPECT_NE(hip.error.find("fault spec"), std::string::npos) << hip.error;
}

TEST(EngineFaults, CanonicalSummaryDistinguishesRequests) {
  const Circuit c = make_rqc(2, 2, 6, 13);
  const SimRequest base = request(c, "hip");
  const std::string s0 = canonical_request_summary(base);
  EXPECT_EQ(canonical_request_summary(base), s0);  // deterministic

  SimRequest other = base;
  other.seed += 1;
  EXPECT_NE(canonical_request_summary(other), s0);
  other = base;
  other.backend = "cpu";
  EXPECT_NE(canonical_request_summary(other), s0);
  other = base;
  other.num_samples += 1;
  EXPECT_NE(canonical_request_summary(other), s0);
  other = base;
  other.want_state = true;
  EXPECT_NE(canonical_request_summary(other), s0);
  // A one-ulp nudge in one matrix entry must change the identity: it is the
  // smallest change to a circuit, and every engine cache compares these bytes.
  other = base;
  cplx64& entry = other.circuit.gates[0].matrix.data()[0];
  entry = cplx64(std::nextafter(entry.real(),
                                std::numeric_limits<double>::infinity()),
                 entry.imag());
  EXPECT_NE(canonical_request_summary(other), s0);
}

TEST(EngineFaults, SoakMixedFaultsResolveEveryRequest) {
  // Fault-free references for every (circuit, seed) pair used below.
  const Circuit circuits[] = {
      make_rqc(2, 3, 8, 21),  // 6 qubits
      make_rqc(2, 4, 8, 22),  // 8 qubits
      make_rqc(3, 3, 6, 23),  // 9 qubits
  };
  // Sanitizer builds run the vgpu block executor on host threads (always
  // under TSan; QHIP_BLOCK_EXEC=threads in the asan preset), which slows the
  // hip stream path ~50x; a shorter soak keeps the sanitizer presets usable
  // while still driving every recovery path.
  constexpr std::size_t kRequests = QHIP_SANITIZED_BUILD ? 100 : 500;
  constexpr std::uint64_t kSeeds = 25;

  SimulationEngine clean;
  std::map<std::pair<std::size_t, std::uint64_t>, std::vector<index_t>> want;
  for (std::size_t ci = 0; ci < 3; ++ci) {
    for (std::uint64_t s = 0; s < kSeeds; ++s) {
      const SimResult r = clean.run(request(circuits[ci], "cpu", 1000 + s));
      ASSERT_TRUE(r.ok) << r.error;
      want[{ci, s}] = r.samples;
    }
  }

  Tracer tracer;
  EngineOptions opt;
  opt.num_workers = 4;
  opt.tracer = &tracer;
  // ~10% of stream/allocation activity misbehaves: periodic allocation OOMs,
  // periodic copy faults, latency jitter. Primes keep the three schedules
  // from aligning.
  opt.fault_spec = "malloc:every=29;memcpy:every=23;latency:ms=1,every=11";
  opt.max_attempts = 3;
  opt.retry_backoff_seconds = 0.0002;
  opt.fallback_backend = "cpu";
  SimulationEngine eng(opt);

  std::vector<std::future<SimResult>> futs;
  std::vector<std::pair<std::size_t, std::uint64_t>> keys;
  futs.reserve(kRequests);
  for (std::size_t k = 0; k < kRequests; ++k) {
    const std::size_t ci = k % 3;
    const std::uint64_t seed = k % kSeeds;
    SimRequest req = request(circuits[ci], "hip", 1000 + seed);
    if (k % 37 == 0) req.timeout_seconds = 0.001;  // a few doomed deadlines
    keys.emplace_back(ci, seed);
    futs.push_back(eng.submit(req));
  }

  std::size_t ok = 0, failed = 0;
  for (std::size_t k = 0; k < kRequests; ++k) {
    const SimResult r = futs[k].get();  // every request must resolve
    if (r.ok) {
      ++ok;
      EXPECT_EQ(r.code, SimErrorCode::kOk);
      // Success means bit-identity with the fault-free reference, whether it
      // came fresh, from a retry, the cache, or the cpu fallback.
      EXPECT_EQ(r.samples, want[keys[k]]) << "request " << k;
    } else {
      ++failed;
      EXPECT_NE(r.code, SimErrorCode::kOk);
      EXPECT_FALSE(r.error.empty());
    }
  }
  EXPECT_EQ(ok + failed, kRequests);
  EXPECT_GT(ok, kRequests / 2);  // recovery must actually recover

  // The recovery machinery must have been exercised and be visible in the
  // metrics and in the exported trace counters.
  const EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.submitted, kRequests);
  EXPECT_EQ(m.completed + m.rejected, kRequests);
  EXPECT_GT(m.retries + m.fallbacks, 0u);
  EXPECT_GT(m.faults_oom + m.faults_backend + m.faults_deadline, 0u);

  eng.export_metrics();
  const auto counters = tracer.counters();
  for (const char* key :
       {"engine/retries", "engine/fallbacks", "engine/coalesced_failures",
        "engine/faults_oom", "engine/faults_backend",
        "engine/faults_deadline"}) {
    EXPECT_TRUE(counters.count(key)) << key;
  }
  const std::string json = tracer.to_perfetto_json();
  EXPECT_NE(json.find("engine/faults_backend"), std::string::npos);
}

}  // namespace
}  // namespace qhip::engine
