// dist:N as a first-class serving backend: factory specs, bit-identity with
// the cpu backend through the SimulationEngine (state, samples, amplitudes
// for a fixed seed), transfer counters, deadline propagation, slice pooling,
// and hip -> dist graceful degradation.
#include <gtest/gtest.h>

#include "src/base/error.h"
#include "src/engine/backend.h"
#include "src/engine/engine.h"
#include "src/fusion/fuser.h"
#include "src/rqc/rqc.h"

namespace qhip {
namespace {

using engine::EngineOptions;
using engine::SimRequest;
using engine::SimResult;
using engine::SimulationEngine;

Circuit make_rqc(unsigned rows, unsigned cols, unsigned depth,
                 std::uint64_t seed) {
  rqc::RqcOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.depth = depth;
  opt.seed = seed;
  return rqc::generate_rqc(opt);
}

TEST(DistBackendFactory, CreatesEveryRankCount) {
  for (const char* spec : {"dist:2", "dist:4", "dist:8"}) {
    const auto b = create_backend(spec, Precision::kSingle);
    EXPECT_EQ(b->spec(), spec);
    EXPECT_EQ(b->precision(), Precision::kSingle);
    EXPECT_FALSE(b->description().empty());
    EXPECT_EQ(b->max_qubits(), 30u);
  }
  EXPECT_EQ(create_backend("dist:2", Precision::kDouble)->precision(),
            Precision::kDouble);
}

TEST(DistBackendFactory, RejectsBadRankCounts) {
  EXPECT_THROW(create_backend("dist:1", Precision::kSingle), Error);
  EXPECT_THROW(create_backend("dist:3", Precision::kSingle), Error);
  EXPECT_THROW(create_backend("dist:128", Precision::kSingle), Error);
  EXPECT_THROW(create_backend("dist:", Precision::kSingle), Error);
  EXPECT_TRUE(is_backend_spec("dist:2"));
  EXPECT_TRUE(is_backend_spec("dist:64"));
  EXPECT_FALSE(is_backend_spec("dist:1"));
  EXPECT_FALSE(is_backend_spec("dist:3"));
  EXPECT_FALSE(is_backend_spec("dist:128"));
  EXPECT_FALSE(is_backend_spec("dist"));
}

// The core serving guarantee: a 16-qubit RQC served through the engine on
// dist:N returns bit-identical state, samples, and amplitudes to the cpu
// backend for the same seed (gate arithmetic is elementwise-identical
// regardless of distribution, and sampling runs on the gathered state with
// the same Philox streams).
TEST(DistBackend, BitIdenticalWithCpuThroughEngine) {
  const Circuit c = make_rqc(4, 4, 8, 17);
  ASSERT_EQ(c.num_qubits, 16u);

  SimRequest base;
  base.circuit = c;
  base.fusion.max_fused_qubits = 3;
  base.seed = 5;
  base.num_samples = 128;
  base.amplitude_indices = {0, 1, 255, 65535};
  base.want_state = true;

  SimulationEngine eng;
  SimRequest cpu_req = base;
  cpu_req.backend = "cpu";
  const SimResult cpu = eng.run(cpu_req);
  ASSERT_TRUE(cpu.ok) << cpu.error;
  ASSERT_EQ(cpu.state.size(), pow2(16));

  for (const char* spec : {"dist:2", "dist:4", "dist:8"}) {
    SimRequest req = base;
    req.backend = spec;
    const SimResult r = eng.run(req);
    ASSERT_TRUE(r.ok) << spec << ": " << r.error;
    EXPECT_EQ(r.backend_used, spec);
    EXPECT_EQ(r.state, cpu.state) << spec;
    EXPECT_EQ(r.samples, cpu.samples) << spec;
    EXPECT_EQ(r.amplitudes, cpu.amplitudes) << spec;
    EXPECT_EQ(r.measurements, cpu.measurements) << spec;
    // The distributed run reports its communication profile.
    ASSERT_TRUE(r.counters.count("slot_swaps")) << spec;
    ASSERT_TRUE(r.counters.count("swap_rounds")) << spec;
    ASSERT_TRUE(r.counters.count("peer_bytes")) << spec;
    ASSERT_TRUE(r.counters.count("exchange_ns")) << spec;
    EXPECT_GT(r.counters.at("slot_swaps"), 0.0) << spec;
    EXPECT_GT(r.counters.at("peer_bytes"), 0.0) << spec;
  }

  // Identical dist requests are served from the result cache.
  SimRequest again = base;
  again.backend = "dist:2";
  const SimResult hit = eng.run(again);
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.result_cache_hit);
  EXPECT_EQ(hit.samples, cpu.samples);
}

// In-circuit measurement gates through the serving path: outcomes agree
// with cpu exactly (same seed formula and Philox stream; the outcome draw
// is replicated on every rank from allreduced probabilities).
TEST(DistBackend, MeasurementOutcomesMatchCpu) {
  rqc::RqcOptions opt;
  opt.rows = 3;
  opt.cols = 3;
  opt.depth = 6;
  opt.seed = 4;
  opt.final_measurement = true;
  const Circuit c = rqc::generate_rqc(opt);

  SimRequest base;
  base.circuit = c;
  base.seed = 23;
  SimulationEngine eng;
  SimRequest cpu_req = base;
  cpu_req.backend = "cpu";
  const SimResult cpu = eng.run(cpu_req);
  ASSERT_TRUE(cpu.ok) << cpu.error;
  ASSERT_EQ(cpu.measurements.size(), 1u);

  SimRequest dist_req = base;
  dist_req.backend = "dist:4";
  const SimResult dist = eng.run(dist_req);
  ASSERT_TRUE(dist.ok) << dist.error;
  EXPECT_EQ(dist.measurements, cpu.measurements);
}

TEST(DistBackend, DeadlinePropagatesAsCodedError) {
  const auto backend = create_backend("dist:2", Precision::kSingle);
  const Circuit fused = fuse_circuit(make_rqc(3, 3, 8, 2), {3}).circuit;
  BackendRunSpec rs;
  rs.deadline = Deadline::after(0);
  try {
    backend->run(fused, rs);
    FAIL() << "expired deadline did not abort the run";
  } catch (const CodedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  // The backend stays serviceable after the abort.
  const BackendRunOutput out = backend->run(fused, BackendRunSpec{});
  EXPECT_GT(out.counters.at("slot_swaps"), 0.0);
}

TEST(DistBackend, PoolReusesSlicesAcrossRequests) {
  const auto backend = create_backend("dist:4", Precision::kSingle);
  const Circuit fused = fuse_circuit(make_rqc(2, 4, 6, 1), {2}).circuit;
  BackendRunSpec rs;
  backend->run(fused, rs);  // 4 misses: each rank allocates its slice
  backend->run(fused, rs);  // 4 hits: each rank adopts a parked slice
  const engine::PoolStats s = backend->pool_stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.buffers_pooled, 4u);
  EXPECT_EQ(s.bytes_pooled, pow2(fused.num_qubits) * sizeof(cplx<float>));
  backend->trim_pool();
  EXPECT_EQ(backend->pool_stats().bytes_pooled, 0u);
}

// Rank 0's gathered full state is pooled too: a second sampling run
// reuses it (one more hit and miss than the slices alone) and returns the
// same state and samples as the first.
TEST(DistBackend, PoolReusesGatheredStateAcrossRequests) {
  const auto backend = create_backend("dist:4", Precision::kSingle);
  const Circuit fused = fuse_circuit(make_rqc(2, 4, 6, 1), {2}).circuit;
  BackendRunSpec rs;
  rs.want_state = true;
  rs.num_samples = 32;
  const BackendRunOutput first = backend->run(fused, rs);
  const BackendRunOutput second = backend->run(fused, rs);
  EXPECT_EQ(second.state, first.state);
  EXPECT_EQ(second.samples, first.samples);
  const engine::PoolStats s = backend->pool_stats();
  EXPECT_EQ(s.misses, 5u);
  EXPECT_EQ(s.hits, 5u);
  EXPECT_EQ(s.buffers_pooled, 5u);
  EXPECT_EQ(s.bytes_pooled, 2 * pow2(fused.num_qubits) * sizeof(cplx<float>));
  backend->trim_pool();
  EXPECT_EQ(backend->pool_stats().bytes_pooled, 0u);
}

// dist ranks are host threads — there is no virtual device to install a
// fault plan on, so (like cpu) a fault spec is accepted and ignored.
TEST(DistBackend, FaultSpecIgnored) {
  const auto backend =
      create_backend("dist:2", Precision::kSingle, nullptr, "memcpy:every=1");
  const Circuit fused = fuse_circuit(make_rqc(2, 3, 6, 9), {2}).circuit;
  BackendRunSpec rs;
  rs.num_samples = 8;
  const BackendRunOutput out = backend->run(fused, rs);
  EXPECT_EQ(out.samples.size(), 8u);
}

// Graceful degradation: a persistently faulting hip backend falls back to
// dist:N and the request still completes there.
TEST(DistBackend, EngineFallsBackFromHipToDist) {
  EngineOptions opt;
  opt.fault_spec = "memcpy:every=1";  // every hip stream copy fails, forever
  opt.max_attempts = 2;
  opt.retry_backoff_seconds = 0.0005;
  opt.fallback_backend = "dist:2";  // no virtual device -> immune
  SimulationEngine eng(opt);

  SimRequest req;
  req.circuit = make_rqc(3, 3, 6, 7);
  req.backend = "hip";
  req.num_samples = 16;
  const SimResult r = eng.run(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.fallback_used);
  EXPECT_EQ(r.backend_used, "dist:2");
  EXPECT_EQ(r.samples.size(), 16u);
}

// Too few qubits to split over the rank count is a clean engine failure,
// not a hang or a crash.
TEST(DistBackend, TooFewQubitsRejected) {
  Circuit tiny;
  tiny.num_qubits = 2;
  SimRequest req;
  req.circuit = tiny;
  req.backend = "dist:8";
  SimulationEngine eng;
  const SimResult r = eng.run(req);
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace qhip
