// Runtime Backend API: factory specs, parity with driving the simulators
// directly, buffer pooling, amplitude gathering, and device-memory capacity
// arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/base/error.h"
#include "src/core/gates.h"
#include "src/engine/backend.h"
#include "src/fusion/fuser.h"
#include "src/hipsim/simulator_hip.h"
#include "src/rqc/rqc.h"
#include "src/simulator/simulator_cpu.h"
#include "src/vgpu/device_props.h"

namespace qhip {
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

TEST(BackendFactory, CreatesEverySpec) {
  for (const char* spec : {"cpu", "hip", "a100", "hip:2", "hip:4"}) {
    const auto b = create_backend(spec, Precision::kSingle);
    EXPECT_EQ(b->spec(), spec);
    EXPECT_EQ(b->precision(), Precision::kSingle);
    EXPECT_FALSE(b->description().empty());
    EXPECT_GT(b->max_qubits(), 20u) << spec;
  }
  EXPECT_EQ(create_backend("cpu", Precision::kDouble)->precision(),
            Precision::kDouble);
  EXPECT_EQ(create_backend("hip", "double")->precision(), Precision::kDouble);
}

// Host backends name the apply kernel they run, and it follows the CPU:
// avx2+fma exactly when the CPU has both extensions. dist:N also names its
// threads per rank: nproc / N, at least 1.
TEST(BackendFactory, HostLabelsNameTheDispatchedKernel) {
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  const std::string kernel = avx2 ? "avx2+fma" : "scalar";
  const unsigned nproc = ThreadPool::shared().num_threads();
  const auto cpu = create_backend("cpu", Precision::kSingle);
  EXPECT_EQ(cpu->description(),
            "CPU (" + kernel + ", " + std::to_string(nproc) + " threads)");
  for (unsigned ranks : {2u, 4u, 8u}) {
    const auto dist = create_backend("dist:" + std::to_string(ranks),
                                     Precision::kDouble);
    const unsigned per_rank = std::max(1u, nproc / ranks);
    EXPECT_EQ(dist->description(),
              std::to_string(ranks) + " thread-ranks x " +
                  std::to_string(per_rank) + " threads (message-passing dist, " +
                  kernel + ")");
  }
}

TEST(BackendFactory, RejectsUnknownSpecs) {
  EXPECT_THROW(create_backend("cuda", Precision::kSingle), Error);
  EXPECT_THROW(create_backend("hip:3", Precision::kSingle), Error);  // not 2^k
  EXPECT_THROW(create_backend("hip:", Precision::kSingle), Error);
  EXPECT_THROW(create_backend("cpu", "half"), Error);
}

// backend_fits must say exactly which partitioned runs can be built, so the
// engine's fallback and the planner never pick one whose construction
// throws. Both hip:N and dist:N need two local qubits per part.
TEST(BackendFactory, PartitionedFitsAgreesWithConstruction) {
  for (const char* spec : {"hip:2", "hip:4", "dist:2", "dist:4"}) {
    const BackendSpec parsed = BackendSpec::parse(spec);
    const unsigned d = log2_exact(parsed.ranks);
    const auto backend = create_backend(parsed, Precision::kSingle);
    for (unsigned n : {d, d + 1, d + 2}) {
      const bool fits = backend_fits(parsed, n, Precision::kSingle);
      EXPECT_EQ(fits, n == d + 2) << spec << " n=" << n;
      Circuit c;
      c.num_qubits = n;
      c.gates.push_back(gates::h(0, n - 1));  // a global qubit: one swap
      bool built = true;
      try {
        backend->run(c, BackendRunSpec{});
      } catch (const Error&) {
        built = false;
      }
      EXPECT_EQ(built, fits) << spec << " n=" << n;
    }
  }
}

TEST(BackendFactory, IsBackendSpec) {
  EXPECT_TRUE(is_backend_spec("cpu"));
  EXPECT_TRUE(is_backend_spec("hip"));
  EXPECT_TRUE(is_backend_spec("a100"));
  EXPECT_TRUE(is_backend_spec("hip:2"));
  EXPECT_TRUE(is_backend_spec("hip:64"));
  EXPECT_FALSE(is_backend_spec("hip:1"));
  EXPECT_FALSE(is_backend_spec("hip:3"));
  EXPECT_FALSE(is_backend_spec("hip:128"));
  EXPECT_FALSE(is_backend_spec("gpu"));
  EXPECT_FALSE(is_backend_spec(""));
}

// The polymorphic path must be bit-identical with driving the simulator
// directly for the same backend kind, fusion setting, and seed.
TEST(Backend, CpuMatchesLegacyShimBitExact) {
  const Circuit c = make_rqc(2, 3, 10, 11);
  FusionOptions fusion;
  fusion.max_fused_qubits = 3;
  BackendRunSpec rs;
  rs.seed = 42;
  rs.num_samples = 64;

  SimulatorCPU<float> sim;
  StateVector<float> state(c.num_qubits);
  const FusionResult fused = fuse_circuit(c, fusion);
  std::vector<index_t> legacy_meas;
  sim.run(fused.circuit, state, rs.seed, &legacy_meas);
  const auto legacy_samples =
      statespace::sample(state, rs.num_samples, rs.seed);

  // The backend path fuses on its own, as a one-shot caller would.
  const FusionResult poly_fused = fuse_circuit(c, fusion);
  const auto backend = create_backend("cpu", Precision::kSingle);
  const BackendRunOutput poly = backend->run(poly_fused.circuit, rs);

  ASSERT_EQ(legacy_samples.size(), poly.samples.size());
  EXPECT_EQ(legacy_samples, poly.samples);
  EXPECT_EQ(legacy_meas, poly.measurements);
  EXPECT_EQ(fused.stats.output_gates, poly_fused.stats.output_gates);
}

TEST(Backend, HipMatchesLegacyShimBitExact) {
  const Circuit c = make_rqc(2, 3, 10, 11);
  FusionOptions fusion;
  fusion.max_fused_qubits = 3;
  BackendRunSpec rs;
  rs.seed = 42;
  rs.num_samples = 64;

  vgpu::Device dev(vgpu::mi250x_gcd());
  hipsim::SimulatorHIP<float> sim(dev);
  hipsim::DeviceStateVector<float> ds(dev, c.num_qubits);
  sim.state_space().set_zero_state(ds);
  const Circuit fused = fuse_circuit(c, fusion).circuit;
  std::vector<index_t> legacy_meas;
  sim.run(fused, ds, rs.seed, &legacy_meas);
  dev.synchronize();
  const auto legacy_samples =
      sim.state_space().sample(ds, rs.num_samples, rs.seed);

  const auto backend = create_backend("hip", Precision::kSingle);
  const BackendRunOutput poly =
      backend->run(fuse_circuit(c, fusion).circuit, rs);

  EXPECT_EQ(legacy_samples, poly.samples);
  EXPECT_EQ(legacy_meas, poly.measurements);
}

TEST(Backend, PoolReusesBuffersAcrossQubitCounts) {
  const auto backend = create_backend("hip", Precision::kSingle);
  const Circuit small = make_rqc(2, 3, 6, 1);   // 6 qubits
  const Circuit large = make_rqc(2, 4, 6, 1);   // 8 qubits
  BackendRunSpec rs;

  backend->run(small, rs);  // miss: allocates the 6-qubit buffer
  backend->run(large, rs);  // miss: allocates the 8-qubit buffer
  backend->run(small, rs);  // hit: reuses the parked 6-qubit buffer
  backend->run(large, rs);  // hit: reuses the parked 8-qubit buffer

  const engine::PoolStats s = backend->pool_stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.buffers_pooled, 2u);
  EXPECT_EQ(s.bytes_pooled,
            (pow2(6) + pow2(8)) * sizeof(cplx<float>));

  backend->trim_pool();
  EXPECT_EQ(backend->pool_stats().bytes_pooled, 0u);
}

TEST(Backend, AmplitudeGatherMatchesFullState) {
  const Circuit c = make_rqc(2, 3, 8, 5);
  const Circuit fused = fuse_circuit(c, {3}).circuit;
  for (const char* spec : {"cpu", "hip", "hip:2"}) {
    const auto backend = create_backend(spec, Precision::kSingle);
    BackendRunSpec rs;
    rs.want_state = true;
    rs.amplitude_indices = {0, 1, 7, 63};
    const BackendRunOutput out = backend->run(fused, rs);
    ASSERT_EQ(out.state.size(), pow2(c.num_qubits)) << spec;
    ASSERT_EQ(out.amplitudes.size(), 4u) << spec;
    for (std::size_t k = 0; k < rs.amplitude_indices.size(); ++k) {
      EXPECT_EQ(out.amplitudes[k],
                out.state[static_cast<std::size_t>(rs.amplitude_indices[k])])
          << spec;
    }
  }
}

TEST(Backend, MultiGcdReportsTransferCounters) {
  const auto backend = create_backend("hip:2", Precision::kSingle);
  const Circuit c = make_rqc(2, 4, 8, 3);
  BackendRunSpec rs;
  const BackendRunOutput out = backend->run(fuse_circuit(c, {2}).circuit, rs);
  ASSERT_TRUE(out.counters.count("slot_swaps"));
  ASSERT_TRUE(out.counters.count("peer_bytes"));
  EXPECT_GT(out.counters.at("local_gate_launches"), 0.0);
}

// Device-memory capacity arithmetic: a virtual A100 holds 40 GiB, so at
// double precision (16-byte amplitudes) it fits 2^31 amplitudes and no more.
TEST(Backend, MaxQubitsTracksDeviceMemory) {
  const auto a100d = create_backend("a100", Precision::kDouble);
  EXPECT_EQ(a100d->max_qubits(), 31u);
  const auto a100s = create_backend("a100", Precision::kSingle);
  EXPECT_EQ(a100s->max_qubits(), 32u);
  // The MI250X GCD is modelled with 128 GiB, capped by the emulator's 34.
  const auto hips = create_backend("hip", Precision::kSingle);
  EXPECT_EQ(hips->max_qubits(), 33u);
}

}  // namespace
}  // namespace qhip
