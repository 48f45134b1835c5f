// HIP-backend correctness: the ported GPU kernels must agree with the
// reference simulator on both virtual devices (MI250X wavefront 64 and
// A100 warp 32), for both precisions, across the H/L kernel split.
#include "src/hipsim/simulator_hip.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>

#include "src/base/rng.h"
#include "src/core/gates.h"
#include "src/fusion/fuser.h"
#include "src/rqc/rqc.h"
#include "src/simulator/reference.h"
#include "src/simulator/simulator_cpu.h"

namespace qhip::hipsim {
namespace {

using vgpu::Device;

Circuit random_circuit(unsigned n, unsigned depth, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Circuit c;
  c.num_qubits = n;
  for (unsigned t = 0; t < depth; ++t) {
    std::vector<bool> used(n, false);
    for (unsigned q = 0; q < n; ++q) {
      if (used[q]) continue;
      const double r = rng.uniform();
      if (r < 0.35 && q + 1 < n && !used[q + 1]) {
        c.gates.push_back(gates::fs(t, q, q + 1, rng.uniform() * 2, rng.uniform()));
        used[q] = used[q + 1] = true;
      } else if (r < 0.7) {
        c.gates.push_back(gates::rxy(t, q, rng.uniform() * 6, rng.uniform() * 3));
        used[q] = true;
      }
    }
  }
  return c;
}

template <typename T>
class SimulatorHIPTyped : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(SimulatorHIPTyped, Precisions);

TYPED_TEST(SimulatorHIPTyped, BellStateOnMI250X) {
  Device dev{vgpu::mi250x_gcd()};
  SimulatorHIP<TypeParam> sim(dev);
  DeviceStateVector<TypeParam> s(dev, 6);
  sim.state_space().set_zero_state(s);
  sim.apply_gate(gates::h(0, 0), s);
  sim.apply_gate(gates::cnot(1, 0, 1), s);
  const StateVector<TypeParam> h = s.to_host();
  const double r = 1 / std::numbers::sqrt2;
  EXPECT_NEAR(h[0].real(), r, 1e-6);
  EXPECT_NEAR(h[3].real(), r, 1e-6);
  EXPECT_NEAR(std::abs(h[1]), 0, 1e-6);
}

// The low/high kernel split: single-qubit gates on every qubit position of
// an 8-qubit state hit ApplyGateL (q < 5) and ApplyGateH (q >= 5).
TYPED_TEST(SimulatorHIPTyped, SingleQubitGateEveryPosition) {
  for (unsigned warp : {32u, 64u}) {
    vgpu::DeviceProps props = warp == 32 ? vgpu::a100() : vgpu::mi250x_gcd();
    Device dev{props};
    SimulatorHIP<TypeParam> sim(dev);
    const unsigned n = 8;
    for (qubit_t q = 0; q < n; ++q) {
      DeviceStateVector<TypeParam> ds(dev, n);
      sim.state_space().set_zero_state(ds);
      StateVector<TypeParam> ref(n);

      // Prepare superposition then hit qubit q.
      sim.apply_gate(gates::h(0, 0), ds);
      sim.apply_gate(gates::h(0, n - 1), ds);
      sim.apply_gate(gates::rxy(1, q, 0.3, 1.1), ds);
      reference_apply_gate(gates::h(0, 0), ref);
      reference_apply_gate(gates::h(0, n - 1), ref);
      reference_apply_gate(gates::rxy(1, q, 0.3, 1.1), ref);

      EXPECT_LT(statespace::max_abs_diff(ds.to_host(), ref), state_tol<TypeParam>())
          << "qubit " << q << " warp " << warp;
    }
  }
}

TYPED_TEST(SimulatorHIPTyped, TwoQubitGatesAcrossTheSplit) {
  Device dev{vgpu::mi250x_gcd()};
  SimulatorHIP<TypeParam> sim(dev);
  const unsigned n = 8;
  // Pairs covering low-low, low-high, high-high.
  const std::vector<std::pair<qubit_t, qubit_t>> pairs = {
      {0, 1}, {2, 4}, {1, 6}, {4, 7}, {5, 6}, {0, 7}};
  for (const auto& [a, b] : pairs) {
    DeviceStateVector<TypeParam> ds(dev, n);
    sim.state_space().set_zero_state(ds);
    StateVector<TypeParam> ref(n);
    for (qubit_t q = 0; q < n; ++q) {
      sim.apply_gate(gates::h(0, q), ds);
      reference_apply_gate(gates::h(0, q), ref);
    }
    const Gate g = gates::fs(1, a, b, 0.7, 0.4);
    sim.apply_gate(g, ds);
    reference_apply_gate(g, ref);
    EXPECT_LT(statespace::max_abs_diff(ds.to_host(), ref), state_tol<TypeParam>())
        << a << "," << b;
  }
}

TYPED_TEST(SimulatorHIPTyped, RandomCircuitsMatchReferenceBothDevices) {
  for (unsigned warp : {32u, 64u}) {
    Device dev{vgpu::test_device(warp)};
    SimulatorHIP<TypeParam> sim(dev);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const unsigned n = 7;
      const Circuit c = random_circuit(n, 8, seed);
      DeviceStateVector<TypeParam> ds(dev, n);
      sim.state_space().set_zero_state(ds);
      sim.run(c, ds);
      StateVector<TypeParam> ref(n);
      reference_run(c, ref);
      EXPECT_LT(statespace::max_abs_diff(ds.to_host(), ref),
                2 * state_tol<TypeParam>())
          << "warp " << warp << " seed " << seed;
    }
  }
}

TYPED_TEST(SimulatorHIPTyped, FusedCircuitsMatchCPU) {
  Device dev{vgpu::mi250x_gcd()};
  SimulatorHIP<TypeParam> gpu(dev);
  SimulatorCPU<TypeParam> cpu;
  const unsigned n = 9;
  const Circuit c = random_circuit(n, 10, 33);
  for (unsigned f : {2u, 3u, 4u, 5u, 6u}) {
    const FusionResult fused = fuse_circuit(c, {f});
    DeviceStateVector<TypeParam> ds(dev, n);
    gpu.state_space().set_zero_state(ds);
    gpu.run(fused.circuit, ds);
    StateVector<TypeParam> hs(n);
    cpu.run(fused.circuit, hs);
    EXPECT_LT(statespace::max_abs_diff(ds.to_host(), hs),
              4 * state_tol<TypeParam>())
        << "max_fused " << f;
  }
}

TYPED_TEST(SimulatorHIPTyped, WideFusedGateLowAndHighMix) {
  // 6-qubit fused gates mixing low and high targets stress ApplyGateL's
  // shared-memory staging (2^5 high combos x 32-amplitude tiles).
  Device dev{vgpu::mi250x_gcd()};
  SimulatorHIP<TypeParam> sim(dev);
  const unsigned n = 11;
  const Circuit c = random_circuit(n, 16, 55);
  const FusionResult fused = fuse_circuit(c, {6});
  bool saw_wide_low = false;
  for (const auto& g : fused.circuit.gates) {
    if (g.num_targets() >= 5 && g.qubits.front() < 5) saw_wide_low = true;
  }
  EXPECT_TRUE(saw_wide_low) << "test circuit should produce wide low gates";

  DeviceStateVector<TypeParam> ds(dev, n);
  sim.state_space().set_zero_state(ds);
  sim.run(fused.circuit, ds);
  StateVector<TypeParam> ref(n);
  reference_run(fused.circuit, ref);
  EXPECT_LT(statespace::max_abs_diff(ds.to_host(), ref), 4 * state_tol<TypeParam>());
}

TYPED_TEST(SimulatorHIPTyped, ControlledGateHighTargets) {
  // Controls + high targets exercise the native control-mask path.
  Device dev{vgpu::mi250x_gcd()};
  SimulatorHIP<TypeParam> sim(dev);
  const unsigned n = 8;
  DeviceStateVector<TypeParam> ds(dev, n);
  sim.state_space().set_zero_state(ds);
  StateVector<TypeParam> ref(n);
  for (qubit_t q = 0; q < n; ++q) {
    sim.apply_gate(gates::h(0, q), ds);
    reference_apply_gate(gates::h(0, q), ref);
  }
  const Gate cg = gates::controlled(gates::ry(1, 6, 0.8), {1, 3});
  sim.apply_gate(cg, ds);
  reference_apply_gate(cg, ref);
  EXPECT_LT(statespace::max_abs_diff(ds.to_host(), ref), state_tol<TypeParam>());
}

TYPED_TEST(SimulatorHIPTyped, ControlledGateLowTargetsFoldsControls) {
  Device dev{vgpu::mi250x_gcd()};
  SimulatorHIP<TypeParam> sim(dev);
  const unsigned n = 8;
  DeviceStateVector<TypeParam> ds(dev, n);
  sim.state_space().set_zero_state(ds);
  StateVector<TypeParam> ref(n);
  for (qubit_t q = 0; q < n; ++q) {
    sim.apply_gate(gates::h(0, q), ds);
    reference_apply_gate(gates::h(0, q), ref);
  }
  const Gate cg = gates::controlled(gates::rx(1, 2, 1.3), {5});
  sim.apply_gate(cg, ds);
  reference_apply_gate(cg, ref);
  EXPECT_LT(statespace::max_abs_diff(ds.to_host(), ref), state_tol<TypeParam>());
}

TYPED_TEST(SimulatorHIPTyped, MeasurementCollapsesOnDevice) {
  Device dev{vgpu::mi250x_gcd()};
  SimulatorHIP<TypeParam> sim(dev);
  Circuit c;
  c.num_qubits = 6;
  c.gates.push_back(gates::h(0, 0));
  c.gates.push_back(gates::cnot(1, 0, 1));
  c.gates.push_back(gates::measure(2, {0, 1}));
  DeviceStateVector<TypeParam> ds(dev, 6);
  sim.state_space().set_zero_state(ds);
  std::vector<index_t> meas;
  sim.run(c, ds, 123, &meas);
  ASSERT_EQ(meas.size(), 1u);
  EXPECT_TRUE(meas[0] == 0b00 || meas[0] == 0b11);
  const StateVector<TypeParam> h = ds.to_host();
  EXPECT_NEAR(statespace::norm2(h), 1.0, 1e-5);
}

TYPED_TEST(SimulatorHIPTyped, RejectsTooWideGate) {
  Device dev{vgpu::mi250x_gcd()};
  SimulatorHIP<TypeParam> sim(dev);
  DeviceStateVector<TypeParam> ds(dev, 9);
  Gate g;
  g.name = "fused";
  for (qubit_t q = 0; q < 7; ++q) g.qubits.push_back(q);
  g.matrix = CMatrix::identity(128);
  EXPECT_THROW(sim.apply_gate(g, ds), Error);
}

TEST(SimulatorHIP, GateMatrixUploadsAreTraced) {
  Tracer tracer;
  Device dev{vgpu::mi250x_gcd(), &tracer};
  SimulatorHIP<float> sim(dev);
  DeviceStateVector<float> ds(dev, 6);
  sim.state_space().set_zero_state(ds);
  sim.apply_gate(gates::h(0, 5), ds);  // high qubit -> ApplyGateH
  sim.apply_gate(gates::h(0, 0), ds);  // low qubit  -> ApplyGateL
  dev.synchronize();  // spans are recorded when the streams execute the ops

  bool saw_h = false, saw_l = false, saw_copy = false;
  for (const auto& row : tracer.summary()) {
    if (row.name == "ApplyGateH_Kernel") saw_h = true;
    if (row.name == "ApplyGateL_Kernel") saw_l = true;
    if (row.name == "hipMemcpyAsync(HtoD)") saw_copy = true;
  }
  EXPECT_TRUE(saw_h);
  EXPECT_TRUE(saw_l);
  EXPECT_TRUE(saw_copy);
}

// The RQC the paper's Figs. 1/6 trace and Fig. 8 accuracy claim are checked
// on, sized for real runs on the virtual GPU: 16 qubits (4x4 grid, depth 14)
// fused at f = 4.
Circuit fused_rqc16() {
  rqc::RqcOptions opt;
  opt.rows = 4;
  opt.cols = 4;
  opt.depth = 14;
  return fuse_circuit(rqc::generate_rqc(opt), {4}).circuit;
}

TEST(SimulatorHIP, RqcTraceHasPaperShape) {
  // Paper Figs. 1 and 6 (rocprof timeline of the RQC benchmark): the H and
  // L kernels carry the run, hipMemcpyAsync stages every gate matrix, some
  // of those copies overlap a kernel, and L costs more per call than H.
  // Async streams explicitly: eager mode runs every op inline on the host,
  // so it has no copy/compute overlap by design.
  Tracer tracer;
  Device dev{vgpu::mi250x_gcd(), &tracer, &ThreadPool::shared(),
             vgpu::StreamMode::kAsync};
  SimulatorHIP<float> sim(dev);
  DeviceStateVector<float> ds(dev, 16);
  sim.state_space().set_zero_state(ds);
  sim.run(fused_rqc16(), ds);
  dev.synchronize();  // spans are recorded when the streams execute the ops

  std::uint64_t h_count = 0, l_count = 0, copies = 0;
  double h_mean_us = 0, l_mean_us = 0;
  for (const auto& row : tracer.summary()) {
    const double mean =
        static_cast<double>(row.total_us) / static_cast<double>(row.count);
    if (row.name == "ApplyGateH_Kernel") {
      h_count = row.count;
      h_mean_us = mean;
    }
    if (row.name == "ApplyGateL_Kernel") {
      l_count = row.count;
      l_mean_us = mean;
    }
    if (row.name == "hipMemcpyAsync(HtoD)") copies = row.count;
  }
  EXPECT_GT(h_count, 0u);
  EXPECT_GT(l_count, 0u);
  EXPECT_GE(copies, h_count + l_count);
  EXPECT_GT(l_mean_us, h_mean_us);

  // Copy/compute overlap: an async copy whose span intersects a kernel span
  // on another stream lane (the overlapping rows of the rocprof timeline).
  const auto events = tracer.events();
  std::size_t overlapping = 0;
  for (const auto& m : events) {
    if (m.kind != TraceKind::kMemcpy || m.name != "hipMemcpyAsync(HtoD)") {
      continue;
    }
    for (const auto& k : events) {
      if (k.kind == TraceKind::kKernel && k.lane != m.lane &&
          m.ts_us < k.ts_us + k.dur_us && k.ts_us < m.ts_us + m.dur_us) {
        ++overlapping;
        break;
      }
    }
  }
  EXPECT_GE(overlapping, 1u) << "of " << copies << " async copies";
}

TEST(SimulatorHIP, SinglePrecisionMatchesDoubleOnRqc) {
  // Paper Fig. 8: double precision costs ~2x and buys no accuracy for the
  // RQC workload. Both precisions run the same circuit on the virtual MI250X.
  const Circuit fused = fused_rqc16();
  Device dev{vgpu::mi250x_gcd()};
  SimulatorHIP<float> sim_sp(dev);
  DeviceStateVector<float> sp(dev, 16);
  sim_sp.state_space().set_zero_state(sp);
  sim_sp.run(fused, sp);
  SimulatorHIP<double> sim_dp(dev);
  DeviceStateVector<double> dp(dev, 16);
  sim_dp.state_space().set_zero_state(dp);
  sim_dp.run(fused, dp);

  const StateVector<float> h_sp = sp.to_host();
  const StateVector<double> h_dp = dp.to_host();
  double worst = 0;
  for (index_t i = 0; i < h_sp.size(); ++i) {
    worst = std::max(
        worst, std::abs(cplx64(h_sp[i].real(), h_sp[i].imag()) - h_dp[i]));
  }
  EXPECT_LT(worst, 1e-4);
}

}  // namespace
}  // namespace qhip::hipsim
