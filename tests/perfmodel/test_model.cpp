// The paper-shape assertions: the calibrated device models driven by the
// exact fused-RQC30 workload must reproduce every quantitative claim of the
// paper's evaluation section (within tolerance). tools/paper_figures prints
// the series these invariants are read from.
#include "src/perfmodel/model.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/base/bits.h"
#include "src/base/error.h"
#include "src/base/timer.h"
#include "src/fusion/fuser.h"
#include "src/rqc/rqc.h"

namespace qhip::perfmodel {
namespace {

class PaperShape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Circuit c = rqc::circuit_q30();
    for (unsigned f = 2; f <= 6; ++f) {
      const auto fused = fuse_circuit(c, {f});
      stats_[f] = WorkloadStats::from_circuit(fused.circuit);
    }
  }

  static double t(Backend b, unsigned f, Precision p = Precision::kSingle) {
    return predict_seconds(stats_.at(f), b, p);
  }

  static std::map<unsigned, WorkloadStats> stats_;
};

std::map<unsigned, WorkloadStats> PaperShape::stats_;

TEST_F(PaperShape, Fig7_GpuBeatsCpuSevenToNineTimes) {
  // Paper §5: "the AMD MI250X GPU consistently outperformed the AMD EPYC
  // Trento CPU ... achieving speeds up to seven to nine times faster."
  for (unsigned f = 2; f <= 6; ++f) {
    const double ratio = t(Backend::kCpuTrento, f) / t(Backend::kHipMi250x, f);
    EXPECT_GT(ratio, 5.8) << "f=" << f;
    EXPECT_LT(ratio, 9.5) << "f=" << f;
  }
  const double best =
      t(Backend::kCpuTrento, 2) / t(Backend::kHipMi250x, 2);
  EXPECT_GT(best, 8.0);  // "up to ... nine times"
}

TEST_F(PaperShape, Fig7_FourFusedGatesOptimalOnCpuAndHip) {
  for (Backend b : {Backend::kCpuTrento, Backend::kHipMi250x}) {
    const double t4 = t(b, 4);
    for (unsigned f : {2u, 3u, 5u, 6u}) {
      EXPECT_LT(t4, t(b, f)) << backend_name(b) << " f=" << f;
    }
  }
}

TEST_F(PaperShape, Fig8_DoublePrecisionAbout2xSlower) {
  // Paper §5: "double-precision exhibit an approximate slowdown of 1.8 to 2
  // times compared to single-precision."
  for (unsigned f = 2; f <= 6; ++f) {
    const double ratio = t(Backend::kHipMi250x, f, Precision::kDouble) /
                         t(Backend::kHipMi250x, f, Precision::kSingle);
    EXPECT_GT(ratio, 1.75) << "f=" << f;
    EXPECT_LE(ratio, 2.05) << "f=" << f;
  }
}

TEST_F(PaperShape, Fig9_GapFivePercentAtFusionTwo) {
  const double gap = t(Backend::kHipMi250x, 2) / t(Backend::kCudaA100, 2);
  EXPECT_NEAR(gap, 1.05, 0.03);
}

TEST_F(PaperShape, Fig9_GapFortyFourPercentAtFusionFour) {
  const double gap = t(Backend::kHipMi250x, 4) / t(Backend::kCudaA100, 4);
  EXPECT_NEAR(gap, 1.44, 0.05);
}

TEST_F(PaperShape, Fig9_GapWidensWithFusion) {
  double prev = 0;
  for (unsigned f = 2; f <= 6; ++f) {
    const double gap = t(Backend::kHipMi250x, f) / t(Backend::kCudaA100, f);
    EXPECT_GT(gap, prev) << "f=" << f;
    prev = gap;
  }
}

TEST_F(PaperShape, Fig9_HipDeterioratesBeyondFourButCudaDoesNot) {
  // HIP: clear degradation 4 -> 6.
  EXPECT_GT(t(Backend::kHipMi250x, 6), 1.15 * t(Backend::kHipMi250x, 4));
  // CUDA: stays within ~10% of its optimum.
  EXPECT_LT(t(Backend::kCudaA100, 6), 1.10 * t(Backend::kCudaA100, 4));
}

TEST_F(PaperShape, Fig9_CuQuantumWithinTenPercentOfCuda) {
  for (unsigned f = 2; f <= 6; ++f) {
    const double r = t(Backend::kCudaA100, f) / t(Backend::kCuQuantumA100, f);
    EXPECT_GT(r, 1.0) << "f=" << f;   // cuQuantum slightly ahead
    EXPECT_LT(r, 1.10) << "f=" << f;  // by less than 10%
  }
}

TEST_F(PaperShape, Sec4_FusionUnderTwoPercentOfSimulation) {
  // Paper §4: "gate fusion only took a small fraction of the total execution
  // time (< 2%)". The transpile runs for real on this host, averaged over
  // five runs as the paper does; the simulation it is compared against is
  // the predicted MI250X time of the same fused circuit.
  const Circuit c = rqc::circuit_q30();
  constexpr int kRepeats = 5;
  for (unsigned f = 2; f <= 6; ++f) {
    Timer timer;
    for (int r = 0; r < kRepeats; ++r) fuse_circuit(c, {f});
    const double fuse_s = timer.seconds() / kRepeats;
    EXPECT_LT(fuse_s, 0.02 * t(Backend::kHipMi250x, f)) << "f=" << f;
  }
}

TEST_F(PaperShape, Ablation_UnboundedWindowLosesTheFourGateOptimum) {
  // DESIGN.md's fusion window: an unbounded clusterer keeps widening gates
  // as f grows, so the HIP model's optimum runs to the end of the sweep;
  // the default bounded window keeps the paper's f = 4 optimum.
  const Circuit c = rqc::circuit_q30();
  auto hip_optimum = [&](unsigned window) {
    unsigned best_f = 0;
    double best = 0;
    for (unsigned f = 2; f <= 6; ++f) {
      const double s = predict_seconds(
          WorkloadStats::from_circuit(fuse_circuit(c, {f, window}).circuit),
          Backend::kHipMi250x, Precision::kSingle);
      if (best_f == 0 || s < best) {
        best = s;
        best_f = f;
      }
    }
    return best_f;
  };
  EXPECT_EQ(hip_optimum(0), 6u);
  EXPECT_EQ(hip_optimum(FusionOptions{}.window_moments), 4u);
}

TEST_F(PaperShape, AllBackendsBandwidthBoundAtModerateFusion) {
  // Sanity: at f <= 4 every backend's per-gate time is bandwidth-limited,
  // the premise of the paper's §2.2 arithmetic-intensity discussion.
  for (Backend b : kAllBackends) {
    const BackendModel& m = backend_model(b);
    for (unsigned q = 1; q <= 4; ++q) {
      const double t_bw = 1.0 / (m.bw_gibps * m.eff_bw[q]);
      const double flops_per_byte = static_cast<double>(pow2(q)) / 2.0;
      const double t_fl =
          flops_per_byte / (m.sp_tflops * 1e3 * m.eff_fl[q]);  // per GiB
      EXPECT_GT(t_bw, t_fl) << backend_name(b) << " q=" << q;
    }
  }
}

TEST(Model, GateSecondsScalesWithQubits) {
  const double t20 = gate_seconds(Backend::kHipMi250x, 20, 2, Precision::kSingle);
  const double t21 = gate_seconds(Backend::kHipMi250x, 21, 2, Precision::kSingle);
  // One more qubit doubles the state: time (minus launch) doubles.
  const double l = backend_model(Backend::kHipMi250x).launch_us * 1e-6;
  EXPECT_NEAR((t21 - l) / (t20 - l), 2.0, 1e-9);
}

TEST(Model, LaunchOverheadDominatesTinyStates) {
  const double t4 = gate_seconds(Backend::kHipMi250x, 4, 1, Precision::kSingle);
  EXPECT_LT(t4, 10e-6);
  EXPECT_GE(t4, 7e-6);
}

TEST(Model, RejectsBadWidth) {
  EXPECT_THROW(gate_seconds(Backend::kHipMi250x, 10, 0, Precision::kSingle), qhip::Error);
  EXPECT_THROW(gate_seconds(Backend::kHipMi250x, 10, 7, Precision::kSingle), qhip::Error);
}

TEST(Model, Table1ContainsPaperNumbers) {
  const std::string t1 = format_table1();
  EXPECT_NE(t1.find("1638.4 GiB/s"), std::string::npos);
  EXPECT_NE(t1.find("23.95 TFLOP/s"), std::string::npos);
  EXPECT_NE(t1.find("1448 GiB/s"), std::string::npos);
  EXPECT_NE(t1.find("MI250X"), std::string::npos);
  EXPECT_NE(t1.find("A100"), std::string::npos);
  EXPECT_NE(t1.find("Trento"), std::string::npos);
}

TEST(Capacity, MatchesPaperLimits) {
  // Paper SS1: "limiting in practice to 35-36 qubits ... on Terabyte-size
  // memory systems" — 1 TB at single precision:
  EXPECT_EQ(capacity::max_qubits(1ull << 40, Precision::kSingle, 0.0), 37u);
  EXPECT_EQ(capacity::max_qubits(1ull << 40, Precision::kSingle), 36u);
  EXPECT_EQ(capacity::max_qubits(1ull << 40, Precision::kDouble), 35u);
  // The paper's devices:
  EXPECT_EQ(capacity::max_qubits(Backend::kHipMi250x, Precision::kSingle), 33u);
  EXPECT_EQ(capacity::max_qubits(Backend::kHipMi250x, Precision::kDouble), 32u);
  EXPECT_EQ(capacity::max_qubits(Backend::kCudaA100, Precision::kSingle), 32u);
  EXPECT_EQ(capacity::max_qubits(Backend::kCpuTrento, Precision::kSingle), 35u);
  // The benchmark's 30 qubits fits everywhere — as the paper requires.
  for (Backend b : kAllBackends) {
    EXPECT_GE(capacity::max_qubits(b, Precision::kSingle), 30u) << backend_name(b);
  }
}

TEST(Capacity, Validation) {
  EXPECT_THROW(capacity::max_qubits(0, Precision::kSingle), qhip::Error);
  EXPECT_THROW(capacity::max_qubits(1024, Precision::kSingle, 1.5), qhip::Error);
}

TEST(Model, BackendNamesDistinct) {
  std::set<std::string> names;
  for (Backend b : kAllBackends) names.insert(backend_name(b));
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace qhip::perfmodel
