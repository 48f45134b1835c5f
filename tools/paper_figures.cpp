// paper_figures — prints the series behind the paper's Table 1, Figures 7,
// 8 and 9 and the §4 fusion-overhead claim, and writes fig7.csv, fig8.csv
// and fig9.csv to the current directory for re-plotting.
//
// Usage:
//   paper_figures
//
// The workload is the paper's benchmark, the 30-qubit RQC (5x6 grid, 14
// cycles), fused for real at max_fused = 2..6. Seconds are predictions of
// the calibrated device models in src/perfmodel for the paper's hardware
// (DESIGN.md §2); the fusion transpile time is measured on this host. The
// paper's claims about these series are asserted by tests (PaperShape.* in
// tests/perfmodel/test_model.cpp); this tool only prints them.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "src/base/timer.h"
#include "src/fusion/fuser.h"
#include "src/perfmodel/model.h"
#include "src/rqc/rqc.h"

using namespace qhip;
using namespace qhip::perfmodel;

namespace {

constexpr unsigned kFusedMin = 2;
constexpr unsigned kFusedMax = 6;
constexpr int kRepeats = 5;  // the paper averages five runs

// One figure's series: a header line, then one row per max_fused with the
// values printed by std::to_string, as the committed CSVs hold them.
struct Csv {
  const char* path;
  std::string text;

  void row(unsigned f, std::initializer_list<double> values) {
    text += std::to_string(f);
    for (double v : values) text += "," + std::to_string(v);
    text += "\n";
  }
  bool write() const {
    std::ofstream out(path);
    out << text;
    return out.good();
  }
};

}  // namespace

int main() {
  std::printf("%s\n", format_table1().c_str());
  std::printf("Calibrated model parameters (achieved fraction of peak "
              "bandwidth per fused gate width):\n%-42s", "backend");
  for (unsigned q = 1; q <= 6; ++q) std::printf("   q=%u", q);
  std::printf("   launch\n");
  for (Backend b : kAllBackends) {
    const BackendModel& m = backend_model(b);
    std::printf("%-42s", backend_name(b));
    for (unsigned q = 1; q <= 6; ++q) std::printf("  %.3f", m.eff_bw[q]);
    std::printf("  %.1f us\n", m.launch_us);
  }

  const Circuit circuit = rqc::circuit_q30();
  std::map<unsigned, WorkloadStats> stats;
  std::map<unsigned, double> fuse_s;  // mean real transpile seconds
  for (unsigned f = kFusedMin; f <= kFusedMax; ++f) {
    FusionResult fused;
    Timer timer;
    for (int r = 0; r < kRepeats; ++r) fused = fuse_circuit(circuit, {f});
    fuse_s[f] = timer.seconds() / kRepeats;
    stats[f] = WorkloadStats::from_circuit(fused.circuit);
  }
  auto t = [&](Backend b, unsigned f, Precision p = Precision::kSingle) {
    return predict_seconds(stats.at(f), b, p);
  };
  std::printf("\nworkload: %s; model-predicted seconds on the paper's "
              "hardware, single precision unless stated\n",
              rqc::describe(circuit).c_str());

  Csv fig7{"fig7.csv", "max_fused,cpu_seconds,hip_seconds\n"};
  Csv fig8{"fig8.csv", "max_fused,single_seconds,double_seconds\n"};
  Csv fig9{"fig9.csv",
           "max_fused,cuda_seconds,cuquantum_seconds,hip_seconds\n"};

  std::printf("\nFigure 7: CPU (Trento) vs GPU (MI250X, HIP)\n%-10s %14s "
              "%14s %10s %12s\n", "max_fused", "CPU [s]", "HIP GPU [s]",
              "speedup", "fused gates");
  for (unsigned f = kFusedMin; f <= kFusedMax; ++f) {
    const double tc = t(Backend::kCpuTrento, f);
    const double th = t(Backend::kHipMi250x, f);
    std::printf("%-10u %14.3f %14.3f %9.2fx %12zu\n", f, tc, th, tc / th,
                stats.at(f).num_gates);
    fig7.row(f, {tc, th});
  }

  std::printf("\nFigure 8: single vs double precision, HIP on MI250X\n"
              "%-10s %16s %16s %10s\n", "max_fused", "single [s]",
              "double [s]", "ratio");
  for (unsigned f = kFusedMin; f <= kFusedMax; ++f) {
    const double sp = t(Backend::kHipMi250x, f, Precision::kSingle);
    const double dp = t(Backend::kHipMi250x, f, Precision::kDouble);
    std::printf("%-10u %16.3f %16.3f %9.2fx\n", f, sp, dp, dp / sp);
    fig8.row(f, {sp, dp});
  }

  std::printf("\nFigure 9: CUDA (A100) vs cuQuantum (A100) vs HIP (MI250X)\n"
              "%-10s %13s %13s %13s %12s %12s\n", "max_fused", "CUDA [s]",
              "cuQuantum [s]", "HIP [s]", "HIP/CUDA", "CUDA/cuQ");
  for (unsigned f = kFusedMin; f <= kFusedMax; ++f) {
    const double tc = t(Backend::kCudaA100, f);
    const double tq = t(Backend::kCuQuantumA100, f);
    const double th = t(Backend::kHipMi250x, f);
    std::printf("%-10u %13.3f %13.3f %13.3f %11.1f%% %11.1f%%\n", f, tc, tq,
                th, (th / tc - 1) * 100, (tc / tq - 1) * 100);
    fig9.row(f, {tc, tq, th});
  }

  std::printf("\n§4: gate-fusion transpile (real, mean of %d) vs HIP "
              "simulation (model)\n%-10s %14s %16s %10s\n", kRepeats,
              "max_fused", "fusion [ms]", "simulation [s]", "share");
  for (unsigned f = kFusedMin; f <= kFusedMax; ++f) {
    const double sim_s = t(Backend::kHipMi250x, f);
    std::printf("%-10u %14.2f %16.3f %9.2f%%\n", f, fuse_s[f] * 1e3, sim_s,
                fuse_s[f] / (fuse_s[f] + sim_s) * 100);
  }

  std::printf("\n");
  for (const Csv* csv : {&fig7, &fig8, &fig9}) {
    if (!csv->write()) {
      std::fprintf(stderr, "paper_figures: could not write %s\n", csv->path);
      return 1;
    }
    std::printf("series written to %s\n", csv->path);
  }
  return 0;
}
