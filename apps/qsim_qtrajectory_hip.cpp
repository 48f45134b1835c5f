// qsim_qtrajectory_hip — mirrors qsim's qsim_qtrajectory_cuda driver:
// quantum-trajectory simulation of a noisy circuit, served through the
// SimulationEngine as a trajectory-kind request (DESIGN.md §14). The engine
// fans the batch out across its workers, so -j 1000 at --workers 8 runs
// eight trajectories at a time while producing exactly the distribution the
// serial reference loop would.
//
// Usage:
//   qsim_qtrajectory_hip -c <circuit> -n <channel> -r <rate>
//                        [-j <trajectories>] [-s <seed>] [-k <top-k>]
//                        [-b cpu|auto] [-o "<pauli>"]... [--tolerance <t>]
//                        [--workers <n>] [--prom <file|->]
//
// Channels: depolarizing | bitflip | phaseflip | ampdamp | phasedamp.
//
// With one or more -o observables the driver reports the trajectory-averaged
// expectation (mean +- stderr over trajectories) of their sum instead of the
// output distribution; --tolerance stops the batch early once the standard
// error falls under the bound.
//
// Note: trajectories moved from -t to -j when the drivers adopted the shared
// flag table (apps/cli_common.h), where -t uniformly means a trace file.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/cli_common.h"
#include "src/base/error.h"
#include "src/base/strings.h"
#include "src/engine/engine.h"
#include "src/io/circuit_io.h"
#include "src/noise/trajectory.h"
#include "src/obs/observable.h"

namespace {

using namespace qhip;

int usage() {
  std::fprintf(
      stderr,
      "usage: qsim_qtrajectory_hip -c <circuit> -n depolarizing|bitflip|"
      "phaseflip|ampdamp|phasedamp -r <rate> [-j <trajectories>] [-s <seed>] "
      "[-k <top-k>] [-b cpu|auto] [-o \"<pauli>\"]... [--tolerance <t>] "
      "[--workers <n>] [--prom <file|->]\n");
  return 1;
}

noise::KrausChannel make_channel(const std::string& name, double rate) {
  if (name == "depolarizing") return noise::depolarizing(rate);
  if (name == "bitflip") return noise::bit_flip(rate);
  if (name == "phaseflip") return noise::phase_flip(rate);
  if (name == "ampdamp") return noise::amplitude_damping(rate);
  if (name == "phasedamp") return noise::phase_damping(rate);
  throw Error("unknown channel '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  cli::CommonArgs a;
  // Trajectories stream Kraus selections over a host state: cpu is the only
  // noise-capable backend today, and double keeps the averaged distribution
  // comparable with the reference loop.
  a.backend = "cpu";
  a.precision = "double";
  std::string channel_name = "depolarizing";
  std::vector<std::string> observables;
  std::string prom_file;
  double rate = 0.01, tolerance = 0;
  unsigned trajectories = 100, top_k = 8, workers = 4;
  const bool parsed = cli::parse_common_args(
      argc, argv, &a, [&](const std::string& arg, const cli::NextFn& next) {
        if (arg == "-n") {
          const char* v = next();
          if (!v) return false;
          channel_name = v;
          return true;
        }
        if (arg == "-r") {
          const char* v = next();
          if (!v) return false;
          rate = parse_double(v, "-r");
          return true;
        }
        if (arg == "-j") {
          const char* v = next();
          if (!v) return false;
          trajectories = static_cast<unsigned>(parse_uint(v, "-j"));
          return true;
        }
        if (arg == "-k") {
          const char* v = next();
          if (!v) return false;
          top_k = static_cast<unsigned>(parse_uint(v, "-k"));
          return true;
        }
        if (arg == "-o") {
          const char* v = next();
          if (!v) return false;
          observables.push_back(v);
          return true;
        }
        if (arg == "--tolerance") {
          const char* v = next();
          if (!v) return false;
          tolerance = parse_double(v, "--tolerance");
          return true;
        }
        if (arg == "--workers") {
          const char* v = next();
          if (!v) return false;
          workers = static_cast<unsigned>(parse_uint(v, "--workers"));
          return true;
        }
        if (arg == "--prom") {
          const char* v = next();
          if (!v) return false;
          prom_file = v;
          return true;
        }
        return false;
      });
  if (!parsed || a.circuit_file.empty()) return usage();

  try {
    const Circuit circuit = read_circuit_file(a.circuit_file);
    check(circuit.num_qubits <= 20,
          "qtrajectory driver caps circuits at 20 qubits");
    check(circuit.num_measurements() == 0,
          "strip measurement gates for trajectory averaging");

    Tracer tracer;
    Tracer* tp = a.trace_file.empty() ? nullptr : &tracer;

    engine::EngineOptions opt;
    opt.num_workers = std::max(1u, workers);
    opt.tracer = tp;
    engine::SimulationEngine eng(opt);

    engine::SimRequest req;
    req.kind = engine::RequestKind::kTrajectory;
    req.circuit = circuit;
    req.backend = a.backend;
    req.precision =
        a.precision == "double" ? Precision::kDouble : Precision::kSingle;
    req.seed = a.seed;
    req.noise = noise::NoiseModel{make_channel(channel_name, rate)};
    req.num_trajectories = trajectories;
    req.trajectory_tolerance = tolerance;
    for (const std::string& text : observables) {
      req.observable.strings.push_back(obs::parse_pauli_string(text));
    }

    std::printf(
        "circuit: %u qubits, %zu gates; channel %s, %u trajectories; "
        "engine backend %s, %u workers\n",
        circuit.num_qubits, circuit.size(), req.noise.channel.name.c_str(),
        trajectories, a.backend.c_str(), opt.num_workers);

    const engine::SimResult res = eng.run(std::move(req));
    check(res.ok, "engine rejected the trajectory batch: " + res.error);

    std::printf("served on %s: %zu trajectories in %.3f s\n",
                res.backend_used.c_str(), res.trajectories_run,
                res.total_seconds);
    if (!observables.empty()) {
      std::printf("<O> = %.6f +- %.6f (%zu trajectories)\n",
                  res.expectation.real(), res.expectation_stderr,
                  res.trajectories_run);
    } else {
      std::vector<std::pair<double, index_t>> top;
      for (index_t i = 0; i < static_cast<index_t>(res.distribution.size());
           ++i) {
        top.push_back({res.distribution[i], i});
      }
      std::partial_sort(top.begin(),
                        top.begin() + std::min<std::size_t>(top_k, top.size()),
                        top.end(), std::greater<>());
      std::printf("top noisy outcomes:\n");
      for (unsigned k = 0; k < top_k && k < top.size(); ++k) {
        std::printf("  |%llu>  p=%.6f\n",
                    static_cast<unsigned long long>(top[k].second),
                    top[k].first);
      }
    }

    eng.export_metrics();  // engine/... counters into the trace JSON
    if (tp) {
      tracer.write_perfetto_json(a.trace_file);
      std::printf("trace: %zu events -> %s (load in https://ui.perfetto.dev)\n",
                  tracer.size(), a.trace_file.c_str());
    }
    if (!prom_file.empty()) {
      const std::string text = eng.metrics().to_prom_text();
      if (prom_file == "-") {
        std::fputs(text.c_str(), stdout);
      } else {
        std::FILE* f = std::fopen(prom_file.c_str(), "w");
        check(f != nullptr, "cannot open '" + prom_file + "' for writing");
        std::fputs(text.c_str(), f);
        std::fclose(f);
        std::printf("prometheus: %zu bytes -> %s\n", text.size(),
                    prom_file.c_str());
      }
    }
    return 0;
  } catch (const qhip::Error& e) {
    std::fprintf(stderr, "qsim_qtrajectory_hip: %s\n", e.what());
    return 1;
  }
}
