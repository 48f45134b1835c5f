#include "apps/cli_common.h"

#include <algorithm>
#include <cstdio>

#include "src/base/error.h"
#include "src/base/strings.h"
#include "src/io/circuit_io.h"
#include "src/transpile/optimizer.h"

namespace qhip::cli {

bool parse_common_args(int argc, char** argv, CommonArgs* out,
                       const ExtraFlagFn& extra) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const NextFn next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "-c") {
      if (!(v = next())) return false;
      out->circuit_file = v;
    } else if (arg == "-b") {
      if (!(v = next())) return false;
      out->backend = v;
    } else if (arg == "-p") {
      if (!(v = next())) return false;
      out->precision = v;
    } else if (arg == "-f") {
      if (!(v = next())) return false;
      out->fusion.max_fused_qubits = static_cast<unsigned>(parse_uint(v, "-f"));
    } else if (arg == "-w") {
      if (!(v = next())) return false;
      out->fusion.window_moments = static_cast<unsigned>(parse_uint(v, "-w"));
    } else if (arg == "-s") {
      if (!(v = next())) return false;
      out->seed = parse_uint(v, "-s");
    } else if (arg == "-m") {
      if (!(v = next())) return false;
      out->samples = parse_uint(v, "-m");
    } else if (arg == "-t") {
      if (!(v = next())) return false;
      out->trace_file = v;
    } else if (arg == "-O") {
      out->optimize = true;
    } else if (arg == "--faults") {
      if (!(v = next())) return false;
      out->fault_spec = v;
    } else if (arg == "--fallback-backend") {
      if (!(v = next())) return false;
      out->fallback_backend = v;
    } else if (extra && extra(arg, next)) {
      // consumed by the app-specific table
    } else {
      return false;
    }
  }
  return true;
}

const char* common_usage() {
  return "[-b cpu|hip|a100|hip:N|dist:N|auto] [-p single|double] [-f <max-fused>]\n"
         "    [-w <window>] [-s <seed>] [-m <samples>] [-t <trace.json>] [-O]\n"
         "    [--faults <spec>] [--fallback-backend <backend>]";
}

Circuit load_circuit(const CommonArgs& a) {
  Circuit circuit = read_circuit_file(a.circuit_file);
  if (a.optimize) {
    const auto r = transpile::optimize(circuit);
    std::printf("optimizer: %s\n", r.stats.summary().c_str());
    circuit = r.circuit;
  }
  check(circuit.num_qubits <= 26,
        "this host build caps circuits at 26 qubits (memory)");
  return circuit;
}

void print_samples(const std::vector<index_t>& samples) {
  if (samples.empty()) return;
  std::printf("samples:");
  for (std::size_t k = 0; k < std::min<std::size_t>(samples.size(), 16); ++k) {
    std::printf(" %llu", static_cast<unsigned long long>(samples[k]));
  }
  if (samples.size() > 16) std::printf(" ... (%zu total)", samples.size());
  std::printf("\n");
}

void print_amplitudes(const std::vector<cplx64>& amps) {
  for (std::size_t i = 0; i < amps.size(); ++i) {
    std::printf("  |%llu> = (% .6f, % .6f)  p=%.6f\n",
                static_cast<unsigned long long>(i), amps[i].real(),
                amps[i].imag(), std::norm(amps[i]));
  }
}

}  // namespace qhip::cli
