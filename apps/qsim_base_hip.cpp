// qsim_base_hip — stand-alone state-vector simulator CLI, mirroring qsim's
// qsim_base_cuda.cu / qsim_base_hip.cpp driver (conversion inventory item 1):
// reads a circuit file in the qsim text format, simulates it on the chosen
// backend, and prints amplitudes / samples / timing.
//
// Usage:
//   qsim_base_hip -c <circuit-file> [common flags; see apps/cli_common.h]
//                 [-a <amplitudes-to-print>]
//   qsim_base_hip -c <circuit-file> --batch <N> [--no-result-cache] [...]
//   qsim_base_hip --generate-rqc <rows> <cols> <depth> -o <file> [-s seed]
//
// The backend is selected at runtime through create_backend(): 'hip' runs
// the ported qsim GPU kernels on the virtual MI250X GCD (wavefront 64),
// 'a100' on the virtual A100 (warp 32), 'cpu' on the multithreaded host
// backend, and 'hip:N' distributes the state across N virtual GCDs (the
// paper's SS7 future work).
//
// --batch N serves the circuit N times through the SimulationEngine (the
// batched, cache-aware serving layer): fused circuits are cached, state
// buffers pooled, and repeated identical requests answered from the result
// cache. Engine metrics land in the -t trace as "engine/..." counters.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/cli_common.h"
#include "src/base/bits.h"
#include "src/base/error.h"
#include "src/base/strings.h"
#include "src/base/timer.h"
#include "src/engine/backend.h"
#include "src/engine/engine.h"
#include "src/io/circuit_io.h"
#include "src/prof/trace.h"
#include "src/rqc/rqc.h"

namespace {

using namespace qhip;

struct Args {
  cli::CommonArgs common;
  std::string out_file;
  unsigned print_amps = 8;
  std::size_t batch = 0;            // 0 = single-shot mode
  bool no_result_cache = false;     // --batch: force every request to run
  std::string prom_file;            // --batch: Prometheus text dump ("-" = stdout)
  bool generate_rqc = false;
  unsigned rows = 0, cols = 0, depth = 0;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: qsim_base_hip -c <circuit> [-a <amps>] %s\n"
      "       qsim_base_hip -c <circuit> --batch <N> [--no-result-cache]\n"
      "                     [--prom <file|->] [...]\n"
      "       qsim_base_hip --generate-rqc <rows> <cols> <depth> -o <file>\n",
      qhip::cli::common_usage());
  return 1;
}

bool parse_args(int argc, char** argv, Args* a) {
  return cli::parse_common_args(
      argc, argv, &a->common,
      [a](const std::string& arg, const cli::NextFn& next) {
        if (arg == "-a") {
          const char* v = next();
          if (!v) return false;
          a->print_amps = static_cast<unsigned>(parse_uint(v, "-a"));
          return true;
        }
        if (arg == "-o") {
          const char* v = next();
          if (!v) return false;
          a->out_file = v;
          return true;
        }
        if (arg == "--batch") {
          const char* v = next();
          if (!v) return false;
          a->batch = parse_uint(v, "--batch");
          return true;
        }
        if (arg == "--no-result-cache") {
          a->no_result_cache = true;
          return true;
        }
        if (arg == "--prom") {
          const char* v = next();
          if (!v) return false;
          a->prom_file = v;
          return true;
        }
        if (arg == "--generate-rqc") {
          a->generate_rqc = true;
          const char *r = next(), *c = next(), *d = next();
          if (!r || !c || !d) return false;
          a->rows = static_cast<unsigned>(parse_uint(r, "rows"));
          a->cols = static_cast<unsigned>(parse_uint(c, "cols"));
          a->depth = static_cast<unsigned>(parse_uint(d, "depth"));
          return true;
        }
        return false;
      });
}

int run_single(const Args& a, const Circuit& circuit, Tracer* tracer) {
  const auto backend = create_backend(a.common.backend, a.common.precision,
                                      tracer, a.common.fault_spec);
  std::printf("backend: %s\n", backend->description().c_str());

  Timer timer;
  const FusionResult fused =
      fuse_circuit(circuit, a.common.fusion);
  const double fuse_s = timer.seconds();

  BackendRunSpec rs;
  rs.seed = a.common.seed;
  rs.num_samples = a.common.samples;
  const index_t limit =
      std::min<index_t>(a.print_amps, pow2(circuit.num_qubits));
  for (index_t i = 0; i < limit; ++i) rs.amplitude_indices.push_back(i);

  const BackendRunOutput out = backend->run(fused.circuit, rs);
  const double total_s = timer.seconds();

  std::printf("fused %zu gates -> %zu (mean width %.2f) in %.3f ms\n",
              fused.stats.input_gates, fused.stats.output_gates,
              fused.stats.mean_width(), fuse_s * 1e3);
  // Virtual-GPU backends report emulated time; host backends are real time.
  const BackendSpec::Kind kind = BackendSpec::parse(a.common.backend).kind;
  const bool emulated = kind == BackendSpec::Kind::kHip ||
                        kind == BackendSpec::Kind::kA100 ||
                        kind == BackendSpec::Kind::kMultiGcd;
  std::printf("simulation: %.3f s%s\n", total_s - fuse_s,
              emulated ? " (emulated device; not hardware time)" : "");
  for (const auto& [name, value] : out.counters) {
    std::printf("  %s = %.0f\n", name.c_str(), value);
  }
  cli::print_amplitudes(out.amplitudes);
  cli::print_samples(out.samples);
  return 0;
}

int run_batch(const Args& a, const Circuit& circuit, Tracer* tracer) {
  engine::EngineOptions opt;
  opt.tracer = tracer;
  if (a.no_result_cache) opt.result_cache_capacity = 0;
  opt.fault_spec = a.common.fault_spec;
  opt.fallback_backend = a.common.fallback_backend;
  engine::SimulationEngine eng(opt);
  std::printf("engine: serving %zu requests on backend %s (%s)%s\n", a.batch,
              a.common.backend.c_str(), a.common.precision.c_str(),
              a.no_result_cache ? " [result cache off]" : "");

  engine::SimRequest req;
  req.circuit = circuit;
  req.backend = a.common.backend;
  req.precision =
      a.common.precision == "double" ? Precision::kDouble : Precision::kSingle;
  req.fusion = a.common.fusion;
  req.seed = a.common.seed;
  req.num_samples = a.common.samples;

  Timer timer;
  std::vector<std::future<engine::SimResult>> futs;
  futs.reserve(a.batch);
  for (std::size_t k = 0; k < a.batch; ++k) futs.push_back(eng.submit(req));

  std::size_t ok = 0;
  std::string first_error;
  engine::SimResult last;
  for (auto& f : futs) {
    engine::SimResult r = f.get();
    if (r.ok) {
      ++ok;
      last = std::move(r);
    } else if (first_error.empty()) {
      first_error = r.error;
    }
  }
  const double wall_s = timer.seconds();

  const engine::EngineMetrics m = eng.metrics();
  std::printf("served %zu/%zu requests in %.3f s (%.1f req/s)\n", ok, a.batch,
              wall_s, wall_s > 0 ? static_cast<double>(ok) / wall_s : 0.0);
  if (!first_error.empty()) {
    std::printf("first rejection: %s\n", first_error.c_str());
  }
  std::printf("engine: fused-cache hit rate %.2f, result-cache hits %llu, "
              "pool hits %llu, %.2f MiB pooled\n",
              m.fused_cache.hit_rate(),
              static_cast<unsigned long long>(m.result_cache_hits),
              static_cast<unsigned long long>(m.pool_hits),
              static_cast<double>(m.bytes_pooled) / (1 << 20));
  std::printf("latency: p50 %.3f ms, p95 %.3f ms, mean %.3f ms\n",
              m.total_ms.quantile(0.50), m.total_ms.quantile(0.95),
              m.total_ms.mean());
  if (m.planner_decisions > 0) {
    std::string chosen;
    for (const auto& [spec, n] : m.planner_chosen) {
      chosen += strfmt("%s%s x%llu", chosen.empty() ? "" : ", ", spec.c_str(),
                       static_cast<unsigned long long>(n));
    }
    std::printf("planner: %llu decisions (%llu calibrated, "
                "%llu observations): %s\n",
                static_cast<unsigned long long>(m.planner_decisions),
                static_cast<unsigned long long>(m.planner_calibrated_decisions),
                static_cast<unsigned long long>(m.planner_observations),
                chosen.c_str());
  }
  if (m.retries + m.fallbacks + m.faults_oom + m.faults_backend +
          m.faults_deadline >
      0) {
    std::printf("recovery: %llu retries, %llu fallbacks; faults: %llu oom, "
                "%llu backend, %llu deadline\n",
                static_cast<unsigned long long>(m.retries),
                static_cast<unsigned long long>(m.fallbacks),
                static_cast<unsigned long long>(m.faults_oom),
                static_cast<unsigned long long>(m.faults_backend),
                static_cast<unsigned long long>(m.faults_deadline));
  }
  if (ok > 0) {
    cli::print_samples(last.samples);
  }
  eng.export_metrics();  // engine/... counters into the trace JSON
  if (!a.prom_file.empty()) {
    const std::string text = m.to_prom_text();
    if (a.prom_file == "-") {
      std::fputs(text.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(a.prom_file.c_str(), "w");
      check(f != nullptr, "cannot open '" + a.prom_file + "' for writing");
      std::fputs(text.c_str(), f);
      std::fclose(f);
      std::printf("prometheus: %zu bytes -> %s\n", text.size(),
                  a.prom_file.c_str());
    }
  }
  return ok == a.batch ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) return usage();

  try {
    if (a.generate_rqc) {
      if (a.out_file.empty()) return usage();
      qhip::rqc::RqcOptions opt;
      opt.rows = a.rows;
      opt.cols = a.cols;
      opt.depth = a.depth;
      opt.seed = a.common.seed;
      const qhip::Circuit c = qhip::rqc::generate_rqc(opt);
      qhip::write_circuit_file(c, a.out_file);
      std::printf("wrote %s: %s\n", a.out_file.c_str(),
                  qhip::rqc::describe(c).c_str());
      return 0;
    }

    if (a.common.circuit_file.empty()) return usage();
    if (!qhip::is_backend_spec(a.common.backend)) return usage();
    // "auto" is a placement policy, not a device: it only exists behind the
    // engine's planner, so route it through batch mode (DESIGN.md §13).
    if (qhip::BackendSpec::parse(a.common.backend).kind ==
            qhip::BackendSpec::Kind::kAuto &&
        a.batch == 0) {
      std::printf("backend auto: serving through the engine (--batch 1)\n");
      a.batch = 1;
    }
    const qhip::Circuit circuit = qhip::cli::load_circuit(a.common);
    std::printf("circuit: %s\n", qhip::rqc::describe(circuit).c_str());

    qhip::Tracer tracer;
    qhip::Tracer* tp = a.common.trace_file.empty() ? nullptr : &tracer;

    const int rc = a.batch > 0 ? run_batch(a, circuit, tp)
                               : run_single(a, circuit, tp);

    if (tp) {
      tracer.write_perfetto_json(a.common.trace_file);
      std::printf("trace: %zu events -> %s (load in https://ui.perfetto.dev)\n",
                  tracer.size(), a.common.trace_file.c_str());
    }
    return rc;
  } catch (const qhip::Error& e) {
    std::fprintf(stderr, "qsim_base_hip: %s\n", e.what());
    return 1;
  }
}
