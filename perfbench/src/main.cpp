// perfbench: the repository benchmark (perfbench/README.md).
//
// Runs one named workload through the simulator's serving stack on inputs
// generated from --seed, checks every output, and prints every metric by
// name with its unit. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}:
//
//   --trace 0  end-to-end metrics, tracing off: set-up time (median of
//              several set-ups), throughput, latency median and tail,
//              success ratio and peak memory over a closed loop of
//              --seconds seconds.
//   --trace 1  the per-layer breakdown: an untraced and a traced pass of
//              --seconds/2 each (their wall-time ratio is the tracing
//              overhead), then probes that time calls into each layer's
//              public functions from outside.
//
// Workloads:
//   rqc_host     20-qubit RQC sampling on the host backends (cpu, dist:2)
//   rqc_vgpu     16-qubit RQC sampling on the virtual GPUs (hip, a100, hip:2)
//   serve_mixed  small circuit / expectation / trajectory requests over
//                qhip_serve's wire protocol from 4 client connections
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage or set-up error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/layers.h"
#include "src/base/threadpool.h"
#include "src/engine/backend.h"
#include "src/engine/engine.h"
#include "src/fusion/fuser.h"
#include "src/noise/channels.h"
#include "src/noise/trajectory.h"
#include "src/obs/observable.h"
#include "src/perfmodel/workload.h"
#include "src/rqc/rqc.h"
#include "src/rqc/xeb.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"
#include "src/statespace/statevector.h"

using namespace qhip;
using perfbench::KernelBreakdown;
using perfbench::percentile;
using perfbench::Ratio;
using perfbench::SpanRecorder;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 500); }

// --- seeded inputs ------------------------------------------------------------

// SplitMix64: the benchmark's input stream, identical on every platform.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  Rng r{seed * 0x100000001b3ull + stream};
  return r.next();
}

Circuit make_rqc(unsigned rows, unsigned cols, unsigned depth,
                 std::uint64_t seed) {
  rqc::RqcOptions o;
  o.rows = rows;
  o.cols = cols;
  o.depth = depth;
  o.seed = seed;
  return rqc::generate_rqc(o);
}

FusionOptions fusion_of(unsigned f) {
  FusionOptions o;
  o.max_fused_qubits = f;
  return o;
}

// The eight backend configurations the per-layer metrics are named after.
struct Cfg {
  const char* name;
  const char* backend;
  unsigned f;
  Precision prec;
};
enum CfgId {
  kCpuF4Sp, kCpuF2Sp, kCpuF4Dp, kDist2F4Sp,
  kHipF4Sp, kA100F4Sp, kHip2F4Sp, kHipF4Dp, kNumCfgs
};
constexpr Cfg kCfgs[kNumCfgs] = {
    {"cpu_f4_sp", "cpu", 4, Precision::kSingle},
    {"cpu_f2_sp", "cpu", 2, Precision::kSingle},
    {"cpu_f4_dp", "cpu", 4, Precision::kDouble},
    {"dist2_f4_sp", "dist:2", 4, Precision::kSingle},
    {"hip_f4_sp", "hip", 4, Precision::kSingle},
    {"a100_f4_sp", "a100", 4, Precision::kSingle},
    {"hip2_f4_sp", "hip:2", 4, Precision::kSingle},
    {"hip_f4_dp", "hip", 4, Precision::kDouble},
};

// --- report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void print_lines() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  std::string json(bool correct, std::size_t attempted, std::size_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}}";
  }

 private:
  std::vector<Metric> metrics_;
};

// --- what one completed request looked like from the client -------------------

struct Obs {
  double latency_ms = 0;
  double done_s = 0;       // completion, seconds since the loop started
  bool ok = false;         // served and every output check passed
  bool simulated = false;  // ran a simulation (not a result-cache hit)
  int cfg = -1;            // kCfgs index (rqc workloads)
  std::uint64_t request_id = 0;  // engine correlation id
  double queue_s = 0, fuse_s = 0, run_s = 0, sample_s = 0, total_s = 0;
  std::map<std::string, double> counters;
  double encode_us = 0, decode_us = 0;  // client-side codec (serve)
  std::string label;  // request kind / backend used (serve)
  std::string fail;
};

struct Phase {
  std::vector<Obs> obs;
  double wall_s = 0;
  double cpu_user_s = 0;
  double cpu_sys_s = 0;
};

struct CpuTimes {
  double user = 0, sys = 0;
  static CpuTimes now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {static_cast<double>(ru.ru_utime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec),
            static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_stime.tv_usec)};
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t failures(const Phase& p) {
  return static_cast<std::size_t>(
      std::count_if(p.obs.begin(), p.obs.end(), [](const Obs& o) { return !o.ok; }));
}

// ================================================================ rqc workloads

struct RqcSpec {
  const char* name;
  unsigned rows, cols, depth;
  std::array<int, 4> rotation;  // request i runs kCfgs[rotation[i % 4]]
  // Sample sets that must be bit-identical: the `pair_b` request of a round
  // reuses the seed of that round's `pair_a` request (-1 = no pair).
  int pair_a, pair_b;
  unsigned tail_permille;
};

constexpr RqcSpec kRqcHost{"rqc_host", 4, 5, 14,
                           {kCpuF4Sp, kCpuF2Sp, kCpuF4Dp, kDist2F4Sp},
                           kCpuF4Sp, kDist2F4Sp, 750};
constexpr RqcSpec kRqcVgpu{"rqc_vgpu", 4, 4, 14,
                           {kHipF4Sp, kA100F4Sp, kHip2F4Sp, kHipF4Dp},
                           -1, -1, 670};

constexpr std::size_t kRqcSamples = 64;
constexpr std::size_t kRqcAmplitudes = 8;
constexpr double kXebFloor = 0.2;
// Amplitude tolerance against the double-precision reference, relative to
// the mean amplitude magnitude 2^(-n/2).
constexpr double kAmpTolSingle = 1e-3;
constexpr double kAmpTolDouble = 1e-9;

struct RqcInputs {
  Circuit circuit;
  std::vector<index_t> amp_idx;
  std::vector<cplx64> ref_amps;   // cpu double-precision reference
  std::vector<double> ref_probs;  // its full output distribution (for XEB)
  std::uint64_t seed_base = 0;
};

RqcInputs make_rqc_inputs(const RqcSpec& w, std::uint64_t seed) {
  RqcInputs in;
  in.circuit = make_rqc(w.rows, w.cols, w.depth, derive(seed, 1));
  in.seed_base = derive(seed, 2) >> 16;
  Rng r{derive(seed, 3)};
  for (std::size_t i = 0; i < kRqcAmplitudes; ++i) {
    in.amp_idx.push_back(r.below(pow2(in.circuit.num_qubits)));
  }
  auto ref = create_backend("cpu", Precision::kDouble);
  BackendRunSpec rs;
  rs.want_state = true;
  const BackendRunOutput out =
      ref->run(fuse_circuit(in.circuit, fusion_of(4)).circuit, rs);
  in.ref_probs.reserve(out.state.size());
  for (const cplx64& a : out.state) in.ref_probs.push_back(std::norm(a));
  for (index_t i : in.amp_idx) in.ref_amps.push_back(out.state[i]);
  return in;
}

engine::SimRequest rqc_request(const RqcSpec& w, const RqcInputs& in,
                               std::size_t i, std::uint64_t seed_offset) {
  const std::size_t round = i / 4;
  std::size_t seed_slot = i % 4;
  const int cfg = w.rotation[i % 4];
  if (cfg == w.pair_b) {
    seed_slot = static_cast<std::size_t>(
        std::find(w.rotation.begin(), w.rotation.end(), w.pair_a) -
        w.rotation.begin());
  }
  const Cfg& c = kCfgs[cfg];
  engine::SimRequest req;
  req.circuit = in.circuit;
  req.backend = c.backend;
  req.precision = c.prec;
  req.fusion = fusion_of(c.f);
  req.seed = in.seed_base + seed_offset + round * 4 + seed_slot;
  req.num_samples = kRqcSamples;
  req.amplitude_indices = in.amp_idx;
  req.bypass_result_cache = true;
  return req;
}

struct RqcCheckStats {
  double max_amp_err_sp = 0, max_amp_err_dp = 0;  // relative to 2^(-n/2)
  double min_xeb = 1e9;
  std::size_t pairs_compared = 0;
};

// Checks one result; returns the failure reason ("" when correct).
std::string rqc_check(const RqcInputs& in, const Cfg& c,
                      const engine::SimResult& res, RqcCheckStats* st) {
  if (!res.ok) return std::string("not served: ") + res.error;
  if (res.samples.size() != kRqcSamples) return "wrong sample count";
  if (res.amplitudes.size() != kRqcAmplitudes) return "wrong amplitude count";
  const double scale = std::sqrt(static_cast<double>(in.ref_probs.size()));
  double err = 0;
  for (std::size_t k = 0; k < kRqcAmplitudes; ++k) {
    err = std::max(err, std::abs(res.amplitudes[k] - in.ref_amps[k]) * scale);
  }
  const bool single = c.prec == Precision::kSingle;
  double& worst = single ? st->max_amp_err_sp : st->max_amp_err_dp;
  worst = std::max(worst, err);
  if (err > (single ? kAmpTolSingle : kAmpTolDouble)) {
    return "amplitude off the double-precision reference";
  }
  std::vector<double> probs;
  for (index_t s : res.samples) {
    if (s >= in.ref_probs.size()) return "sample out of range";
    probs.push_back(in.ref_probs[s]);
  }
  const double xeb = rqc::linear_xeb_from_probs(probs, in.circuit.num_qubits);
  st->min_xeb = std::min(st->min_xeb, xeb);
  if (xeb < kXebFloor) return "linear XEB below floor";
  return {};
}

std::unique_ptr<engine::SimulationEngine> rqc_engine(Tracer* tracer) {
  engine::EngineOptions o;
  o.num_workers = 1;
  o.tracer = tracer;
  return std::make_unique<engine::SimulationEngine>(o);
}

// Engine construction plus one warm-up request per configuration.
double rqc_setup(const RqcSpec& w, const RqcInputs& in, Tracer* tracer,
                 std::unique_ptr<engine::SimulationEngine>* out) {
  const auto t0 = Clock::now();
  auto eng = rqc_engine(tracer);
  for (std::size_t slot = 0; slot < 4; ++slot) {
    const engine::SimResult r = eng->run(rqc_request(w, in, slot, 1u << 30));
    check(r.ok, std::string("warm-up failed: ") + r.error);
  }
  const double s = since(t0);
  *out = std::move(eng);
  return s;
}

// Closed loop with one client, in whole rotations, for `seconds`.
Phase rqc_phase(const RqcSpec& w, const RqcInputs& in,
                engine::SimulationEngine& eng, double seconds,
                std::uint64_t seed_offset, SpanRecorder* spans,
                RqcCheckStats* st,
                std::vector<std::pair<engine::SimRequest, engine::SimResult>>*
                    keep = nullptr) {
  Phase ph;
  std::vector<index_t> pair_samples;
  const CpuTimes c0 = CpuTimes::now();
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i % 4 == 0 && since(t0) >= seconds) break;
    const int cfg = w.rotation[i % 4];
    engine::SimRequest req = rqc_request(w, in, i, seed_offset);
    const std::uint64_t id = i + 1;
    const int root = spans ? spans->begin("request", -1, id) : -1;
    const int run_span = spans ? spans->begin("engine.run", root, id) : -1;
    const auto tr = Clock::now();
    engine::SimResult res = eng.run(req);
    Obs o;
    o.latency_ms = since(tr) * 1e3;
    o.done_s = since(t0);
    if (spans) spans->end(run_span);
    const int check_span = spans ? spans->begin("check", root, id) : -1;
    o.cfg = cfg;
    o.simulated = !res.result_cache_hit;
    o.request_id = res.request_id;
    o.queue_s = res.queue_seconds;
    o.fuse_s = res.fuse_seconds;
    o.run_s = res.run_seconds;
    o.sample_s = res.sample_seconds;
    o.total_s = res.total_seconds;
    o.counters = res.counters;
    o.fail = rqc_check(in, kCfgs[cfg], res, st);
    if (o.fail.empty() && cfg == w.pair_a) pair_samples = res.samples;
    if (o.fail.empty() && cfg == w.pair_b) {
      ++st->pairs_compared;
      if (res.samples != pair_samples) {
        o.fail = std::string("samples differ from ") + kCfgs[w.pair_a].name +
                 " for the same seed";
      }
    }
    o.ok = o.fail.empty();
    if (spans) {
      spans->end(check_span);
      spans->end(root);
    }
    if (keep && keep->size() < 8) keep->emplace_back(std::move(req), std::move(res));
    ph.obs.push_back(std::move(o));
  }
  ph.wall_s = since(t0);
  const CpuTimes c1 = CpuTimes::now();
  ph.cpu_user_s = c1.user - c0.user;
  ph.cpu_sys_s = c1.sys - c0.sys;
  return ph;
}

// ============================================================= serve_mixed

constexpr unsigned kServeClients = 4;
constexpr std::size_t kServePool = 256;
constexpr std::size_t kTrajPool = 16;
constexpr unsigned kServeDepth = 8;
constexpr unsigned kTrajDepth = 6;
constexpr std::size_t kServeSamples = 32;
constexpr std::size_t kTrajectories = 16;
constexpr double kNoiseRate = 0.01;
constexpr unsigned kServeTailPermille = 990;

Circuit serve_pool_circuit(std::uint64_t seed, std::size_t k) {
  return make_rqc(3, 4, kServeDepth, derive(seed, 1000 + k));
}

Circuit traj_pool_circuit(std::uint64_t seed, std::size_t k) {
  return make_rqc(2, 5, kTrajDepth, derive(seed, 5000 + k));
}

obs::Observable make_observable(std::uint64_t seed, std::size_t k,
                                unsigned qubits) {
  Rng r{derive(seed, 9000 + k)};
  obs::Observable o;
  for (int t = 0; t < 8; ++t) {
    obs::PauliString p;
    p.coefficient = cplx64(2.0 * r.uniform() - 1.0, 0.0);
    const std::size_t width = 1 + r.below(3);
    std::vector<qubit_t> qs;
    while (qs.size() < width) {
      const auto q = static_cast<qubit_t>(r.below(qubits));
      if (std::find(qs.begin(), qs.end(), q) == qs.end()) qs.push_back(q);
    }
    for (qubit_t q : qs) {
      p.terms.push_back({q, static_cast<obs::Pauli>(r.below(3))});
    }
    o.strings.push_back(std::move(p));
  }
  return o;
}

struct ServeInputs {
  std::uint64_t seed = 0;
  std::vector<Circuit> pool;                 // 12-qubit circuits
  std::vector<double> zipf_cdf;              // popularity over the pool
  std::vector<Circuit> traj_pool;            // 10-qubit circuits
  std::vector<obs::Observable> observables;  // 8-term, 12 qubits
};

ServeInputs make_serve_inputs(std::uint64_t seed) {
  ServeInputs in;
  in.seed = seed;
  double total = 0;
  for (std::size_t k = 0; k < kServePool; ++k) {
    in.pool.push_back(serve_pool_circuit(seed, k));
    total += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    in.zipf_cdf.push_back(total);
  }
  for (double& c : in.zipf_cdf) c /= total;
  for (std::size_t k = 0; k < kTrajPool; ++k) {
    in.traj_pool.push_back(traj_pool_circuit(seed, k));
  }
  for (std::size_t k = 0; k < 4; ++k) {
    in.observables.push_back(make_observable(seed, k, 12));
  }
  return in;
}

enum class ServeKind { kCircuit, kExpectation, kTrajectory, kRepeat };
constexpr const char* kKindNames[] = {"circuit", "expectation", "trajectory",
                                      "repeat"};

struct ServeItem {
  engine::SimRequest req;
  ServeKind kind = ServeKind::kCircuit;
  int circuit_ix = -1;
  int obs_ix = -1;
  bool replay = false;  // replayed through SimulationEngine::run afterwards
};

// One client's seeded request stream. Kinds are dealt from shuffled decks
// of 20 (13 circuit, 3 expectation, 2 trajectory, 2 repeat), so every run
// carries the same mix and only the order and the inputs vary with the seed.
class ServeGen {
 public:
  ServeGen(const ServeInputs& in, std::uint64_t stream)
      : in_(in), rng_{derive(in.seed, stream)}, stream_(stream) {}

  ServeItem next() {
    if (deck_.empty()) deal();
    const ServeKind kind = deck_.back();
    deck_.pop_back();
    ServeItem it;
    if (kind == ServeKind::kRepeat && !history_.empty()) {
      it = history_[rng_.below(history_.size())];
      it.kind = ServeKind::kRepeat;
    } else {
      it = make(kind == ServeKind::kRepeat ? ServeKind::kCircuit : kind);
    }
    it.replay = rng_.below(8) == 0;
    if (it.kind != ServeKind::kRepeat) {
      history_.push_back(it);
      if (history_.size() > 16) history_.pop_front();
    }
    return it;
  }

  ServeItem make(ServeKind kind) {
    ServeItem it;
    it.kind = kind;
    engine::SimRequest& r = it.req;
    r.seed = (stream_ << 32) + (++count_);
    r.backend = "cpu";
    r.fusion = fusion_of(4);
    if (kind == ServeKind::kTrajectory) {
      it.circuit_ix = static_cast<int>(rng_.below(kTrajPool));
      r.kind = engine::RequestKind::kTrajectory;
      r.circuit = in_.traj_pool[static_cast<std::size_t>(it.circuit_ix)];
      r.noise.channel = noise::depolarizing(kNoiseRate);
      r.num_trajectories = kTrajectories;
      return it;
    }
    const double z = rng_.uniform();
    it.circuit_ix = static_cast<int>(
        std::min<std::size_t>(std::upper_bound(in_.zipf_cdf.begin(),
                                               in_.zipf_cdf.end(), z) -
                                  in_.zipf_cdf.begin(),
                              kServePool - 1));
    r.circuit = in_.pool[static_cast<std::size_t>(it.circuit_ix)];
    if (kind == ServeKind::kExpectation) {
      it.obs_ix = static_cast<int>(rng_.below(in_.observables.size()));
      r.kind = engine::RequestKind::kExpectation;
      r.observable = in_.observables[static_cast<std::size_t>(it.obs_ix)];
    } else {
      r.backend = rng_.below(2) == 0 ? "cpu" : "auto";
      r.num_samples = kServeSamples;
    }
    return it;
  }

 private:
  void deal() {
    static constexpr std::pair<ServeKind, int> kDeck[] = {
        {ServeKind::kCircuit, 13}, {ServeKind::kExpectation, 3},
        {ServeKind::kTrajectory, 2}, {ServeKind::kRepeat, 2}};
    for (const auto& [kind, n] : kDeck) deck_.insert(deck_.end(), n, kind);
    for (std::size_t i = deck_.size(); i > 1; --i) {
      std::swap(deck_[i - 1], deck_[rng_.below(i)]);
    }
  }

  const ServeInputs& in_;
  Rng rng_;
  std::uint64_t stream_;
  std::uint64_t count_ = 0;
  std::vector<ServeKind> deck_;
  std::deque<ServeItem> history_;
};

struct ServeRuntime {
  std::unique_ptr<engine::SimulationEngine> eng;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;
};

// One request over the wire, timed per stage (spans when traced).
engine::SimResult serve_call(serve::Client& cl, const engine::SimRequest& req,
                             SpanRecorder* spans, std::uint64_t id, Obs* o) {
  const int root = spans ? spans->begin("request", -1, id) : -1;
  const auto t0 = Clock::now();
  int s = spans ? spans->begin("serve.encode", root, id) : -1;
  const std::string line = serve::encode_request(req);
  const auto t1 = Clock::now();
  if (spans) {
    spans->end(s);
    s = spans->begin("serve.roundtrip", root, id);
  }
  cl.send_line(line);
  std::string resp;
  check(cl.recv_line(&resp), "server closed the connection");
  const auto t2 = Clock::now();
  if (spans) {
    spans->end(s);
    s = spans->begin("serve.decode", root, id);
  }
  engine::SimResult res = serve::decode_result(resp);
  const auto t3 = Clock::now();
  if (spans) {
    spans->end(s);
    spans->end(root);
  }
  o->encode_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  o->decode_us = std::chrono::duration<double, std::micro>(t3 - t2).count();
  o->latency_ms = std::chrono::duration<double, std::milli>(t3 - t0).count();
  return res;
}

// Engine (default options) + loopback server + one connection per client,
// plus one warm-up request per distinct request configuration.
double serve_setup(const ServeInputs& in, Tracer* tracer, ServeRuntime* rt) {
  const auto t0 = Clock::now();
  engine::EngineOptions eo;
  eo.tracer = tracer;
  rt->eng = std::make_unique<engine::SimulationEngine>(eo);
  serve::ServerOptions so;
  so.tracer = tracer;
  rt->server = std::make_unique<serve::Server>(*rt->eng, so);
  for (unsigned c = 0; c < kServeClients; ++c) {
    rt->clients.push_back(
        std::make_unique<serve::Client>("127.0.0.1", rt->server->port()));
  }
  ServeGen warm(in, 77);
  std::vector<ServeItem> items = {warm.make(ServeKind::kCircuit),
                                  warm.make(ServeKind::kCircuit),
                                  warm.make(ServeKind::kExpectation),
                                  warm.make(ServeKind::kTrajectory)};
  items[0].req.backend = "cpu";
  items[1].req.backend = "auto";
  for (const ServeItem& it : items) {
    Obs o;
    const engine::SimResult r = serve_call(*rt->clients[0], it.req, nullptr, 0, &o);
    check(r.ok, std::string("warm-up failed: ") + r.error);
  }
  return since(t0);
}

void shutdown(ServeRuntime* rt) {
  rt->clients.clear();
  if (rt->server) rt->server->shutdown();
  rt->server.reset();
  rt->eng.reset();
}

struct ServeRecord {  // kept for the post-phase checks
  ServeItem item;
  engine::SimResult res;
  std::size_t obs_index;
};

struct ServeCheckStats {
  std::size_t replays = 0, expectations = 0, distributions = 0;
  double max_exp_err = 0, max_dist_err = 0;
};

std::string serve_inline_check(const ServeItem& it, const engine::SimResult& res,
                               ServeCheckStats* st, std::mutex* mu) {
  if (!res.ok) return std::string("not served: ") + res.error;
  const engine::RequestKind k = it.req.kind;
  if (res.kind != k) return "wrong result kind";
  if (k == engine::RequestKind::kCircuit) {
    if (res.samples.size() != kServeSamples) return "wrong sample count";
    for (index_t s : res.samples) {
      if (s >= pow2(it.req.circuit.num_qubits)) return "sample out of range";
    }
  } else if (k == engine::RequestKind::kTrajectory) {
    if (res.trajectories_run != kTrajectories) return "wrong trajectory count";
    if (res.distribution.size() != pow2(it.req.circuit.num_qubits)) {
      return "wrong distribution size";
    }
    double sum = 0;
    for (double p : res.distribution) sum += p;
    std::lock_guard<std::mutex> lock(*mu);
    ++st->distributions;
    st->max_dist_err = std::max(st->max_dist_err, std::abs(sum - 1.0));
    if (std::abs(sum - 1.0) > 1e-4) return "distribution does not sum to 1";
  }
  return {};
}

// Closed loop, one thread per connection, for `seconds`.
Phase serve_phase(const ServeInputs& in, ServeRuntime& rt, double seconds,
                  std::uint64_t stream_base, SpanRecorder* spans,
                  ServeCheckStats* st, std::vector<ServeRecord>* records) {
  Phase ph;
  std::mutex mu;
  std::atomic<std::uint64_t> next_id{1};
  const CpuTimes c0 = CpuTimes::now();
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      ServeGen gen(in, stream_base + c);
      std::vector<Obs> mine;
      std::vector<ServeRecord> kept;
      try {
        while (since(t0) < seconds) {
          ServeItem it = gen.next();
          Obs o;
          engine::SimResult res =
              serve_call(*rt.clients[c], it.req, spans, next_id++, &o);
          o.done_s = since(t0);
          o.simulated = !res.result_cache_hit;
          o.request_id = res.request_id;
          o.label = std::string(kKindNames[static_cast<int>(it.kind)]) + "/" +
                    (res.backend_used.empty() ? "-" : res.backend_used);
          if (it.req.backend == "auto") {
            o.label += "/auto-f" + std::to_string(static_cast<int>(
                                       res.counters["planner/max_fused"]));
          }
          o.queue_s = res.queue_seconds;
          o.fuse_s = res.fuse_seconds;
          o.run_s = res.run_seconds;
          o.sample_s = res.sample_seconds;
          o.total_s = res.total_seconds;
          o.fail = serve_inline_check(it, res, st, &mu);
          o.ok = o.fail.empty();
          if (o.ok && (it.replay || it.req.kind == engine::RequestKind::kExpectation)) {
            res.distribution.clear();
            kept.push_back({std::move(it), std::move(res), mine.size()});
          }
          mine.push_back(std::move(o));
        }
      } catch (const std::exception& e) {
        Obs o;
        o.fail = std::string("client error: ") + e.what();
        mine.push_back(std::move(o));
      }
      std::lock_guard<std::mutex> lock(mu);
      for (ServeRecord& r : kept) {
        r.obs_index += ph.obs.size();
        records->push_back(std::move(r));
      }
      for (Obs& o : mine) ph.obs.push_back(std::move(o));
    });
  }
  for (auto& t : threads) t.join();
  ph.wall_s = since(t0);
  const CpuTimes c1 = CpuTimes::now();
  ph.cpu_user_s = c1.user - c0.user;
  ph.cpu_sys_s = c1.sys - c0.sys;
  return ph;
}

// First field in which two results differ ("" when equal field for field).
std::string result_diff(const engine::SimResult& a, const engine::SimResult& b) {
  if (a.ok != b.ok) return "ok";
  if (a.kind != b.kind) return "kind";
  if (a.samples != b.samples) return "samples";
  if (a.measurements != b.measurements) return "measurements";
  if (a.amplitudes != b.amplitudes) return "amplitudes";
  if (a.expectation != b.expectation) return "expectation";
  if (a.expectation_stderr != b.expectation_stderr) return "expectation_stderr";
  if (a.trajectories_run != b.trajectories_run) return "trajectories_run";
  if (a.backend_used != b.backend_used) return "backend_used";
  return {};
}

// Post-phase checks: the seeded replay subset re-run through
// SimulationEngine::run must equal the decoded wire result field for field,
// and every expectation must match the host obs:: reference.
void serve_post_checks(const ServeInputs& in, engine::SimulationEngine& eng,
                       std::vector<ServeRecord>& records, Phase* ph,
                       ServeCheckStats* st) {
  auto ref_backend = create_backend("cpu", Precision::kDouble);
  std::map<int, StateVector<double>> ref_states;
  for (ServeRecord& r : records) {
    Obs& o = ph->obs[r.obs_index];
    if (r.item.replay) {
      engine::SimRequest q = r.item.req;
      q.bypass_result_cache = true;
      if (q.backend == "auto") {  // pin the planner's choice
        q.backend = r.res.backend_used;
        q.fusion.max_fused_qubits =
            static_cast<unsigned>(r.res.counters["planner/max_fused"]);
        q.fusion.window_moments =
            static_cast<unsigned>(r.res.counters["planner/window"]);
      }
      engine::SimResult again = eng.run(q);
      again.distribution.clear();
      ++st->replays;
      const std::string d = result_diff(again, r.res);
      if (!d.empty() && o.fail.empty()) o.fail = "replay differs in " + d;
    }
    if (r.item.req.kind == engine::RequestKind::kExpectation) {
      auto it = ref_states.find(r.item.circuit_ix);
      if (it == ref_states.end()) {
        const Circuit& c = in.pool[static_cast<std::size_t>(r.item.circuit_ix)];
        BackendRunSpec rs;
        rs.want_state = true;
        const auto out = ref_backend->run(fuse_circuit(c, fusion_of(4)).circuit, rs);
        StateVector<double> sv(c.num_qubits);
        for (index_t i = 0; i < sv.size(); ++i) sv[i] = out.state[i];
        it = ref_states.emplace(r.item.circuit_ix, std::move(sv)).first;
      }
      const obs::Observable& ob =
          in.observables[static_cast<std::size_t>(r.item.obs_ix)];
      const cplx64 want = obs::expectation(ob, it->second);
      double scale = 0;
      for (const auto& p : ob.strings) scale += std::abs(p.coefficient);
      const double err = std::abs(r.res.expectation - want) / scale;
      ++st->expectations;
      st->max_exp_err = std::max(st->max_exp_err, err);
      if (err > 1e-4 && o.fail.empty()) o.fail = "expectation off the obs:: reference";
    }
    o.ok = o.fail.empty();
  }
}

// ================================================================ probes

// STREAM-style triad a = b + s*c over three arrays of `bytes` each on the
// shared host pool; best GB/s over several batches (3 arrays moved per rep).
double triad_gbps(std::size_t bytes) {
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t n = std::max<std::size_t>(bytes / sizeof(double), 1024);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  pool.parallel_for(n, [&](index_t i) {
    a[i] = 0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 0.5;
  });
  const double moved = 3.0 * static_cast<double>(n * sizeof(double));
  const std::size_t reps =
      std::max<std::size_t>(1, static_cast<std::size_t>((256.0 * (1 << 20)) / moved));
  double best = 0;
  for (int batch = 0; batch < 4; ++batch) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      const double s = 1.0 + 1e-9 * static_cast<double>(r);
      pool.parallel_ranges(n, [&](unsigned, index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
      });
    }
    best = std::max(best, moved * static_cast<double>(reps) / since(t0) / 1e9);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return best;
}

std::size_t state_bytes(unsigned qubits, Precision p) {
  return static_cast<std::size_t>(pow2(qubits)) * amp_bytes(p);
}

// Per-configuration backend numbers: every quantity seen per run (run_ms,
// sample_ms, the kernel classes, launches and the backend's own counters),
// reported as its median.
struct CfgLayer {
  std::map<std::string, std::vector<double>> runs;
  unsigned qubits = 0;
  std::string source;  // "workload" or "probe <n>q"

  void add(double run_ms, double sample_ms, const KernelBreakdown& kb,
           const std::map<std::string, double>& counters) {
    runs["run_ms"].push_back(run_ms);
    runs["sample_ms"].push_back(sample_ms);
    runs["h_kernel_ms"].push_back(kb.h_ms);
    runs["l_kernel_ms"].push_back(kb.l_ms);
    runs["reduce_ms"].push_back(kb.reduce_ms);
    runs["memcpy_ms"].push_back(kb.memcpy_ms);
    runs["launches"].push_back(static_cast<double>(kb.launches));
    for (const auto& [k, v] : counters) runs[k].push_back(v);
  }
  double get(const std::string& k) const {
    const auto it = runs.find(k);
    return it == runs.end() ? 0.0 : median(it->second);
  }
};

// Direct Backend::run calls with a tracer: 1 warm-up, 3 timed.
CfgLayer probe_backend(const Cfg& c, const Circuit& circ, std::uint64_t seed) {
  Tracer tracer;
  auto be = create_backend(c.backend, c.prec, &tracer);
  const Circuit fused = fuse_circuit(circ, fusion_of(c.f)).circuit;
  CfgLayer L;
  L.qubits = circ.num_qubits;
  L.source = "probe " + std::to_string(circ.num_qubits) + "q";
  for (int rep = 0; rep < 4; ++rep) {
    BackendRunSpec rs;
    rs.seed = seed + static_cast<std::uint64_t>(rep);
    rs.num_samples = kRqcSamples;
    rs.amplitude_indices = {0, 1, 2, 3, 4, 5, 6, 7};
    rs.corr = static_cast<std::uint64_t>(rep + 1);
    const auto t0 = Clock::now();
    const BackendRunOutput out = be->run(fused, rs);
    const double ms = since(t0) * 1e3;
    if (rep == 0) continue;  // warm-up
    L.add(ms, out.sample_seconds * 1e3,
          perfbench::reduce_device_events(tracer.events(), {rs.corr}),
          out.counters);
  }
  return L;
}

// Per-configuration numbers from the traced pass of an rqc workload.
CfgLayer layer_from_phase(const Phase& ph, int cfg,
                          const std::vector<TraceEvent>& events,
                          unsigned qubits) {
  CfgLayer L;
  L.qubits = qubits;
  L.source = "workload";
  for (const Obs& o : ph.obs) {
    if (o.cfg != cfg) continue;
    L.add(o.run_s * 1e3, o.sample_s * 1e3,
          perfbench::reduce_device_events(events, {o.request_id}), o.counters);
  }
  return L;
}

// Serial trajectories on a 1-thread pool: median ms per trajectory.
double probe_trajectory_ms(const Circuit& c, std::uint64_t seed) {
  ThreadPool one(1);
  const Circuit prepared = normalize_circuit(c);
  noise::NoiseModel model{noise::depolarizing(kNoiseRate)};
  StateVector<float> s(c.num_qubits);
  std::vector<double> ms;
  for (std::uint64_t t = 0; t < 2 * kTrajectories; ++t) {
    const auto t0 = Clock::now();
    noise::run_trajectory_prepared<float>(prepared, model, seed, t, s, one);
    if (t > 0) ms.push_back(since(t0) * 1e3);
  }
  return median(ms);
}

// One 64-trajectory batch through a default engine: how much of the ideal
// fan-out over its sub-runs the batch reached.
double probe_fanout_eff(const Circuit& c, std::uint64_t seed, double traj_ms) {
  engine::SimulationEngine eng;
  const unsigned subs = std::min<unsigned>(64, eng.options().num_workers);
  engine::SimRequest req;
  req.kind = engine::RequestKind::kTrajectory;
  req.circuit = c;
  req.noise.channel = noise::depolarizing(kNoiseRate);
  req.num_trajectories = 64;
  req.bypass_result_cache = true;
  std::vector<double> eff;
  for (int rep = 0; rep < 4; ++rep) {
    req.seed = seed + static_cast<std::uint64_t>(rep);
    const engine::SimResult r = eng.run(req);
    check(r.ok, "fan-out probe failed: " + r.error);
    if (rep == 0) continue;
    eff.push_back(64.0 * traj_ms / (r.run_seconds * 1e3 * subs));
  }
  return median(eff);
}

double probe_expectation_ms(const Circuit& c, const obs::Observable& ob) {
  auto be = create_backend("cpu", Precision::kSingle);
  BackendRunSpec rs;
  rs.want_state = true;
  const auto out = be->run(fuse_circuit(c, fusion_of(4)).circuit, rs);
  StateVector<float> sv(c.num_qubits);
  for (index_t i = 0; i < sv.size(); ++i) {
    sv[i] = cplx<float>(static_cast<float>(out.state[i].real()),
                        static_cast<float>(out.state[i].imag()));
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 64; ++rep) {
    const auto t0 = Clock::now();
    volatile double sink = obs::expectation(ob, sv).real();
    (void)sink;
    ms.push_back(since(t0) * 1e3);
  }
  return median(ms);
}

// Loopback wire cost for workloads that bypass the wire: 32 small requests
// over a fresh server, client latency minus the engine's total_seconds.
double probe_wire_ms(const Circuit& c) {
  engine::SimulationEngine eng;
  serve::Server server(eng, {});
  serve::Client cl("127.0.0.1", server.port());
  std::vector<double> wire;
  for (std::uint64_t i = 0; i < 33; ++i) {
    engine::SimRequest req;
    req.circuit = c;
    req.fusion = fusion_of(4);
    req.seed = i + 1;
    req.num_samples = kServeSamples;
    req.bypass_result_cache = true;
    Obs o;
    const engine::SimResult r = serve_call(cl, req, nullptr, 0, &o);
    check(r.ok, "wire probe failed: " + r.error);
    if (i > 0) wire.push_back(o.latency_ms - r.total_seconds * 1e3);
  }
  server.shutdown();
  return median(wire);
}

// ============================================================ reporting

// `group` as in perfbench::median_rate: 4 for the rqc rotations, 64
// completions for serve_mixed.
void add_end_to_end(Report& rep, const Phase& ph, double setup_s,
                    unsigned tail_permille, std::size_t group) {
  std::vector<std::pair<double, bool>> by_done;  // (completion, simulated)
  std::vector<double> lat, done, all, sim;
  std::size_t simulated = 0;
  for (const Obs& o : ph.obs) {
    lat.push_back(o.latency_ms);
    by_done.emplace_back(o.done_s, o.simulated);
    if (o.simulated) ++simulated;
  }
  std::sort(by_done.begin(), by_done.end());
  for (const auto& [t, s] : by_done) {
    done.push_back(t);
    all.push_back(1.0);
    sim.push_back(s ? 1.0 : 0.0);
  }
  const std::string per =
      "median over groups of " + std::to_string(group) + " completions";
  const std::size_t n = ph.obs.size();
  const std::size_t beyond = perfbench::samples_beyond(n, tail_permille);
  const double failed_ratio =
      n == 0 ? 1.0 : static_cast<double>(failures(ph)) / static_cast<double>(n);
  rep.add("setup_s", setup_s, "s", "median of the set-ups in this run");
  rep.add("requests_per_s", perfbench::median_rate(done, all, group),
          "1/s", per + "; " + std::to_string(n) + " requests in " +
                     std::to_string(ph.wall_s) + " s");
  rep.add("simulated_per_s", perfbench::median_rate(done, sim, group),
          "1/s", per + "; " + std::to_string(simulated) + " ran a simulation");
  rep.add("latency_p50_ms", percentile(lat, 500), "ms", "nearest rank");
  rep.add("latency_tail_ms", percentile(lat, tail_permille), "ms",
          perfbench::percentile_label(tail_permille) + " (fixed), " +
              std::to_string(beyond) + " of " + std::to_string(n) +
              " samples beyond; highest with >= 10 beyond: " +
              perfbench::percentile_label(perfbench::pick_tail_permille(n)));
  rep.add("success_ratio", 1.0 - failed_ratio, "ratio",
          "1 - failed_ratio; failed_ratio = " + std::to_string(failed_ratio));
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
}

struct LayerInputs {  // everything the per-layer section needs
  const Phase* untraced = nullptr;
  const Phase* traced = nullptr;
  engine::EngineMetrics before, after;
  std::array<CfgLayer, kNumCfgs> cfgs;
  std::array<Circuit, kNumCfgs> cfg_circuits;
  std::vector<Circuit> fusion_circuits;  // the workload's own circuits
  std::vector<unsigned> fusion_levels;
  Circuit main_circuit;
  Precision main_prec = Precision::kSingle;
  double encode_us = 0, decode_us = 0, wire_ms = 0;
  std::string wire_source;
  Circuit traj_circuit;
  Circuit obs_circuit;
  obs::Observable observable;
  std::uint64_t seed = 0;
};

void add_per_layer(Report& rep, const LayerInputs& L) {
  // fusion
  {
    std::vector<double> ms;
    for (int rep_i = 0; rep_i < 5; ++rep_i) {
      for (const Circuit& c : L.fusion_circuits) {
        for (unsigned f : L.fusion_levels) {
          const auto t0 = Clock::now();
          const FusionResult fr = fuse_circuit(c, fusion_of(f));
          ms.push_back(since(t0) * 1e3);
        }
      }
    }
    const FusionResult fr = fuse_circuit(L.main_circuit, fusion_of(4));
    rep.add("fusion.fuse_ms", median(ms), "ms",
            "median fuse_circuit over " + std::to_string(ms.size()) + " calls");
    rep.add("fusion.gates_out", static_cast<double>(fr.stats.output_gates), "count",
            std::to_string(fr.stats.input_gates) + " gates in, f=4");
    rep.add("fusion.mean_width", fr.stats.mean_width(), "qubits", "f=4");
  }
  // engine
  {
    std::vector<double> queue, overhead;
    for (const Obs& o : L.traced->obs) {
      if (!o.ok) continue;
      queue.push_back(o.queue_s * 1e3);
      overhead.push_back((o.total_s - o.queue_s - o.fuse_s - o.run_s) * 1e3);
    }
    using perfbench::counter_delta;
    const auto& b = L.before;
    const auto& a = L.after;
    const Ratio fused{counter_delta(b.fused_cache.hits, a.fused_cache.hits),
                      counter_delta(b.fused_cache.hits + b.fused_cache.misses,
                                    a.fused_cache.hits + a.fused_cache.misses)};
    const Ratio result{counter_delta(b.result_cache_hits, a.result_cache_hits),
                       counter_delta(b.submitted, a.submitted)};
    const Ratio pool{counter_delta(b.pool_hits, a.pool_hits),
                     counter_delta(b.pool_hits + b.pool_misses,
                                   a.pool_hits + a.pool_misses)};
    rep.add("engine.queue_ms", median(queue), "ms", "median SimResult queue");
    rep.add("engine.overhead_ms", median(overhead), "ms",
            "median total - queue - fuse - run");
    rep.add("engine.fused_cache_hit_ratio", fused.value(), "ratio",
            "base engine.fused_cache_lookups");
    rep.add("engine.fused_cache_lookups", static_cast<double>(fused.base), "count");
    rep.add("engine.result_cache_hit_ratio", result.value(), "ratio",
            "base engine.result_cache_lookups (requests submitted)");
    rep.add("engine.result_cache_lookups", static_cast<double>(result.base), "count");
    rep.add("engine.pool_hit_ratio", pool.value(), "ratio",
            "base engine.pool_lookups");
    rep.add("engine.pool_lookups", static_cast<double>(pool.base), "count");
  }
  const double traj_ms = probe_trajectory_ms(L.traj_circuit, L.seed);
  rep.add("engine.trajectory_fanout_eff",
          probe_fanout_eff(L.traj_circuit, L.seed, traj_ms), "ratio",
          "64 trajectories x noise.trajectory_ms / (batch run x 2 subs)");
  // host
  std::map<std::size_t, double> triad;
  auto triad_at = [&](std::size_t bytes) {
    auto it = triad.find(bytes);
    if (it == triad.end()) it = triad.emplace(bytes, triad_gbps(bytes)).first;
    return it->second;
  };
  // backends
  for (int c = 0; c < kNumCfgs; ++c) {
    const CfgLayer& cl = L.cfgs[c];
    const Cfg& cfg = kCfgs[c];
    const std::string p = std::string("backend.") + cfg.name;
    const Circuit fused = fuse_circuit(L.cfg_circuits[c], fusion_of(cfg.f)).circuit;
    const double bytes = perfmodel::WorkloadStats::from_circuit(fused).total_bytes(
        amp_bytes(cfg.prec));
    const double run_ms = cl.get("run_ms");
    const double sample_ms = cl.get("sample_ms");
    const double exec_s = std::max(run_ms - sample_ms, 1e-6) * 1e-3;
    const double gbps = bytes / exec_s / 1e9;
    const double ref = triad_at(state_bytes(cl.qubits, cfg.prec));
    rep.add(p + ".run_ms", run_ms, "ms", cl.source);
    rep.add(p + ".sample_ms", sample_ms, "ms", cl.source);
    rep.add(p + ".gbps", gbps, "GB/s", "computed bytes / (run - sample)");
    rep.add(p + ".bw_fraction", gbps / ref, "ratio",
            "computed bytes vs state-sized triad");
  }
  {
    const Phase& u = *L.untraced;
    const double n = static_cast<double>(std::max<std::size_t>(u.obs.size(), 1));
    rep.add("host.cpu_util", (u.cpu_user_s + u.cpu_sys_s) / u.wall_s, "cores",
            "(user+sys)/wall over the untraced pass");
    rep.add("host.sys_s_per_request", u.cpu_sys_s / n, "s", "untraced pass");
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = 32l << 20;
    const std::size_t total = 4 * static_cast<std::size_t>(llc);
    const double stream = triad_gbps(total / 3);
    rep.add("host.stream_gbps", stream, "GB/s",
            "triad, 3 arrays x " + std::to_string(total / 3 >> 20) + " MiB = 4 x LLC " +
                std::to_string(static_cast<std::size_t>(llc) >> 20) + " MiB");
    const std::size_t sb = state_bytes(L.main_circuit.num_qubits, L.main_prec);
    rep.add("host.state_triad_gbps", triad_at(sb), "GB/s",
            "triad, 3 arrays x " + std::to_string(sb >> 10) + " KiB (state vector)");
  }
  // dist / vgpu / hipsim
  {
    const CfgLayer& d = L.cfgs[kDist2F4Sp];
    rep.add("dist.slot_swaps", d.get("slot_swaps"), "count", d.source);
    rep.add("dist.peer_bytes", d.get("peer_bytes"), "bytes", d.source);
    rep.add("dist.exchange_ms", d.get("exchange_ns") * 1e-6, "ms", d.source);
    for (int c : {kHipF4Sp, kA100F4Sp, kHip2F4Sp, kHipF4Dp}) {
      const CfgLayer& v = L.cfgs[c];
      const std::string p = std::string("vgpu.") + kCfgs[c].name + ".";
      for (const char* k : {"h_kernel_ms", "l_kernel_ms", "reduce_ms", "memcpy_ms"}) {
        rep.add(p + k, v.get(k), "ms", v.source);
      }
      rep.add(p + "launches", v.get("launches"), "count", v.source);
    }
    const CfgLayer& h2 = L.cfgs[kHip2F4Sp];
    rep.add("hipsim.hip2.slot_swaps", h2.get("slot_swaps"), "count", h2.source);
    rep.add("hipsim.hip2.peer_bytes", h2.get("peer_bytes"), "bytes", h2.source);
  }
  // noise / obs / serve / trace
  rep.add("noise.trajectory_ms", traj_ms, "ms",
          "serial, 1-thread pool, " + std::to_string(L.traj_circuit.num_qubits) + "q");
  rep.add("obs.expectation_ms", probe_expectation_ms(L.obs_circuit, L.observable),
          "ms", "8-term observable, 12q single");
  rep.add("serve.encode_us", L.encode_us, "us", "median encode_request");
  rep.add("serve.decode_us", L.decode_us, "us", "median decode_result");
  rep.add("serve.wire_ms", L.wire_ms, "ms", L.wire_source);
  const double per_traced = L.traced->wall_s / static_cast<double>(L.traced->obs.size());
  const double per_untraced =
      L.untraced->wall_s / static_cast<double>(L.untraced->obs.size());
  rep.add("trace.overhead_ratio", per_traced / per_untraced, "ratio",
          "traced / untraced wall per request");
}

void print_self_times(const SpanRecorder& spans) {
  std::printf("self time per layer (benchmark spans, traced pass):\n");
  for (const auto& [name, st] : perfbench::self_times(spans.spans())) {
    std::printf("  %-18s %8zu spans  total %12.3f ms  self %12.3f ms\n",
                name.c_str(), st.count, st.total_ms, st.self_ms);
  }
}

void write_spans(const SpanRecorder& spans, const std::string& dir,
                 const std::string& workload, std::uint64_t seed) {
  if (dir.empty()) return;
  const std::string path =
      dir + "/spans-" + workload + "-seed" + std::to_string(seed) + ".json";
  std::ofstream f(path);
  f << spans.to_json();
  std::printf("spans written to %s\n", path.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir;
};

constexpr int kSetupReps = 3;

int finish(const Report& rep, std::size_t attempted, std::size_t failed,
           const std::vector<std::string>& why) {
  for (const auto& w : why) std::printf("CHECK FAILED: %s\n", w.c_str());
  rep.print_lines();
  const bool correct = failed == 0 && attempted > 0;
  std::printf("%s\n", rep.json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::vector<std::string> failure_reasons(const Phase& ph) {
  std::map<std::string, std::size_t> n;
  for (const Obs& o : ph.obs) {
    if (!o.ok) ++n[o.fail];
  }
  std::vector<std::string> out;
  for (const auto& [w, k] : n) out.push_back(w + " (x" + std::to_string(k) + ")");
  return out;
}

int run_rqc(const RqcSpec& w, const Args& a) {
  const RqcInputs in = make_rqc_inputs(w, a.seed);
  std::printf("workload %s: %uq RQC (%ux%u, depth %u, %zu gates), seed %llu\n",
              w.name, in.circuit.num_qubits, w.rows, w.cols, w.depth,
              in.circuit.size(), static_cast<unsigned long long>(a.seed));
  RqcCheckStats st;
  Report rep;
  if (!a.trace) {
    std::vector<double> setups;
    std::unique_ptr<engine::SimulationEngine> eng;
    for (int r = 0; r < kSetupReps; ++r) {
      eng.reset();
      setups.push_back(rqc_setup(w, in, nullptr, &eng));
    }
    const Phase ph = rqc_phase(w, in, *eng, a.seconds, 0, nullptr, &st);
    std::printf("checks: max amplitude error sp %.3g dp %.3g (x 2^-n/2), "
                "min XEB %.3f, %zu sample pairs compared\n",
                st.max_amp_err_sp, st.max_amp_err_dp, st.min_xeb, st.pairs_compared);
    for (int c : w.rotation) {
      std::vector<double> lat;
      for (const Obs& o : ph.obs) {
        if (o.cfg == c) lat.push_back(o.latency_ms);
      }
      std::printf("  %-12s %3zu requests, latency min %8.1f median %8.1f max %8.1f ms\n",
                  kCfgs[c].name, lat.size(), percentile(lat, 1), median(lat),
                  percentile(lat, 1000));
    }
    add_end_to_end(rep, ph, median(setups), w.tail_permille, 4);
    return finish(rep, ph.obs.size(), failures(ph), failure_reasons(ph));
  }

  LayerInputs L;
  std::unique_ptr<engine::SimulationEngine> eng;
  rqc_setup(w, in, nullptr, &eng);
  const Phase untraced = rqc_phase(w, in, *eng, a.seconds / 2, 0, nullptr, &st);
  eng.reset();
  Tracer tracer;
  SpanRecorder spans;
  rqc_setup(w, in, &tracer, &eng);
  L.before = eng->metrics();
  std::vector<std::pair<engine::SimRequest, engine::SimResult>> kept;
  const Phase traced =
      rqc_phase(w, in, *eng, a.seconds / 2, 1u << 20, &spans, &st, &kept);
  L.after = eng->metrics();
  eng.reset();
  const std::vector<TraceEvent> events = tracer.events();

  L.untraced = &untraced;
  L.traced = &traced;
  L.seed = a.seed;
  L.main_circuit = in.circuit;
  L.fusion_circuits = {in.circuit};
  for (int c : w.rotation) {
    if (std::find(L.fusion_levels.begin(), L.fusion_levels.end(), kCfgs[c].f) ==
        L.fusion_levels.end()) {
      L.fusion_levels.push_back(kCfgs[c].f);
    }
  }
  const Circuit probe = serve_pool_circuit(a.seed, 0);
  for (int c = 0; c < kNumCfgs; ++c) {
    const bool in_workload =
        std::find(w.rotation.begin(), w.rotation.end(), c) != w.rotation.end();
    L.cfg_circuits[c] = in_workload ? in.circuit : probe;
    L.cfgs[c] = in_workload
                    ? layer_from_phase(traced, c, events, in.circuit.num_qubits)
                    : probe_backend(kCfgs[c], probe, a.seed);
  }
  std::vector<double> enc, dec;
  for (const auto& [req, res] : kept) {
    auto t0 = Clock::now();
    const std::string line = serve::encode_request(req);
    enc.push_back(since(t0) * 1e6);
    const std::string resp = serve::encode_result(res);
    t0 = Clock::now();
    const engine::SimResult back = serve::decode_result(resp);
    dec.push_back(since(t0) * 1e6);
    check(back.samples == res.samples && !line.empty(), "wire round trip");
  }
  L.encode_us = median(enc);
  L.decode_us = median(dec);
  L.wire_ms = probe_wire_ms(probe);
  L.wire_source = "probe: 12q requests over a loopback server";
  L.traj_circuit = traj_pool_circuit(a.seed, 0);
  L.obs_circuit = probe;
  L.observable = make_observable(a.seed, 0, 12);
  add_per_layer(rep, L);

  print_self_times(spans);
  const perfbench::KernelBreakdown all = perfbench::reduce_device_events(events);
  std::printf("device time by kernel class (traced pass): H %.1f ms, L %.1f ms, "
              "reduce %.1f ms, memcpy %.1f ms, other %.1f ms, %llu launches\n",
              all.h_ms, all.l_ms, all.reduce_ms, all.memcpy_ms, all.other_ms,
              static_cast<unsigned long long>(all.launches));
  write_spans(spans, a.out_dir, w.name, a.seed);
  std::vector<std::string> why = failure_reasons(untraced);
  for (auto& s : failure_reasons(traced)) why.push_back(s);
  return finish(rep, untraced.obs.size() + traced.obs.size(),
                failures(untraced) + failures(traced), why);
}

int run_serve(const Args& a) {
  const ServeInputs in = make_serve_inputs(a.seed);
  std::printf("workload serve_mixed: %zu 12q circuits (zipf 1.1), %zu 10q "
              "trajectory circuits, %u connections, seed %llu\n",
              in.pool.size(), in.traj_pool.size(), kServeClients,
              static_cast<unsigned long long>(a.seed));
  ServeCheckStats st;
  Report rep;
  std::vector<ServeRecord> records;
  if (!a.trace) {
    std::vector<double> setups;
    ServeRuntime rt;
    for (int r = 0; r < 5; ++r) {
      shutdown(&rt);
      setups.push_back(serve_setup(in, nullptr, &rt));
    }
    Phase ph = serve_phase(in, rt, a.seconds, 100, nullptr, &st, &records);
    serve_post_checks(in, *rt.eng, records, &ph, &st);
    shutdown(&rt);
    std::printf("checks: %zu replays equal field for field, %zu expectations "
                "(max rel err %.3g), %zu distributions (max |sum-1| %.3g)\n",
                st.replays, st.expectations, st.max_exp_err, st.distributions,
                st.max_dist_err);
    std::map<std::string, std::vector<double>> by_label;
    for (const Obs& o : ph.obs) by_label[o.label].push_back(o.latency_ms);
    for (const auto& [label, lat] : by_label) {
      std::printf("  %-24s %6zu requests, latency median %8.3f p99 %8.3f max %8.3f ms\n",
                  label.c_str(), lat.size(), median(lat), percentile(lat, 990),
                  percentile(lat, 1000));
    }
    add_end_to_end(rep, ph, median(setups), kServeTailPermille, 64);
    return finish(rep, ph.obs.size(), failures(ph), failure_reasons(ph));
  }

  LayerInputs L;
  ServeRuntime rt;
  serve_setup(in, nullptr, &rt);
  Phase untraced = serve_phase(in, rt, a.seconds / 2, 100, nullptr, &st, &records);
  serve_post_checks(in, *rt.eng, records, &untraced, &st);
  shutdown(&rt);
  records.clear();
  Tracer tracer;
  SpanRecorder spans;
  serve_setup(in, &tracer, &rt);
  L.before = rt.eng->metrics();
  Phase traced = serve_phase(in, rt, a.seconds / 2, 200, &spans, &st, &records);
  L.after = rt.eng->metrics();
  serve_post_checks(in, *rt.eng, records, &traced, &st);
  shutdown(&rt);

  L.untraced = &untraced;
  L.traced = &traced;
  L.seed = a.seed;
  L.main_circuit = in.pool[0];
  L.fusion_circuits.assign(in.pool.begin(), in.pool.begin() + 32);
  L.fusion_levels = {4};
  for (int c = 0; c < kNumCfgs; ++c) {
    L.cfg_circuits[c] = in.pool[0];
    L.cfgs[c] = probe_backend(kCfgs[c], in.pool[0], a.seed);
  }
  std::vector<double> enc, dec, wire;
  for (const Obs& o : traced.obs) {
    if (!o.ok) continue;
    enc.push_back(o.encode_us);
    dec.push_back(o.decode_us);
    wire.push_back(o.latency_ms - o.total_s * 1e3);
  }
  L.encode_us = median(enc);
  L.decode_us = median(dec);
  L.wire_ms = median(wire);
  L.wire_source = "median client latency - decoded total_seconds";
  L.traj_circuit = in.traj_pool[0];
  L.obs_circuit = in.pool[0];
  L.observable = in.observables[0];
  add_per_layer(rep, L);

  print_self_times(spans);
  write_spans(spans, a.out_dir, "serve_mixed", a.seed);
  std::vector<std::string> why = failure_reasons(untraced);
  for (auto& s : failure_reasons(traced)) why.push_back(s);
  return finish(rep, untraced.obs.size() + traced.obs.size(),
                failures(untraced) + failures(traced), why);
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && a->seconds > 0 &&
         (a->workload == "rqc_host" || a->workload == "rqc_vgpu" ||
          a->workload == "serve_mixed");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload rqc_host|rqc_vgpu|serve_mixed "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  try {
    if (a.workload == "rqc_host") return run_rqc(kRqcHost, a);
    if (a.workload == "rqc_vgpu") return run_rqc(kRqcVgpu, a);
    return run_serve(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
