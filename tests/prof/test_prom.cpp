// Prometheus label-value escaping: a hostile backend spec or calibration key
// must not splice samples into the scrape. The round trip through
// prom_escape_label / prom_unescape_label is lossless, and
// EngineMetrics::to_prom_text escapes every interpolated label value.
//
// The second half audits the whole scrape against text-format 0.0.4: every
// family announced by # HELP/# TYPE exactly once, every sample belonging to
// an announced family, and histogram _bucket/_sum/_count internally
// consistent (cumulative buckets, +Inf == _count).
//
// The last part pins the one metrics definition: every scalar Prometheus
// family has a trace counter twin with the same value, and the scrape of a
// fully populated EngineMetrics matches a committed golden line for line.
#include "src/prof/prom.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/engine/engine.h"
#include "src/prof/trace.h"
#include "src/rqc/rqc.h"

namespace qhip::prof {
namespace {

TEST(PromEscape, RoundTripsHostileStrings) {
  const std::string hostile[] = {
      "plain",
      "quote\"inside",
      "back\\slash",
      "new\nline",
      "hip\"} 1\nevil_metric 42",           // the classic injection
      "\\n literal backslash-n",
      "trailing backslash \\",
      std::string("\n\n\"\"\\\\"),
  };
  for (const std::string& s : hostile) {
    const std::string esc = prom_escape_label(s);
    // The escaped form is safe to interpolate: no raw quote, no raw newline.
    EXPECT_EQ(esc.find('\n'), std::string::npos) << s;
    for (std::size_t i = 0; i < esc.size(); ++i) {
      if (esc[i] == '"') {
        ASSERT_GT(i, 0u);
        EXPECT_EQ(esc[i - 1], '\\') << s;
      }
    }
    EXPECT_EQ(prom_unescape_label(esc), s);
  }
}

TEST(PromEscape, EngineMetricsEscapeHostileSpecs) {
  const std::string hostile = "hip\"} 1\nevil_metric 42";
  engine::EngineMetrics m;
  m.planner_decisions = 1;
  m.planner_chosen[hostile] = 3;
  m.planner_calibration[hostile + "/q20"] = 1.25;

  const std::string text = m.to_prom_text();
  // The escaped form appears...
  EXPECT_NE(text.find(prom_escape_label(hostile)), std::string::npos);
  // ...and the injection does not: no line starts with the smuggled metric,
  // and every line is either a comment or a qhip_engine_* sample.
  EXPECT_EQ(text.find("\nevil_metric"), std::string::npos);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(line.rfind("#", 0) == 0 || line.rfind("qhip_engine_", 0) == 0)
        << "spliced line: " << line;
  }
}

TEST(PromEscape, EscapedLabelValueRecoversOriginal) {
  // A scraper that unescapes the label value must read back the exact spec.
  const std::string hostile = "spec with \"quotes\", \\ and \nnewline";
  engine::EngineMetrics m;
  m.planner_chosen[hostile] = 1;
  const std::string text = m.to_prom_text();

  const std::string needle = "qhip_engine_planner_chosen{backend=\"";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  const std::size_t start = at + needle.size();
  const std::size_t end = text.find("\"}", start);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(prom_unescape_label(text.substr(start, end - start)), hostile);
}

// --- text-format 0.0.4 validator ---------------------------------------------

struct PromFamily {
  int help_lines = 0;
  int type_lines = 0;
  std::string type;
};

struct HistSeries {  // one label set of one histogram family
  std::vector<std::uint64_t> bucket_cum;  // in exposition order, +Inf last
  bool saw_inf = false;
  bool saw_sum = false;
  std::uint64_t count = 0;
  bool saw_count = false;
};

// Base metric name of a sample line: everything before '{' or ' '.
std::string sample_name(const std::string& line) {
  const std::size_t cut = line.find_first_of("{ ");
  return line.substr(0, cut);
}

// Maps a sample name to its announced family: histogram samples use the
// _bucket/_sum/_count suffixes of their family name.
std::string family_of(const std::string& name,
                      const std::map<std::string, PromFamily>& families) {
  if (families.count(name) != 0) return name;
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s = suffix;
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      const std::string base = name.substr(0, name.size() - s.size());
      if (families.count(base) != 0) return base;
    }
  }
  return "";
}

// Validates `text` as Prometheus text-format 0.0.4 and cross-checks every
// histogram series. Uses EXPECT so one run reports every violation.
void validate_prom_text(const std::string& text) {
  std::map<std::string, PromFamily> families;
  std::vector<std::pair<std::string, std::string>> samples;  // name, line

  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      families[rest.substr(0, sp)].help_lines++;
      EXPECT_GT(rest.size(), sp + 1) << "empty HELP text: " << line;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      PromFamily& f = families[rest.substr(0, sp)];
      f.type_lines++;
      f.type = rest.substr(sp + 1);
      EXPECT_TRUE(f.type == "counter" || f.type == "gauge" ||
                  f.type == "histogram")
          << line;
      continue;
    }
    if (line[0] == '#') continue;  // other comments (# EXEMPLAR) are ignored
    samples.emplace_back(sample_name(line), line);
  }

  ASSERT_FALSE(families.empty());
  for (const auto& [name, f] : families) {
    EXPECT_EQ(f.help_lines, 1) << "# HELP lines for " << name;
    EXPECT_EQ(f.type_lines, 1) << "# TYPE lines for " << name;
  }

  std::map<std::string, HistSeries> hists;  // key: sample name + labels
  for (const auto& [name, full] : samples) {
    const std::string fam = family_of(name, families);
    ASSERT_FALSE(fam.empty()) << "sample without # HELP/# TYPE: " << full;
    // The value token is everything after the last space.
    const std::size_t sp = full.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << full;
    const std::string value_tok = full.substr(sp + 1);
    char* end = nullptr;
    const double value = std::strtod(value_tok.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << full;

    if (families[fam].type != "histogram") {
      EXPECT_EQ(name, fam) << "suffixed sample of non-histogram: " << full;
      continue;
    }
    // Histogram sample: bucket into its series by labels minus `le`.
    const std::string suffix = name.substr(fam.size());
    std::string labels;
    if (const std::size_t brace = full.find('{');
        brace != std::string::npos && brace < sp) {
      labels = full.substr(brace, full.find('}', brace) + 1 - brace);
    }
    if (suffix == "_bucket") {
      const std::size_t le = labels.find("le=\"");
      ASSERT_NE(le, std::string::npos) << "_bucket without le: " << full;
      const std::size_t le_end = labels.find('"', le + 4);
      const std::string le_val = labels.substr(le + 4, le_end - le - 4);
      // Series key: labels with the le pair removed (it is the last label).
      std::string key = fam + labels.substr(0, le);
      HistSeries& h = hists[key];
      EXPECT_FALSE(h.saw_inf) << "bucket after +Inf: " << full;
      h.bucket_cum.push_back(static_cast<std::uint64_t>(value));
      if (le_val == "+Inf") h.saw_inf = true;
    } else if (suffix == "_sum") {
      hists[fam + labels].saw_sum = true;
    } else if (suffix == "_count") {
      HistSeries& h = hists[fam + labels];
      h.saw_count = true;
      h.count = static_cast<std::uint64_t>(value);
    } else {
      ADD_FAILURE() << "unsuffixed histogram sample: " << full;
    }
  }

  // _bucket keys carry a trailing '{...' prefix fragment while _sum/_count
  // carry the full label set; reconcile by matching prefixes.
  for (auto& [key, h] : hists) {
    if (h.bucket_cum.empty()) continue;  // the _sum/_count half of a series
    EXPECT_TRUE(h.saw_inf) << key << ": histogram without an +Inf bucket";
    for (std::size_t i = 1; i < h.bucket_cum.size(); ++i) {
      EXPECT_GE(h.bucket_cum[i], h.bucket_cum[i - 1])
          << key << ": cumulative bucket counts decreased at " << i;
    }
    // Find the matching _sum/_count series (same family+labels, with the
    // le pair stripped the bucket key ends just before "le=").
    std::string want = key;
    if (!want.empty() && (want.back() == ',' || want.back() == '{')) {
      want.pop_back();
      if (!want.empty() && want.back() == '{') want.pop_back();
      if (want.find('{') != std::string::npos) want += '}';
    }
    const auto it = hists.find(want);
    ASSERT_NE(it, hists.end()) << key << ": no _sum/_count series (" << want
                               << ")";
    EXPECT_TRUE(it->second.saw_sum) << want << ": missing _sum";
    EXPECT_TRUE(it->second.saw_count) << want << ": missing _count";
    EXPECT_EQ(h.bucket_cum.back(), it->second.count)
        << want << ": +Inf bucket != _count";
  }
}

TEST(PromFormat, SyntheticMetricsPassTheValidator) {
  engine::EngineMetrics m;
  m.submitted = 10;
  m.completed = 8;
  m.rejected = 2;
  m.planner_decisions = 3;
  m.planner_chosen["hip"] = 2;
  m.planner_chosen["cpu"] = 1;
  m.planner_calibration["hip/q20"] = 1.25;
  m.slo_breaches = 1;
  m.snapshots_written = 1;
  for (double v : {0.5, 1.5, 40.0}) {
    m.queue_ms.record(v);
    m.fuse_ms.record(v);
    m.execute_ms.record(v);
    m.sample_ms.record(v);
    m.total_ms.record(v * 4);
  }
  m.fused_gates.record(12);
  m.result_bytes.record(4096);
  m.trajectories_per_batch.record(16);
  m.exemplars["total"] = {42, 160.0};
  m.exemplars["execute"] = {42, 40.0};

  const std::string text = m.to_prom_text();
  validate_prom_text(text);

  // The exemplar annotations are comment lines carrying the slowest corr.
  EXPECT_NE(
      text.find("# EXEMPLAR qhip_engine_stage_latency_ms{stage=\"total\"} "
                "corr=42"),
      std::string::npos);
}

TEST(PromFormat, LiveEngineScrapePassesTheValidator) {
  rqc::RqcOptions ropt;
  ropt.rows = 2;
  ropt.cols = 3;
  ropt.depth = 8;
  ropt.seed = 7;
  engine::EngineOptions opt;
  opt.num_workers = 1;
  opt.planner_candidates = {"cpu", "hip"};
  engine::SimulationEngine eng(opt);
  engine::SimRequest req;
  req.circuit = rqc::generate_rqc(ropt);
  req.backend = "auto";
  req.num_samples = 16;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    req.seed = s;
    const engine::SimResult r = eng.run(req);
    ASSERT_TRUE(r.ok) << r.error;
  }
  validate_prom_text(eng.metrics().to_prom_text());
}

// --- one metrics definition -----------------------------------------------

// Every EngineMetrics field set to a distinct non-zero value.
engine::EngineMetrics every_field_set() {
  engine::EngineMetrics m;
  m.submitted = 1;
  m.completed = 2;
  m.rejected = 3;
  m.result_cache_hits = 4;
  m.retries = 5;
  m.fallbacks = 6;
  m.coalesced_failures = 7;
  m.faults_oom = 8;
  m.faults_backend = 9;
  m.faults_deadline = 10;
  m.fused_cache.hits = 11;
  m.fused_cache.misses = 12;
  m.fused_cache.evictions = 13;
  m.fused_cache.entries = 14;
  m.fused_cache.approx_bytes = 15;
  m.pool_hits = 16;
  m.pool_misses = 17;
  m.pool_discarded = 18;
  m.bytes_pooled = 19;
  m.buffers_pooled = 20;
  m.backends_created = 21;
  m.queue_ms.record(0.5);
  m.fuse_ms.record(1.5);
  m.execute_ms.record(40.0);
  m.sample_ms.record(3.0);
  m.total_ms.record(100.0);
  m.total_ms.record(7.0);
  m.fused_gates.record(12);
  m.result_bytes.record(4096);
  m.trajectories_per_batch.record(16);
  m.expectation_requests = 22;
  m.trajectory_batches = 23;
  m.trajectories_run = 24;
  m.trajectory_early_stops = 25;
  m.planner_decisions = 26;
  m.planner_calibrated_decisions = 27;
  m.planner_observations = 28;
  m.planner_predicted_seconds = 29.5;
  m.planner_observed_seconds = 30.25;
  m.planner_chosen["cpu"] = 31;
  m.planner_chosen["hip"] = 32;
  m.planner_calibration["hip/q20"] = 1.25;
  m.slo_breaches = 33;
  m.snapshots_written = 34;
  m.last_snapshot_path = "snapshot-1-p99-any.trace.json";
  m.exemplars["queue"] = {35, 0.5};
  m.exemplars["fuse"] = {36, 1.5};
  m.exemplars["execute"] = {37, 40.0};
  m.exemplars["sample"] = {38, 3.0};
  m.exemplars["total"] = {39, 100.0};
  return m;
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) out.push_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PromFormat, EveryScalarFamilyHasATraceCounterTwin) {
  const engine::EngineMetrics m = every_field_set();
  const std::string text = m.to_prom_text();
  validate_prom_text(text);
  Tracer t;
  m.to_trace_counters(t);
  const auto counters = t.counters();

  const std::string prefix = "qhip_engine_";
  const std::vector<std::string> lines = sorted_lines(text);
  std::set<std::string> families;  // announced by # TYPE
  for (const std::string& line : lines) {
    if (line.rfind("# TYPE ", 0) == 0) {
      families.insert(line.substr(7, line.find(' ', 7) - 7));
    }
  }
  std::size_t scalars = 0;
  for (const std::string& line : lines) {
    // Scalar samples: unlabeled lines named exactly like their family
    // (histogram _sum/_count lines carry a suffix; labeled families a '{').
    if (line[0] == '#' || line.find('{') != std::string::npos) continue;
    const std::string name = line.substr(0, line.find(' '));
    if (families.count(name) == 0) continue;
    ASSERT_EQ(name.rfind(prefix, 0), 0u) << line;
    const std::string key = "engine/" + name.substr(prefix.size());
    const auto it = counters.find(key);
    ASSERT_NE(it, counters.end()) << "no trace counter " << key;
    // Same value, compared as rendered (the scrape prints %.9g).
    EXPECT_EQ(strfmt("%.9g", it->second), line.substr(name.size() + 1)) << key;
    EXPECT_NE(it->second, 0.0) << key << " left at its default";
    ++scalars;
  }
  EXPECT_EQ(scalars, 30u);
  // Histograms: one bucket counter per non-empty bucket.
  EXPECT_EQ(counters.count("engine/hist/total_ms/le_10.24"), 1u);
  EXPECT_EQ(counters.count("engine/hist/total_ms/le_163.84"), 1u);
  EXPECT_EQ(counters.at("engine/planner/chosen/hip"), 32.0);
  EXPECT_EQ(counters.at("engine/planner/calibration/hip/q20"), 1.25);
}

// tests/prof/testdata/engine_metrics.prom is the scrape of every_field_set()
// from before the metric table: it pins every family name, help text, label
// set and value. Line order is free; the only additions allowed are the two
// fused-cache gauges.
TEST(PromFormat, ScrapeMatchesGoldenPlusFusedCacheGauges) {
  std::ifstream in(QHIP_PROM_GOLDEN);
  ASSERT_TRUE(in.good()) << QHIP_PROM_GOLDEN;
  std::stringstream golden;
  golden << in.rdbuf();

  std::vector<std::string> added;
  std::vector<std::string> kept;
  const std::string text = every_field_set().to_prom_text();
  for (const std::string& line : sorted_lines(text)) {
    const bool fused_gauge =
        line.find("qhip_engine_fused_cache_entries") != std::string::npos ||
        line.find("qhip_engine_fused_cache_bytes") != std::string::npos;
    (fused_gauge ? added : kept).push_back(line);
  }
  EXPECT_EQ(kept, sorted_lines(golden.str()));
  const std::vector<std::string> want = {
      "# HELP qhip_engine_fused_cache_bytes "
      "Matrix payload bytes of the cached fused circuits",
      "# HELP qhip_engine_fused_cache_entries Fused circuits held in the cache",
      "# TYPE qhip_engine_fused_cache_bytes gauge",
      "# TYPE qhip_engine_fused_cache_entries gauge",
      "qhip_engine_fused_cache_bytes 15",
      "qhip_engine_fused_cache_entries 14",
  };
  EXPECT_EQ(added, want);
}

}  // namespace
}  // namespace qhip::prof
