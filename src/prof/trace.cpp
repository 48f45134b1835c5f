#include "src/prof/trace.h"

#include <algorithm>
#include <fstream>

#include "src/base/error.h"
#include "src/base/json.h"
#include "src/base/timer.h"

namespace qhip {

namespace {

const char* kind_category(TraceKind k) {
  switch (k) {
    case TraceKind::kKernel: return "kernel";
    case TraceKind::kMemcpy: return "memcpy";
    case TraceKind::kHost: return "host";
    case TraceKind::kSpan: return "request";
  }
  return "unknown";
}

// One flow-chain vertex: "ph":"s"/"t"/"f" stamped inside the slice it binds
// to (same pid/tid, ts within the slice).
void append_flow_event(std::string& out, const char* ph, std::uint64_t id,
                       int tid, std::uint64_t ts, bool enclosing_binding) {
  out += "{\"name\":\"request\",\"cat\":\"flow\",\"ph\":\"";
  out += ph;
  out += "\",\"id\":";
  out += std::to_string(id);
  out += ",\"pid\":1,\"tid\":";
  out += std::to_string(tid);
  out += ",\"ts\":";
  out += std::to_string(ts);
  if (enclosing_binding) out += ",\"bp\":\"e\"";
  out += "}";
}

}  // namespace

void Tracer::record(std::string name, TraceKind kind, std::uint64_t ts_us,
                    std::uint64_t dur_us, int lane, std::uint64_t bytes,
                    std::uint64_t corr, std::string detail) {
  std::lock_guard lk(mu_);
  events_.push_back({std::move(name), kind, ts_us, dur_us, lane, bytes, corr,
                     std::move(detail)});
}

std::size_t Tracer::size() const {
  std::lock_guard lk(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard lk(mu_);
  return events_;
}

void Tracer::set_counter(const std::string& name, double value) {
  std::lock_guard lk(mu_);
  counters_[name] = value;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

std::vector<TraceSummaryRow> Tracer::summary() const {
  std::map<std::string, TraceSummaryRow> agg;
  {
    std::lock_guard lk(mu_);
    for (const auto& e : events_) {
      auto& row = agg[e.name];
      row.name = e.name;
      ++row.count;
      row.total_us += e.dur_us;
      row.total_bytes += e.bytes;
    }
  }
  std::vector<TraceSummaryRow> rows;
  rows.reserve(agg.size());
  for (auto& [_, row] : agg) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.total_us > b.total_us; });
  return rows;
}

std::string Tracer::to_perfetto_json() const {
  return perfetto_trace_json(events(), counters(), Timer::now_micros());
}

std::string perfetto_trace_json(const std::vector<TraceEvent>& evs,
                                const std::map<std::string, double>& cnts,
                                std::uint64_t counter_ts_us,
                                const std::string& extra_json) {
  std::string out;
  out.reserve(evs.size() * 160 + cnts.size() * 96 + extra_json.size() + 64);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& e : evs) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    json_escape(e.name, &out);
    out += "\",\"cat\":\"";
    out += kind_category(e.kind);
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(e.lane);
    out += ",\"ts\":";
    out += std::to_string(e.ts_us);
    out += ",\"dur\":";
    out += std::to_string(e.dur_us);
    out += ",\"args\":{\"bytes\":";
    out += std::to_string(e.bytes);
    if (e.corr != 0) {
      out += ",\"corr\":";
      out += std::to_string(e.corr);
    }
    if (!e.detail.empty()) {
      out += ",\"detail\":\"";
      json_escape(e.detail, &out);
      out += "\"";
    }
    out += "}}";
  }

  // Flow chains: for each correlation id with at least one span and one
  // device event, link the request span ("s") through its kernel/memcpy
  // events ("t" steps, final "f"). This is what lets Perfetto highlight a
  // request's kernels from its span and qhip_prof attribute device time.
  struct FlowGroup {
    const TraceEvent* anchor = nullptr;        // the request span
    std::vector<const TraceEvent*> device;     // kernels + memcpys, by ts
  };
  std::map<std::uint64_t, FlowGroup> flows;
  for (const auto& e : evs) {
    if (e.corr == 0) continue;
    FlowGroup& g = flows[e.corr];
    if (e.kind == TraceKind::kSpan) {
      // The enclosing request span is the longest span of the group (ties
      // broken toward the earliest start).
      if (g.anchor == nullptr || e.dur_us > g.anchor->dur_us ||
          (e.dur_us == g.anchor->dur_us && e.ts_us < g.anchor->ts_us)) {
        g.anchor = &e;
      }
    } else if (e.kind == TraceKind::kKernel || e.kind == TraceKind::kMemcpy) {
      g.device.push_back(&e);
    }
  }
  for (auto& [corr, g] : flows) {
    if (g.anchor == nullptr || g.device.empty()) continue;
    std::sort(g.device.begin(), g.device.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->ts_us != b->ts_us ? a->ts_us < b->ts_us
                                            : a->dur_us > b->dur_us;
              });
    out += ",\n";
    append_flow_event(out, "s", corr, g.anchor->lane, g.anchor->ts_us, false);
    for (std::size_t i = 0; i + 1 < g.device.size(); ++i) {
      out += ",\n";
      append_flow_event(out, "t", corr, g.device[i]->lane, g.device[i]->ts_us,
                        false);
    }
    out += ",\n";
    append_flow_event(out, "f", corr, g.device.back()->lane,
                      g.device.back()->ts_us, true);
  }

  for (const auto& [name, value] : cnts) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    json_escape(name, &out);
    out += "\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"ts\":";
    out += std::to_string(counter_ts_us);
    out += ",\"args\":{\"value\":";
    out += json_double(value);
    out += "}}";
  }
  out += "\n]";
  out += extra_json;
  out += "}\n";
  return out;
}

void Tracer::write_perfetto_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  check(f.good(), "Tracer: cannot open '" + path + "' for writing");
  const std::string json = to_perfetto_json();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  check(f.good(), "Tracer: write to '" + path + "' failed");
}

void Tracer::clear() {
  std::lock_guard lk(mu_);
  events_.clear();
  counters_.clear();
}

ScopedTrace::ScopedTrace(Tracer* tracer, std::string name, TraceKind kind, int lane,
                         std::uint64_t bytes, std::uint64_t corr,
                         std::string detail)
    : tracer_(tracer),
      name_(std::move(name)),
      kind_(kind),
      lane_(lane),
      bytes_(bytes),
      corr_(corr),
      detail_(std::move(detail)),
      start_us_(tracer ? Timer::now_micros() : 0) {}

ScopedTrace::~ScopedTrace() {
  if (!tracer_) return;
  const std::uint64_t end = Timer::now_micros();
  tracer_->record(std::move(name_), kind_, start_us_, end - start_us_, lane_,
                  bytes_, corr_, std::move(detail_));
}

}  // namespace qhip
