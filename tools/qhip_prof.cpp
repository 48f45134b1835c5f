// qhip_prof — rocprof-style offline analysis of qhip trace JSON.
//
// The paper profiles the HIP backend with rocprof and reads the results as
// a top-kernel table (Figure 6: ApplyGateL_Kernel dominating ApplyGateH_
// Kernel) plus Perfetto timelines. This tool reproduces that workflow
// offline over the trace JSON our own Tracer writes (`qsim_base_hip -t
// trace.json`, engine batch mode, tests):
//
//   qhip_prof trace.json                top-kernel + memcpy table
//   qhip_prof --requests trace.json     + per-request critical-path breakdown
//   qhip_prof --slowest N trace.json    + the N slowest requests, worst first
//   qhip_prof --top N trace.json        limit tables to N rows
//
// The top table matches Tracer::summary(): per name, count / total us /
// mean us / share of the covered wall time. With --requests, every request
// span tree (admit/queue/fuse/execute/sample under one "request" row) is
// unfolded, with the kernels and memcpys its flow links resolve to;
// --slowest prints the same trees for the N longest enclosing spans.
//
// Flight-recorder snapshots (snapshot-*.trace.json, written on SLO breach
// or GET /debug/snapshot — docs/OBSERVABILITY.md) parse with the same
// reader; their completed-request record ring prints as a table before the
// kernel aggregates.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/base/error.h"
#include "src/prof/trace_reader.h"

namespace {

using qhip::prof::ParsedEvent;
using qhip::prof::ParsedTrace;

struct Row {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t bytes = 0;
};

// Aggregates X events of category `cat` by name, descending total time.
std::vector<Row> aggregate(const ParsedTrace& t, const std::string& cat) {
  std::map<std::string, Row> by_name;
  for (const ParsedEvent& e : t.events) {
    if (e.cat != cat) continue;
    Row& r = by_name[e.name];
    r.name = e.name;
    ++r.count;
    r.total_us += e.dur_us;
    r.bytes += e.bytes;
  }
  std::vector<Row> rows;
  rows.reserve(by_name.size());
  for (auto& [name, r] : by_name) rows.push_back(std::move(r));
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.total_us != b.total_us ? a.total_us > b.total_us
                                    : a.name < b.name;
  });
  return rows;
}

void print_table(const char* title, const std::vector<Row>& rows,
                 std::size_t top) {
  if (rows.empty()) return;
  std::uint64_t grand = 0;
  for (const Row& r : rows) grand += r.total_us;
  std::printf("%s\n", title);
  std::printf("  %-32s %8s %12s %10s %7s\n", "name", "count", "total_us",
              "mean_us", "%");
  std::size_t shown = 0;
  for (const Row& r : rows) {
    if (shown++ >= top) break;
    const double mean =
        r.count > 0 ? static_cast<double>(r.total_us) / r.count : 0;
    const double share =
        grand > 0 ? 100.0 * static_cast<double>(r.total_us) / grand : 0;
    std::printf("  %-32s %8llu %12llu %10.1f %6.1f%%\n", r.name.c_str(),
                static_cast<unsigned long long>(r.count),
                static_cast<unsigned long long>(r.total_us), mean, share);
  }
  if (rows.size() > top) {
    std::printf("  ... %zu more rows (raise --top)\n", rows.size() - top);
  }
  std::printf("\n");
}

// Request spans grouped by correlation id, each with its flow-linked device
// events. `anchor` is the enclosing "request" span — the longest one.
struct RequestTree {
  std::vector<const ParsedEvent*> spans;    // kSpan X events, by start time
  std::vector<const ParsedEvent*> devices;  // flow-linked kernels/memcpys
  const ParsedEvent* anchor = nullptr;
};

std::map<std::uint64_t, RequestTree> build_request_trees(
    const ParsedTrace& t) {
  std::map<std::uint64_t, RequestTree> reqs;
  for (const ParsedEvent& e : t.events) {
    if (e.corr == 0) continue;
    if (e.cat == "request") {
      reqs[e.corr].spans.push_back(&e);
    } else if (e.cat == "kernel" || e.cat == "memcpy") {
      reqs[e.corr].devices.push_back(&e);
    }
  }
  auto by_start = [](const ParsedEvent* a, const ParsedEvent* b) {
    return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
  };
  for (auto& [corr, tree] : reqs) {
    std::sort(tree.spans.begin(), tree.spans.end(), by_start);
    std::sort(tree.devices.begin(), tree.devices.end(), by_start);
    for (const ParsedEvent* s : tree.spans) {
      if (tree.anchor == nullptr || s->dur_us > tree.anchor->dur_us) {
        tree.anchor = s;
      }
    }
  }
  return reqs;
}

// One request's span tree with per-stage offsets and its device-event
// rollup. Shared by --requests (all requests, id order) and --slowest
// (top N by enclosing span).
void print_one_request(std::uint64_t corr, const RequestTree& tree,
                       const std::set<std::uint64_t>& flow_ids) {
  const ParsedEvent* anchor = tree.anchor;
  std::printf("  request %llu: %llu us%s%s%s\n",
              static_cast<unsigned long long>(corr),
              static_cast<unsigned long long>(anchor ? anchor->dur_us : 0),
              anchor && !anchor->detail.empty() ? " [" : "",
              anchor ? anchor->detail.c_str() : "",
              anchor && !anchor->detail.empty() ? "]" : "");
  for (const ParsedEvent* s : tree.spans) {
    if (s == anchor) continue;
    std::printf("    %-12s %10llu us  +%llu us%s%s%s\n", s->name.c_str(),
                static_cast<unsigned long long>(s->dur_us),
                static_cast<unsigned long long>(
                    anchor && s->ts_us >= anchor->ts_us
                        ? s->ts_us - anchor->ts_us
                        : 0),
                s->detail.empty() ? "" : "  [",
                s->detail.c_str(), s->detail.empty() ? "" : "]");
  }
  std::uint64_t dev_us = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> dev;
  for (const ParsedEvent* d : tree.devices) {
    dev_us += d->dur_us;
    auto& [cnt, us] = dev[d->name];
    ++cnt;
    us += d->dur_us;
  }
  std::printf("    device: %zu events, %llu us total%s\n",
              tree.devices.size(),
              static_cast<unsigned long long>(dev_us),
              flow_ids.count(corr) ? ", flow-linked" : "");
  for (const auto& [name, cu] : dev) {
    std::printf("      %-30s %6llu x %10llu us\n", name.c_str(),
                static_cast<unsigned long long>(cu.first),
                static_cast<unsigned long long>(cu.second));
  }
}

std::set<std::uint64_t> flow_id_set(const ParsedTrace& t) {
  // A request is flow-linked when any s/t/f vertex carries its id.
  std::set<std::uint64_t> flow_ids;
  for (const ParsedEvent& f : t.flows) flow_ids.insert(f.corr);
  return flow_ids;
}

void print_requests(const ParsedTrace& t, std::size_t top) {
  const std::map<std::uint64_t, RequestTree> reqs = build_request_trees(t);
  const std::set<std::uint64_t> flow_ids = flow_id_set(t);

  std::printf("requests (%zu)\n", reqs.size());
  std::size_t shown = 0;
  for (const auto& [corr, tree] : reqs) {
    if (shown++ >= top) {
      std::printf("  ... %zu more requests (raise --top)\n",
                  reqs.size() - top);
      break;
    }
    print_one_request(corr, tree, flow_ids);
  }
  std::printf("\n");
}

void print_slowest(const ParsedTrace& t, std::size_t n) {
  const std::map<std::uint64_t, RequestTree> reqs = build_request_trees(t);
  const std::set<std::uint64_t> flow_ids = flow_id_set(t);

  std::vector<const std::pair<const std::uint64_t, RequestTree>*> order;
  order.reserve(reqs.size());
  for (const auto& kv : reqs) order.push_back(&kv);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    const std::uint64_t da = a->second.anchor ? a->second.anchor->dur_us : 0;
    const std::uint64_t db = b->second.anchor ? b->second.anchor->dur_us : 0;
    return da != db ? da > db : a->first < b->first;
  });

  std::printf("slowest %zu of %zu requests\n", std::min(n, order.size()),
              order.size());
  std::size_t shown = 0;
  for (const auto* kv : order) {
    if (shown++ >= n) break;
    print_one_request(kv->first, kv->second, flow_ids);
  }
  std::printf("\n");
}

// The record ring a snapshot carries next to its trace events. The first
// line is a stable marker ("flight recorder snapshot") that scripts — the
// CI snapshot smoke among them — grep for.
void print_flight_records(const ParsedTrace& t) {
  std::printf("flight recorder snapshot: reason=%s records=%zu "
              "dropped_events=%llu\n",
              t.snapshot_reason.c_str(), t.flight_records.size(),
              static_cast<unsigned long long>(t.snapshot_dropped_events));
  std::printf("  %-6s %-11s %-10s %-26s %3s %10s %8s %8s %8s %8s %10s\n",
              "corr", "kind", "backend", "outcome", "att", "total_ms",
              "queue", "fuse", "exec", "sample", "bytes");
  for (const auto& r : t.flight_records) {
    std::printf(
        "  %-6llu %-11s %-10s %-26s %3llu %10.3f %8.3f %8.3f %8.3f %8.3f "
        "%10llu\n",
        static_cast<unsigned long long>(r.corr), r.kind.c_str(),
        r.backend.c_str(), r.outcome.c_str(),
        static_cast<unsigned long long>(r.attempts), r.total_ms, r.queue_ms,
        r.fuse_ms, r.execute_ms, r.sample_ms,
        static_cast<unsigned long long>(r.bytes));
    if (!r.planner.empty()) {
      std::printf("         planner=%s\n", r.planner.c_str());
    }
  }
  std::printf("\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: qhip_prof [--requests] [--slowest N] [--top N] "
               "<trace.json>\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool requests = false;
  std::size_t top = 20;
  std::size_t slowest = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--requests") {
      requests = true;
    } else if (arg == "--top") {
      if (++i >= argc) return usage();
      top = static_cast<std::size_t>(std::strtoul(argv[i], nullptr, 10));
      if (top == 0) return usage();
    } else if (arg == "--slowest") {
      if (++i >= argc) return usage();
      slowest = static_cast<std::size_t>(std::strtoul(argv[i], nullptr, 10));
      if (slowest == 0) return usage();
    } else if (path.empty() && !arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  try {
    const ParsedTrace t = qhip::prof::read_trace_file(path);
    std::printf("%s: %zu events, %zu flow vertices, %zu counters\n\n",
                path.c_str(), t.events.size(), t.flows.size(),
                t.counters.size());
    if (!t.snapshot_reason.empty() || !t.flight_records.empty()) {
      print_flight_records(t);
    }
    print_table("top kernels", aggregate(t, "kernel"), top);
    print_table("memcpys", aggregate(t, "memcpy"), top);
    print_table("host", aggregate(t, "host"), top);
    if (requests) print_requests(t, top);
    if (slowest > 0) print_slowest(t, slowest);
    if (!t.counters.empty()) {
      std::printf("counters\n");
      for (const auto& [name, v] : t.counters) {
        std::printf("  %-44s %.6g\n", name.c_str(), v);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qhip_prof: %s\n", e.what());
    return 1;
  }
}
