// Reduction helpers of the repository benchmark (perfbench/README.md):
// percentiles and tail selection, ratios with their base, classing of
// virtual-GPU trace events by kernel name, and the benchmark's own span
// recorder with per-layer self time. Kept free of workload code so the
// benchmark's tests can exercise them on canned inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/prof/trace.h"

namespace perfbench {

// Nearest-rank percentile of `v` (unsorted). `permille` is the percentile in
// tenths of a percent (500 = median, 990 = p99), so the rank is computed in
// integers: rank = ceil(permille * n / 1000), value = sorted[rank - 1].
// Returns 0 for an empty sample.
double percentile(std::vector<double> v, unsigned permille);

// Samples strictly past the nearest-rank percentile: n - rank.
std::size_t samples_beyond(std::size_t n, unsigned permille);

// The highest percentile of a fixed ladder (p99.9, p99, p95, p90, p75, p67,
// p50) that has at least `min_beyond` samples beyond it in a sample of size
// n; 0 when even the median does not qualify.
unsigned pick_tail_permille(std::size_t n, std::size_t min_beyond = 10);

// "p99", "p99.9", "p67" for a permille value.
std::string percentile_label(unsigned permille);

// Median completion rate of a closed loop, robust to a transient stall of
// the machine. `done_s[i]` is when completion i ended (seconds since the loop
// started, ascending) and `weight[i]` how much it counts (1 for every
// request, 0 or 1 to count a subset). The intervals are consecutive groups of
// `group` completions, each rate being the group's weight over the time since
// the previous group ended; a trailing partial group is dropped.
double median_rate(const std::vector<double>& done_s,
                   const std::vector<double>& weight, std::size_t group);

// A ratio reported together with its base: hits / base, 0 when base is 0.
struct Ratio {
  std::uint64_t hits = 0;
  std::uint64_t base = 0;
  double value() const {
    return base == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(base);
  }
};

// Difference of two monotone counters (after - before), never negative.
std::uint64_t counter_delta(std::uint64_t before, std::uint64_t after);

// Device event classes of the paper's rocprof reading (Figures 1 and 6):
// the high- and low-qubit gate kernels, reductions (norms, inner products,
// expectation values), memory copies, and everything else (fills, scaling,
// gathers, sampling resolution, multi-GCD pack/unpack).
enum class KernelClass { kH, kL, kReduce, kMemcpy, kOther };

KernelClass classify_event(const std::string& name, qhip::TraceKind kind);

struct KernelBreakdown {
  double h_ms = 0;
  double l_ms = 0;
  double reduce_ms = 0;
  double memcpy_ms = 0;
  double other_ms = 0;
  std::uint64_t launches = 0;  // kernel events of any class
};

// Sums the kernel and memcpy events of `events` whose correlation id is in
// `corrs` (all device events when `corrs` is empty). Spans and host events
// are ignored.
KernelBreakdown reduce_device_events(const std::vector<qhip::TraceEvent>& events,
                                     const std::vector<std::uint64_t>& corrs = {});

// One benchmark-side span: a call into a layer, timed from outside.
struct Span {
  std::string name;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  int parent = -1;           // index of the enclosing span, -1 for a root
  std::uint64_t request = 0; // benchmark request id shared by a request's spans
};

// In-memory span store, written out once at the end of a traced run.
// Thread-safe: serve clients record from their own threads.
class SpanRecorder {
 public:
  // Opens a span now and returns its id.
  int begin(std::string name, int parent, std::uint64_t request);
  // Closes span `id` now.
  void end(int id);
  // Adds a span with explicit times.
  int add(Span s);

  std::vector<Span> spans() const;
  // {"spans":[{"name":..,"start_us":..,"end_us":..,"parent":..,"request":..}]}
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Per span name: the summed self time in ms (duration minus the part of its
// interval covered by its direct children) and the number of spans.
struct SelfTime {
  double self_ms = 0;
  double total_ms = 0;
  std::size_t count = 0;
};
std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
