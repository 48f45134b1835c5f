#include "perfbench/src/layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, unsigned permille) {
  const std::size_t rank =
      (static_cast<std::size_t>(permille) * n + 999) / 1000;  // ceil
  return std::clamp<std::size_t>(rank, 1, n);
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool contains(const std::string& s, const char* part) {
  return s.find(part) != std::string::npos;
}

}  // namespace

double percentile(std::vector<double> v, unsigned permille) {
  if (v.empty()) return 0;
  const std::size_t rank = nearest_rank(v.size(), permille);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

std::size_t samples_beyond(std::size_t n, unsigned permille) {
  if (n == 0) return 0;
  return n - nearest_rank(n, permille);
}

unsigned pick_tail_permille(std::size_t n, std::size_t min_beyond) {
  static constexpr unsigned kLadder[] = {999, 990, 950, 900, 750, 670, 500};
  for (unsigned p : kLadder) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0;
}

std::string percentile_label(unsigned permille) {
  char buf[16];
  if (permille % 10 == 0) {
    std::snprintf(buf, sizeof(buf), "p%u", permille / 10);
  } else {
    std::snprintf(buf, sizeof(buf), "p%u.%u", permille / 10, permille % 10);
  }
  return buf;
}

double median_rate(const std::vector<double>& done_s,
                   const std::vector<double>& weight, std::size_t group) {
  std::vector<double> rates;
  double prev = 0;
  for (std::size_t end = group; group > 0 && end <= done_s.size(); end += group) {
    double w = 0;
    for (std::size_t i = end - group; i < end; ++i) w += weight[i];
    const double span = done_s[end - 1] - prev;
    prev = done_s[end - 1];
    if (span > 0) rates.push_back(w / span);
  }
  return percentile(std::move(rates), 500);
}

std::uint64_t counter_delta(std::uint64_t before, std::uint64_t after) {
  return after >= before ? after - before : 0;
}

KernelClass classify_event(const std::string& name, qhip::TraceKind kind) {
  if (kind == qhip::TraceKind::kMemcpy || starts_with(name, "hipMemcpy")) {
    return KernelClass::kMemcpy;
  }
  if (starts_with(name, "ApplyGateH")) return KernelClass::kH;
  if (starts_with(name, "ApplyGateL")) return KernelClass::kL;
  if (contains(name, "Sum") || contains(name, "InnerProduct") ||
      contains(name, "Expectation") || contains(name, "Reduce") ||
      contains(name, "Norm")) {
    return KernelClass::kReduce;
  }
  return KernelClass::kOther;
}

KernelBreakdown reduce_device_events(const std::vector<qhip::TraceEvent>& events,
                                     const std::vector<std::uint64_t>& corrs) {
  KernelBreakdown out;
  for (const auto& e : events) {
    if (e.kind != qhip::TraceKind::kKernel && e.kind != qhip::TraceKind::kMemcpy) {
      continue;
    }
    if (!corrs.empty() &&
        std::find(corrs.begin(), corrs.end(), e.corr) == corrs.end()) {
      continue;
    }
    const double ms = static_cast<double>(e.dur_us) * 1e-3;
    switch (classify_event(e.name, e.kind)) {
      case KernelClass::kH: out.h_ms += ms; break;
      case KernelClass::kL: out.l_ms += ms; break;
      case KernelClass::kReduce: out.reduce_ms += ms; break;
      case KernelClass::kMemcpy: out.memcpy_ms += ms; break;
      case KernelClass::kOther: out.other_ms += ms; break;
    }
    if (e.kind == qhip::TraceKind::kKernel) ++out.launches;
  }
  return out;
}

int SpanRecorder::begin(std::string name, int parent, std::uint64_t request) {
  Span s;
  s.name = std::move(name);
  s.start_us = now_us();
  s.parent = parent;
  s.request = request;
  return add(std::move(s));
}

void SpanRecorder::end(int id) {
  const std::uint64_t t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_us = t;
}

int SpanRecorder::add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::to_json() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"spans\":[";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"start_us\":%llu,\"end_us\":%llu,"
                  "\"parent\":%d,\"request\":%llu}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<unsigned long long>(s.start_us),
                  static_cast<unsigned long long>(s.end_us), s.parent,
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  out += "]}\n";
  return out;
}

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t dur = s.end_us > s.start_us ? s.end_us - s.start_us : 0;
    // Union of the children's intervals clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.start_us;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_us);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    SelfTime& st = out[s.name];
    st.total_ms += static_cast<double>(dur) * 1e-3;
    st.self_ms += static_cast<double>(dur - std::min(covered, dur)) * 1e-3;
    ++st.count;
  }
  return out;
}

}  // namespace perfbench
