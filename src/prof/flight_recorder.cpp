#include "src/prof/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/base/error.h"
#include "src/base/json.h"
#include "src/base/timer.h"

namespace qhip::prof {

// The Tracer-compatible front door: retains corr-tagged events in the
// recorder's bounded buffers and forwards everything to the optional
// downstream Tracer, so --trace keeps its full unbounded timeline.
class FlightRecorder::CaptureTracer : public Tracer {
 public:
  explicit CaptureTracer(FlightRecorder* rec) : rec_(rec) {}

  void record(std::string name, TraceKind kind, std::uint64_t ts_us,
              std::uint64_t dur_us, int lane, std::uint64_t bytes,
              std::uint64_t corr, std::string detail) override {
    if (Tracer* t = rec_->downstream_) {
      t->record(name, kind, ts_us, dur_us, lane, bytes, corr, detail);
    }
    if (corr == 0 || rec_->opt_.capacity == 0) return;
    rec_->capture({std::move(name), kind, ts_us, dur_us, lane, bytes, corr,
                   std::move(detail)});
  }

  void set_counter(const std::string& name, double value) override {
    if (Tracer* t = rec_->downstream_) t->set_counter(name, value);
  }

 private:
  FlightRecorder* rec_;
};

FlightRecorder::FlightRecorder(FlightRecorderOptions opt)
    : opt_(opt), sink_(std::make_unique<CaptureTracer>(this)) {
  ring_.reserve(opt_.capacity);
}

FlightRecorder::~FlightRecorder() = default;

Tracer& FlightRecorder::sink() { return *sink_; }

void FlightRecorder::set_downstream(Tracer* t) { downstream_ = t; }

void FlightRecorder::capture(TraceEvent ev) {
  std::lock_guard lk(mu_);
  const std::size_t bound = opt_.capacity * opt_.max_events_per_request;
  // Hot path: consecutive events of one in-flight request (a backend run's
  // device-event burst) skip both map lookups.
  if (ev.corr == cached_corr_ && cached_events_ != nullptr &&
      pending_events_ < bound) {
    if (cached_events_->size() >= opt_.max_events_per_request) {
      ++dropped_;
      return;
    }
    cached_events_->push_back(std::move(ev));
    ++pending_events_;
    return;
  }
  // Completed request still in the ring: append in place. This is the path
  // late events take — the serving layer records its "serve" span after the
  // engine has already published the request record.
  if (const auto it = index_.find(ev.corr); it != index_.end()) {
    auto& entry = ring_[it->second];
    if (entry.events.size() < opt_.max_events_per_request) {
      entry.events.push_back(std::move(ev));
    } else {
      ++dropped_;
    }
    return;
  }
  // In-flight request: park in the pending map, bounded both per request and
  // in total. When the total bound is hit, the smallest pending corr id is
  // evicted — correlation ids are issued monotonically, so that is the
  // longest-waiting (likely abandoned) request.
  const auto it = pending_.find(ev.corr);
  if (it != pending_.end() &&
      it->second.size() >= opt_.max_events_per_request) {
    ++dropped_;
    return;
  }
  if (pending_events_ >= bound) {
    auto oldest = pending_.begin();
    if (oldest->first == ev.corr) {
      ++dropped_;
      return;
    }
    if (oldest->first == cached_corr_) cached_events_ = nullptr;
    pending_events_ -= oldest->second.size();
    dropped_ += oldest->second.size();
    pending_.erase(oldest);
  }
  auto& events = pending_[ev.corr];
  if (events.empty()) events.swap(spare_);  // reuse an evicted entry's buffer
  cached_corr_ = ev.corr;
  cached_events_ = &events;  // map node pointers are stable until erase
  events.push_back(std::move(ev));
  ++pending_events_;
}

void FlightRecorder::record_request(RequestRecord rec) {
  std::lock_guard lk(mu_);
  ++total_;
  if (opt_.capacity == 0) return;

  std::size_t slot;
  if (ring_.size() < opt_.capacity) {
    slot = ring_.size();
    ring_.emplace_back();
  } else {
    slot = next_;
    next_ = (next_ + 1) % opt_.capacity;
    index_.erase(ring_[slot].rec.corr);  // evict the overwritten record
    ring_[slot].events.clear();
  }

  Entry& e = ring_[slot];
  e.rec = std::move(rec);
  if (const auto it = pending_.find(e.rec.corr); it != pending_.end()) {
    if (e.rec.corr == cached_corr_) cached_events_ = nullptr;
    pending_events_ -= it->second.size();
    // capture() caps each pending list at max_events_per_request, so the
    // whole list moves over; the slot's emptied buffer is kept for the next
    // request's pending list instead of reallocating it.
    e.events.swap(it->second);
    spare_ = std::move(it->second);
    spare_.clear();
    pending_.erase(it);
  }
  index_[e.rec.corr] = slot;
}

namespace {

// Ring slots in arrival order: when the ring has wrapped, `next` points at
// the slot holding the oldest record.
std::vector<std::size_t> oldest_first(std::size_t size, std::size_t capacity,
                                      std::size_t next) {
  std::vector<std::size_t> slots;
  slots.reserve(size);
  if (size < capacity) {
    for (std::size_t i = 0; i < size; ++i) slots.push_back(i);
  } else {
    for (std::size_t k = 0; k < capacity; ++k) {
      slots.push_back((next + k) % capacity);
    }
  }
  return slots;
}

}  // namespace

std::vector<RequestRecord> FlightRecorder::recent(std::size_t n) const {
  std::lock_guard lk(mu_);
  const auto slots = oldest_first(ring_.size(), opt_.capacity, next_);
  std::vector<RequestRecord> out;
  const std::size_t want = n == 0 ? slots.size() : std::min(n, slots.size());
  out.reserve(want);
  for (auto it = slots.rbegin(); it != slots.rend() && out.size() < want; ++it) {
    out.push_back(ring_[*it].rec);
  }
  return out;
}

std::vector<TraceEvent> FlightRecorder::events() const {
  std::lock_guard lk(mu_);
  std::vector<TraceEvent> out;
  for (std::size_t slot : oldest_first(ring_.size(), opt_.capacity, next_)) {
    const auto& evs = ring_[slot].events;
    out.insert(out.end(), evs.begin(), evs.end());
  }
  return out;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard lk(mu_);
  return ring_.size();
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard lk(mu_);
  return total_;
}

std::uint64_t FlightRecorder::dropped_events() const {
  std::lock_guard lk(mu_);
  return dropped_;
}

std::string FlightRecorder::snapshot_json(const std::string& reason) const {
  std::vector<TraceEvent> evs = events();
  const std::vector<RequestRecord> recs = recent();
  std::uint64_t dropped;
  {
    std::lock_guard lk(mu_);
    dropped = dropped_;
  }

  std::string extra = ",\"flightRecorder\":{\"reason\":\"";
  json_escape(reason, &extra);
  extra += "\",\"dropped_events\":";
  extra += std::to_string(dropped);
  extra += ",\"records\":[";
  bool first = true;
  for (const auto& r : recs) {  // newest first, matching text_dump()
    if (!first) extra += ",";
    first = false;
    extra += "{\"corr\":";
    extra += std::to_string(r.corr);
    extra += ",\"kind\":\"";
    json_escape(r.kind, &extra);
    extra += "\",\"backend\":\"";
    json_escape(r.backend, &extra);
    extra += "\",\"planner\":\"";
    json_escape(r.planner, &extra);
    extra += "\",\"outcome\":\"";
    json_escape(r.outcome, &extra);
    extra += "\",\"ok\":";
    extra += r.ok ? "true" : "false";
    extra += ",\"cache_hit\":";
    extra += r.cache_hit ? "true" : "false";
    extra += ",\"attempts\":";
    extra += std::to_string(r.attempts);
    extra += ",\"bytes\":";
    extra += std::to_string(r.bytes);
    extra += ",\"submit_us\":";
    extra += std::to_string(r.submit_us);
    extra += ",\"queue_ms\":";
    extra += json_double(r.queue_ms);
    extra += ",\"fuse_ms\":";
    extra += json_double(r.fuse_ms);
    extra += ",\"execute_ms\":";
    extra += json_double(r.execute_ms);
    extra += ",\"sample_ms\":";
    extra += json_double(r.sample_ms);
    extra += ",\"total_ms\":";
    extra += json_double(r.total_ms);
    extra += "}";
  }
  extra += "]}";
  return perfetto_trace_json(evs, {}, Timer::now_micros(), extra);
}

std::string FlightRecorder::text_dump() const {
  const std::vector<RequestRecord> recs = recent();
  std::string out = "flight recorder: " + std::to_string(recs.size()) +
                    " retained";
  {
    std::lock_guard lk(mu_);
    out += " of " + std::to_string(total_) + " total";
    if (dropped_ > 0) {
      out += " (" + std::to_string(dropped_) + " events dropped)";
    }
  }
  out += "\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "%8s %-11s %-10s %-26s %3s %10s %9s %9s %9s %9s %10s\n",
                "corr", "kind", "backend", "outcome", "att", "total_ms",
                "queue_ms", "fuse_ms", "exec_ms", "sample_ms", "bytes");
  out += line;
  for (const auto& r : recs) {
    std::snprintf(line, sizeof(line),
                  "%8llu %-11s %-10s %-26s %3u %10.3f %9.3f %9.3f %9.3f %9.3f "
                  "%10llu",
                  static_cast<unsigned long long>(r.corr), r.kind.c_str(),
                  r.backend.c_str(), r.outcome.c_str(), r.attempts, r.total_ms,
                  r.queue_ms, r.fuse_ms, r.execute_ms, r.sample_ms,
                  static_cast<unsigned long long>(r.bytes));
    out += line;
    if (!r.planner.empty()) {
      out += "  planner=";
      out += r.planner;
    }
    out += "\n";
  }
  return out;
}

void FlightRecorder::write_snapshot(const std::string& path,
                                    const std::string& reason) const {
  std::ofstream f(path, std::ios::binary);
  check(f.good(), "FlightRecorder: cannot open '" + path + "' for writing");
  const std::string json = snapshot_json(reason);
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  check(f.good(), "FlightRecorder: write to '" + path + "' failed");
}

}  // namespace qhip::prof
