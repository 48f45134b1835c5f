// Always-on flight recorder: bounded post-hoc observability.
//
// A full qhip::Tracer keeps every event for the life of the process — fine
// for a bench run, unusable for a serving instance that handles millions of
// requests. The flight recorder keeps a fixed-capacity ring of
// completed-request records (id, kind, backend, planner choice, per-stage
// durations, outcome, attempts, bytes) and, per retained request, a bounded
// buffer of its span and device trace events. From that it can reconstruct
// a full Perfetto-compatible snapshot of the last ~K requests *after* an
// incident — the rocprof-style "what was the GPU doing" timeline of the
// paper's Figures 1 and 6, but rewound on demand instead of armed up front.
//
// Wiring: the recorder exposes a Tracer-compatible capture sink (sink()).
// The engine hands sink() to everything that would otherwise get the
// user-provided Tracer (spans, backends, devices). Events tagged with a
// request correlation id are retained in bounded per-request buffers;
// untagged events and all events are optionally forwarded to a downstream
// Tracer, so enabling full tracing (--trace) behaves exactly as before.
//
// Event retention is two-phase because events for a request arrive both
// before and after the request completes (the serving layer records its
// "serve" span after the engine publishes the result): events for unknown
// correlation ids accumulate in a bounded pending map; record_request()
// moves them into the ring entry; late events for a corr id already in the
// ring are appended to its entry (up to the per-request cap).
//
// Thread-safe; every public method and the capture sink take one mutex.
// Overhead with default capacities is a few hundred nanoseconds per event,
// gated by the BenchGates.FlightRecorderOverhead test (budget: <= 2%).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/prof/trace.h"

namespace qhip::prof {

struct FlightRecorderOptions {
  // Completed-request records retained (ring; oldest overwritten). 0 disables
  // the recorder entirely: capture and record_request become no-ops.
  std::size_t capacity = 256;
  // Trace events retained per request (span + device events). Events beyond
  // the cap are counted in dropped_events() but not stored.
  std::size_t max_events_per_request = 256;
};

// One completed request, as remembered by the flight recorder.
struct RequestRecord {
  std::uint64_t corr = 0;       // request correlation id (SimResult::request_id)
  std::string kind;             // "circuit" / "expectation" / "trajectory"
  std::string backend;          // resolved backend spec, e.g. "hip" / "dist:2"
  std::string planner;          // planner choice detail ("" when not planned)
  std::string outcome;          // the request span's detail: "ok on cpu",
                                // "ok: cache-hit", or the error-code string
  bool ok = false;
  bool cache_hit = false;
  std::uint32_t attempts = 0;
  std::uint64_t bytes = 0;      // result payload bytes
  std::uint64_t submit_us = 0;  // approximate submit time (trace clock)
  double queue_ms = 0;
  double fuse_ms = 0;
  double execute_ms = 0;
  double sample_ms = 0;
  double total_ms = 0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions opt);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Tracer-compatible capture sink. Install wherever a Tracer* is accepted
  // (EngineOptions::tracer, ServerOptions::tracer, backend creation). Events
  // with corr != 0 are retained; everything is forwarded downstream.
  Tracer& sink();

  // Optional full Tracer receiving every event the sink sees (the --trace
  // path). Set before any traffic; not synchronized against capture.
  void set_downstream(Tracer* t);
  Tracer* downstream() const { return downstream_; }

  // Publishes a completed request: claims any pending events for rec.corr
  // into the ring entry, evicting the oldest record when full. Late events
  // arriving after this call are appended to the entry while it lives.
  void record_request(RequestRecord rec);

  // Newest-first copies of the most recent `n` records (all when n == 0).
  std::vector<RequestRecord> recent(std::size_t n = 0) const;

  // All retained trace events, oldest record first (snapshot order).
  std::vector<TraceEvent> events() const;

  // Retained record count (<= capacity).
  std::size_t size() const;
  // Requests ever recorded, including evicted ones.
  std::uint64_t total_recorded() const;
  // Events dropped by the per-request / pending bounds.
  std::uint64_t dropped_events() const;

  // Perfetto-compatible snapshot: the retained events serialized through the
  // same perfetto_trace_json used by Tracer (flow chains included), plus a
  // top-level "flightRecorder" object carrying `reason` and the request
  // records — what qhip_prof reads back out of a snapshot file.
  std::string snapshot_json(const std::string& reason) const;

  // Human-readable table of retained records, newest first (the
  // `{"op":"debug"}` / GET /debug/requests payload).
  std::string text_dump() const;

  // Writes snapshot_json(reason) to `path`; throws qhip::Error on I/O error.
  void write_snapshot(const std::string& path, const std::string& reason) const;

 private:
  class CaptureTracer;
  struct Entry {
    RequestRecord rec;
    std::vector<TraceEvent> events;
  };

  void capture(TraceEvent ev);  // called by CaptureTracer under no lock

  FlightRecorderOptions opt_;
  Tracer* downstream_ = nullptr;
  std::unique_ptr<CaptureTracer> sink_;

  mutable std::mutex mu_;
  std::vector<Entry> ring_;             // capacity slots, next_ is the cursor
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  std::map<std::uint64_t, std::size_t> index_;  // corr -> ring slot
  // Events whose request has not completed yet, bounded by
  // capacity * max_events_per_request across all corr ids.
  std::map<std::uint64_t, std::vector<TraceEvent>> pending_;
  std::size_t pending_events_ = 0;
  std::uint64_t dropped_ = 0;
  // One-slot lookup cache for the hot path: a backend run emits its device
  // events in a burst under one corr id, so consecutive captures hit the
  // same pending_ entry. Invalidated whenever that entry is erased.
  std::uint64_t cached_corr_ = 0;
  std::vector<TraceEvent>* cached_events_ = nullptr;
  // An evicted ring entry's cleared event buffer, handed to the next new
  // pending list: in steady state no event list is reallocated.
  std::vector<TraceEvent> spare_;
};

}  // namespace qhip::prof
