// Reader for the Chrome trace-event JSON that Tracer::to_perfetto_json()
// (and, shape-wise, rocprof) emits. This is the parsing half of the
// qhip_prof workflow: load a trace written by `qsim_base_hip -t`, rebuild
// the event list, counters, and request flow links, and aggregate them into
// the rocprof-style tables of Figure 6.
//
// The reader walks the shared JSON DOM (src/base/json.h) and accepts the
// general trace-event format — an object with a "traceEvents" array or a
// bare array — ignoring fields and phases it does not model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qhip::prof {

// One "ph":"X" complete event or "ph":"s"/"t"/"f" flow vertex.
struct ParsedEvent {
  std::string name;
  std::string cat;    // "kernel" | "memcpy" | "host" | "request" | "flow" ...
  std::string ph;     // "X", "s", "t", "f"
  int tid = 0;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t bytes = 0;
  std::uint64_t corr = 0;  // args.corr for X events, flow id for s/t/f
  std::string detail;      // args.detail
};

// One completed-request record from a flight-recorder snapshot's
// "flightRecorder" member (src/prof/flight_recorder.h).
struct FlightRecord {
  std::uint64_t corr = 0;
  std::string kind;
  std::string backend;
  std::string planner;
  std::string outcome;
  bool ok = false;
  bool cache_hit = false;
  std::uint64_t attempts = 0;
  std::uint64_t bytes = 0;
  std::uint64_t submit_us = 0;
  double queue_ms = 0;
  double fuse_ms = 0;
  double execute_ms = 0;
  double sample_ms = 0;
  double total_ms = 0;
};

struct ParsedTrace {
  std::vector<ParsedEvent> events;  // "ph":"X" in file order
  std::vector<ParsedEvent> flows;   // "ph":"s"/"t"/"f" in file order
  std::map<std::string, double> counters;  // "ph":"C" name -> last value
  // Present only when the file is a flight-recorder snapshot
  // (FlightRecorder::snapshot_json). Records are newest-first.
  std::string snapshot_reason;
  std::uint64_t snapshot_dropped_events = 0;
  std::vector<FlightRecord> flight_records;
};

// Parses trace JSON text. Throws CodedError(kMalformedInput) on malformed
// JSON or a missing traceEvents array.
ParsedTrace parse_trace_json(const std::string& json);

// Reads and parses `path`. Throws qhip::Error on I/O or parse failure.
ParsedTrace read_trace_file(const std::string& path);

}  // namespace qhip::prof
