#include "src/prof/trace_reader.h"

#include <climits>
#include <cmath>
#include <fstream>

#include "src/base/error.h"
#include "src/base/json.h"

namespace qhip::prof {

namespace {

// Typed field reads off the shared JSON DOM: a missing or mistyped field
// yields `dflt`, so a hostile trace degrades field by field instead of
// failing the whole parse.
std::string str_or(const JsonValue& obj, const std::string& key, std::string dflt) {
  const JsonValue* f = obj.find(key);
  return f != nullptr && f->type == JsonType::kString ? f->str : dflt;
}

double num_or(const JsonValue& obj, const std::string& key, double dflt) {
  const JsonValue* f = obj.find(key);
  return f != nullptr && f->type == JsonType::kNumber ? f->number : dflt;
}

bool bool_or(const JsonValue& obj, const std::string& key, bool dflt) {
  const JsonValue* f = obj.find(key);
  return f != nullptr && f->type == JsonType::kBool ? f->boolean : dflt;
}

// Hostile-input clamps: a double->integer cast is UB when the value is NaN
// or outside the target range, and nothing stops a hand-edited (or
// truncated-and-patched) trace from carrying "ts":-1 or "dur":1e300. Clamp
// instead of crashing; a profile built from garbage fields is still more
// useful than an aborted run.
std::uint64_t clamp_u64(double v) {
  if (std::isnan(v) || v <= 0) return 0;
  constexpr double kMax = 18446744073709549568.0;  // largest double < 2^64
  if (v >= kMax) return UINT64_MAX;
  return static_cast<std::uint64_t>(v);
}

int clamp_int(double v) {
  if (std::isnan(v)) return 0;
  if (v <= static_cast<double>(INT_MIN)) return INT_MIN;
  if (v >= static_cast<double>(INT_MAX)) return INT_MAX;
  return static_cast<int>(v);
}

// Parses the "flightRecorder" member a snapshot carries next to its
// traceEvents (FlightRecorder::snapshot_json). Missing or mistyped fields
// fall back to zero values — the record table degrades, the parse survives.
void parse_flight_recorder(const JsonValue& fr, ParsedTrace* out) {
  if (fr.type != JsonType::kObject) return;
  out->snapshot_reason = str_or(fr, "reason", "");
  if (out->snapshot_reason.empty()) out->snapshot_reason = "unknown";
  out->snapshot_dropped_events = clamp_u64(num_or(fr, "dropped_events", 0));
  const JsonValue* recs = fr.find("records");
  if (recs == nullptr || recs->type != JsonType::kArray) return;
  for (const JsonPtr& item : recs->items) {
    const JsonValue& r = *item;
    if (r.type != JsonType::kObject) continue;
    FlightRecord rec;
    rec.corr = clamp_u64(num_or(r, "corr", 0));
    rec.kind = str_or(r, "kind", "");
    rec.backend = str_or(r, "backend", "");
    rec.planner = str_or(r, "planner", "");
    rec.outcome = str_or(r, "outcome", "");
    rec.ok = bool_or(r, "ok", false);
    rec.cache_hit = bool_or(r, "cache_hit", false);
    rec.attempts = clamp_u64(num_or(r, "attempts", 0));
    rec.bytes = clamp_u64(num_or(r, "bytes", 0));
    rec.submit_us = clamp_u64(num_or(r, "submit_us", 0));
    rec.queue_ms = num_or(r, "queue_ms", 0);
    rec.fuse_ms = num_or(r, "fuse_ms", 0);
    rec.execute_ms = num_or(r, "execute_ms", 0);
    rec.sample_ms = num_or(r, "sample_ms", 0);
    rec.total_ms = num_or(r, "total_ms", 0);
    out->flight_records.push_back(std::move(rec));
  }
}

}  // namespace

ParsedTrace parse_trace_json(const std::string& json) {
  const JsonPtr root = json_parse(json);
  const JsonValue* events =
      root->type == JsonType::kArray ? root.get() : root->find("traceEvents");
  if (events == nullptr || events->type != JsonType::kArray) {
    throw CodedError(ErrorCode::kMalformedInput, "trace JSON: no traceEvents array");
  }

  ParsedTrace out;
  for (const JsonPtr& item : events->items) {
    const JsonValue& ev = *item;
    if (ev.type != JsonType::kObject) continue;
    const std::string ph = str_or(ev, "ph", "");
    ParsedEvent pe;
    pe.name = str_or(ev, "name", "");
    pe.cat = str_or(ev, "cat", "");
    pe.ph = ph;
    pe.tid = clamp_int(num_or(ev, "tid", 0));
    pe.ts_us = clamp_u64(num_or(ev, "ts", 0));
    if (ph == "X") {
      pe.dur_us = clamp_u64(num_or(ev, "dur", 0));
      if (const JsonValue* args = ev.find("args"); args != nullptr) {
        pe.bytes = clamp_u64(num_or(*args, "bytes", 0));
        pe.corr = clamp_u64(num_or(*args, "corr", 0));
        pe.detail = str_or(*args, "detail", "");
      }
      out.events.push_back(std::move(pe));
    } else if (ph == "s" || ph == "t" || ph == "f") {
      pe.corr = clamp_u64(num_or(ev, "id", 0));
      out.flows.push_back(std::move(pe));
    } else if (ph == "C") {
      if (const JsonValue* args = ev.find("args"); args != nullptr) {
        out.counters[pe.name] = num_or(*args, "value", 0);
      }
    }
  }
  if (const JsonValue* fr = root->find("flightRecorder"); fr != nullptr) {
    parse_flight_recorder(*fr, &out);
  }
  return out;
}

ParsedTrace read_trace_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  check(f.good(), "trace reader: cannot open '" + path + "'");
  std::string all((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  check(!f.bad(), "trace reader: read from '" + path + "' failed");
  return parse_trace_json(all);
}

}  // namespace qhip::prof
