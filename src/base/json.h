// The repo's one JSON codec: the qhip_serve wire protocol (docs/SERVING.md)
// parses and writes with it, the trace writers (src/prof/trace.cpp,
// flight_recorder.cpp) escape strings and format doubles with it, and the
// trace reader (src/prof/trace_reader.cpp) walks its DOM.
//
// Deliberately tiny — a strict recursive-descent parser plus a writer, not
// a general DOM library. Properties that matter:
//
//  * Numbers keep their RAW TOKEN alongside the parsed double. A 64-bit
//    seed like 9007199254740993 does not fit a double exactly; storing the
//    token lets wire.cpp re-parse it as uint64 losslessly.
//  * Doubles are written with enough digits ("%.17g") that strtod returns
//    the identical bit pattern — the serve tests assert END-TO-END
//    bit-identity between socket results and direct engine results.
//  * Hostile input cannot crash or stall the parser: nesting is bounded by
//    kJsonMaxDepth, and parsing an object is linear in its member count
//    (duplicate keys are kept; find() returns the last, so the last wins).
//
// Malformed input throws CodedError(kMalformedInput) with a byte offset, so
// the server can reject a bad request line with a structured error instead
// of dying or mis-parsing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/error.h"

namespace qhip {

class JsonValue;
using JsonPtr = std::shared_ptr<JsonValue>;

enum class JsonType { kNull, kBool, kNumber, kString, kArray, kObject };

// Deepest array/object nesting json_parse accepts. Wire messages nest at
// most 5 levels (a request's Kraus operators) and traces 4 (a snapshot's
// records); the bound keeps recursion far from the stack limit on hostile
// input such as a line of 200 000 '['.
constexpr std::size_t kJsonMaxDepth = 128;

class JsonValue {
 public:
  JsonType type = JsonType::kNull;
  bool boolean = false;
  double number = 0;
  std::string raw_number;  // exact token as it appeared on the wire
  std::string str;
  std::vector<JsonPtr> items;
  // Object members in insertion order (the writer is deterministic, which
  // keeps golden tests and on-wire diffs stable).
  std::vector<std::pair<std::string, JsonPtr>> members;

  // --- construction -----------------------------------------------------
  static JsonPtr make_null();
  static JsonPtr make_bool(bool b);
  static JsonPtr make_number(double v);
  static JsonPtr make_uint(std::uint64_t v);   // exact, via raw token
  static JsonPtr make_string(std::string s);
  static JsonPtr make_array();
  static JsonPtr make_object();

  // Object helpers (no-ops unless type matches).
  void set(const std::string& key, JsonPtr v);
  // The last member named `key`, or nullptr when absent (callers treat
  // absent as default).
  const JsonValue* find(const std::string& key) const;

  // --- typed getters; throw CodedError(kMalformedInput) on mismatch ------
  bool as_bool(const std::string& ctx) const;
  double as_double(const std::string& ctx) const;
  std::uint64_t as_uint(const std::string& ctx) const;  // re-parses raw token
  const std::string& as_string(const std::string& ctx) const;
  const std::vector<JsonPtr>& as_array(const std::string& ctx) const;

  // Serializes without any whitespace (one request/response per line; the
  // writer never emits '\n', which is the wire's message delimiter).
  std::string dump() const;
};

// Parses exactly one JSON value spanning the whole input (trailing
// non-whitespace is malformed). Throws CodedError(kMalformedInput).
JsonPtr json_parse(const std::string& text);

// Appends `s` escaped for the inside of a JSON string literal: '"' and '\'
// backslashed, \n \r \t as short escapes, every other byte below 0x20 as
// \u00XX, all other bytes verbatim.
void json_escape(std::string_view s, std::string* out);

// "%.17g" — shortest form is overkill; 17 significant digits guarantee the
// double -> text -> double round trip is exact for every finite value.
// NaN and infinities have no JSON spelling and are written as null.
std::string json_double(double v);

}  // namespace qhip
