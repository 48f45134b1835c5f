// trace_reader hostile-input hardening: truncated or deeply nested JSON,
// events missing "ts"/"ph", duplicate correlation ids, negative/huge numeric
// fields, and mistyped flightRecorder members must be rejected with
// qhip::Error or skipped cleanly — never crash, never invoke UB
// double->int casts.
#include "src/prof/trace_reader.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>

#include "src/base/error.h"

namespace qhip::prof {
namespace {

TEST(TraceReaderHostile, TruncatedJsonThrows) {
  const char* truncated[] = {
      "",
      "{",
      "{\"traceEvents\":[",
      "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"k\"",
      "{\"traceEvents\":[{\"ph\":\"X\"},",
      "{\"traceEvents\":[{}]",
      "[{\"ph\":\"X\"}",
      "{\"traceEvents\":[\"unterminated string]}",
  };
  for (const char* t : truncated) {
    EXPECT_THROW(parse_trace_json(t), Error) << "input: " << t;
  }
}

TEST(TraceReaderHostile, GarbageDocumentsThrow) {
  EXPECT_THROW(parse_trace_json("null"), Error);
  EXPECT_THROW(parse_trace_json("42"), Error);
  EXPECT_THROW(parse_trace_json("\"a string\""), Error);
  EXPECT_THROW(parse_trace_json("{\"notTraceEvents\":[]}"), Error);
  EXPECT_THROW(parse_trace_json("{\"traceEvents\":{}}"), Error);
  EXPECT_THROW(parse_trace_json("{\"traceEvents\":[]} trailing"), Error);
  EXPECT_THROW(parse_trace_json("{\"traceEvents\":[truw]}"), Error);
  // Nesting far past kJsonMaxDepth is rejected, not a stack overflow.
  try {
    parse_trace_json(std::string(200000, '['));
    FAIL() << "expected throw for 200000 '['";
  } catch (const CodedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedInput);
  }
}

TEST(TraceReaderHostile, EventsMissingPhOrTsAreSkippedOrDefaulted) {
  // No "ph": not an X/flow/counter event -> skipped. No "ts": defaults to 0.
  const ParsedTrace t = parse_trace_json(
      "{\"traceEvents\":["
      "{\"name\":\"no-ph\"},"
      "{\"ph\":\"X\",\"name\":\"no-ts\",\"dur\":5},"
      "{\"ph\":\"M\",\"name\":\"metadata\"},"
      "17,\"stray string\",null,"
      "{\"ph\":\"X\",\"name\":\"ok\",\"ts\":10,\"dur\":2}"
      "]}");
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].name, "no-ts");
  EXPECT_EQ(t.events[0].ts_us, 0u);
  EXPECT_EQ(t.events[0].dur_us, 5u);
  EXPECT_EQ(t.events[1].name, "ok");
  EXPECT_TRUE(t.flows.empty());
}

TEST(TraceReaderHostile, MistypedFieldsFallBackToDefaults) {
  const ParsedTrace t = parse_trace_json(
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"name\":7,\"ts\":\"yesterday\",\"dur\":true,"
      "\"tid\":[1],\"args\":{\"corr\":\"abc\",\"bytes\":null,\"detail\":3}}"
      "]}");
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].name, "");
  EXPECT_EQ(t.events[0].ts_us, 0u);
  EXPECT_EQ(t.events[0].dur_us, 0u);
  EXPECT_EQ(t.events[0].tid, 0);
  EXPECT_EQ(t.events[0].corr, 0u);
  EXPECT_EQ(t.events[0].bytes, 0u);
  EXPECT_EQ(t.events[0].detail, "");
}

TEST(TraceReaderHostile, OutOfRangeNumbersClampInsteadOfUB) {
  const ParsedTrace t = parse_trace_json(
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"name\":\"neg\",\"ts\":-5,\"dur\":-1e9,\"tid\":-1e300,"
      "\"args\":{\"corr\":-3,\"bytes\":-7}},"
      "{\"ph\":\"X\",\"name\":\"huge\",\"ts\":1e300,\"dur\":1e300,"
      "\"tid\":1e300,\"args\":{\"corr\":1e300,\"bytes\":1e300}},"
      "{\"ph\":\"s\",\"name\":\"flow\",\"ts\":2,\"id\":-9}"
      "]}");
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].ts_us, 0u);
  EXPECT_EQ(t.events[0].dur_us, 0u);
  EXPECT_EQ(t.events[0].tid, INT_MIN);
  EXPECT_EQ(t.events[0].corr, 0u);
  EXPECT_EQ(t.events[0].bytes, 0u);
  EXPECT_EQ(t.events[1].ts_us, UINT64_MAX);
  EXPECT_EQ(t.events[1].dur_us, UINT64_MAX);
  EXPECT_EQ(t.events[1].tid, INT_MAX);
  EXPECT_EQ(t.events[1].corr, UINT64_MAX);
  EXPECT_EQ(t.events[1].bytes, UINT64_MAX);
  ASSERT_EQ(t.flows.size(), 1u);
  EXPECT_EQ(t.flows[0].corr, 0u);
}

TEST(TraceReaderHostile, DuplicateCorrIdsAggregateWithoutConfusion) {
  // Two requests sharing a corr id (a buggy or adversarial producer): the
  // reader keeps every event; nothing is dropped, merged, or crashed on.
  const ParsedTrace t = parse_trace_json(
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"name\":\"request\",\"cat\":\"request\",\"ts\":0,"
      "\"dur\":10,\"args\":{\"corr\":5}},"
      "{\"ph\":\"X\",\"name\":\"request\",\"cat\":\"request\",\"ts\":100,"
      "\"dur\":20,\"args\":{\"corr\":5}},"
      "{\"ph\":\"X\",\"name\":\"k\",\"cat\":\"kernel\",\"ts\":1,\"dur\":1,"
      "\"args\":{\"corr\":5}},"
      "{\"ph\":\"s\",\"name\":\"f\",\"ts\":0,\"id\":5},"
      "{\"ph\":\"s\",\"name\":\"f\",\"ts\":100,\"id\":5}"
      "]}");
  EXPECT_EQ(t.events.size(), 3u);
  EXPECT_EQ(t.flows.size(), 2u);
  for (const ParsedEvent& e : t.events) EXPECT_EQ(e.corr, 5u);
}

TEST(TraceReaderHostile, BareArrayAndCountersStillParse) {
  const ParsedTrace t = parse_trace_json(
      "[{\"ph\":\"X\",\"name\":\"k\",\"ts\":1,\"dur\":2},"
      "{\"ph\":\"C\",\"name\":\"c\",\"args\":{\"value\":2.5}},"
      "{\"ph\":\"C\",\"name\":\"c\",\"args\":{\"value\":3.5}},"
      "{\"ph\":\"C\",\"name\":\"no-args\"}]");
  EXPECT_EQ(t.events.size(), 1u);
  EXPECT_DOUBLE_EQ(t.counters.at("c"), 3.5);  // last write wins
  EXPECT_TRUE(t.snapshot_reason.empty());     // not a snapshot
  EXPECT_TRUE(t.flight_records.empty());
}

TEST(TraceReaderHostile, MistypedFlightRecorderDegradesGracefully) {
  // "flightRecorder" present but hostile: wrong types everywhere. The parse
  // must survive with defaulted fields, keeping the valid record.
  const ParsedTrace t = parse_trace_json(
      "{\"traceEvents\":[],\"flightRecorder\":{"
      "\"reason\":42,\"dropped_events\":\"many\","
      "\"records\":[17,{\"corr\":\"x\",\"kind\":3,\"ok\":\"yes\","
      "\"attempts\":-2,\"total_ms\":\"slow\"},"
      "{\"corr\":9,\"kind\":\"circuit\",\"ok\":true,\"total_ms\":1.5}]}}");
  EXPECT_EQ(t.snapshot_reason, "unknown");  // mistyped reason -> placeholder
  EXPECT_EQ(t.snapshot_dropped_events, 0u);
  ASSERT_EQ(t.flight_records.size(), 2u);
  EXPECT_EQ(t.flight_records[0].corr, 0u);
  EXPECT_EQ(t.flight_records[0].kind, "");
  EXPECT_FALSE(t.flight_records[0].ok);
  EXPECT_EQ(t.flight_records[0].attempts, 0u);
  EXPECT_DOUBLE_EQ(t.flight_records[0].total_ms, 0.0);
  EXPECT_EQ(t.flight_records[1].corr, 9u);
  EXPECT_EQ(t.flight_records[1].kind, "circuit");
  EXPECT_TRUE(t.flight_records[1].ok);
  EXPECT_DOUBLE_EQ(t.flight_records[1].total_ms, 1.5);

  // records not an array / flightRecorder not an object: ignored.
  const ParsedTrace a = parse_trace_json(
      "{\"traceEvents\":[],\"flightRecorder\":{\"reason\":\"r\","
      "\"records\":7}}");
  EXPECT_EQ(a.snapshot_reason, "r");
  EXPECT_TRUE(a.flight_records.empty());
  const ParsedTrace b =
      parse_trace_json("{\"traceEvents\":[],\"flightRecorder\":[1,2]}");
  EXPECT_TRUE(b.snapshot_reason.empty());
}

TEST(TraceReaderHostile, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/definitely/missing.json"), Error);
}

}  // namespace
}  // namespace qhip::prof
