// Wire protocol round trips (docs/SERVING.md): the serve tests' bit-identity
// guarantee starts here — every double survives as "%.17g", every uint64 as
// its exact token, every hostile string through the JSON escapes. Malformed
// lines must throw CodedError(kMalformedInput), never mis-parse.
#include "src/serve/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/base/error.h"
#include "src/core/gates.h"
#include "src/io/circuit_io.h"
#include "src/noise/channels.h"
#include "src/obs/observable.h"
#include "src/base/json.h"
#include "src/prof/flight_recorder.h"
#include "src/prof/trace.h"

namespace qhip::serve {
namespace {

using engine::RequestKind;
using engine::SimErrorCode;
using engine::SimRequest;
using engine::SimResult;

Circuit small_circuit() {
  Circuit c;
  c.num_qubits = 3;
  c.gates.push_back(gates::h(0, 0));
  c.gates.push_back(gates::cnot(1, 0, 1));
  c.gates.push_back(gates::rz(2, 2, 0.12345678901234567));
  return c;
}

// --- JSON layer -------------------------------------------------------------

TEST(ServeJson, ParsesAndDumpsBasics) {
  const JsonPtr v = json_parse(
      R"({"a":1,"b":-2.5,"c":"x","d":[true,false,null],"e":{"k":"v"}})");
  ASSERT_EQ(v->type, JsonType::kObject);
  EXPECT_EQ(v->find("a")->as_uint("a"), 1u);
  EXPECT_EQ(v->find("b")->as_double("b"), -2.5);
  EXPECT_EQ(v->find("c")->as_string("c"), "x");
  EXPECT_EQ(v->find("d")->as_array("d").size(), 3u);
  EXPECT_EQ(v->find("e")->find("k")->as_string("k"), "v");
  EXPECT_EQ(v->find("missing"), nullptr);
  // Duplicate keys: the last one wins.
  EXPECT_EQ(json_parse(R"({"a":1,"a":2})")->find("a")->as_uint("a"), 2u);
  // The dump re-parses to the same structure and never contains the wire's
  // message delimiter.
  const std::string dumped = v->dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  EXPECT_EQ(json_parse(dumped)->dump(), dumped);
}

TEST(ServeJson, HostileStringsRoundTrip) {
  const std::string hostile[] = {
      "quote \" backslash \\ slash /",
      "newline \n tab \t cr \r",
      std::string("nul \0 byte", 10),
      "unicode \xE2\x9C\x93 check",
      "controls \x01\x1f",
  };
  for (const std::string& s : hostile) {
    JsonPtr o = JsonValue::make_object();
    o->set("s", JsonValue::make_string(s));
    const std::string line = o->dump();
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    EXPECT_EQ(json_parse(line)->find("s")->as_string("s"), s);
  }
}

TEST(ServeJson, Uint64TokensAreExact) {
  // 2^53 + 1 is not representable as a double; the raw token must carry it.
  const std::uint64_t big = 9007199254740993ull;
  JsonPtr o = JsonValue::make_object();
  o->set("seed", JsonValue::make_uint(big));
  o->set("max", JsonValue::make_uint(std::numeric_limits<std::uint64_t>::max()));
  const JsonPtr back = json_parse(o->dump());
  EXPECT_EQ(back->find("seed")->as_uint("seed"), big);
  EXPECT_EQ(back->find("max")->as_uint("max"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ServeJson, DoublesAreBitExact) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -1e-308,
                           1.7976931348623157e308,
                           0.12345678901234567,
                           -0.0};
  for (double d : values) {
    const JsonPtr v = json_parse(json_double(d));
    EXPECT_EQ(v->as_double("d"), d) << json_double(d);
  }
}

TEST(ServeJson, NonFiniteDoublesWriteNull) {
  // JSON has no NaN or infinity; writing "nan" would make the document
  // unparseable for every reader, this codec included.
  for (double d : {std::nan(""), std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(json_double(d), "null");
    EXPECT_EQ(json_parse(json_double(d))->type, JsonType::kNull);
  }
}

TEST(ServeJson, MalformedInputThrowsCoded) {
  const std::string bad[] = {
      "",             // empty
      "{",            // truncated object
      "[1,2",         // truncated array
      "{\"a\":}",     // missing value
      "{\"a\":1,}",   // trailing comma
      "{'a':1}",      // wrong quotes
      "{\"a\":1} x",  // trailing garbage
      "\"\\q\"",      // unknown escape
      "01",           // leading zero
      "nul",          // truncated keyword
      "\"unterminated",
      std::string(200000, '['),  // nesting far past kJsonMaxDepth
  };
  for (const std::string& s : bad) {
    try {
      json_parse(s);
      FAIL() << "expected throw for: " << s.substr(0, 64);
    } catch (const CodedError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kMalformedInput) << s.substr(0, 64);
    }
  }
}

// Numbers follow RFC 8259's grammar, not strtod's: a sign only in front,
// digits on both sides of the point, digits in the exponent.
TEST(ServeJson, NumberGrammarIsRfc8259) {
  for (const char* bad : {"+1", ".5", "1.", "-.5", "1e", "-", "1.e5", "-01",
                          "1e+", "[+1]", "{\"a\":.5}"}) {
    try {
      json_parse(bad);
      FAIL() << "expected throw for: " << bad;
    } catch (const CodedError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kMalformedInput) << bad;
    }
  }
  const std::pair<const char*, double> good[] = {
      {"-0", -0.0}, {"0.5", 0.5}, {"1.5e-3", 1.5e-3}, {"2E+8", 2e8}};
  for (const auto& [tok, want] : good) {
    const JsonPtr v = json_parse(tok);
    EXPECT_EQ(v->as_double(tok), want) << tok;
    EXPECT_EQ(std::signbit(v->as_double(tok)), std::signbit(want)) << tok;
    EXPECT_EQ(v->raw_number, tok);
  }
}

// Nesting depth of a parsed document: a scalar is 0, [] and {} are 1.
std::size_t depth_of(const JsonValue& v) {
  std::size_t d = 0;
  for (const JsonPtr& e : v.items) d = std::max(d, depth_of(*e));
  for (const auto& [k, e] : v.members) d = std::max(d, depth_of(*e));
  return v.type == JsonType::kArray || v.type == JsonType::kObject ? d + 1 : d;
}

TEST(ServeJson, DepthBoundIsFarAboveWireAndTraceNesting) {
  // The deepest wire messages: a trajectory request carrying Kraus
  // operators and an observable, and a result carrying every payload.
  SimRequest traj;
  traj.circuit = small_circuit();
  traj.kind = RequestKind::kTrajectory;
  traj.noise = noise::NoiseModel{noise::amplitude_damping(0.1)};
  traj.observable.strings.push_back(obs::parse_pauli_string("Z0 X1"));
  traj.amplitude_indices = {1, 2};
  SimResult res;
  res.ok = true;
  res.samples = {1, 2};
  res.measurements = {3};
  res.amplitudes = {{0.5, -0.5}};
  res.state = {{1, 0}, {0, 1}};
  res.counters["planner/window"] = 4;
  res.expectation = {0.25, 0};
  std::size_t wire = 0;
  for (const std::string& line : {encode_request(traj, "id", "corr"),
                                  encode_result(res, "id")}) {
    wire = std::max(wire, depth_of(*json_parse(line)));
  }
  EXPECT_LE(wire, 5u);

  // The deepest trace: a flight-recorder snapshot (records nest inside
  // "flightRecorder") with events and counters.
  prof::FlightRecorder rec({4, 16});
  rec.sink().record("execute", TraceKind::kSpan, 1, 2, 0, 0, 7, "detail");
  prof::RequestRecord r;
  r.corr = 7;
  rec.record_request(r);
  Tracer tracer;
  tracer.record("k", TraceKind::kKernel, 1, 1, 0, 64, 7);
  tracer.set_counter("engine/requests", 1);
  std::size_t trace = 0;
  for (const std::string& doc :
       {rec.snapshot_json("depth"), tracer.to_perfetto_json()}) {
    trace = std::max(trace, depth_of(*json_parse(doc)));
  }
  EXPECT_LE(trace, 4u);
  EXPECT_GE(kJsonMaxDepth, 16 * std::max(wire, trace));

  // The bound itself: kJsonMaxDepth levels parse, one more is malformed.
  const auto nested = [](std::size_t n) {
    return std::string(n, '[') + std::string(n, ']');
  };
  EXPECT_EQ(depth_of(*json_parse(nested(kJsonMaxDepth))), kJsonMaxDepth);
  try {
    json_parse(nested(kJsonMaxDepth + 1));
    FAIL() << "expected throw one level past kJsonMaxDepth";
  } catch (const CodedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedInput);
  }
}

TEST(ServeJson, ObjectParseIsLinearInKeyCount) {
  // 80 000 distinct keys, 869 KB. A per-key duplicate scan made this
  // quadratic: 7.6 s in a RelWithDebInfo build on a 4-vCPU x86-64 VM. The
  // bound is 15x below that, yet loose for sanitizer builds under load.
  constexpr int kKeys = 80000;
  constexpr double kBoundSeconds = 0.5;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    if (i > 0) text += ',';
    text += "\"k" + std::to_string(i) + "\":" + std::to_string(i % 10);
  }
  text += '}';
  const auto t0 = std::chrono::steady_clock::now();
  const JsonPtr v = json_parse(text);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(seconds, kBoundSeconds) << text.size() << " bytes";
  ASSERT_EQ(v->members.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(v->find("k0")->as_uint("k0"), 0u);
  EXPECT_EQ(v->find("k79999")->as_uint("k79999"), 9u);
}


TEST(ServeJson, TypeMismatchThrowsCoded) {
  const JsonPtr v = json_parse(R"({"s":"x","n":1})");
  EXPECT_THROW(v->find("s")->as_double("s"), CodedError);
  EXPECT_THROW(v->find("s")->as_uint("s"), CodedError);
  EXPECT_THROW(v->find("n")->as_string("n"), CodedError);
  EXPECT_THROW(v->find("n")->as_array("n"), CodedError);
  EXPECT_THROW(v->find("n")->as_bool("n"), CodedError);
  // Negative and fractional numbers are not uints.
  EXPECT_THROW(json_parse("-1")->as_uint("v"), CodedError);
  EXPECT_THROW(json_parse("1.5")->as_uint("v"), CodedError);
}

// --- request round trips ----------------------------------------------------

void expect_same_circuit(const Circuit& a, const Circuit& b) {
  // The qhip text format is the canonical wire form; equality of the
  // serialization is equality of every gate, matrix included.
  EXPECT_EQ(write_circuit_string(a), write_circuit_string(b));
}

TEST(ServeWire, CircuitRequestRoundTrip) {
  SimRequest req;
  req.circuit = small_circuit();
  req.kind = RequestKind::kCircuit;
  req.backend = "hip:2";
  req.precision = Precision::kSingle;
  req.fusion.max_fused_qubits = 4;
  req.fusion.window_moments = 7;
  req.seed = 9007199254740993ull;  // > 2^53: must survive exactly
  req.num_samples = 128;
  req.amplitude_indices = {0, 5, 7};
  req.want_state = true;
  req.timeout_seconds = 1.5;
  req.bypass_result_cache = true;

  const WireRequest back = decode_request(encode_request(req, "tag-1"));
  EXPECT_EQ(back.op, "simulate");
  EXPECT_EQ(back.id, "tag-1");
  const SimRequest& q = back.sim;
  expect_same_circuit(q.circuit, req.circuit);
  EXPECT_EQ(q.kind, RequestKind::kCircuit);
  EXPECT_EQ(q.backend, "hip:2");
  EXPECT_EQ(q.precision, Precision::kSingle);
  EXPECT_EQ(q.fusion.max_fused_qubits, 4u);
  EXPECT_EQ(q.fusion.window_moments, 7u);
  EXPECT_EQ(q.seed, 9007199254740993ull);
  EXPECT_EQ(q.num_samples, 128u);
  EXPECT_EQ(q.amplitude_indices, req.amplitude_indices);
  EXPECT_TRUE(q.want_state);
  EXPECT_EQ(q.timeout_seconds, 1.5);
  EXPECT_TRUE(q.bypass_result_cache);
}

TEST(ServeWire, ExpectationRequestRoundTrip) {
  SimRequest req;
  req.circuit = small_circuit();
  req.kind = RequestKind::kExpectation;
  req.observable.strings.push_back(obs::parse_pauli_string("1.5 * Z0 Z1"));
  req.observable.strings.push_back(obs::parse_pauli_string("-0.25 * X2"));
  req.observable.strings.push_back(obs::parse_pauli_string("Y0"));

  const SimRequest q = decode_request(encode_request(req)).sim;
  EXPECT_EQ(q.kind, RequestKind::kExpectation);
  ASSERT_EQ(q.observable.strings.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& a = req.observable.strings[i];
    const auto& b = q.observable.strings[i];
    EXPECT_EQ(a.coefficient, b.coefficient) << i;
    ASSERT_EQ(a.terms.size(), b.terms.size()) << i;
    for (std::size_t t = 0; t < a.terms.size(); ++t) {
      EXPECT_EQ(a.terms[t].op, b.terms[t].op);
      EXPECT_EQ(a.terms[t].qubit, b.terms[t].qubit);
    }
  }
}

TEST(ServeWire, TrajectoryRequestRoundTripBitExactKraus) {
  SimRequest req;
  req.circuit = small_circuit();
  req.kind = RequestKind::kTrajectory;
  req.precision = Precision::kDouble;
  req.noise = noise::NoiseModel{noise::amplitude_damping(0.037)};
  req.num_trajectories = 25;
  req.trajectory_tolerance = 0.01;

  const SimRequest q = decode_request(encode_request(req)).sim;
  EXPECT_EQ(q.kind, RequestKind::kTrajectory);
  EXPECT_EQ(q.num_trajectories, 25u);
  EXPECT_EQ(q.trajectory_tolerance, 0.01);
  EXPECT_EQ(q.noise.channel.name, req.noise.channel.name);
  ASSERT_EQ(q.noise.channel.ops.size(), req.noise.channel.ops.size());
  for (std::size_t i = 0; i < q.noise.channel.ops.size(); ++i) {
    // Bit-exact: the Kraus operators cross the wire as %.17g doubles.
    EXPECT_EQ(q.noise.channel.ops[i].data(), req.noise.channel.ops[i].data());
  }
}

TEST(ServeWire, NamedChannelSugarDecodes) {
  const std::string line =
      R"({"op":"simulate","kind":"trajectory","circuit":"2\n0 h 0\n",)"
      R"("noise":{"channel":"depolarizing","rate":0.01},"num_trajectories":4})";
  const SimRequest q = decode_request(line).sim;
  const noise::KrausChannel ref = noise::depolarizing(0.01);
  EXPECT_EQ(q.noise.channel.name, ref.name);
  ASSERT_EQ(q.noise.channel.ops.size(), ref.ops.size());
  for (std::size_t i = 0; i < ref.ops.size(); ++i) {
    EXPECT_EQ(q.noise.channel.ops[i].data(), ref.ops[i].data());
  }
}

TEST(ServeWire, QasmFormatDecodes) {
  const std::string line =
      R"({"op":"simulate","format":"qasm","circuit":)"
      R"("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"})";
  const SimRequest q = decode_request(line).sim;
  EXPECT_EQ(q.circuit.num_qubits, 2u);
  ASSERT_EQ(q.circuit.size(), 2u);
  EXPECT_EQ(q.circuit.gates[0].name, "h");
  EXPECT_EQ(q.circuit.gates[1].name, "cnot");
}

TEST(ServeWire, PingAndMetricsOpsDecode) {
  EXPECT_EQ(decode_request(R"({"op":"ping"})").op, "ping");
  EXPECT_EQ(decode_request(R"({"op":"metrics","id":"m1"})").id, "m1");
}

TEST(ServeWire, MalformedRequestsThrowCoded) {
  const char* bad[] = {
      "not json at all",
      "[1,2,3]",                                     // not an object
      R"({"op":"teleport"})",                        // unknown op
      R"({"op":"simulate"})",                        // missing circuit
      R"({"op":"simulate","circuit":"x\n"})",        // bad circuit header
      R"({"op":"simulate","circuit":"1\n","kind":"weird"})",
      R"({"op":"simulate","circuit":"1\n","format":"qasm3"})",
      R"({"op":"simulate","circuit":"1\n","precision":"half"})",
      R"({"op":"simulate","circuit":"1\n","seed":"one"})",
      R"({"op":"simulate","circuit":"1\n","observable":["Q0"]})",
      R"({"op":"simulate","circuit":"1\n","noise":{"channel":"cosmic","rate":1}})",
      R"({"op":"simulate","circuit":"1\n","noise":{"channel":"bitflip"}})",
      R"({"op":"simulate","circuit":"1\n","noise":{}})",
  };
  for (const char* s : bad) {
    try {
      decode_request(s);
      FAIL() << "expected throw for: " << s;
    } catch (const CodedError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kMalformedInput) << s;
    } catch (const Error&) {
      // Circuit/observable parse errors surface as plain qhip::Error from
      // the loaders only if unwrapped; the wire must wrap them. Fail loud.
      FAIL() << "expected CodedError(kMalformedInput) for: " << s;
    }
  }
}

// --- result round trips -----------------------------------------------------

TEST(ServeWire, ResultRoundTripIsExact) {
  SimResult res;
  res.ok = true;
  res.code = SimErrorCode::kOk;
  res.request_id = 77;
  res.measurements = {1, 0, 3};
  res.samples = {5, 2, 9007199254740993ull};
  res.amplitudes = {{0.1, -0.2}, {1.0 / 3.0, 0.0}};
  res.state = {{0.7071067811865476, 0}, {0, -0.7071067811865476}};
  res.counters["trajectories"] = 12;
  res.expectation = {0.25, -0.125};
  res.expectation_stderr = 0.001953125;
  res.trajectories_run = 12;
  res.distribution = {0.5, 0.25, 0.125, 0.125};
  res.fused_cache_hit = true;
  res.result_cache_hit = false;
  res.backend_used = "hip:2";
  res.attempts = 2;
  res.fallback_used = true;
  res.fuse_seconds = 0.0001220703125;
  res.queue_seconds = 0.5;
  res.run_seconds = 1.0 / 3.0;
  res.sample_seconds = 1e-7;
  res.total_seconds = 0.8334334333333333;

  std::string id;
  const SimResult back = decode_result(encode_result(res, "req-9"), &id);
  EXPECT_EQ(id, "req-9");
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.code, SimErrorCode::kOk);
  EXPECT_EQ(back.request_id, 77u);
  EXPECT_EQ(back.measurements, res.measurements);
  EXPECT_EQ(back.samples, res.samples);
  EXPECT_EQ(back.amplitudes, res.amplitudes);
  EXPECT_EQ(back.state, res.state);
  EXPECT_EQ(back.counters, res.counters);
  EXPECT_EQ(back.expectation, res.expectation);
  EXPECT_EQ(back.expectation_stderr, res.expectation_stderr);
  EXPECT_EQ(back.trajectories_run, res.trajectories_run);
  EXPECT_EQ(back.distribution, res.distribution);
  EXPECT_TRUE(back.fused_cache_hit);
  EXPECT_FALSE(back.result_cache_hit);
  EXPECT_EQ(back.backend_used, "hip:2");
  EXPECT_EQ(back.attempts, 2u);
  EXPECT_TRUE(back.fallback_used);
  EXPECT_EQ(back.fuse_seconds, res.fuse_seconds);
  EXPECT_EQ(back.queue_seconds, res.queue_seconds);
  EXPECT_EQ(back.run_seconds, res.run_seconds);
  EXPECT_EQ(back.sample_seconds, res.sample_seconds);
  EXPECT_EQ(back.total_seconds, res.total_seconds);
}

TEST(ServeWire, ErrorAndPongAndMetricsDecode) {
  std::string id;
  const SimResult err =
      decode_result(encode_error("overloaded", "too many in flight", "x"), &id);
  EXPECT_EQ(id, "x");
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.code, SimErrorCode::kRejected);  // wire shed code maps down
  EXPECT_EQ(err.error, "too many in flight");

  const SimResult pong = decode_result(encode_pong());
  EXPECT_TRUE(pong.ok);

  std::string text;
  const SimResult met = decode_result(
      encode_metrics("qhip_engine_requests_completed 4\n"), nullptr, &text);
  EXPECT_TRUE(met.ok);
  EXPECT_EQ(text, "qhip_engine_requests_completed 4\n");
}

TEST(ServeWire, HostileIdRoundTrips) {
  const std::string hostile = "id \"quotes\" \\slashes\\ and\nnewline";
  std::string id;
  decode_result(encode_error("rejected", "e", hostile), &id);
  EXPECT_EQ(id, hostile);
}

}  // namespace
}  // namespace qhip::serve
