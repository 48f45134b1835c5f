// Wire protocol of qhip_serve: newline-delimited JSON mapping 1:1 onto
// engine::SimRequest / engine::SimResult (docs/SERVING.md).
//
// One message per line, LF-terminated, no embedded newlines (the JSON
// writer never emits one). Requests:
//
//   {"op":"simulate", "kind":"circuit"|"expectation"|"trajectory",
//    "circuit":"<text>", "format":"qhip"|"qasm", "backend":"cpu",
//    "precision":"single"|"double", "seed":1, "max_fused_qubits":2,
//    "window_moments":4, "num_samples":0, "amplitude_indices":[..],
//    "want_state":false, "timeout_seconds":0, "bypass_result_cache":false,
//    "observable":["1.5 * Z0 Z1", ...],
//    "noise":{"channel":"depolarizing","rate":0.01},
//    "num_trajectories":0, "trajectory_tolerance":0, "id":"<client tag>",
//    "client_corr":"<client-side trace corr id>"}
//   {"op":"ping"}            — liveness probe, answered inline
//   {"op":"metrics"}         — engine metrics as Prometheus text in "text"
//   {"op":"debug"}           — flight-recorder table + SLO status in "text"
//
// Responses echo "id" (when given) and carry the full SimResult: doubles
// with 17 significant digits and integers as exact tokens, so a decoded
// response compares EXPECT_EQ-equal with the direct engine result.
#pragma once

#include <string>

#include "src/engine/engine.h"
#include "src/base/json.h"

namespace qhip::serve {

// Client-side tag threaded through a request/response pair. Separate from
// SimResult::request_id (the server-side correlation id): "id" is chosen by
// the client, "request_id" by the engine.
struct WireRequest {
  std::string id;          // optional client tag, echoed verbatim
  std::string op = "simulate";  // "simulate" | "ping" | "metrics" | "debug"
  engine::SimRequest sim;  // valid when op == "simulate"
  // Optional client-side trace correlation id. The server stamps it into
  // the request's "serve" span detail, so a client that also records spans
  // under this id can join its trace with the server-side span tree
  // (docs/SERVING.md).
  std::string client_corr;
};

// --- encode -----------------------------------------------------------------

// Encodes a simulate request as one JSON line (no trailing '\n').
// `client_corr`, when non-empty, rides along for server-side span joining.
std::string encode_request(const engine::SimRequest& req,
                           const std::string& id = {},
                           const std::string& client_corr = {});

// Encodes a SimResult response line; `id` echoes the client tag.
std::string encode_result(const engine::SimResult& res,
                          const std::string& id = {});

// Non-simulation responses.
std::string encode_error(const std::string& code, const std::string& error,
                         const std::string& id = {});
std::string encode_pong(const std::string& id = {});
std::string encode_metrics(const std::string& prom_text,
                           const std::string& id = {});

// --- decode -----------------------------------------------------------------

// Parses one request line. Throws CodedError(kMalformedInput) on anything
// malformed: bad JSON, unknown op/kind/fields, bad circuit text.
WireRequest decode_request(const std::string& line);

// Parses one response line back into a SimResult (exact round-trip of the
// encode above). `id_out`, when non-null, receives the echoed client tag.
// Responses to ping/metrics decode with ok=true and code kOk; the metrics
// text lands in `text_out` when non-null.
engine::SimResult decode_result(const std::string& line,
                                std::string* id_out = nullptr,
                                std::string* text_out = nullptr);

}  // namespace qhip::serve
