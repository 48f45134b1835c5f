// End-to-end tests for the qhip_serve TCP front-end (docs/SERVING.md):
// socket results must be EXPECT_EQ-identical to direct engine results for
// all three request kinds, a drain must answer every admitted request
// exactly once across >= 32 connections, admission must shed (never buffer
// unboundedly), and a malformed line must get a structured error without
// killing the connection.
#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/core/gates.h"
#include "src/engine/engine.h"
#include "src/noise/channels.h"
#include "src/obs/observable.h"
#include "src/prof/trace.h"
#include "src/prof/trace_reader.h"
#include "src/serve/client.h"
#include "src/serve/wire.h"

namespace qhip::serve {
namespace {

using engine::RequestKind;
using engine::SimRequest;
using engine::SimResult;

Circuit layered_circuit(unsigned qubits, unsigned depth) {
  Circuit c;
  c.num_qubits = qubits;
  unsigned t = 0;
  for (qubit_t q = 0; q < qubits; ++q) c.gates.push_back(gates::h(t, q));
  for (unsigned d = 0; d < depth; ++d) {
    ++t;
    for (qubit_t q = 0; q < qubits; ++q) {
      c.gates.push_back(gates::rz(t, q, 0.1 * static_cast<double>(d + 1)));
    }
    ++t;
    for (qubit_t q = 0; q + 1 < qubits; q += 2) {
      c.gates.push_back(gates::cnot(t, q, q + 1));
    }
  }
  return c;
}

SimRequest base_request(const Circuit& c, std::uint64_t seed) {
  SimRequest req;
  req.circuit = c;
  req.backend = "cpu";
  req.seed = seed;
  req.bypass_result_cache = true;  // force both legs through real simulation
  return req;
}

// --- bit identity: socket == direct for every request kind ------------------

TEST(ServeServer, CircuitResultsBitIdenticalToDirect) {
  engine::EngineOptions eopt;
  eopt.num_workers = 2;
  engine::SimulationEngine eng(eopt);
  Server server(eng);
  Client cl("127.0.0.1", server.port());

  SimRequest req = base_request(layered_circuit(8, 3), 42);
  req.kind = RequestKind::kCircuit;
  req.num_samples = 64;
  req.amplitude_indices = {0, 1, 255};
  req.want_state = true;

  const SimResult direct = eng.run(req);
  ASSERT_TRUE(direct.ok) << direct.error;
  const SimResult socket = cl.call(req, "c1");
  ASSERT_TRUE(socket.ok) << socket.error;

  EXPECT_EQ(socket.samples, direct.samples);
  EXPECT_EQ(socket.measurements, direct.measurements);
  EXPECT_EQ(socket.amplitudes, direct.amplitudes);
  EXPECT_EQ(socket.state, direct.state);
  EXPECT_EQ(socket.backend_used, direct.backend_used);

  // The same holds with four connections in flight at once, each on its
  // own seeds.
  constexpr unsigned kConns = 4, kPerConn = 4;
  std::vector<SimResult> socket_by_seed(kConns * kPerConn);
  std::vector<std::thread> threads;
  for (unsigned conn = 0; conn < kConns; ++conn) {
    threads.emplace_back([&, conn] {
      Client c("127.0.0.1", server.port());
      SimRequest r = req;
      for (unsigned i = conn * kPerConn; i < (conn + 1) * kPerConn; ++i) {
        r.seed = 100 + i;
        socket_by_seed[i] = c.call(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (unsigned i = 0; i < socket_by_seed.size(); ++i) {
    req.seed = 100 + i;
    const SimResult d = eng.run(req);
    ASSERT_TRUE(socket_by_seed[i].ok) << socket_by_seed[i].error;
    EXPECT_EQ(socket_by_seed[i].samples, d.samples);
    EXPECT_EQ(socket_by_seed[i].amplitudes, d.amplitudes);
    EXPECT_EQ(socket_by_seed[i].state, d.state);
  }
  server.shutdown();
}

TEST(ServeServer, ExpectationResultsBitIdenticalToDirect) {
  engine::SimulationEngine eng;
  Server server(eng);
  Client cl("127.0.0.1", server.port());

  SimRequest req = base_request(layered_circuit(6, 2), 7);
  req.kind = RequestKind::kExpectation;
  req.observable.strings.push_back(obs::parse_pauli_string("1.5 * Z0 Z1"));
  req.observable.strings.push_back(obs::parse_pauli_string("0.5 * X2"));

  const SimResult direct = eng.run(req);
  ASSERT_TRUE(direct.ok) << direct.error;
  const SimResult socket = cl.call(req);
  ASSERT_TRUE(socket.ok) << socket.error;
  EXPECT_EQ(socket.expectation, direct.expectation);
  server.shutdown();
}

TEST(ServeServer, TrajectoryResultsBitIdenticalToDirect) {
  engine::SimulationEngine eng;
  Server server(eng);
  Client cl("127.0.0.1", server.port());

  SimRequest req = base_request(layered_circuit(5, 2), 11);
  req.kind = RequestKind::kTrajectory;
  req.precision = Precision::kDouble;
  req.noise = noise::NoiseModel{noise::depolarizing(0.02)};
  req.num_trajectories = 6;

  const SimResult direct = eng.run(req);
  ASSERT_TRUE(direct.ok) << direct.error;
  const SimResult socket = cl.call(req);
  ASSERT_TRUE(socket.ok) << socket.error;
  EXPECT_EQ(socket.distribution, direct.distribution);
  EXPECT_EQ(socket.trajectories_run, direct.trajectories_run);
  server.shutdown();
}

// --- graceful drain across >= 32 connections --------------------------------

// Every request fully sent before shutdown() must be answered exactly once:
// in-flight work finishes ok, queued work fails with a structured error,
// nothing is dropped. This is the CI soak's invariant in miniature.
TEST(ServeServer, DrainAnswersEveryRequestAcross32Connections) {
  constexpr unsigned kConns = 32;
  constexpr unsigned kPerConn = 3;

  engine::EngineOptions eopt;
  eopt.num_workers = 2;  // keep a deep queue so the drain catches it
  engine::SimulationEngine eng(eopt);
  Server server(eng);

  const Circuit circuit = layered_circuit(12, 4);
  std::vector<Client> clients;
  clients.reserve(kConns);
  for (unsigned i = 0; i < kConns; ++i) {
    clients.emplace_back("127.0.0.1", server.port());
  }
  for (unsigned i = 0; i < kConns; ++i) {
    std::string burst;
    for (unsigned j = 0; j < kPerConn; ++j) {
      SimRequest req = base_request(circuit, 1000 + i * kPerConn + j);
      req.num_samples = 16;
      if (!burst.empty()) burst.push_back('\n');
      burst += encode_request(req, "c" + std::to_string(i) + "-" + std::to_string(j));
    }
    clients[i].send_line(burst);  // all kPerConn requests in one segment
  }

  // Wait until every connection is accepted and every request admitted —
  // under sanitizers the accept loop can lag the bursts, and a connection
  // still in the listen backlog when the listener closes is reset, which is
  // outside the drain contract (it covers accepted connections).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const Server::Stats st = server.stats();
    if (st.connections == kConns && st.requests == kConns * kPerConn) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  server.shutdown();  // returns only after every response is flushed

  std::atomic<std::size_t> answered{0}, ok{0}, rejected{0}, bad{0};
  std::vector<std::thread> readers;
  for (unsigned i = 0; i < kConns; ++i) {
    readers.emplace_back([&, i] {
      std::string line;
      std::size_t got = 0;
      try {
        while (clients[i].recv_line(&line)) {
          ++got;
          try {
            const SimResult res = decode_result(line);
            if (res.ok) {
              ++ok;
            } else if (!res.error.empty()) {
              ++rejected;  // structured: code + message, not a dropped byte
            } else {
              ++bad;
            }
          } catch (const Error&) {
            ++bad;
          }
        }
      } catch (const Error& e) {
        // A reset instead of a clean FIN would lose responses; count what
        // arrived and let the totals assert below.
        ADD_FAILURE() << "connection " << i << " torn: " << e.what();
      }
      answered += got;
      EXPECT_EQ(got, kPerConn) << "connection " << i << " lost responses";
    });
  }
  for (auto& th : readers) th.join();

  EXPECT_EQ(answered.load(), kConns * kPerConn);
  EXPECT_EQ(ok.load() + rejected.load(), kConns * kPerConn);
  EXPECT_EQ(bad.load(), 0u);

  const Server::Stats st = server.stats();
  EXPECT_EQ(st.connections, kConns);
  EXPECT_EQ(st.requests, kConns * kPerConn);
  EXPECT_EQ(st.responses, kConns * kPerConn);
}

// --- admission control ------------------------------------------------------

TEST(ServeServer, ShedsPipelinedRequestsBeyondInflightCap) {
  engine::EngineOptions eopt;
  eopt.num_workers = 1;  // serialize so the cap is actually hit
  engine::SimulationEngine eng(eopt);
  ServerOptions sopt;
  sopt.max_inflight_per_conn = 2;
  Server server(eng, sopt);
  Client cl("127.0.0.1", server.port());

  const Circuit circuit = layered_circuit(16, 4);  // ms-scale per request
  constexpr unsigned kBurst = 8;
  std::string burst;
  for (unsigned i = 0; i < kBurst; ++i) {
    SimRequest req = base_request(circuit, 100 + i);
    req.num_samples = 8;
    if (!burst.empty()) burst.push_back('\n');
    burst += encode_request(req, "b" + std::to_string(i));
  }
  cl.send_line(burst);

  std::size_t shed = 0, answered = 0;
  std::string line;
  for (unsigned i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(cl.recv_line(&line)) << "response " << i << " missing";
    ++answered;
    const SimResult res = decode_result(line);
    if (!res.ok && line.find("\"code\":\"overloaded\"") != std::string::npos) {
      ++shed;
    }
  }
  EXPECT_EQ(answered, kBurst);             // shed requests are answered too
  EXPECT_GE(shed, kBurst - sopt.max_inflight_per_conn - 1);
  EXPECT_GE(server.stats().shed, shed);
  server.shutdown();
}

// --- malformed lines --------------------------------------------------------

TEST(ServeServer, MalformedLineGetsStructuredErrorAndConnectionSurvives) {
  engine::SimulationEngine eng;
  Server server(eng);
  Client cl("127.0.0.1", server.port());

  cl.send_line("this is not json");
  std::string line;
  ASSERT_TRUE(cl.recv_line(&line));
  const SimResult err = decode_result(line);
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(line.find("malformed-input") != std::string::npos, true) << line;

  // 200 KB of '[': nesting far past the parser's depth bound is one more
  // malformed line, not a stack overflow in the server.
  cl.send_line(std::string(200 * 1024, '['));
  ASSERT_TRUE(cl.recv_line(&line));
  EXPECT_FALSE(decode_result(line).ok);
  EXPECT_NE(line.find("malformed-input"), std::string::npos) << line;

  // Same connection keeps serving.
  EXPECT_TRUE(cl.ping());
  SimRequest req = base_request(layered_circuit(4, 1), 3);
  req.num_samples = 4;
  EXPECT_TRUE(cl.call(req).ok);
  EXPECT_EQ(server.stats().malformed, 2u);
  server.shutdown();
}

// --- metrics ----------------------------------------------------------------

TEST(ServeServer, MetricsOverJsonAndRawHttp) {
  engine::SimulationEngine eng;
  Server server(eng);

  Client cl("127.0.0.1", server.port());
  SimRequest req = base_request(layered_circuit(4, 1), 5);
  req.num_samples = 4;
  ASSERT_TRUE(cl.call(req).ok);

  const std::string prom = cl.metrics();
  EXPECT_NE(prom.find("qhip_engine_requests_completed"), std::string::npos);

  // One-shot plaintext scrape on a fresh connection.
  Client scraper("127.0.0.1", server.port());
  scraper.send_line("GET /metrics HTTP/1.0\r");
  std::string line, body;
  ASSERT_TRUE(scraper.recv_line(&line));
  EXPECT_NE(line.find("200"), std::string::npos) << line;
  while (scraper.recv_line(&line)) body += line + "\n";
  EXPECT_NE(body.find("qhip_engine_requests_completed"), std::string::npos);
  server.shutdown();
}

// --- tracing ----------------------------------------------------------------

TEST(ServeServer, ServerSpansJoinRequestTrace) {
  Tracer tracer;
  engine::EngineOptions eopt;
  eopt.tracer = &tracer;
  engine::SimulationEngine eng(eopt);
  ServerOptions sopt;
  sopt.tracer = &tracer;
  Server server(eng, sopt);
  Client cl("127.0.0.1", server.port());

  SimRequest req = base_request(layered_circuit(4, 1), 9);
  req.num_samples = 4;
  // A client_corr with control characters: the trace must escape them.
  const std::string client_corr = "cc\t7\x01";
  cl.send_line(encode_request(req, "", client_corr));
  std::string line;
  ASSERT_TRUE(cl.recv_line(&line));
  ASSERT_TRUE(decode_result(line).ok) << line;
  server.shutdown();

  bool serve_span = false;
  for (const auto& ev : tracer.events()) {
    if (ev.name == "serve" && ev.kind == TraceKind::kSpan && ev.corr != 0) {
      serve_span = true;
    }
  }
  EXPECT_TRUE(serve_span);

  // The writer's only raw control byte is the '\n' between events; the
  // strict reader rejects a raw '\n' inside a string, so together no raw
  // control byte sits inside any string.
  const std::string json = tracer.to_perfetto_json();
  for (char c : json) {
    if (static_cast<unsigned char>(c) < 0x20) {
      EXPECT_EQ(c, '\n');
    }
  }
  bool joined = false;
  for (const prof::ParsedEvent& ev : prof::parse_trace_json(json).events) {
    if (ev.name == "serve") {
      EXPECT_EQ(ev.detail, "served client_corr=" + client_corr);
      joined = true;
    }
  }
  EXPECT_TRUE(joined);
}

// --- shutdown ---------------------------------------------------------------

TEST(ServeServer, ShutdownIsIdempotentAndRefusesNewConnections) {
  engine::SimulationEngine eng;
  Server server(eng);
  const unsigned short port = server.port();
  server.shutdown();
  server.shutdown();  // second call is a no-op

  // The listener is gone: a new connection attempt must fail.
  EXPECT_THROW(Client("127.0.0.1", port), Error);
}

}  // namespace
}  // namespace qhip::serve
