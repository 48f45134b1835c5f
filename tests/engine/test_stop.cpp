// Engine drain correctness: stop() must complete every outstanding future
// and callback exactly once — in-flight work finishes, queued work fails
// with a structured kRejected — even when waiters are coalesced onto a
// shared flight. The coalesced-trajectory case is a regression test: stop()
// used to join workers while a coalesced waiter still parked on the results
// condition variable, deadlocking both the waiter and the destructor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "src/core/gates.h"
#include "src/engine/engine.h"
#include "src/noise/channels.h"

namespace qhip::engine {
namespace {

using namespace std::chrono_literals;

Circuit work_circuit(unsigned qubits, unsigned depth) {
  Circuit c;
  c.num_qubits = qubits;
  unsigned t = 0;
  for (qubit_t q = 0; q < qubits; ++q) c.gates.push_back(gates::h(t, q));
  for (unsigned d = 0; d < depth; ++d) {
    ++t;
    for (qubit_t q = 0; q < qubits; ++q) {
      c.gates.push_back(gates::rz(t, q, 0.2 * static_cast<double>(d + 1)));
    }
  }
  return c;
}

SimRequest trajectory_request(const Circuit& c) {
  SimRequest req;
  req.circuit = c;
  req.kind = RequestKind::kTrajectory;
  req.backend = "cpu";
  req.precision = Precision::kDouble;
  req.noise = noise::NoiseModel{noise::depolarizing(0.02)};
  req.num_trajectories = 16;
  req.seed = 5;  // identical requests: the second submit coalesces
  return req;
}

// The regression: a trajectory batch in flight, a second identical request
// coalesced onto it, then stop() racing both. Both futures must resolve
// (hang before the fix).
TEST(EngineStop, CompletesCoalescedTrajectoryWaitersAcrossStop) {
  EngineOptions opt;
  opt.num_workers = 2;
  SimulationEngine eng(opt);

  const Circuit c = work_circuit(12, 6);
  std::future<SimResult> first = eng.submit(trajectory_request(c));
  std::future<SimResult> second = eng.submit(trajectory_request(c));

  // Let the batch actually start fanning out before draining.
  std::this_thread::sleep_for(10ms);
  eng.stop();

  ASSERT_EQ(first.wait_for(30s), std::future_status::ready)
      << "stop() left the primary trajectory future hanging";
  ASSERT_EQ(second.wait_for(30s), std::future_status::ready)
      << "stop() left the coalesced waiter hanging";
  // Outcomes may legitimately differ — the duplicate can still be queued
  // (drained to kRejected) while the in-flight batch finishes ok. What must
  // hold is that BOTH resolve, each with ok or a structured rejection.
  for (const SimResult res : {first.get(), second.get()}) {
    if (!res.ok) {
      EXPECT_EQ(res.code, SimErrorCode::kRejected) << res.error;
      EXPECT_FALSE(res.error.empty());
    }
  }
}

TEST(EngineStop, QueuedRequestsFailStructuredInFlightFinishes) {
  EngineOptions opt;
  opt.num_workers = 1;
  SimulationEngine eng(opt);

  const Circuit c = work_circuit(14, 8);
  const auto request = [&c](int i) {
    SimRequest req;
    req.circuit = c;
    req.backend = "cpu";
    req.num_samples = 8;
    req.seed = 100 + static_cast<std::uint64_t>(i);  // distinct: no coalescing
    req.bypass_result_cache = true;
    return req;
  };
  // The single worker holds the first request in its completion callback
  // until the drain has failed a queued one, so the five behind it are still
  // queued when stop() runs, however fast the simulation is.
  std::promise<void> in_callback, drained;
  std::shared_future<void> drained_f = drained.get_future().share();
  std::promise<SimResult> first;
  eng.submit(request(0), [&](SimResult r) {
    in_callback.set_value();
    drained_f.wait_for(30s);
    first.set_value(std::move(r));
  });
  std::vector<std::future<SimResult>> queued;
  for (int i = 1; i < 6; ++i) queued.push_back(eng.submit(request(i)));
  in_callback.get_future().wait();

  std::thread stopper([&eng] { eng.stop(); });
  EXPECT_EQ(queued.front().wait_for(30s), std::future_status::ready);
  drained.set_value();
  stopper.join();

  EXPECT_TRUE(first.get_future().get().ok);
  for (auto& f : queued) {
    ASSERT_EQ(f.wait_for(30s), std::future_status::ready);
    const SimResult res = f.get();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.code, SimErrorCode::kRejected);
    EXPECT_NE(res.error.find("drained"), std::string::npos) << res.error;
  }
}

TEST(EngineStop, SubmitAfterStopRejectsImmediately) {
  SimulationEngine eng;
  eng.stop();

  SimRequest req;
  req.circuit = work_circuit(4, 1);
  req.backend = "cpu";
  req.num_samples = 4;

  std::future<SimResult> f = eng.submit(req);
  ASSERT_EQ(f.wait_for(5s), std::future_status::ready);
  const SimResult res = f.get();
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.code, SimErrorCode::kRejected);

  // Callback-style submit must fire inline on the submitting thread.
  std::atomic<bool> fired{false};
  eng.submit(req, [&](SimResult r) {
    EXPECT_FALSE(r.ok);
    fired.store(true);
  });
  EXPECT_TRUE(fired.load());
}

// The serving front-end's drain invariant: stop() returns only after every
// completion callback has fired, so a server that enqueues responses from
// callbacks can flush everything it will ever owe after stop() returns.
TEST(EngineStop, EveryCallbackFiresBeforeStopReturns) {
  EngineOptions opt;
  opt.num_workers = 2;
  SimulationEngine eng(opt);

  const Circuit c = work_circuit(12, 6);
  constexpr int kRequests = 12;
  std::atomic<int> completions{0};
  for (int i = 0; i < kRequests; ++i) {
    SimRequest req;
    req.circuit = c;
    req.backend = "cpu";
    req.num_samples = 8;
    req.seed = 200 + static_cast<std::uint64_t>(i);
    req.bypass_result_cache = true;
    eng.submit(std::move(req), [&](SimResult) { ++completions; });
  }
  eng.stop();
  EXPECT_EQ(completions.load(), kRequests);

  eng.stop();  // idempotent
  EXPECT_EQ(completions.load(), kRequests);
}

}  // namespace
}  // namespace qhip::engine
