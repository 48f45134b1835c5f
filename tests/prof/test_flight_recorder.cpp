// FlightRecorder: bounded capture of per-request trace events, ring
// eviction, two-phase (pending -> ring, late appends) retention, snapshot
// serialization read back through trace_reader, and the end-to-end engine
// path — a forced SLO breach writes a snapshot whose span tree for the
// offending request is EXPECT_EQ-consistent with the live-traced run.
#include "src/prof/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/error.h"
#include "src/engine/engine.h"
#include "src/engine/watchdog.h"
#include "src/prof/trace.h"
#include "src/prof/trace_reader.h"
#include "src/rqc/rqc.h"

namespace qhip::prof {
namespace {

RequestRecord make_record(std::uint64_t corr, double total_ms = 5.0) {
  RequestRecord r;
  r.corr = corr;
  r.kind = "circuit";
  r.backend = "hip";
  r.outcome = "ok";
  r.ok = true;
  r.attempts = 1;
  r.total_ms = total_ms;
  return r;
}

TEST(FlightRecorder, PendingEventsMoveIntoTheRecordOnCompletion) {
  FlightRecorder rec({4, 16});
  rec.sink().record("execute", TraceKind::kSpan, 100, 50, 0, 0, 7);
  rec.sink().record("ApplyGateH_Kernel", TraceKind::kKernel, 110, 20, 1, 0, 7);
  rec.sink().record("untagged", TraceKind::kHost, 0, 1, 0, 0, 0);  // corr 0

  rec.record_request(make_record(7));
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.total_recorded(), 1u);

  const std::vector<TraceEvent> evs = rec.events();
  ASSERT_EQ(evs.size(), 2u);  // the untagged event is not retained
  EXPECT_EQ(evs[0].name, "execute");
  EXPECT_EQ(evs[1].name, "ApplyGateH_Kernel");
  EXPECT_EQ(evs[1].corr, 7u);
}

TEST(FlightRecorder, LateEventsAppendToACompletedRecord) {
  FlightRecorder rec({4, 16});
  rec.record_request(make_record(3));
  // The serving layer records its "serve" span after the engine publishes
  // the result; the recorder must attach it to the already-completed entry.
  rec.sink().record("serve", TraceKind::kSpan, 200, 80, 0, 0, 3);

  const std::vector<TraceEvent> evs = rec.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "serve");
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST(FlightRecorder, RingEvictsOldestAndRecentIsNewestFirst) {
  FlightRecorder rec({4, 16});
  for (std::uint64_t corr = 1; corr <= 10; ++corr) {
    rec.sink().record("execute", TraceKind::kSpan, corr * 100, 10, 0, 0, corr);
    rec.record_request(make_record(corr, static_cast<double>(corr)));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);

  const std::vector<RequestRecord> recent = rec.recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent[0].corr, 10u);
  EXPECT_EQ(recent[3].corr, 7u);
  // recent(n) truncates to the newest n.
  const std::vector<RequestRecord> two = rec.recent(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].corr, 10u);
  EXPECT_EQ(two[1].corr, 9u);

  // Events of evicted requests are gone; retained ones are oldest-first.
  const std::vector<TraceEvent> evs = rec.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().corr, 7u);
  EXPECT_EQ(evs.back().corr, 10u);

  // A late event for an evicted corr cannot resurrect it.
  rec.sink().record("late", TraceKind::kSpan, 1, 1, 0, 0, 2);
  EXPECT_EQ(rec.events().size(), 4u);
}

TEST(FlightRecorder, PerRequestEventCapCountsDrops) {
  FlightRecorder rec({2, 4});
  for (int i = 0; i < 10; ++i) {
    rec.sink().record("k", TraceKind::kKernel, i, 1, 0, 0, 5);
  }
  rec.record_request(make_record(5));
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.dropped_events(), 6u);

  // Late appends respect the same cap.
  for (int i = 0; i < 3; ++i) {
    rec.sink().record("late", TraceKind::kSpan, i, 1, 0, 0, 5);
  }
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.dropped_events(), 9u);
}

TEST(FlightRecorder, CapacityZeroDisablesCaptureButForwards) {
  Tracer downstream;
  FlightRecorder rec({0, 16});
  rec.set_downstream(&downstream);
  rec.sink().record("execute", TraceKind::kSpan, 1, 1, 0, 0, 9);
  rec.record_request(make_record(9));
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.events().size(), 0u);
  // ...but the downstream Tracer saw the event unchanged.
  ASSERT_EQ(downstream.size(), 1u);
  EXPECT_EQ(downstream.events()[0].name, "execute");
}

TEST(FlightRecorder, ForwardsEverythingDownstream) {
  Tracer downstream;
  FlightRecorder rec({4, 16});
  rec.set_downstream(&downstream);
  rec.sink().record("tagged", TraceKind::kSpan, 1, 1, 0, 0, 2);
  rec.sink().record("untagged", TraceKind::kHost, 2, 1);
  rec.sink().set_counter("engine/x", 3.0);
  EXPECT_EQ(downstream.size(), 2u);
  EXPECT_DOUBLE_EQ(downstream.counters().at("engine/x"), 3.0);
}

TEST(FlightRecorder, SnapshotJsonRoundTripsThroughTraceReader) {
  FlightRecorder rec({4, 16});
  rec.sink().record("execute", TraceKind::kSpan, 100, 40, 0, 0, 11);
  RequestRecord r = make_record(11, 12.5);
  // Control characters must be escaped in the JSON text and survive the
  // round trip.
  r.planner = "predicted=0.003s\tcalibration=1.1\x01";
  r.cache_hit = false;
  r.attempts = 2;
  r.bytes = 4096;
  r.queue_ms = 0.5;
  r.fuse_ms = 1.25;
  r.execute_ms = 9.75;
  r.sample_ms = 1.0;
  rec.record_request(r);
  rec.record_request(make_record(12, 1.0));

  const std::string json = rec.snapshot_json("unit-test");
  // The writer's only raw control byte is the '\n' between events; the
  // strict reader below rejects a raw '\n' inside a string.
  for (char c : json) {
    if (static_cast<unsigned char>(c) < 0x20) {
      EXPECT_EQ(c, '\n');
    }
  }
  const ParsedTrace t = parse_trace_json(json);
  EXPECT_EQ(t.snapshot_reason, "unit-test");
  ASSERT_EQ(t.flight_records.size(), 2u);
  // Newest first, like recent().
  EXPECT_EQ(t.flight_records[0].corr, 12u);
  const FlightRecord& fr = t.flight_records[1];
  EXPECT_EQ(fr.corr, 11u);
  EXPECT_EQ(fr.kind, "circuit");
  EXPECT_EQ(fr.backend, "hip");
  EXPECT_EQ(fr.planner, "predicted=0.003s\tcalibration=1.1\x01");
  EXPECT_EQ(fr.outcome, "ok");
  EXPECT_TRUE(fr.ok);
  EXPECT_FALSE(fr.cache_hit);
  EXPECT_EQ(fr.attempts, 2u);
  EXPECT_EQ(fr.bytes, 4096u);
  EXPECT_DOUBLE_EQ(fr.queue_ms, 0.5);
  EXPECT_DOUBLE_EQ(fr.fuse_ms, 1.25);
  EXPECT_DOUBLE_EQ(fr.execute_ms, 9.75);
  EXPECT_DOUBLE_EQ(fr.sample_ms, 1.0);
  EXPECT_DOUBLE_EQ(fr.total_ms, 12.5);

  // The trace half is real trace-event JSON: the retained span is there.
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].name, "execute");
  EXPECT_EQ(t.events[0].corr, 11u);
  EXPECT_EQ(t.events[0].ts_us, 100u);
  EXPECT_EQ(t.events[0].dur_us, 40u);
}

TEST(FlightRecorder, TextDumpListsRecordsNewestFirst) {
  FlightRecorder rec({4, 16});
  rec.record_request(make_record(21, 1.0));
  RequestRecord bad = make_record(22, 2.0);
  bad.ok = false;
  bad.outcome = "backend-fault";
  rec.record_request(bad);

  const std::string dump = rec.text_dump();
  const std::size_t at22 = dump.find("22");
  const std::size_t at21 = dump.find("21");
  ASSERT_NE(at22, std::string::npos);
  ASSERT_NE(at21, std::string::npos);
  EXPECT_LT(at22, at21);
  EXPECT_NE(dump.find("backend-fault"), std::string::npos);
}

// --- engine integration ------------------------------------------------------

Circuit make_rqc() {
  rqc::RqcOptions opt;
  opt.rows = 2;
  opt.cols = 3;
  opt.depth = 8;
  opt.seed = 7;
  return rqc::generate_rqc(opt);
}

engine::SimRequest make_request(const Circuit& c, std::uint64_t seed) {
  engine::SimRequest req;
  req.circuit = c;
  req.backend = "hip";
  req.seed = seed;
  req.num_samples = 16;
  req.bypass_result_cache = true;
  return req;
}

TEST(FlightRecorderEngine, RecordsCompletedRequestsWithStages) {
  engine::EngineOptions opt;
  opt.num_workers = 1;
  engine::SimulationEngine eng(opt);  // recorder on by default
  const Circuit c = make_rqc();
  const engine::SimResult r = eng.run(make_request(c, 1));
  ASSERT_TRUE(r.ok) << r.error;

  const FlightRecorder* rec = eng.flight_recorder();
  ASSERT_NE(rec, nullptr);
  const std::vector<RequestRecord> recent = rec->recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].corr, r.request_id);
  EXPECT_EQ(recent[0].kind, "circuit");
  EXPECT_EQ(recent[0].backend, r.backend_used);
  EXPECT_TRUE(recent[0].ok);
  EXPECT_GT(recent[0].total_ms, 0.0);
  EXPECT_GE(recent[0].total_ms,
            recent[0].execute_ms);  // stages nest inside the total

  // The retained events include the request span tree and device events;
  // the record's outcome is the request span's detail.
  std::vector<std::string> names;
  for (const TraceEvent& e : rec->events()) {
    names.push_back(e.name);
    if (e.name == "request") {
      EXPECT_EQ(recent[0].outcome, e.detail);
    }
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "request"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "execute"), names.end());
}

TEST(FlightRecorderEngine, CacheHitOutcomeIsMarked) {
  engine::EngineOptions opt;
  opt.num_workers = 1;
  engine::SimulationEngine eng(opt);
  const Circuit c = make_rqc();
  engine::SimRequest req = make_request(c, 2);
  req.bypass_result_cache = false;
  ASSERT_TRUE(eng.run(req).ok);
  const engine::SimResult hit = eng.run(req);
  ASSERT_TRUE(hit.ok);
  ASSERT_TRUE(hit.result_cache_hit);

  const std::vector<RequestRecord> recent = eng.flight_recorder()->recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_TRUE(recent[0].cache_hit);
  EXPECT_NE(recent[0].outcome.find("cache-hit"), std::string::npos);
}

// The acceptance contract of the snapshot path: a forced SLO breach writes
// a snapshot whose span tree for the offending request is EXPECT_EQ-equal
// to what a live Tracer captured for the same run.
TEST(FlightRecorderEngine, BreachSnapshotMatchesLiveTraceSpanTree) {
  // trigger_snapshot mkdirs the target, so a fresh subdirectory is fine.
  const std::string dir = ::testing::TempDir() + "qhip_flightrec";

  Tracer live;
  engine::EngineOptions opt;
  opt.num_workers = 1;
  opt.tracer = &live;
  opt.snapshot_dir = dir;
  opt.watchdog.epoch_seconds = 60;  // everything lands in one epoch
  opt.watchdog.window_epochs = 4;
  opt.watchdog.rules.push_back(
      engine::parse_slo_rule("any:p99_ms=0.000001,min_requests=2"));
  engine::SimulationEngine eng(opt);

  const Circuit c = make_rqc();
  std::uint64_t breach_corr = 0;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const engine::SimResult r = eng.run(make_request(c, s));
    ASSERT_TRUE(r.ok) << r.error;
    if (s == 2) breach_corr = r.request_id;  // min_requests=2: this one trips
  }

  const engine::EngineMetrics m = eng.metrics();
  ASSERT_GE(m.slo_breaches, 1u);
  ASSERT_GE(m.snapshots_written, 1u);
  ASSERT_FALSE(m.last_snapshot_path.empty());

  // Snapshots land in the configured directory and parse as a snapshot.
  EXPECT_EQ(m.last_snapshot_path.rfind(dir + "/snapshot-", 0), 0u)
      << m.last_snapshot_path;
  const ParsedTrace snap = read_trace_file(m.last_snapshot_path);
  EXPECT_EQ(snap.snapshot_reason, "p99-any");
  ASSERT_FALSE(snap.flight_records.empty());

  // The offending request's span tree, live vs snapshot. The snapshot was
  // written synchronously inside the breaching request's completion, so
  // every span the live Tracer holds for that corr is in it too.
  using SpanKey = std::tuple<std::string, std::uint64_t, std::uint64_t,
                             std::string>;
  auto span_tree = [&](const std::vector<ParsedEvent>& evs) {
    std::vector<SpanKey> keys;
    for (const ParsedEvent& e : evs) {
      if (e.cat == "request" && e.corr == breach_corr) {
        keys.emplace_back(e.name, e.ts_us, e.dur_us, e.detail);
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  const ParsedTrace live_parsed = parse_trace_json(live.to_perfetto_json());
  const std::vector<SpanKey> live_tree = span_tree(live_parsed.events);
  const std::vector<SpanKey> snap_tree = span_tree(snap.events);
  ASSERT_FALSE(live_tree.empty());
  EXPECT_EQ(snap_tree, live_tree);

  // The offending request is in the snapshot's record ring too.
  bool found = false;
  for (const FlightRecord& fr : snap.flight_records) {
    found = found || fr.corr == breach_corr;
  }
  EXPECT_TRUE(found);

  // The companion text dump rode along.
  std::string txt_path = m.last_snapshot_path;
  const std::string suffix = ".trace.json";
  ASSERT_EQ(txt_path.size() - txt_path.rfind(suffix), suffix.size());
  txt_path.replace(txt_path.rfind(suffix), suffix.size(), ".flightrec.txt");
  std::FILE* f = std::fopen(txt_path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << txt_path;
  std::fclose(f);
}

TEST(FlightRecorderEngine, DebugTextAndTriggerSnapshotOnDemand) {
  engine::EngineOptions opt;
  opt.num_workers = 1;
  engine::SimulationEngine eng(opt);
  ASSERT_TRUE(eng.run(make_request(make_rqc(), 5)).ok);

  const std::string dbg = eng.debug_text();
  EXPECT_NE(dbg.find("corr"), std::string::npos);
  EXPECT_NE(dbg.find("circuit"), std::string::npos);

  // No snapshot_dir configured and none passed: nothing to write.
  EXPECT_EQ(eng.trigger_snapshot("manual"), "");

  const std::string dir = ::testing::TempDir() + "qhip_flightrec_manual";
  const std::string path = eng.trigger_snapshot("manual test!", dir);
  ASSERT_FALSE(path.empty());
  // The reason is sanitized into the filename.
  EXPECT_EQ(path.find('!'), std::string::npos);
  const ParsedTrace snap = read_trace_file(path);
  EXPECT_EQ(snap.snapshot_reason, "manual test!");
  EXPECT_EQ(snap.flight_records.size(), 1u);
  EXPECT_EQ(eng.metrics().snapshots_written, 1u);
}

}  // namespace
}  // namespace qhip::prof
