// Flight recorder: ring semantics, deterministic dumps, metric wiring,
// and the end-to-end "black box" contract — a fault-injected link leaves
// a causally ordered gap -> resync -> recovery trail in the dump.

#include "obs/recorder.h"

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/link.h"
#include "kalman/model.h"
#include "obs/metrics.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace kc {
namespace obs {
namespace {

TEST(SourceRecorderTest, RingKeepsNewestEventsOldestFirst) {
  FlightRecorder recorder(/*capacity_per_source=*/4);
  SourceRecorder* ring = recorder.ForSource(7);
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->capacity(), 4u);
  EXPECT_EQ(ring->source_id(), 7);

  for (int64_t t = 0; t < 10; ++t) {
    ring->Record(t, RecorderEventKind::kSuppress, /*seq=*/t,
                 /*value=*/static_cast<double>(t) * 0.5);
  }
  EXPECT_EQ(ring->total_recorded(), 10u);  // Monotonic, not capped.

  std::vector<RecorderEvent> events = ring->Snapshot();
  ASSERT_EQ(events.size(), 4u);  // Ring retains capacity.
  // The four newest, oldest-first, every field intact.
  for (size_t i = 0; i < events.size(); ++i) {
    int64_t t = static_cast<int64_t>(6 + i);
    EXPECT_EQ(events[i].tick, t);
    EXPECT_EQ(events[i].seq, t);
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(t) * 0.5);
    EXPECT_EQ(events[i].source_id, 7);
    EXPECT_EQ(events[i].kind, RecorderEventKind::kSuppress);
  }
}

TEST(SourceRecorderTest, ForSourceReturnsStablePointer) {
  FlightRecorder recorder(8);
  SourceRecorder* first = recorder.ForSource(3);
  first->Record(1, RecorderEventKind::kInit);
  EXPECT_EQ(recorder.ForSource(3), first);  // Same ring, not a reset.
  EXPECT_EQ(first->total_recorded(), 1u);
  EXPECT_EQ(recorder.Find(3), first);
  EXPECT_EQ(recorder.Find(99), nullptr);
}

TEST(SourceRecorderTest, MetricsCountRecordsAndEvictions) {
  FlightRecorder recorder(/*capacity_per_source=*/2);
  MetricRegistry registry;
  recorder.BindMetrics(&registry);
  SourceRecorder* ring = recorder.ForSource(0);

  ring->Record(0, RecorderEventKind::kInit);
  ring->Record(1, RecorderEventKind::kSuppress);
  ring->Record(2, RecorderEventKind::kSuppress);  // Evicts the INIT.
  EXPECT_EQ(registry.GetCounter("kc.recorder.events")->value(), 3);
  EXPECT_EQ(registry.GetCounter("kc.recorder.evicted")->value(), 1);

  // Binding after registration retrofits existing rings too.
  FlightRecorder late(2);
  SourceRecorder* early_ring = late.ForSource(5);
  MetricRegistry late_registry;
  late.BindMetrics(&late_registry);
  early_ring->Record(0, RecorderEventKind::kHeartbeat);
  EXPECT_EQ(late_registry.GetCounter("kc.recorder.events")->value(), 1);
}

TEST(FlightRecorderTest, EveryKindHasAName) {
  for (size_t k = 0; k < kNumRecorderEventKinds; ++k) {
    const char* name = RecorderEventKindName(static_cast<RecorderEventKind>(k));
    EXPECT_STRNE(name, "?") << "kind " << k;
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

TEST(FlightRecorderTest, DumpsAreDeterministicAndIdOrdered) {
  FlightRecorder recorder(4);
  // Register out of id order; dumps must come back ascending.
  recorder.ForSource(9)->Record(10, RecorderEventKind::kWireGap, /*seq=*/5,
                                /*value=*/2.0);
  recorder.ForSource(2)->Record(3, RecorderEventKind::kInit, /*seq=*/0,
                                /*value=*/0.25);

  std::vector<int32_t> ids = recorder.SourceIds();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 2);
  EXPECT_EQ(ids[1], 9);

  std::string text = recorder.DumpText();
  EXPECT_EQ(text, recorder.DumpText());  // Bit-identical on repeat.
  size_t at2 = text.find("source 2 flight recorder");
  size_t at9 = text.find("source 9 flight recorder");
  ASSERT_NE(at2, std::string::npos);
  ASSERT_NE(at9, std::string::npos);
  EXPECT_LT(at2, at9);
  EXPECT_NE(text.find("INIT"), std::string::npos);
  EXPECT_NE(text.find("WIRE_GAP"), std::string::npos);

  std::string json = recorder.DumpJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("{\"tick\":3,\"source\":2,\"event\":\"INIT\","
                      "\"seq\":0,\"value\":0.25}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"tick\":10,\"source\":9,\"event\":\"WIRE_GAP\","
                      "\"seq\":5,\"value\":2}"),
            std::string::npos);
  // Unknown sources dump gracefully.
  EXPECT_EQ(recorder.DumpJson(42), "{\"source\":42,\"events\":[]}");
  EXPECT_NE(recorder.DumpText(42).find("no events"), std::string::npos);
}

// ------------------------------------------------------------- end to end

LinkConfig BlackBoxConfig() {
  LinkConfig config;
  config.ticks = 400;
  config.delta = 0.5;
  config.seed = 17;
  config.agent.heartbeat_every = 4;
  config.flight_recorder_capacity = 4096;  // Retain the whole story.
  // A mid-run partition guarantees wire-seq gaps; recovery heals them.
  config.channel.seed = 23;
  config.channel.faults.partition_start = 100;
  config.channel.faults.partition_length = 12;
  config.recovery.enabled = true;
  config.recovery.suspect_after_silent_ticks = 6;
  config.recovery.backoff_initial_ticks = 2;
  config.recovery.backoff_max_ticks = 16;
  return config;
}

TEST(FlightRecorderTest, BlackBoxRecordsCausallyOrderedRecovery) {
  RandomWalkGenerator::Config gen_config;
  gen_config.step_sigma = 1.0;
  RandomWalkGenerator generator(gen_config);
  KalmanPredictor::Config kalman;
  kalman.model = MakeRandomWalkModel(1.0, 0.25);
  KalmanPredictor prototype(kalman);

  LinkConfig config = BlackBoxConfig();
  LinkReport report = RunLink(generator, prototype, config);

  // The partition really did damage and recovery really did run.
  ASSERT_GT(report.gaps + report.agent.heartbeats, 0);
  ASSERT_GT(report.resyncs_requested, 0);
  ASSERT_FALSE(report.black_box.empty());

  // The black box tells the story in causal order: the replica notices
  // the damage (gap or quarantine), asks for help, and is let out of
  // quarantine once the resync lands.
  size_t gap = report.black_box.find("WIRE_GAP");
  if (gap == std::string::npos) {
    // Heartbeat silence can trip quarantine before any data gap is seen.
    gap = report.black_box.find("QUARANTINE_ENTER");
  }
  size_t request = report.black_box.find("RESYNC_REQUEST", gap);
  size_t served = report.black_box.find("RESYNC_SERVED", request);
  size_t exit_at = report.black_box.find("QUARANTINE_EXIT", request);
  ASSERT_NE(gap, std::string::npos) << report.black_box;
  ASSERT_NE(request, std::string::npos) << report.black_box;
  ASSERT_NE(served, std::string::npos) << report.black_box;
  ASSERT_NE(exit_at, std::string::npos) << report.black_box;
  EXPECT_LT(gap, request);
  EXPECT_LT(request, served);
  EXPECT_LT(request, exit_at);

  // Healthy protocol traffic is in there too — the trail has context.
  EXPECT_NE(report.black_box.find("INIT"), std::string::npos);

  // Determinism: the identical config replays to the identical black box.
  RandomWalkGenerator generator2(gen_config);
  LinkReport replay = RunLink(generator2, prototype, config);
  EXPECT_EQ(report.black_box, replay.black_box);
}

TEST(FlightRecorderTest, CleanLinkBlackBoxHasNoRecoveryEvents) {
  RandomWalkGenerator::Config gen_config;
  RandomWalkGenerator generator(gen_config);
  KalmanPredictor::Config kalman;
  kalman.model = MakeRandomWalkModel(1.0, 0.25);
  KalmanPredictor prototype(kalman);

  LinkConfig config;
  config.ticks = 200;
  config.delta = 0.5;
  config.flight_recorder_capacity = 64;
  LinkReport report = RunLink(generator, prototype, config);

  ASSERT_FALSE(report.black_box.empty());
  EXPECT_EQ(report.black_box.find("WIRE_GAP"), std::string::npos);
  EXPECT_EQ(report.black_box.find("RESYNC_REQUEST"), std::string::npos);
  EXPECT_EQ(report.black_box.find("QUARANTINE"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace kc
