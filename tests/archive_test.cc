#include "server/archive.h"

#include <gtest/gtest.h>

#include "fleet/sharded_server.h"
#include "query/parser.h"
#include "server/server.h"
#include "suppression/policies.h"

namespace kc {
namespace {

TEST(TickArchiveTest, RecordsAndSizes) {
  TickArchive archive(4);
  EXPECT_TRUE(archive.empty());
  EXPECT_EQ(archive.capacity(), 4u);
  archive.Record(1.0, 10.0, 0.5);
  archive.Record(2.0, 11.0, 0.5);
  EXPECT_EQ(archive.size(), 2u);
  EXPECT_DOUBLE_EQ(archive.oldest_time(), 1.0);
  EXPECT_DOUBLE_EQ(archive.newest_time(), 2.0);
}

TEST(TickArchiveTest, RingEvictsOldest) {
  TickArchive archive(3);
  for (int i = 1; i <= 5; ++i) {
    archive.Record(static_cast<double>(i), static_cast<double>(10 * i), 0.1);
  }
  EXPECT_EQ(archive.size(), 3u);
  EXPECT_EQ(archive.total_recorded(), 5);
  EXPECT_DOUBLE_EQ(archive.oldest_time(), 3.0);
  EXPECT_DOUBLE_EQ(archive.newest_time(), 5.0);
  auto all = archive.Range(0.0, 100.0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0].value, 30.0);
  EXPECT_DOUBLE_EQ(all[2].value, 50.0);
}

TEST(TickArchiveTest, RangeBoundariesInclusive) {
  TickArchive archive(10);
  for (int i = 1; i <= 5; ++i) {
    archive.Record(static_cast<double>(i), static_cast<double>(i), 0.1);
  }
  auto range = archive.Range(2.0, 4.0);
  ASSERT_EQ(range.size(), 3u);
  EXPECT_DOUBLE_EQ(range.front().time, 2.0);
  EXPECT_DOUBLE_EQ(range.back().time, 4.0);
  EXPECT_TRUE(archive.Range(6.0, 9.0).empty());
}

TEST(TickArchiveTest, AggregatesWithBounds) {
  TickArchive archive(10);
  archive.Record(1.0, 10.0, 0.5);
  archive.Record(2.0, 20.0, 1.0);
  archive.Record(3.0, 15.0, 0.25);

  auto sum = archive.Aggregate(AggregateKind::kSum, 0.0, 10.0);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum->value, 45.0);
  EXPECT_DOUBLE_EQ(sum->bound, 1.75);

  auto avg = archive.Aggregate(AggregateKind::kAvg, 0.0, 10.0);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(avg->value, 15.0);
  EXPECT_NEAR(avg->bound, 1.75 / 3.0, 1e-12);

  auto mn = archive.Aggregate(AggregateKind::kMin, 0.0, 10.0);
  ASSERT_TRUE(mn.ok());
  EXPECT_DOUBLE_EQ(mn->value, 10.0);
  EXPECT_DOUBLE_EQ(mn->bound, 1.0);

  auto mx = archive.Aggregate(AggregateKind::kMax, 0.0, 10.0);
  ASSERT_TRUE(mx.ok());
  EXPECT_DOUBLE_EQ(mx->value, 20.0);

  auto latest = archive.Aggregate(AggregateKind::kValue, 0.0, 10.0);
  ASSERT_TRUE(latest.ok());
  EXPECT_DOUBLE_EQ(latest->value, 15.0);
  EXPECT_DOUBLE_EQ(latest->bound, 0.25);
}

TEST(TickArchiveTest, EmptyRangeAggregateFails) {
  TickArchive archive(4);
  archive.Record(1.0, 1.0, 0.1);
  EXPECT_FALSE(archive.Aggregate(AggregateKind::kAvg, 5.0, 9.0).ok());
}

TEST(ServerArchiveTest, DisabledByDefault) {
  StreamServer server;
  EXPECT_FALSE(server.Archive(0).ok());
}

TEST(ServerArchiveTest, RecordsScalarViewsPerTick) {
  StreamServer server;
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  server.EnableArchiving(100);

  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.payload = {0.5, 7.0};
  ASSERT_TRUE(server.OnMessage(init).ok());

  for (int i = 0; i < 10; ++i) server.Tick();
  auto archive = server.Archive(0);
  ASSERT_TRUE(archive.ok());
  EXPECT_EQ((*archive)->size(), 10u);
  auto points = (*archive)->Range(0.0, 1e9);
  for (const auto& p : points) {
    EXPECT_DOUBLE_EQ(p.value, 7.0);
    EXPECT_DOUBLE_EQ(p.bound, 0.5);
  }

  auto hist = server.HistoricalAggregate(0, AggregateKind::kAvg, 0.0, 1e9);
  ASSERT_TRUE(hist.ok());
  EXPECT_DOUBLE_EQ(hist->value, 7.0);
  EXPECT_DOUBLE_EQ(hist->bound, 0.5);
}

TEST(ServerArchiveTest, SkipsUninitializedAndPlanarSources) {
  StreamServer server;
  server.EnableArchiving(10);
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  KalmanPredictor::Config planar;
  planar.model = MakeConstantVelocity2DModel(1.0, 0.1, 1.0);
  ASSERT_TRUE(
      server.RegisterSource(1, std::make_unique<KalmanPredictor>(planar)).ok());

  server.Tick();  // Source 0 uninitialized, source 1 planar: no archives.
  EXPECT_FALSE(server.Archive(0).ok());
  EXPECT_FALSE(server.Archive(1).ok());
}

TEST(ServerArchiveTest, HistoricalQueryThroughTheQueryLanguage) {
  ShardedServer server;
  server.EnableArchiving(1000);
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.payload = {0.5, 2.0};
  ASSERT_TRUE(server.OnMessage(init).ok());

  // Ticks 1..5 record value 2.0; then a correction to 8.0; ticks 6..10
  // record 8.0.
  for (int i = 0; i < 5; ++i) server.Tick();
  Message corr;
  corr.source_id = 0;
  corr.type = MessageType::kCorrection;
  corr.seq = 5;
  corr.payload = {0.5, 8.0};
  ASSERT_TRUE(server.OnMessage(corr).ok());
  for (int i = 0; i < 5; ++i) server.Tick();

  auto spec = ParseQuery("SELECT AVG(s0) FROM 1 TO 10");
  ASSERT_TRUE(spec.ok()) << spec.status();
  auto result = server.EvaluateSpec(*spec, "hist_avg");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->value, 5.0);  // Five 2s and five 8s.
  EXPECT_DOUBLE_EQ(result->bound, 0.5);

  auto max_spec = ParseQuery("SELECT MAX(s0) FROM 1 TO 10 WHEN > 7");
  ASSERT_TRUE(max_spec.ok());
  auto max_result = server.EvaluateSpec(*max_spec, "hist_max");
  ASSERT_TRUE(max_result.ok());
  EXPECT_DOUBLE_EQ(max_result->value, 8.0);
  ASSERT_TRUE(max_result->trigger.has_value());
  EXPECT_EQ(*max_result->trigger, TriggerState::kYes);

  // Out-of-archive range fails cleanly.
  auto empty = ParseQuery("SELECT AVG(s0) FROM 500 TO 600");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(server.EvaluateSpec(*empty, "none").ok());
}

TEST(ServerArchiveTest, SlidingWindowQueryAnchorsToNow) {
  ShardedServer server;
  server.EnableArchiving(1000);
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.payload = {0.5, 1.0};
  ASSERT_TRUE(server.OnMessage(init).ok());
  for (int i = 0; i < 5; ++i) server.Tick();  // Value 1 for ticks 1..5.
  Message corr;
  corr.source_id = 0;
  corr.type = MessageType::kCorrection;
  corr.seq = 5;
  corr.payload = {0.5, 11.0};
  ASSERT_TRUE(server.OnMessage(corr).ok());
  for (int i = 0; i < 5; ++i) server.Tick();  // Value 11 for ticks 6..10.

  auto spec = ParseQuery("SELECT AVG(s0) LAST 5");
  ASSERT_TRUE(spec.ok());
  auto result = server.EvaluateSpec(*spec, "w");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->value, 11.0);  // Only the recent window.

  // Advance and the window slides with "now" (no more records, range
  // empties out eventually).
  auto wide = ParseQuery("SELECT AVG(s0) LAST 10");
  ASSERT_TRUE(wide.ok());
  auto wide_result = server.EvaluateSpec(*wide, "w10");
  ASSERT_TRUE(wide_result.ok());
  EXPECT_DOUBLE_EQ(wide_result->value, 6.0);  // Five 1s + five 11s.
}

TEST(ServerArchiveTest, HistoricalAggregateUnknownSourceFails) {
  StreamServer server;
  server.EnableArchiving(10);
  EXPECT_FALSE(
      server.HistoricalAggregate(42, AggregateKind::kAvg, 0.0, 1.0).ok());
}

}  // namespace
}  // namespace kc
