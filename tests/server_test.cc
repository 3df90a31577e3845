#include "server/server.h"

#include <gtest/gtest.h>

#include <functional>

#include "fleet/sharded_server.h"
#include "suppression/policies.h"

namespace kc {
namespace {

Message InitMessage(int32_t source, double delta, double value) {
  Message msg;
  msg.source_id = source;
  msg.type = MessageType::kInit;
  msg.seq = 0;
  msg.time = 0.0;
  msg.payload = {delta, value};
  return msg;
}

Message CorrectionMessage(int32_t source, int64_t seq, double delta,
                          double value) {
  Message msg;
  msg.source_id = source;
  msg.type = MessageType::kCorrection;
  msg.seq = seq;
  msg.time = static_cast<double>(seq);
  msg.payload = {delta, value};
  return msg;
}

TEST(StreamServerTest, RegisterAndDuplicate) {
  StreamServer server;
  EXPECT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  EXPECT_FALSE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                   .ok());
  EXPECT_FALSE(server.RegisterSource(1, nullptr).ok());
  EXPECT_EQ(server.num_sources(), 1u);
}

TEST(StreamServerTest, UnregisterRemoves) {
  StreamServer server;
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  EXPECT_TRUE(server.UnregisterSource(0).ok());
  EXPECT_FALSE(server.UnregisterSource(0).ok());
  EXPECT_EQ(server.num_sources(), 0u);
}

TEST(StreamServerTest, SourceValueLifecycle) {
  StreamServer server;
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  EXPECT_FALSE(server.SourceValue(0).ok());  // Not initialized yet.
  EXPECT_FALSE(server.SourceValue(99).ok()); // Unknown.

  ASSERT_TRUE(server.OnMessage(InitMessage(0, 0.5, 3.0)).ok());
  auto answer = server.SourceValue(0);
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer->value[0], 3.0);
  EXPECT_DOUBLE_EQ(answer->bound, 0.5);
  EXPECT_EQ(answer->last_heard_seq, 0);
}

TEST(StreamServerTest, MessageRoutingAndErrors) {
  StreamServer server;
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  EXPECT_FALSE(server.OnMessage(InitMessage(42, 0.5, 1.0)).ok());
  ASSERT_TRUE(server.OnMessage(InitMessage(0, 0.5, 1.0)).ok());
  ASSERT_TRUE(server.OnMessage(CorrectionMessage(0, 3, 0.5, 2.0)).ok());
  EXPECT_DOUBLE_EQ(server.SourceValue(0)->value[0], 2.0);
  EXPECT_EQ(server.messages_processed(), 2);
}

TEST(StreamServerTest, TickAdvancesReplicas) {
  StreamServer server;
  ASSERT_TRUE(
      server.RegisterSource(0, std::make_unique<LinearPredictor>()).ok());
  ASSERT_TRUE(server.OnMessage(InitMessage(0, 0.5, 0.0)).ok());
  ASSERT_TRUE(server.OnMessage(CorrectionMessage(0, 1, 0.5, 2.0)).ok());
  // Linear predictor now has slope 2; two ticks should add 4.
  server.Tick();
  server.Tick();
  EXPECT_DOUBLE_EQ(server.SourceValue(0)->value[0], 6.0);
  EXPECT_EQ(server.ticks(), 2);
}

/// Drives one replica through INITs and ticks and checks its counters.
/// `tick` advances one tick, `init` delivers an INIT with a value.
void ExpectClockCounters(const ServerReplica& r,
                         const std::function<void()>& tick,
                         const std::function<void(double)>& init) {
  tick();
  EXPECT_EQ(r.ticks(), 0);  // Not initialized yet.
  init(1.0);
  for (int t = 0; t < 3; ++t) tick();
  EXPECT_EQ(r.ticks(), 3);
  EXPECT_EQ(r.TicksSinceHeard(), 3);
  EXPECT_FALSE(r.stale());
  init(2.0);  // A re-INIT re-anchors the value, not ticks().
  EXPECT_EQ(r.TicksSinceHeard(), 0);
  for (int t = 0; t < 4; ++t) tick();
  EXPECT_EQ(r.ticks(), 7);
  EXPECT_EQ(r.TicksSinceHeard(), 4);
  EXPECT_TRUE(r.stale());
}

TEST(StreamServerTest, ReplicaCountersFollowTheClock) {
  // A server's replicas count from its clock (their registration and first
  // INIT ticks); a standalone replica counts its own Tick() calls. Both
  // read the same.
  StreamServer server;
  server.Tick();
  server.Tick();  // The clock runs before the source exists.
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  server.SetStalenessLimit(3);
  ExpectClockCounters(
      *server.replica(0), [&] { server.Tick(); },
      [&](double v) {
        ASSERT_TRUE(server.OnMessage(InitMessage(0, 0.5, v)).ok());
      });

  ServerReplica alone(0, std::make_unique<ValueCachePredictor>());
  alone.SetStalenessLimit(3);
  ExpectClockCounters(
      alone, [&] { alone.Tick(); },
      [&](double v) {
        ASSERT_TRUE(alone.OnMessage(InitMessage(0, 0.5, v)).ok());
      });
}

ShardedServer MakeThreeSourceServer() {
  ShardedServer server;
  for (int32_t id = 0; id < 3; ++id) {
    EXPECT_TRUE(
        server.RegisterSource(id, std::make_unique<ValueCachePredictor>()).ok());
    EXPECT_TRUE(server
                    .OnMessage(InitMessage(id, 0.5 * (id + 1),
                                           10.0 * (id + 1)))
                    .ok());
  }
  return server;
}

TEST(ServerQueryTest, AddQueryValidation) {
  ShardedServer server = MakeThreeSourceServer();
  QuerySpec spec;
  spec.kind = AggregateKind::kAvg;
  spec.sources = {0, 1, 2};
  EXPECT_TRUE(server.AddQuery("avg_all", spec).ok());
  EXPECT_FALSE(server.AddQuery("avg_all", spec).ok());  // Duplicate name.

  QuerySpec bad;
  bad.kind = AggregateKind::kSum;
  bad.sources = {0, 99};
  EXPECT_FALSE(server.AddQuery("bad", bad).ok());  // Unknown source.

  EXPECT_EQ(server.num_queries(), 1u);
  EXPECT_EQ(server.QueryNames(), std::vector<std::string>{"avg_all"});
}

TEST(ServerQueryTest, AggregateEvaluation) {
  ShardedServer server = MakeThreeSourceServer();
  // Values 10, 20, 30 with bounds 0.5, 1.0, 1.5.
  QuerySpec sum;
  sum.kind = AggregateKind::kSum;
  sum.sources = {0, 1, 2};
  auto result = server.EvaluateSpec(sum, "sum");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->value, 60.0);
  EXPECT_DOUBLE_EQ(result->bound, 3.0);

  QuerySpec avg = sum;
  avg.kind = AggregateKind::kAvg;
  result = server.EvaluateSpec(avg, "avg");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->value, 20.0);
  EXPECT_DOUBLE_EQ(result->bound, 1.0);

  QuerySpec mx = sum;
  mx.kind = AggregateKind::kMax;
  result = server.EvaluateSpec(mx, "max");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->value, 30.0);
  EXPECT_DOUBLE_EQ(result->bound, 1.5);
}

TEST(ServerQueryTest, WithinCheckAndTrigger) {
  ShardedServer server = MakeThreeSourceServer();
  QuerySpec spec;
  spec.kind = AggregateKind::kSum;
  spec.sources = {0, 1, 2};
  spec.within = 2.0;  // Actual bound is 3.0: not met.
  spec.threshold = 50.0;
  spec.above = true;
  auto result = server.EvaluateSpec(spec, "q");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->meets_within);
  ASSERT_TRUE(result->trigger.has_value());
  EXPECT_EQ(*result->trigger, TriggerState::kYes);  // 60 - 3 > 50.
}

TEST(ServerQueryTest, EvaluateAllAndRemove) {
  ShardedServer server = MakeThreeSourceServer();
  QuerySpec spec;
  spec.kind = AggregateKind::kMin;
  spec.sources = {0, 1};
  ASSERT_TRUE(server.AddQuery("m", spec).ok());
  auto results = server.EvaluateAll();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].value, 10.0);
  EXPECT_TRUE(server.RemoveQuery("m").ok());
  EXPECT_FALSE(server.RemoveQuery("m").ok());
}

TEST(ServerQueryTest, EvaluateUnknownQueryFails) {
  ShardedServer server;
  EXPECT_FALSE(server.Evaluate("nope").ok());
}

TEST(ServerQueryTest, QueryOnUninitializedSourceFails) {
  ShardedServer server;
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  QuerySpec spec;
  spec.kind = AggregateKind::kValue;
  spec.sources = {0};
  EXPECT_FALSE(server.EvaluateSpec(spec, "v").ok());
}

TEST(StreamServerTest, UnregisterErasesArchiveForIdReuse) {
  // Regression: UnregisterSource used to leave the source's TickArchive
  // behind, so re-registering the same id resumed the dead source's
  // history.
  StreamServer server;
  server.EnableArchiving(16);
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  ASSERT_TRUE(server.OnMessage(InitMessage(0, 0.5, 1.0)).ok());
  for (int i = 0; i < 5; ++i) server.Tick();
  ASSERT_TRUE(server.Archive(0).ok());
  ASSERT_EQ((*server.Archive(0))->size(), 5u);

  ASSERT_TRUE(server.UnregisterSource(0).ok());
  EXPECT_FALSE(server.Archive(0).ok()) << "archive must die with the source";

  // Re-register the same id: a fresh history, not the dead source's.
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  EXPECT_FALSE(server.Archive(0).ok());
  ASSERT_TRUE(server.OnMessage(InitMessage(0, 0.5, 7.0)).ok());
  server.Tick();
  auto archive = server.Archive(0);
  ASSERT_TRUE(archive.ok());
  EXPECT_EQ((*archive)->size(), 1u);
  EXPECT_EQ((*archive)->total_recorded(), 1);
  EXPECT_DOUBLE_EQ((*archive)->oldest_time(), 6.0);

  // A second reuse, read back through the archive's range and aggregate
  // paths: every point belongs to the live source's lifetime (ticks 7-9,
  // value 9), none to the two dead ones.
  ASSERT_TRUE(server.UnregisterSource(0).ok());
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  ASSERT_TRUE(server.OnMessage(InitMessage(0, 0.5, 9.0)).ok());
  for (int i = 0; i < 3; ++i) server.Tick();
  archive = server.Archive(0);
  ASSERT_TRUE(archive.ok());
  EXPECT_EQ((*archive)->total_recorded(), 3);
  std::vector<TickArchive::Point> points = (*archive)->Range(0.0, 100.0);
  ASSERT_EQ(points.size(), 3u);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(points[i].time, 7.0 + static_cast<double>(i));
    EXPECT_DOUBLE_EQ(points[i].value, 9.0);
  }
  auto avg = (*archive)->Aggregate(AggregateKind::kAvg, 0.0, 100.0);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(avg->value, 9.0);
}

TEST(ServerQueryTest, LastWindowLargerThanHistoryClamps) {
  // Regression: LAST n with n > ticks computed from = ticks - n + 1 < 0
  // instead of clamping to the archive's oldest recorded time.
  ShardedServer server;
  server.EnableArchiving(8);
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  ASSERT_TRUE(server.OnMessage(InitMessage(0, 0.5, 3.0)).ok());
  for (int i = 0; i < 4; ++i) server.Tick();  // Archive holds t = 1..4.

  QuerySpec spec;
  spec.kind = AggregateKind::kAvg;
  spec.sources = {0};
  spec.last_ticks = 1000;  // Far more history than exists.
  auto result = server.EvaluateSpec(spec, "last");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->value, 3.0);

  // The clamped window is exactly the recorded range: same answer as an
  // explicit FROM oldest TO now.
  auto full = server.HistoricalAggregate(0, AggregateKind::kAvg, 1.0, 4.0);
  ASSERT_TRUE(full.ok());
  EXPECT_DOUBLE_EQ(result->value, full->value);
  EXPECT_DOUBLE_EQ(result->bound, full->bound);

  // A LAST window within history still covers exactly n ticks.
  spec.last_ticks = 2;
  result = server.EvaluateSpec(spec, "last2");
  ASSERT_TRUE(result.ok());
  auto tail = server.HistoricalAggregate(0, AggregateKind::kAvg, 3.0, 4.0);
  ASSERT_TRUE(tail.ok());
  EXPECT_DOUBLE_EQ(result->value, tail->value);
}

TEST(ServerQueryTest, AggregateOverPlanarSourceRejected) {
  ShardedServer server;
  KalmanPredictor::Config config;
  config.model = MakeConstantVelocity2DModel(1.0, 0.1, 0.5);
  ASSERT_TRUE(
      server.RegisterSource(0, std::make_unique<KalmanPredictor>(config)).ok());
  QuerySpec spec;
  spec.kind = AggregateKind::kValue;
  spec.sources = {0};
  EXPECT_FALSE(server.AddQuery("v", spec).ok());
}

}  // namespace
}  // namespace kc
