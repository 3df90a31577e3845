#include "server/snapshot.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "fleet/sharded_fleet.h"
#include "query/parser.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace kc {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// The factory every test uses: source 0 = adaptive KF, source 1 = value
/// cache, source 2 = linear.
std::unique_ptr<Predictor> Factory(int32_t id) {
  switch (id) {
    case 0:
      return MakeDefaultKalmanPredictor(0.09, 0.04);
    case 1:
      return std::make_unique<ValueCachePredictor>();
    case 2:
      return std::make_unique<LinearPredictor>();
    default:
      return nullptr;
  }
}

/// Builds a one-shard, per-object fleet matching Factory() and runs it for
/// `ticks`. Its single shard is a plain StreamServer holding every source,
/// so the tests snapshot and query it directly.
std::unique_ptr<ShardedFleet> RunFleet(size_t ticks) {
  ShardedFleet::Config config;
  config.num_shards = 1;
  config.pooling = false;
  auto fleet = std::make_unique<ShardedFleet>(config);
  StreamServer& server = fleet->server().shard(0);
  server.EnableArchiving(5000);
  for (int32_t id = 0; id < 3; ++id) {
    RandomWalkGenerator::Config walk;
    walk.step_sigma = 0.3 + 0.2 * id;
    fleet->AddSource(std::make_unique<RandomWalkGenerator>(walk), Factory(id),
                     0.5 + 0.25 * id);
  }
  auto spec = ParseQuery("SELECT AVG(s0, s1, s2) WITHIN 2 EVERY 5");
  EXPECT_TRUE(spec.ok());
  EXPECT_TRUE(server.AddQuery("avg_all", *spec).ok());
  auto hist = ParseQuery("SELECT MAX(s0) LAST 50");
  EXPECT_TRUE(hist.ok());
  EXPECT_TRUE(server.AddQuery("recent_max", *hist).ok());
  EXPECT_TRUE(fleet->Run(ticks).ok());
  return fleet;
}

TEST(SnapshotTest, RoundTripPreservesAnswers) {
  auto fleet = RunFleet(800);
  StreamServer& original = fleet->server().shard(0);
  std::string path = TempPath("server.snap");
  ASSERT_TRUE(SaveServerSnapshot(original, path).ok());

  StreamServer restored;
  ASSERT_TRUE(LoadServerSnapshot(path, Factory, &restored).ok());

  EXPECT_EQ(restored.ticks(), original.ticks());
  EXPECT_EQ(restored.num_sources(), original.num_sources());
  EXPECT_EQ(restored.num_queries(), original.num_queries());

  // Every source answers identically.
  for (int32_t id = 0; id < 3; ++id) {
    auto a = original.SourceValue(id);
    auto b = restored.SourceValue(id);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->value.size(), b->value.size());
    for (size_t d = 0; d < a->value.size(); ++d) {
      EXPECT_DOUBLE_EQ(a->value[d], b->value[d]) << "source " << id;
    }
    EXPECT_DOUBLE_EQ(a->bound, b->bound);
    EXPECT_EQ(a->last_heard_seq, b->last_heard_seq);
  }

  // Queries (live and historical/sliding-window) agree.
  for (const std::string name : {"avg_all", "recent_max"}) {
    auto a = original.Evaluate(name);
    auto b = restored.Evaluate(name);
    ASSERT_TRUE(a.ok()) << name << ": " << a.status();
    ASSERT_TRUE(b.ok()) << name << ": " << b.status();
    EXPECT_DOUBLE_EQ(a->value, b->value) << name;
    EXPECT_DOUBLE_EQ(a->bound, b->bound) << name;
  }

  std::remove(path.c_str());
}

TEST(SnapshotTest, RestoredServerContinuesEvolvingIdentically) {
  auto fleet = RunFleet(300);
  StreamServer& server = fleet->server().shard(0);
  std::string path = TempPath("continue.snap");
  ASSERT_TRUE(SaveServerSnapshot(server, path).ok());
  StreamServer restored;
  ASSERT_TRUE(LoadServerSnapshot(path, Factory, &restored).ok());

  // Drive both servers with the same future message and ticks.
  Message corr;
  corr.source_id = 1;
  corr.type = MessageType::kCorrection;
  corr.seq = 100000;
  corr.time = 1e6;
  corr.payload = {0.75, 42.0};
  ASSERT_TRUE(server.OnMessage(corr).ok());
  ASSERT_TRUE(restored.OnMessage(corr).ok());
  for (int i = 0; i < 10; ++i) {
    server.Tick();
    restored.Tick();
  }
  auto a = server.SourceValue(1);
  auto b = restored.SourceValue(1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->value[0], b->value[0]);
  EXPECT_DOUBLE_EQ(b->value[0], 42.0);
}

TEST(SnapshotTest, ArchivesSurviveTheRoundTrip) {
  auto fleet = RunFleet(400);
  StreamServer& server = fleet->server().shard(0);
  std::string path = TempPath("archive.snap");
  ASSERT_TRUE(SaveServerSnapshot(server, path).ok());
  StreamServer restored;
  ASSERT_TRUE(LoadServerSnapshot(path, Factory, &restored).ok());

  auto a = server.HistoricalAggregate(0, AggregateKind::kAvg, 0.0, 1e9);
  auto b = restored.HistoricalAggregate(0, AggregateKind::kAvg, 0.0, 1e9);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->value, b->value);
  EXPECT_DOUBLE_EQ(a->bound, b->bound);
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadValidations) {
  StreamServer fresh;
  EXPECT_FALSE(LoadServerSnapshot(TempPath("missing.snap"), Factory, &fresh)
                   .ok());
  EXPECT_FALSE(LoadServerSnapshot(TempPath("missing.snap"), nullptr, &fresh)
                   .ok());
  EXPECT_FALSE(
      LoadServerSnapshot(TempPath("missing.snap"), Factory, nullptr).ok());

  // Non-fresh target rejected.
  auto fleet = RunFleet(50);
  StreamServer& server = fleet->server().shard(0);
  std::string path = TempPath("valid.snap");
  ASSERT_TRUE(SaveServerSnapshot(server, path).ok());
  EXPECT_FALSE(LoadServerSnapshot(path, Factory, &server).ok());

  // Corrupted magic rejected.
  {
    std::ofstream out(TempPath("garbage.snap"));
    out << "NOT_A_SNAPSHOT 1\nend\n";
  }
  EXPECT_FALSE(
      LoadServerSnapshot(TempPath("garbage.snap"), Factory, &fresh).ok());

  // Truncated snapshot rejected.
  {
    std::ifstream in(path);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::ofstream out(TempPath("truncated.snap"));
    out << all.substr(0, all.size() / 2);
  }
  StreamServer fresh2;
  EXPECT_FALSE(
      LoadServerSnapshot(TempPath("truncated.snap"), Factory, &fresh2).ok());

  std::remove(path.c_str());
  std::remove(TempPath("garbage.snap").c_str());
  std::remove(TempPath("truncated.snap").c_str());
}

TEST(SnapshotTest, UninitializedSourcesRoundTrip) {
  StreamServer server;
  ASSERT_TRUE(server.RegisterSource(1, Factory(1)).ok());
  std::string path = TempPath("uninit.snap");
  ASSERT_TRUE(SaveServerSnapshot(server, path).ok());
  StreamServer restored;
  ASSERT_TRUE(LoadServerSnapshot(path, Factory, &restored).ok());
  EXPECT_EQ(restored.num_sources(), 1u);
  EXPECT_FALSE(restored.SourceValue(1).ok());  // Still uninitialized.
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kc
