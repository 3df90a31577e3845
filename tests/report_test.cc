#include "server/report.h"

#include <gtest/gtest.h>

#include "fleet/sharded_fleet.h"
#include "query/parser.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace kc {
namespace {

TEST(ReportTest, EmptyServer) {
  StreamServer server;
  std::string report = DescribeServer(server);
  EXPECT_NE(report.find("0 sources"), std::string::npos);
  EXPECT_NE(report.find("0 queries"), std::string::npos);
}

TEST(ReportTest, MentionsEverySectionOnLiveServer) {
  ShardedFleet fleet;
  fleet.server().EnableArchiving(1000);
  fleet.server().SetStalenessLimit(500);
  RandomWalkGenerator::Config walk;
  fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                  MakeDefaultKalmanPredictor(0.1, 0.01), 0.5);
  fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                  std::make_unique<ValueCachePredictor>(), 1.0);
  auto spec = ParseQuery("SELECT AVG(s0, s1) WITHIN 1");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(fleet.server().AddQuery("avg", *spec).ok());
  ASSERT_TRUE(fleet.Run(100).ok());

  std::string report = DescribeServer(fleet.server());
  EXPECT_NE(report.find("2 sources"), std::string::npos);
  EXPECT_NE(report.find("s0 [kalman]"), std::string::npos);
  EXPECT_NE(report.find("s1 [value_cache]"), std::string::npos);
  EXPECT_NE(report.find("archive="), std::string::npos);
  EXPECT_NE(report.find("staleness limit: 500"), std::string::npos);
  EXPECT_NE(report.find("avg:"), std::string::npos);
  EXPECT_EQ(report.find("STALE"), std::string::npos);
  EXPECT_EQ(report.find("not initialized"), std::string::npos);
}

TEST(ReportTest, FlagsUninitializedAndStale) {
  StreamServer server;
  server.SetStalenessLimit(5);
  ASSERT_TRUE(server.RegisterSource(0, std::make_unique<ValueCachePredictor>())
                  .ok());
  ASSERT_TRUE(server.RegisterSource(1, std::make_unique<ValueCachePredictor>())
                  .ok());
  Message init;
  init.source_id = 1;
  init.type = MessageType::kInit;
  init.payload = {0.5, 3.0};
  ASSERT_TRUE(server.OnMessage(init).ok());
  for (int i = 0; i < 10; ++i) server.Tick();

  std::string report = DescribeServer(server);
  EXPECT_NE(report.find("not initialized"), std::string::npos);
  EXPECT_NE(report.find("STALE"), std::string::npos);
}

}  // namespace
}  // namespace kc
