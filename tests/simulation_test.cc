#include "server/simulation.h"

#include <gtest/gtest.h>

#include "fleet/sharded_fleet.h"
#include "query/parser.h"
#include "server/allocation.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

namespace kc {
namespace {

KalmanPredictor::Config ScalarKalman(double q = 0.1, double r = 0.25) {
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(q, r);
  return config;
}

TEST(RunLinkTest, ReportsBasicAccounting) {
  RandomWalkGenerator gen(RandomWalkGenerator::Config{});
  ValueCachePredictor proto;
  LinkConfig config;
  config.ticks = 2000;
  config.delta = 1.0;
  LinkReport report = RunLink(gen, proto, config);
  EXPECT_EQ(report.ticks, 2000);
  EXPECT_EQ(report.policy, "value_cache");
  EXPECT_EQ(report.stream, "random_walk");
  EXPECT_GT(report.messages, 0);
  EXPECT_LT(report.messages, 2000);
  EXPECT_GT(report.bytes, 0);
  EXPECT_NEAR(report.messages_per_tick,
              static_cast<double>(report.messages) / 2000.0, 1e-12);
  EXPECT_EQ(report.err_vs_target.count(), 2000);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(RunLinkTest, ContractHoldsForValueCache) {
  RandomWalkGenerator gen(RandomWalkGenerator::Config{});
  ValueCachePredictor proto;
  LinkConfig config;
  config.ticks = 5000;
  config.delta = 2.0;
  LinkReport report = RunLink(gen, proto, config);
  EXPECT_EQ(report.contract_violations, 0);
  EXPECT_LE(report.err_vs_target.max(), 2.0 + 1e-9);
}

TEST(RunLinkTest, KalmanBeatsValueCacheOnTrendingStream) {
  LinearDriftGenerator::Config stream;
  stream.slope = 0.5;
  stream.wobble_sigma = 0.02;
  LinearDriftGenerator gen(stream);

  LinkConfig config;
  config.ticks = 5000;
  config.delta = 1.0;

  ValueCachePredictor cache_proto;
  LinkReport cache = RunLink(gen, cache_proto, config);

  KalmanPredictor::Config kf_config;
  kf_config.model = MakeConstantVelocityModel(1.0, 0.01, 0.01);
  KalmanPredictor kf_proto(kf_config);
  LinkReport kalman = RunLink(gen, kf_proto, config);

  // Value cache must re-ship every delta/slope = 2 ticks; the KF learns
  // the ramp and nearly stops talking.
  EXPECT_LT(kalman.messages * 10, cache.messages)
      << "kalman=" << kalman.messages << " cache=" << cache.messages;
  EXPECT_EQ(kalman.contract_violations, 0);
}

TEST(RunLinkTest, MessagesDecreaseAsDeltaGrows) {
  RandomWalkGenerator gen(RandomWalkGenerator::Config{});
  KalmanPredictor proto(ScalarKalman());
  int64_t prev = std::numeric_limits<int64_t>::max();
  for (double delta : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    LinkConfig config;
    config.ticks = 4000;
    config.delta = delta;
    LinkReport report = RunLink(gen, proto, config);
    EXPECT_LE(report.messages, prev) << "delta=" << delta;
    prev = report.messages;
  }
}

TEST(RunLinkTest, BudgetModeSteersDelta) {
  RandomWalkGenerator gen(RandomWalkGenerator::Config{});
  ValueCachePredictor proto;
  LinkConfig config;
  config.ticks = 20000;
  config.delta = 0.05;  // Way too tight for the budget.
  config.budget = BudgetConfig{};
  config.budget->target_rate = 0.02;
  config.budget->window = 250;
  LinkReport report = RunLink(gen, proto, config);
  EXPECT_GT(report.final_delta, config.delta);
  // Overall rate should be in the budget's neighborhood.
  EXPECT_LT(report.messages_per_tick, 0.2);
}

TEST(RunLinkTest, TracedRunExposesTrajectory) {
  RandomWalkGenerator gen(RandomWalkGenerator::Config{});
  KalmanPredictor proto(ScalarKalman());
  LinkConfig config;
  config.ticks = 500;
  config.delta = 1.0;
  std::vector<TrajectoryPoint> trajectory;
  LinkReport report = RunLinkTraced(gen, proto, config, &trajectory);
  ASSERT_EQ(trajectory.size(), 500u);  // Every tick incl. the INIT tick.
  int64_t sends = 0;
  for (const auto& p : trajectory) sends += p.message_sent ? 1 : 0;
  EXPECT_EQ(sends, report.messages);  // INIT counts as the first send.
  EXPECT_EQ(trajectory.back().cumulative_messages, report.messages);
  for (const auto& p : trajectory) {
    ASSERT_DOUBLE_EQ(p.delta, 1.0);
  }
}

TEST(RunLinkTest, LossyChannelBreaksContractButIsCounted) {
  RandomWalkGenerator gen(RandomWalkGenerator::Config{});
  ValueCachePredictor proto;
  LinkConfig config;
  config.ticks = 5000;
  config.delta = 0.5;
  config.channel.loss_prob = 0.5;
  LinkReport report = RunLink(gen, proto, config);
  EXPECT_GT(report.net.messages_dropped, 0);
  // With half the corrections lost, violations are expected.
  EXPECT_GT(report.contract_violations, 0);
}

TEST(FleetTest, EndToEndWithQueries) {
  ShardedFleet fleet;
  for (int i = 0; i < 4; ++i) {
    RandomWalkGenerator::Config stream;
    stream.start = 10.0 * i;
    stream.step_sigma = 0.5;
    fleet.AddSource(std::make_unique<RandomWalkGenerator>(stream),
                    std::make_unique<KalmanPredictor>(ScalarKalman()),
                    /*delta=*/0.5);
  }
  ASSERT_TRUE(fleet.Run(200).ok());
  EXPECT_EQ(fleet.ticks(), 200);
  EXPECT_EQ(fleet.server().num_sources(), 4u);

  auto spec = ParseQuery("SELECT AVG(s0, s1, s2, s3) WITHIN 1.0");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(fleet.server().AddQuery("avg", *spec).ok());
  auto result = fleet.server().Evaluate("avg");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->bound, 0.5);  // 4 * 0.5 / 4.
  EXPECT_TRUE(result->meets_within);

  // The bounded answer must actually be near the true average of the
  // contract targets; check against ground truth with noise-free streams.
  double true_avg = 0.0;
  for (int i = 0; i < 4; ++i) true_avg += fleet.TruthOf(i);
  true_avg /= 4.0;
  EXPECT_NEAR(result->value, true_avg, 1.0);
}

TEST(FleetTest, PerSourceAccounting) {
  ShardedFleet fleet;
  // Source 0 is flat (cheap); source 1 is volatile (chatty).
  LinearDriftGenerator::Config flat;
  flat.slope = 0.0;
  flat.wobble_sigma = 0.0;
  fleet.AddSource(std::make_unique<LinearDriftGenerator>(flat),
                  std::make_unique<ValueCachePredictor>(), 0.5);
  RandomWalkGenerator::Config wild;
  wild.step_sigma = 3.0;
  fleet.AddSource(std::make_unique<RandomWalkGenerator>(wild),
                  std::make_unique<ValueCachePredictor>(), 0.5);
  ASSERT_TRUE(fleet.Run(500).ok());
  EXPECT_EQ(fleet.MessagesOf(0), 1);  // INIT only.
  EXPECT_GT(fleet.MessagesOf(1), 100);
  EXPECT_EQ(fleet.TotalMessages(), fleet.MessagesOf(0) + fleet.MessagesOf(1));
  EXPECT_GT(fleet.TotalBytes(), 0);
}

TEST(FleetTest, AdaptiveAllocationShiftsBudget) {
  ShardedFleet fleet;
  LinearDriftGenerator::Config flat;
  flat.slope = 0.0;
  flat.wobble_sigma = 0.0;
  fleet.AddSource(std::make_unique<LinearDriftGenerator>(flat),
                  std::make_unique<ValueCachePredictor>(), 1.0);
  RandomWalkGenerator::Config wild;
  wild.step_sigma = 2.0;
  fleet.AddSource(std::make_unique<RandomWalkGenerator>(wild),
                  std::make_unique<ValueCachePredictor>(), 1.0);

  AdaptiveAllocator allocator(2.0, 2);
  std::vector<int64_t> last_counts = {0, 0};
  for (int window = 0; window < 20; ++window) {
    ASSERT_TRUE(fleet.Run(200).ok());
    std::vector<int64_t> counts = {fleet.MessagesOf(0), fleet.MessagesOf(1)};
    allocator.Rebalance(
        {counts[0] - last_counts[0], counts[1] - last_counts[1]});
    last_counts = counts;
    fleet.SetDelta(0, allocator.deltas()[0]);
    fleet.SetDelta(1, allocator.deltas()[1]);
  }
  // The volatile source should have been granted the lion's share.
  EXPECT_GT(allocator.deltas()[1], 2.0 * allocator.deltas()[0]);
}

}  // namespace
}  // namespace kc
