// Full-system integration: a fleet of heterogeneous sources, every query
// feature (live aggregates, cadence scheduling, triggers, staleness,
// historical ranges), budget allocation, and the precision guarantees —
// all in one running scenario.

#include <memory>

#include <gtest/gtest.h>

#include "fleet/sharded_fleet.h"
#include "query/parser.h"
#include "server/allocation.h"
#include "streams/composite.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/imm_policy.h"
#include "suppression/policies.h"

namespace kc {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Heartbeats every 25 ticks let the 50-tick staleness limit
    // distinguish "suppressed because predictable" from "source died".
    ShardedFleet::Config config;
    config.agent_base.heartbeat_every = 25;
    fleet_ = std::make_unique<ShardedFleet>(config);
    fleet_->server().EnableArchiving(10000);
    fleet_->server().SetStalenessLimit(50);

    // Source 0: noisy temperature sensor on the adaptive dual KF.
    {
      DiurnalTemperatureGenerator::Config temp;
      NoiseConfig noise;
      noise.gaussian_sigma = 0.3;
      fleet_->AddSource(
          std::make_unique<NoisyStream>(
              std::make_unique<DiurnalTemperatureGenerator>(temp), noise),
          MakeDefaultKalmanPredictor(0.01, 0.09), 0.5);
    }
    // Source 1: regime-switching load on the IMM predictor.
    {
      RegimeSwitchingGenerator::Config regimes;
      regimes.regimes = {{300, 0.1, 0.0}, {300, 1.0, 0.0}};
      fleet_->AddSource(std::make_unique<RegimeSwitchingGenerator>(regimes),
                        MakeTwoModeImmPredictor(0.01, 1.0, 0.04), 0.75);
    }
    // Source 2: composite trend+seasonality stream on the matched
    // trend-seasonal model.
    {
      std::vector<std::unique_ptr<StreamGenerator>> parts;
      LinearDriftGenerator::Config trend;
      trend.slope = 0.01;
      parts.push_back(std::make_unique<LinearDriftGenerator>(trend));
      SinusoidGenerator::Config season;
      season.amplitude = 3.0;
      season.period = 144.0;
      parts.push_back(std::make_unique<SinusoidGenerator>(season));
      KalmanPredictor::Config model;
      model.model = MakeTrendSeasonalModel(2.0 * M_PI / 144.0, 1.0, 1e-5,
                                           1e-4, 0.01);
      fleet_->AddSource(
          std::make_unique<SumGenerator>(std::move(parts), "trend_seasonal"),
          std::make_unique<KalmanPredictor>(std::move(model)), 0.5);
    }
  }

  std::unique_ptr<ShardedFleet> fleet_;
};

TEST_F(EndToEndTest, FullScenario) {
  ShardedServer& server = fleet_->server();

  // Register the whole query menu through the language.
  auto live_avg = ParseQuery("SELECT AVG(s0, s1, s2) WITHIN 1.0 EVERY 10");
  ASSERT_TRUE(live_avg.ok());
  ASSERT_TRUE(server.AddQuery("live_avg", *live_avg).ok());

  auto trigger = ParseQuery("SELECT VALUE(s1) WHEN > 100 WITHIN 0.75");
  ASSERT_TRUE(trigger.ok());
  ASSERT_TRUE(server.AddQuery("overload", *trigger).ok());

  // Run a day of ticks, watching cadence and contracts.
  int64_t due_avg_count = 0;
  for (int t = 0; t < 1440; ++t) {
    ASSERT_TRUE(fleet_->Step().ok());
    for (const QueryResult& r : server.EvaluateDue()) {
      if (r.name == "live_avg") {
        ++due_avg_count;
        EXPECT_TRUE(r.meets_within) << r.ToString();
        EXPECT_FALSE(r.stale);
      }
    }
  }
  // EVERY 10 over 1440 ticks with queries registered before the run.
  EXPECT_GE(due_avg_count, 140);
  EXPECT_LE(due_avg_count, 145);

  // Live answers exist and carry sane bounds.
  auto avg = server.Evaluate("live_avg");
  ASSERT_TRUE(avg.ok());
  EXPECT_GT(avg->bound, 0.0);
  EXPECT_LE(avg->bound, 1.0 + 1e-9);

  // The AVG must be near the true average (bounds are on contract
  // targets; allow filter-smoothing slack on top).
  double truth = (fleet_->TruthOf(0) + fleet_->TruthOf(1) +
                  fleet_->TruthOf(2)) /
                 3.0;
  EXPECT_NEAR(avg->value, truth, 2.0);

  // Historical reconstruction over the archive, via the language.
  auto hist = ParseQuery("SELECT AVG(s0) FROM 100 TO 1400");
  ASSERT_TRUE(hist.ok());
  auto hist_result = server.EvaluateSpec(*hist, "hist");
  ASSERT_TRUE(hist_result.ok()) << hist_result.status();
  // A diurnal sensor hovers near its configured mean (18 C) over a day.
  EXPECT_NEAR(hist_result->value, 18.0, 3.0);

  // Archive depth matches the run (the INIT tick itself is not recorded:
  // the server ticks before the first reading arrives).
  auto archive = server.Archive(0);
  ASSERT_TRUE(archive.ok());
  EXPECT_EQ((*archive)->total_recorded(), 1439);

  // Trigger evaluation ran and the stream never got near 100.
  auto overload = server.Evaluate("overload");
  ASSERT_TRUE(overload.ok());
  ASSERT_TRUE(overload->trigger.has_value());
  EXPECT_EQ(*overload->trigger, TriggerState::kNo);

  // Nothing is stale while sources keep reporting...
  EXPECT_FALSE(server.IsStale(0));

  // ...but once the fleet stops and the server keeps ticking, staleness
  // kicks in and taints query results.
  for (int t = 0; t < 60; ++t) server.Tick();
  EXPECT_TRUE(server.IsStale(0));
  auto stale_avg = server.Evaluate("live_avg");
  ASSERT_TRUE(stale_avg.ok());
  EXPECT_TRUE(stale_avg->stale);
}

TEST_F(EndToEndTest, CommunicationStaysWellBelowNaive) {
  ASSERT_TRUE(fleet_->Run(2000).ok());
  // Naive streaming would be 3 sources * 2000 ticks = 6000 messages.
  EXPECT_LT(fleet_->TotalMessages(), 2400)
      << "suppression should cut the majority of traffic";
  // And every source contributed an INIT plus data.
  for (int32_t id = 0; id < 3; ++id) {
    EXPECT_GE(fleet_->MessagesOf(id), 1);
  }
}

TEST_F(EndToEndTest, BudgetReallocationAcrossHeterogeneousFleet) {
  // Bolt an adaptive allocator onto the running fleet: the regime source
  // (volatile) should end up with the loosest bound.
  AdaptiveAllocator allocator(1.75, 3);
  std::vector<int64_t> last = {0, 0, 0};
  for (int window = 0; window < 12; ++window) {
    ASSERT_TRUE(fleet_->Run(300).ok());
    std::vector<int64_t> delta_msgs(3);
    for (int32_t id = 0; id < 3; ++id) {
      int64_t now = fleet_->MessagesOf(id);
      delta_msgs[static_cast<size_t>(id)] = now - last[static_cast<size_t>(id)];
      last[static_cast<size_t>(id)] = now;
    }
    allocator.Rebalance(delta_msgs);
    for (int32_t id = 0; id < 3; ++id) {
      fleet_->SetDelta(id, allocator.deltas()[static_cast<size_t>(id)]);
    }
  }
  // Source 1 (regime switching, the chattiest) gets the largest bound.
  EXPECT_GT(allocator.deltas()[1], allocator.deltas()[0]);
  EXPECT_GT(allocator.deltas()[1], allocator.deltas()[2]);
}

}  // namespace
}  // namespace kc
