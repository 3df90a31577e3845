#include "server/volatility.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fleet/sharded_fleet.h"
#include "server/allocation.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace kc {
namespace {

TEST(VolatilityEstimatorTest, RequiresEnoughPoints) {
  TickArchive archive(100);
  EXPECT_FALSE(VolatilityEstimator::FromArchive(archive, 50).ok());
  archive.Record(1.0, 1.0, 0.1);
  archive.Record(2.0, 2.0, 0.1);
  EXPECT_FALSE(VolatilityEstimator::FromArchive(archive, 50).ok());
}

TEST(VolatilityEstimatorTest, RecoversKnownSigma) {
  TickArchive archive(10000);
  Rng rng(1);
  double v = 0.0;
  for (int t = 1; t <= 5000; ++t) {
    v += rng.Gaussian(0.0, 0.7);
    archive.Record(static_cast<double>(t), v, 0.1);
  }
  auto sigma = VolatilityEstimator::FromArchive(archive, 5000);
  ASSERT_TRUE(sigma.ok());
  EXPECT_NEAR(*sigma, 0.7, 0.05);
}

TEST(VolatilityEstimatorTest, ConstantSignalHasZeroVolatility) {
  TickArchive archive(100);
  for (int t = 1; t <= 50; ++t) {
    archive.Record(static_cast<double>(t), 3.0, 0.1);
  }
  auto sigma = VolatilityEstimator::FromArchive(archive, 50);
  ASSERT_TRUE(sigma.ok());
  EXPECT_DOUBLE_EQ(*sigma, 0.0);
}

TEST(VolatilityEstimatorTest, BatchWithFallbacks) {
  TickArchive good(100);
  Rng rng(2);
  double v = 0.0;
  for (int t = 1; t <= 50; ++t) {
    v += rng.Gaussian(0.0, 1.0);
    good.Record(static_cast<double>(t), v, 0.1);
  }
  TickArchive empty(100);
  auto estimates =
      VolatilityEstimator::FromArchives({&good, &empty, nullptr}, 50, 0.5);
  ASSERT_EQ(estimates.size(), 3u);
  EXPECT_GT(estimates[0], 0.5);
  EXPECT_DOUBLE_EQ(estimates[1], 0.5);
  EXPECT_DOUBLE_EQ(estimates[2], 0.5);
}

TEST(VolatilityEstimatorTest, RanksHeterogeneousFleetFromServerSideOnly) {
  // The server profiles its own archives and derives a variance-
  // proportional allocation — no client cooperation anywhere.
  ShardedFleet fleet;
  fleet.server().EnableArchiving(10000);
  const double sigmas[3] = {0.1, 0.5, 2.0};
  for (int i = 0; i < 3; ++i) {
    RandomWalkGenerator::Config walk;
    walk.step_sigma = sigmas[i];
    fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                    std::make_unique<ValueCachePredictor>(), 0.5);
  }
  ASSERT_TRUE(fleet.Run(3000).ok());

  std::vector<const TickArchive*> archives;
  for (int32_t id = 0; id < 3; ++id) {
    auto archive = fleet.server().Archive(id);
    ASSERT_TRUE(archive.ok());
    archives.push_back(*archive);
  }
  auto estimates = VolatilityEstimator::FromArchives(archives, 2000);
  // Ranking must match the true sigmas.
  EXPECT_LT(estimates[0], estimates[1]);
  EXPECT_LT(estimates[1], estimates[2]);

  // And the derived allocation gives the volatile source the most slack.
  auto bounds = AllocateBounds(AllocationPolicy::kVarianceProportional, 3.0,
                               estimates);
  EXPECT_GT(bounds[2], bounds[1]);
  EXPECT_GT(bounds[1], bounds[0]);
}

}  // namespace
}  // namespace kc
