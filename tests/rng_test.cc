#include "common/rng.h"

#include <gtest/gtest.h>

#include "common/stats.h"

namespace kc {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
    EXPECT_DOUBLE_EQ(a.Gaussian(), b.Gaussian());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Uniform() != b.Uniform()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng a(9);
  double first = a.Uniform();
  a.Uniform();
  a.Seed(9);
  EXPECT_DOUBLE_EQ(a.Uniform(), first);
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, GaussianBitIdenticalToStdNormalDistribution) {
  Rng rng(2024);
  std::mt19937_64 engine(2024);
  for (int i = 0; i < 10000; ++i) {
    const double mean = -3.0 + 0.001 * i;
    const double stddev = 0.05 + 0.0007 * i;
    std::normal_distribution<double> dist(mean, stddev);
    const double expected = dist(engine);
    ASSERT_EQ(rng.Gaussian(mean, stddev), expected) << "draw " << i;
  }
}

TEST(RngTest, GaussianWithZeroStddevReturnsMean) {
  Rng rng(7);
  for (double mean : {0.0, -2.5, 41.0}) {
    EXPECT_EQ(rng.Gaussian(mean, 0.0), mean);
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(RngTest, ParetoRespectsScaleFloor) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, ParetoIsHeavyTailed) {
  Rng rng(19);
  double max_seen = 0.0;
  for (int i = 0; i < 20000; ++i) max_seen = std::max(max_seen, rng.Pareto(1.0, 1.2));
  // With shape 1.2 over 20k draws, the max should far exceed the scale.
  EXPECT_GT(max_seen, 50.0);
}

TEST(RngTest, BernoulliFrequencyTracksP) {
  Rng rng(23);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliClampsProbability) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, GaussianVectorHasRequestedLength) {
  Rng rng(31);
  auto v = rng.GaussianVector(17, 0.0, 1.0);
  EXPECT_EQ(v.size(), 17u);
}

}  // namespace
}  // namespace kc
