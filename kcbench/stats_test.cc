// Hand-computed checks of the benchmark's statistics helpers.
#include "stats.h"

#include <gtest/gtest.h>

namespace kcbench {
namespace {

TEST(PercentileTest, NearestRankOnTenSamples) {
  // Shuffled 1..10: rank ceil(p/100 * 10).
  std::vector<double> v = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile(v, 10.0), 1.0);   // ceil(1.0) = 1.
  EXPECT_EQ(Percentile(v, 11.0), 2.0);   // ceil(1.1) = 2.
  EXPECT_EQ(Percentile(v, 50.0), 5.0);   // ceil(5.0) = 5.
  EXPECT_EQ(Percentile(v, 90.0), 9.0);   // ceil(9.0) = 9.
  EXPECT_EQ(Percentile(v, 95.0), 10.0);  // ceil(9.5) = 10.
  EXPECT_EQ(Percentile(v, 100.0), 10.0);
}

TEST(PercentileTest, MedianIsASampleAndEmptyIsZero) {
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);  // ceil(2.0) = 2nd.
  EXPECT_EQ(Median({5.0, 1.0, 3.0}), 3.0);       // ceil(1.5) = 2nd.
  EXPECT_EQ(Percentile({}, 90.0), 0.0);
}

TEST(TrimmedMeanTest, DropsTheLargestShare) {
  // 1..99 shuffled plus one 10,000 outlier: 1% of 100 drops the outlier,
  // leaving mean(1..99) = 50.
  std::vector<double> v;
  for (int i = 99; i >= 1; --i) v.push_back(i);
  v.insert(v.begin() + 40, 10000.0);
  EXPECT_DOUBLE_EQ(TrimmedMean(v, 0.01), 50.0);
  // Without the 1 (last), 1% of 99 samples rounds down to none: the plain
  // mean, 2..99 summing to 4949.
  v.pop_back();
  EXPECT_DOUBLE_EQ(TrimmedMean(v, 0.01), (10000.0 + 4949.0) / 99.0);
  EXPECT_DOUBLE_EQ(TrimmedMean({4.0, 1.0, 3.0, 2.0}, 0.5), 1.5);
  EXPECT_EQ(TrimmedMean({}, 0.01), 0.0);
  EXPECT_EQ(TrimmedMean({1.0}, 1.0), 0.0);
}

TEST(TailPercentileLevelTest,HighestLevelWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentileLevel(0), 0.0);
  EXPECT_EQ(TailPercentileLevel(19), 0.0);    // p50: 19 - 10 = 9 beyond.
  EXPECT_EQ(TailPercentileLevel(20), 50.0);   // p50: 20 - 10 = 10 beyond.
  EXPECT_EQ(TailPercentileLevel(99), 50.0);   // p90: 99 - 90 = 9 beyond.
  EXPECT_EQ(TailPercentileLevel(100), 90.0);  // p90: 100 - 90 = 10.
  EXPECT_EQ(TailPercentileLevel(999), 90.0);  // p99: 999 - 990 = 9.
  EXPECT_EQ(TailPercentileLevel(1000), 99.0);     // p99: 10 beyond.
  EXPECT_EQ(TailPercentileLevel(9999), 99.0);     // p99.9: 9999 - 9990 = 9.
  EXPECT_EQ(TailPercentileLevel(10000), 99.9);    // p99.9: 10 beyond.
  EXPECT_EQ(TailPercentileLevel(100000), 99.99);  // p99.99: 10 beyond.
}

TEST(RatioTest, CarriesItsBase) {
  Ratio r{9624.0, 20000.0};
  EXPECT_DOUBLE_EQ(r.value(), 0.4812);
  EXPECT_EQ(r.ToString(), "0.4812 (9624/20000)");
  Ratio all{4.0, 4.0};
  EXPECT_EQ(all.value(), 1.0);
  EXPECT_EQ(all.ToString(), "1 (4/4)");
  Ratio none{0.0, 0.0};
  EXPECT_EQ(none.value(), 0.0);
  EXPECT_EQ(none.ToString(), "0 (0/0)");
}

TEST(PerSourceTickTest, NormalisesBySourcesTimesTicks) {
  // 18,800 messages from 2,000 sources over 2,000 ticks: 0.0047.
  EXPECT_DOUBLE_EQ(PerSourceTick(18800.0, 2000, 2000), 0.0047);
  // 3 sources x 4 ticks = 12 source-ticks; 30 bytes -> 2.5 B each.
  EXPECT_DOUBLE_EQ(PerSourceTick(30.0, 3, 4), 2.5);
  EXPECT_EQ(PerSourceTick(5.0, 0, 4), 0.0);
  EXPECT_EQ(PerSourceTick(5.0, 3, 0), 0.0);
}

}  // namespace
}  // namespace kcbench
