// Property-style sweeps of the paper's central invariant: for every
// suppression policy, stream family, precision bound, and seed, the server's
// answer stays within delta of the protected target at every tick, while
// larger bounds never cost more messages.

#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "fleet/link.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

namespace kc {
namespace {

std::unique_ptr<StreamGenerator> MakeStream(const std::string& name) {
  if (name == "random_walk") {
    RandomWalkGenerator::Config config;
    config.step_sigma = 0.5;
    return std::make_unique<RandomWalkGenerator>(config);
  }
  if (name == "linear_drift") {
    LinearDriftGenerator::Config config;
    config.slope = 0.3;
    config.wobble_sigma = 0.05;
    return std::make_unique<LinearDriftGenerator>(config);
  }
  if (name == "sinusoid") {
    SinusoidGenerator::Config config;
    config.amplitude = 5.0;
    config.period = 100.0;
    return std::make_unique<SinusoidGenerator>(config);
  }
  if (name == "noisy_walk") {
    RandomWalkGenerator::Config config;
    config.step_sigma = 0.3;
    NoiseConfig noise;
    noise.gaussian_sigma = 0.4;
    return std::make_unique<NoisyStream>(
        std::make_unique<RandomWalkGenerator>(config), noise);
  }
  RegimeSwitchingGenerator::Config config;
  config.regimes = {{400, 0.1, 0.0}, {400, 1.5, 0.1}};
  return std::make_unique<RegimeSwitchingGenerator>(config);
}

std::unique_ptr<Predictor> MakePolicy(const std::string& name) {
  if (name == "value_cache") return std::make_unique<ValueCachePredictor>();
  if (name == "linear") return std::make_unique<LinearPredictor>();
  if (name == "ewma") return std::make_unique<EwmaPredictor>(1, 0.5);
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.1, 0.25);
  config.adaptive = AdaptiveConfig{};
  if (name == "kalman_cov") {
    config.sync_mode = KalmanPredictor::SyncMode::kStateAndCov;
  }
  return std::make_unique<KalmanPredictor>(config);
}

using ContractParam = std::tuple<std::string, std::string, double, uint64_t>;

class ContractSweepTest : public ::testing::TestWithParam<ContractParam> {};

TEST_P(ContractSweepTest, ServerNeverExceedsDelta) {
  auto [policy_name, stream_name, delta, seed] = GetParam();
  auto stream = MakeStream(stream_name);
  auto policy = MakePolicy(policy_name);
  LinkConfig config;
  config.ticks = 3000;
  config.delta = delta;
  config.seed = seed;
  LinkReport report = RunLink(*stream, *policy, config);
  EXPECT_EQ(report.contract_violations, 0)
      << policy_name << " on " << stream_name << " delta=" << delta
      << " seed=" << seed
      << " max_err=" << report.err_vs_target.max();
  EXPECT_LE(report.err_vs_target.max(), delta + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyStreamDeltaSeed, ContractSweepTest,
    ::testing::Combine(
        ::testing::Values("value_cache", "linear", "ewma", "kalman",
                          "kalman_cov"),
        ::testing::Values("random_walk", "linear_drift", "sinusoid",
                          "noisy_walk", "regime_switching"),
        ::testing::Values(0.25, 1.0, 4.0),
        ::testing::Values(1u, 2u)));

using MonotonicParam = std::tuple<std::string, std::string>;

class MessageMonotonicityTest
    : public ::testing::TestWithParam<MonotonicParam> {};

TEST_P(MessageMonotonicityTest, LooserBoundNeverCostsMore) {
  auto [policy_name, stream_name] = GetParam();
  auto stream = MakeStream(stream_name);
  auto policy = MakePolicy(policy_name);
  int64_t prev = std::numeric_limits<int64_t>::max();
  for (double delta : {0.125, 0.5, 2.0, 8.0}) {
    LinkConfig config;
    config.ticks = 3000;
    config.delta = delta;
    config.seed = 7;
    LinkReport report = RunLink(*stream, *policy, config);
    EXPECT_LE(report.messages, prev)
        << policy_name << " on " << stream_name << " delta=" << delta;
    prev = report.messages;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyStream, MessageMonotonicityTest,
    ::testing::Combine(::testing::Values("value_cache", "linear", "kalman"),
                       ::testing::Values("random_walk", "linear_drift",
                                         "sinusoid", "noisy_walk")));

/// The headline claim (C1/C6) as a regression test: on predictable
/// streams, the Kalman policy ships meaningfully fewer messages than
/// static value caching at the same precision.
class KalmanWinsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KalmanWinsTest, FewerMessagesThanValueCache) {
  const std::string stream_name = GetParam();
  auto stream = MakeStream(stream_name);
  LinkConfig config;
  config.ticks = 6000;
  config.delta = 0.5;
  config.seed = 3;

  auto cache = MakePolicy("value_cache");
  LinkReport cache_report = RunLink(*stream, *cache, config);

  std::unique_ptr<Predictor> kf;
  if (stream_name == "linear_drift") {
    KalmanPredictor::Config kf_config;
    kf_config.model = MakeConstantVelocityModel(1.0, 0.01, 0.01);
    kf = std::make_unique<KalmanPredictor>(kf_config);
  } else {
    kf = MakePolicy("kalman");
  }
  LinkReport kf_report = RunLink(*stream, *kf, config);

  EXPECT_LT(kf_report.messages, cache_report.messages)
      << "kalman=" << kf_report.messages
      << " cache=" << cache_report.messages << " on " << stream_name;
}

INSTANTIATE_TEST_SUITE_P(PredictableStreams, KalmanWinsTest,
                         ::testing::Values("linear_drift", "noisy_walk"));

/// Suppression sanity across the grid: the server answers at every tick
/// after INIT even when almost everything is suppressed.
TEST(ContractBasicsTest, ServerAlwaysAnswersAfterInit) {
  auto stream = MakeStream("sinusoid");
  auto policy = MakePolicy("kalman");
  LinkConfig config;
  config.ticks = 1000;
  config.delta = 50.0;  // Effectively everything suppressed.
  LinkReport report = RunLink(*stream, *policy, config);
  EXPECT_EQ(report.err_vs_target.count(), 1000);
  EXPECT_EQ(report.messages, 1);  // INIT only.
}

}  // namespace
}  // namespace kc
