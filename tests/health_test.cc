// Filter-health watchdog: chi-square band registration, the
// breach/clean streak machine, both protocol-rate detectors, transition
// plumbing (metrics, recorder, anomaly sink), and the end-to-end
// contract — a mis-modeled stream is flagged DIVERGED while a
// well-modeled one stays OK.

#include "obs/health.h"

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/link.h"
#include "kalman/model.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

namespace kc {
namespace obs {
namespace {

/// Small windows so tests exercise the full escalate/recover cycle in a
/// handful of samples.
HealthConfig FastConfig() {
  HealthConfig config;
  config.nis_window = 4;
  config.windows_to_diverge = 3;
  config.windows_to_recover = 2;
  config.rate_window_ticks = 10;
  config.max_resync_rate = 0.1;
  return config;
}

/// Feeds one whole NIS window of identical samples.
void FeedWindow(SourceHealth* health, double nis, size_t window) {
  for (size_t i = 0; i < window; ++i) health->OnNis(nis);
}

TEST(HealthTest, ChiSquareBandScalesWithDof) {
  HealthMonitor monitor;  // Defaults: window 32, confidence 0.999.
  SourceHealth* scalar = monitor.ForSource(0, /*obs_dim=*/1);
  // The band for the window *sum* must bracket its expectation (= dof).
  EXPECT_LT(scalar->nis_sum_lo(), 32.0);
  EXPECT_GT(scalar->nis_sum_hi(), 32.0);
  EXPECT_GT(scalar->nis_sum_lo(), 0.0);
  // Higher-dimensional observations widen and shift the band upward.
  SourceHealth* planar = monitor.ForSource(1, /*obs_dim=*/2);
  EXPECT_GT(planar->nis_sum_lo(), scalar->nis_sum_lo());
  EXPECT_GT(planar->nis_sum_hi(), scalar->nis_sum_hi());
}

TEST(HealthTest, NisStreakMachineEscalatesThenRecovers) {
  HealthMonitor monitor(FastConfig());
  SourceHealth* health = monitor.ForSource(0, 1);
  ASSERT_EQ(health->state(), HealthState::kOk);

  // In-band window: sum 4 == dof, dead center. No state change.
  FeedWindow(health, 1.0, 4);
  EXPECT_EQ(health->state(), HealthState::kOk);
  EXPECT_EQ(health->nis_windows(), 1);
  EXPECT_EQ(health->nis_breaches(), 0);
  EXPECT_DOUBLE_EQ(health->last_window_mean_nis(), 1.0);

  // One breached window: SUSPECT, not yet DIVERGED.
  FeedWindow(health, 100.0, 4);
  EXPECT_EQ(health->state(), HealthState::kSuspect);
  EXPECT_EQ(health->nis_breaches(), 1);

  // Second consecutive breach: still suspect (diverge needs 3).
  FeedWindow(health, 100.0, 4);
  EXPECT_EQ(health->state(), HealthState::kSuspect);

  // Third: DIVERGED.
  FeedWindow(health, 100.0, 4);
  EXPECT_EQ(health->state(), HealthState::kDiverged);
  EXPECT_EQ(monitor.StateOf(0), HealthState::kDiverged);

  // One clean window is not enough to clear a diverged detector...
  FeedWindow(health, 1.0, 4);
  EXPECT_EQ(health->state(), HealthState::kDiverged);
  // ...two consecutive clean windows are.
  FeedWindow(health, 1.0, 4);
  EXPECT_EQ(health->state(), HealthState::kOk);
  EXPECT_EQ(health->nis_windows(), 6);
  EXPECT_EQ(health->nis_breaches(), 3);
}

TEST(HealthTest, UnderconfidentFilterBreachesTheLowSide) {
  // NIS pinned at zero means the filter claims far more uncertainty than
  // the stream shows — statistically inconsistent in the other direction.
  HealthMonitor monitor(FastConfig());
  SourceHealth* health = monitor.ForSource(0, 1);
  FeedWindow(health, 0.0, 4);
  EXPECT_EQ(health->nis_breaches(), 1);
  EXPECT_EQ(health->state(), HealthState::kSuspect);
}

TEST(HealthTest, ResyncStormTripsTheRateDetector) {
  HealthMonitor monitor(FastConfig());  // > 0.1 resyncs/tick breaches.
  SourceHealth* health = monitor.ForSource(0, 1);

  // 5 resyncs in a 10-tick window: rate 0.5.
  for (int t = 0; t < 10; ++t) {
    if (t % 2 == 0) health->OnResync();
    health->OnTick();
  }
  EXPECT_EQ(health->state(), HealthState::kSuspect);
  EXPECT_EQ(health->rate_breaches(), 1);

  // Quiet windows recover it.
  for (int t = 0; t < 20; ++t) health->OnTick();
  EXPECT_EQ(health->state(), HealthState::kOk);
}

TEST(HealthTest, SuppressionCollapseTripsTheRateDetector) {
  HealthConfig config = FastConfig();
  config.max_resync_rate = 0.0;      // Isolate the suppression check.
  config.min_suppression_rate = 0.5;
  HealthMonitor monitor(config);
  SourceHealth* health = monitor.ForSource(0, 1);

  // Every decision a send: suppression rate 0, below the 0.5 floor.
  for (int t = 0; t < 10; ++t) {
    health->OnDecision(/*suppressed=*/false);
    health->OnTick();
  }
  EXPECT_EQ(health->state(), HealthState::kSuspect);

  // A healthy mix stays clean and recovers the detector.
  for (int t = 0; t < 20; ++t) {
    health->OnDecision(/*suppressed=*/true);
    health->OnTick();
  }
  EXPECT_EQ(health->state(), HealthState::kOk);
}

TEST(HealthTest, AnomalySinkFiresOnWorseningTransitionsOnly) {
  HealthMonitor monitor(FastConfig());
  std::vector<std::pair<HealthState, HealthState>> fired;
  monitor.SetAnomalySink(
      [&fired](int32_t source_id, HealthState from, HealthState to) {
        EXPECT_EQ(source_id, 0);
        fired.emplace_back(from, to);
      });
  SourceHealth* health = monitor.ForSource(0, 1);

  FeedWindow(health, 100.0, 4);  // OK -> SUSPECT: fires.
  FeedWindow(health, 100.0, 4);  // SUSPECT -> SUSPECT: no transition.
  FeedWindow(health, 100.0, 4);  // SUSPECT -> DIVERGED: fires.
  FeedWindow(health, 1.0, 4);    // Still DIVERGED: nothing.
  FeedWindow(health, 1.0, 4);    // DIVERGED -> OK: improvement, silent.

  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], std::make_pair(HealthState::kOk, HealthState::kSuspect));
  EXPECT_EQ(fired[1],
            std::make_pair(HealthState::kSuspect, HealthState::kDiverged));
}

TEST(HealthTest, TransitionsLandInMetricsAndRecorder) {
  HealthMonitor monitor(FastConfig());
  MetricRegistry registry;
  monitor.BindMetrics(&registry);
  FlightRecorder recorder(32);
  monitor.BindRecorder(&recorder);
  SourceHealth* health = monitor.ForSource(0, 1);

  EXPECT_EQ(registry.GetGauge("kc.health.sources_ok")->value(), 1.0);

  FeedWindow(health, 100.0, 4);
  FeedWindow(health, 100.0, 4);
  FeedWindow(health, 100.0, 4);  // Now DIVERGED.

  EXPECT_EQ(registry.GetGauge("kc.health.sources_ok")->value(), 0.0);
  EXPECT_EQ(registry.GetGauge("kc.health.sources_diverged")->value(), 1.0);
  EXPECT_EQ(registry.GetCounter("kc.health.nis_windows")->value(), 3);
  EXPECT_EQ(registry.GetCounter("kc.health.nis_breaches")->value(), 3);
  EXPECT_EQ(registry.GetCounter("kc.health.transitions")->value(), 2);

  // The black box carries the state-machine trail.
  std::string dump = recorder.DumpText(0);
  size_t suspect = dump.find("HEALTH_SUSPECT");
  size_t diverged = dump.find("HEALTH_DIVERGED");
  ASSERT_NE(suspect, std::string::npos) << dump;
  ASSERT_NE(diverged, std::string::npos) << dump;
  EXPECT_LT(suspect, diverged);
}

TEST(HealthTest, UnknownSourcesReadOkAndSummaryIsIdOrdered) {
  HealthMonitor monitor(FastConfig());
  EXPECT_EQ(monitor.StateOf(123), HealthState::kOk);
  EXPECT_TRUE(monitor.SummaryLine(123).empty());

  FeedWindow(monitor.ForSource(8, 1), 100.0, 4);
  monitor.ForSource(1, 1);
  std::string summary = monitor.SummaryText();
  size_t at1 = summary.find("source    1  OK");
  size_t at8 = summary.find("source    8  SUSPECT");
  ASSERT_NE(at1, std::string::npos) << summary;
  ASSERT_NE(at8, std::string::npos) << summary;
  EXPECT_LT(at1, at8);
  EXPECT_EQ(summary, monitor.SummaryText());  // Deterministic.
}

// ------------------------------------------------------------- end to end

/// Random walk with Gaussian sensor noise — the textbook stream a scalar
/// Kalman random-walk model is exact for.
std::unique_ptr<StreamGenerator> NoisyWalk() {
  RandomWalkGenerator::Config walk;
  walk.step_sigma = 1.0;
  NoiseConfig noise;
  noise.gaussian_sigma = 0.5;
  return std::make_unique<NoisyStream>(
      std::make_unique<RandomWalkGenerator>(walk), noise);
}

LinkConfig HealthLinkConfig() {
  LinkConfig config;
  config.ticks = 3000;
  config.delta = 0.75;
  config.seed = 5;
  config.health = true;
  return config;
}

TEST(HealthTest, WellModeledStreamStaysOk) {
  auto generator = NoisyWalk();
  KalmanPredictor::Config kalman;
  // Exact model: process var 1.0^2, obs var 0.5^2.
  kalman.model = MakeRandomWalkModel(1.0, 0.25);
  KalmanPredictor prototype(kalman);

  LinkReport report = RunLink(*generator, prototype, HealthLinkConfig());
  EXPECT_EQ(report.health, HealthState::kOk) << report.health_summary;
  EXPECT_NE(report.health_summary.find("source    0  OK"), std::string::npos)
      << report.health_summary;
}

TEST(HealthTest, MisModeledStreamIsFlaggedDiverged) {
  auto generator = NoisyWalk();
  KalmanPredictor::Config kalman;
  // Wrong process noise: the filter believes the stream barely moves, so
  // its innovations are far outside its own claimed uncertainty.
  kalman.model = MakeRandomWalkModel(1e-6, 0.25);
  KalmanPredictor prototype(kalman);

  LinkReport report = RunLink(*generator, prototype, HealthLinkConfig());
  EXPECT_EQ(report.health, HealthState::kDiverged) << report.health_summary;
  // The verdict also rides the one-line report.
  EXPECT_NE(report.ToString().find("health=DIVERGED"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace kc
