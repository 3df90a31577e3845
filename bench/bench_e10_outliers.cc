// E10 — Table "outlier robustness" (extension): suppression under sensor
// glitches. Memoryless policies ship a correction for every outlier (and
// often a second one to come back); the gated Kalman policy identifies
// outliers by their NIS against the filter's own uncertainty and drops
// them before they cost bandwidth or accuracy.

#include <cstdio>
#include <memory>

#include "common.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

namespace {

kc::LinkReport RunContaminated(std::unique_ptr<kc::Predictor> proto,
                               double outlier_prob) {
  kc::RandomWalkGenerator::Config walk;
  walk.step_sigma = 0.1;
  kc::NoiseConfig noise;
  noise.gaussian_sigma = 0.2;
  noise.outlier_prob = outlier_prob;
  noise.outlier_scale = 50.0;  // Outliers up to +/-10 on a 0.2-sigma sensor.
  kc::NoisyStream stream(std::make_unique<kc::RandomWalkGenerator>(walk),
                         noise);
  kc::LinkConfig config;
  config.ticks = 10000;
  config.delta = 1.0;
  config.seed = 47;
  return kc::RunLink(stream, *proto, config);
}

std::unique_ptr<kc::Predictor> GatedKalman(double gate_prob) {
  kc::KalmanPredictor::Config config;
  config.model = kc::MakeRandomWalkModel(0.04, 0.25);
  config.outlier_gate_prob = gate_prob;
  return std::make_unique<kc::KalmanPredictor>(std::move(config));
}

}  // namespace

int main() {
  kc::bench::PrintHeader(
      "E10 | Suppression under sensor outliers (extension)",
      "random walk + 0.2-sigma noise + uniform outliers up to +/-10; "
      "delta=1.0; 10000 readings");
  std::printf("%14s | %-18s %10s %14s %12s\n", "outlier prob", "policy",
              "messages", "rmse vs truth", "rejected");
  for (double prob : {0.0, 0.01, 0.02, 0.05}) {
    {
      kc::LinkReport r =
          RunContaminated(std::make_unique<kc::ValueCachePredictor>(), prob);
      std::printf("%14.2f | %-18s %10lld %14.3f %12s\n", prob, "value_cache",
                  static_cast<long long>(r.messages), r.err_vs_truth.rms(),
                  "-");
    }
    {
      kc::LinkReport r = RunContaminated(GatedKalman(0.0), prob);
      std::printf("%14.2f | %-18s %10lld %14.3f %12s\n", prob,
                  "kalman (no gate)", static_cast<long long>(r.messages),
                  r.err_vs_truth.rms(), "-");
    }
    {
      kc::LinkReport r = RunContaminated(GatedKalman(0.999), prob);
      std::printf("%14.2f | %-18s %10lld %14.3f %12s\n", prob,
                  "kalman (gated)", static_cast<long long>(r.messages),
                  r.err_vs_truth.rms(), "see note");
    }
  }
  std::printf(
      "\nExpected shape: value_cache cost grows roughly linearly with the "
      "outlier rate\n(~2 messages per glitch: chase + return); the ungated "
      "kalman absorbs part of\neach hit through its gain; the chi-squared "
      "gate (p=0.999, accept-after-3) drops\nisolated glitches entirely, "
      "keeping both cost and truth-error near the clean\nbaseline. (The "
      "per-run rejection counters live on the source-side predictor\nclone "
      "inside the harness; gating_test.cc asserts them directly.)\n");
  return 0;
}
