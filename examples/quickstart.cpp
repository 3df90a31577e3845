// Quickstart: one noisy sensor, one server, three suppression policies.
//
// Demonstrates the library's core loop in ~60 lines of user code: build a
// stream, pick a predictor, run the link, and read the communication /
// accuracy report. This is the smallest end-to-end use of the public API.

#include <cstdio>
#include <memory>

#include "fleet/link.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

int main() {
  // A slowly drifting signal measured by a noisy sensor, 10k readings.
  kc::RandomWalkGenerator::Config walk;
  walk.step_sigma = 0.2;
  kc::NoiseConfig noise;
  noise.gaussian_sigma = 0.5;
  kc::NoisyStream stream(std::make_unique<kc::RandomWalkGenerator>(walk),
                         noise);

  kc::LinkConfig config;
  config.ticks = 10000;
  config.delta = 1.0;  // The server's answers must stay within +/-1.0.
  config.seed = 42;

  std::printf("kalmancast quickstart: random walk + sensor noise, "
              "delta=%.1f, %zu ticks\n\n",
              config.delta, config.ticks);
  std::printf("%-14s %10s %12s %14s %14s\n", "policy", "messages", "bytes",
              "rmse vs truth", "violations");

  // Baseline 1: Olston-style value caching.
  kc::ValueCachePredictor value_cache;
  kc::LinkReport r1 = kc::RunLink(stream, value_cache, config);

  // Baseline 2: two-point dead reckoning.
  kc::LinearPredictor linear;
  kc::LinkReport r2 = kc::RunLink(stream, linear, config);

  // The paper's approach: a dual Kalman filter with adaptive process noise.
  auto kalman = kc::MakeDefaultKalmanPredictor(/*process_var=*/0.04,
                                               /*obs_var=*/0.25);
  kc::LinkReport r3 = kc::RunLink(stream, *kalman, config);

  for (const kc::LinkReport& r : {r1, r2, r3}) {
    std::printf("%-14s %10lld %12lld %14.3f %14lld\n", r.policy.c_str(),
                static_cast<long long>(r.messages),
                static_cast<long long>(r.bytes), r.err_vs_truth.rms(),
                static_cast<long long>(r.contract_violations));
  }

  double saving = 100.0 * (1.0 - static_cast<double>(r3.messages) /
                                     static_cast<double>(r1.messages));
  std::printf("\nThe Kalman predictor shipped %.1f%% fewer messages than "
              "value caching at the\nsame precision bound with comparable "
              "accuracy against the true signal:\nit predicts the clean "
              "signal instead of chasing every noisy reading.\n",
              saving);
  return 0;
}
