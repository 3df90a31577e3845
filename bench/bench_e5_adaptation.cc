// E5 — Figure "adaptation" (claim C3): behaviour across volatility regime
// switches, adaptive vs frozen Kalman filters.
//
// The stream's volatility jumps 15x at tick 4000 and drops back at 8000.
// Cost and accuracy must be read together: an over-smoothing filter
// (frozen quiet tune) is cheap because its filtered estimate barely moves
// — while drifting far from the real signal. A loose tune tracks but
// overpays in the quiet phases. The innovation-driven adaptive filter
// re-learns Q online and delivers near-best accuracy at near-best cost in
// *every* phase, which is the point of claim C3.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.h"
#include "common/stats.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace {

constexpr size_t kPhaseLen = 4000;
constexpr size_t kTicks = 3 * kPhaseLen;

std::unique_ptr<kc::StreamGenerator> MakeRegimeStream() {
  kc::RegimeSwitchingGenerator::Config config;
  config.regimes = {{static_cast<int64_t>(kPhaseLen), 0.1, 0.0},
                    {static_cast<int64_t>(kPhaseLen), 1.5, 0.0},
                    {static_cast<int64_t>(kPhaseLen), 0.1, 0.0}};
  return std::make_unique<kc::RegimeSwitchingGenerator>(config);
}

std::unique_ptr<kc::Predictor> MakeKalman(double q, bool adaptive) {
  kc::KalmanPredictor::Config config;
  config.model = kc::MakeRandomWalkModel(q, 0.04);
  if (adaptive) config.adaptive = kc::AdaptiveConfig{};
  return std::make_unique<kc::KalmanPredictor>(std::move(config));
}

struct PhaseStats {
  long long messages[3] = {0, 0, 0};
  double rmse[3] = {0.0, 0.0, 0.0};
};

PhaseStats RunVariant(const kc::Predictor& proto) {
  auto stream = MakeRegimeStream();
  kc::LinkConfig config;
  config.ticks = kTicks;
  config.delta = 0.75;
  config.seed = 31;
  std::vector<kc::TrajectoryPoint> trajectory;
  (void)kc::RunLink(*stream, proto, config, &trajectory);

  PhaseStats out;
  kc::RunningStats err[3];
  long long prev_cum = 0;
  for (size_t i = 0; i < trajectory.size(); ++i) {
    size_t phase = std::min<size_t>(i / kPhaseLen, 2);
    err[phase].Add(trajectory[i].server_view - trajectory[i].truth);
    long long cum = trajectory[i].cumulative_messages;
    out.messages[phase] += cum - prev_cum;
    prev_cum = cum;
  }
  for (int p = 0; p < 3; ++p) out.rmse[p] = err[p].rms();
  return out;
}

}  // namespace

int main() {
  kc::bench::PrintHeader(
      "E5 | Adaptation across volatility regimes (0.1 -> 1.5 -> 0.1, "
      "delta=0.75)",
      "per-phase messages and server-view RMSE vs ground truth (4000 ticks "
      "per phase)");

  struct Variant {
    const char* name;
    PhaseStats stats;
  };
  Variant variants[] = {
      {"adaptive_kf", RunVariant(*MakeKalman(0.01, true))},
      {"frozen_kf(quiet)", RunVariant(*MakeKalman(0.01, false))},
      {"frozen_kf(loud)", RunVariant(*MakeKalman(2.25, false))},
      {"value_cache", RunVariant(*kc::bench::MakePolicy("value_cache"))},
  };

  std::printf("%-18s | %9s %9s | %9s %9s | %9s %9s | %8s\n", "variant",
              "quiet#1", "rmse", "LOUD", "rmse", "quiet#2", "rmse", "total");
  for (const Variant& v : variants) {
    long long total =
        v.stats.messages[0] + v.stats.messages[1] + v.stats.messages[2];
    std::printf("%-18s | %9lld %9.3f | %9lld %9.3f | %9lld %9.3f | %8lld\n",
                v.name, v.stats.messages[0], v.stats.rmse[0],
                v.stats.messages[1], v.stats.rmse[1], v.stats.messages[2],
                v.stats.rmse[2], total);
  }

  std::printf(
      "\nExpected shape: the quiet-tuned frozen filter is cheap everywhere "
      "but its\nover-smoothed estimate drifts badly in the LOUD phase (high "
      "rmse); the\nloud-tuned filter tracks but overpays in the quiet "
      "phases; value_cache pays\nfull price in LOUD. The adaptive filter "
      "re-learns Q within a window of each\nswitch: quiet-phase cost close "
      "to the quiet tune, LOUD-phase accuracy close to\nthe loud tune "
      "(claim C3).\n");
  return 0;
}
