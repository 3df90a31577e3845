// Network monitor: bursty traffic rates from router interfaces, threshold
// triggers under bounded uncertainty, and the resource-constrained mode.
//
// Demonstrates (a) the three-valued trigger answers a DSMS can give when
// its cached view carries an error bound, and (b) the BudgetController
// trading precision for a hard message budget on a hostile (bursty,
// heavy-tailed) stream — the direction of the paper's tradeoff that
// maximizes precision under fixed resources.

#include <cstdio>
#include <memory>

#include "fleet/link.h"
#include "fleet/sharded_fleet.h"
#include "query/parser.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/budget.h"
#include "suppression/policies.h"

int main() {
  constexpr size_t kTicks = 20000;

  // Part 1: threshold trigger with bounded uncertainty. --------------------
  kc::BurstyTrafficGenerator::Config traffic;
  traffic.base_rate = 10.0;
  traffic.pareto_scale = 8.0;
  kc::ShardedFleet::Config fleet_config;
  fleet_config.seed = 1;
  fleet_config.num_shards = 1;
  kc::ShardedFleet fleet(fleet_config);
  fleet.AddSource(std::make_unique<kc::BurstyTrafficGenerator>(traffic),
                  kc::MakeDefaultKalmanPredictor(0.5, 0.25), /*delta=*/2.0);

  auto spec = kc::ParseQuery("SELECT VALUE(s0) WHEN > 25 WITHIN 2");
  if (!spec.ok() || !fleet.server().AddQuery("hot_link", *spec).ok()) {
    std::fprintf(stderr, "query setup failed\n");
    return 1;
  }

  int64_t yes = 0, maybe = 0, no = 0, true_over = 0, missed_definite = 0;
  for (size_t t = 0; t < kTicks; ++t) {
    if (!fleet.Step().ok()) return 1;
    auto result = fleet.server().Evaluate("hot_link");
    if (!result.ok()) continue;
    switch (*result->trigger) {
      case kc::TriggerState::kYes:
        ++yes;
        break;
      case kc::TriggerState::kMaybe:
        ++maybe;
        break;
      case kc::TriggerState::kNo:
        ++no;
        break;
    }
    double truth = fleet.TruthOf(0);
    bool actually_over = truth > 25.0;
    if (actually_over) ++true_over;
    // A definite NO while truly over threshold would be a soundness bug
    // (modulo the filter-smoothing semantics of the contract target).
    if (actually_over && *result->trigger == kc::TriggerState::kNo &&
        truth > 25.0 + 2.0 * result->bound) {
      ++missed_definite;
    }
  }
  std::printf("network_monitor part 1: 'rate > 25' trigger over %zu ticks\n",
              kTicks);
  std::printf("  definite YES: %lld   MAYBE: %lld   definite NO: %lld\n",
              static_cast<long long>(yes), static_cast<long long>(maybe),
              static_cast<long long>(no));
  std::printf("  ticks truly over threshold: %lld;  confident misses: %lld\n",
              static_cast<long long>(true_over),
              static_cast<long long>(missed_definite));
  const int64_t messages = fleet.TotalMessages();
  std::printf("  messages used: %lld (%.2f%% of naive streaming)\n\n",
              static_cast<long long>(messages),
              100.0 * static_cast<double>(messages) /
                  static_cast<double>(kTicks));

  // Part 2: hard message budget via the adaptive-delta controller. ---------
  // Run on a noisy drifting utilization signal (the KF's home turf); the
  // bursty stream above is its hardest case and is covered by bench E2/E3.
  std::printf("part 2: resource-constrained mode (budget: 1 message per 100 "
              "readings)\n");
  std::printf("%14s %12s %14s %16s\n", "policy", "messages", "rate",
              "rmse vs truth");
  for (const char* policy : {"value_cache", "kalman"}) {
    std::unique_ptr<kc::Predictor> proto;
    if (std::string(policy) == "value_cache") {
      proto = std::make_unique<kc::ValueCachePredictor>();
    } else {
      proto = kc::MakeDefaultKalmanPredictor(0.04, 1.0);
    }
    kc::LinkConfig config;
    config.ticks = kTicks;
    config.delta = 1.0;
    config.seed = 5;
    config.budget = kc::BudgetConfig{};
    config.budget->target_rate = 0.01;
    config.budget->window = 500;
    kc::RandomWalkGenerator::Config drift;
    drift.step_sigma = 0.2;
    kc::NoiseConfig sensor;
    sensor.gaussian_sigma = 1.0;
    kc::NoisyStream stream(std::make_unique<kc::RandomWalkGenerator>(drift),
                           sensor);
    kc::LinkReport report = kc::RunLink(stream, *proto, config);
    std::printf("%14s %12lld %14.4f %16.3f\n", policy,
                static_cast<long long>(report.messages),
                report.messages_per_tick, report.err_vs_truth.rms());
  }
  std::printf("\nUnder the same message budget the Kalman predictor converts "
              "its spare\nbudget into precision: comparable message rate, "
              "lower error against truth,\nbecause each message it does send "
              "carries a filtered state, not a noisy sample.\n");
  return 0;
}
