// E7 — Table "aggregate queries": server-side use of cached predictors for
// SUM/AVG queries over N heterogeneous sources under a total error budget,
// comparing the error-budget allocation policies.
//
// Sources are random walks with log-spaced volatilities (a 20x spread), so
// a uniform split wastes budget on quiet sources while starving volatile
// ones. Variance-proportional uses prior knowledge; adaptive learns the
// same split online from observed message rates.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.h"
#include "fleet/sharded_fleet.h"
#include "server/allocation.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace {

struct FleetResult {
  long long messages;
  double worst_avg_error;  // max |AVG answer - true AVG| over the run.
  double bound;            // Guaranteed bound on the AVG answer.
};

std::vector<double> Volatilities(int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    // Log-spaced from 0.1 to 2.0.
    double t = n == 1 ? 0.0 : static_cast<double>(i) / (n - 1);
    out.push_back(0.1 * std::pow(20.0, t));
  }
  return out;
}

FleetResult RunFleet(int n, double avg_budget, kc::AllocationPolicy policy,
                     size_t ticks) {
  using namespace kc;
  auto volatilities = Volatilities(n);
  double sum_budget = avg_budget * n;

  ShardedFleet fleet;
  for (int i = 0; i < n; ++i) {
    RandomWalkGenerator::Config walk;
    walk.step_sigma = volatilities[static_cast<size_t>(i)];
    fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                    MakeDefaultKalmanPredictor(
                        walk.step_sigma * walk.step_sigma, 0.01),
                    /*delta placeholder=*/1.0);
  }
  auto bounds = AllocateBounds(policy, sum_budget, volatilities);
  for (int i = 0; i < n; ++i) fleet.SetDelta(i, bounds[static_cast<size_t>(i)]);

  QuerySpec avg_spec;
  avg_spec.kind = AggregateKind::kAvg;
  for (int i = 0; i < n; ++i) avg_spec.sources.push_back(i);
  (void)fleet.server().AddQuery("avg", avg_spec);

  AdaptiveAllocator allocator(sum_budget, static_cast<size_t>(n));
  std::vector<int64_t> last_counts(static_cast<size_t>(n), 0);
  constexpr int64_t kRebalanceEvery = 500;

  FleetResult result{0, 0.0, 0.0};
  for (size_t t = 0; t < ticks; ++t) {
    if (!fleet.Step().ok()) break;
    if (policy == AllocationPolicy::kAdaptive &&
        (t + 1) % kRebalanceEvery == 0) {
      std::vector<int64_t> window(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        int64_t total = fleet.MessagesOf(i);
        window[static_cast<size_t>(i)] = total - last_counts[static_cast<size_t>(i)];
        last_counts[static_cast<size_t>(i)] = total;
      }
      allocator.Rebalance(window);
      for (int i = 0; i < n; ++i) {
        fleet.SetDelta(i, allocator.deltas()[static_cast<size_t>(i)]);
      }
    }
    if (t % 10 != 9) continue;  // Evaluate the query every 10 ticks.
    auto answer = fleet.server().Evaluate("avg");
    if (!answer.ok()) continue;
    double true_avg = 0.0;
    for (int i = 0; i < n; ++i) true_avg += fleet.TruthOf(i);
    true_avg /= n;
    result.worst_avg_error =
        std::max(result.worst_avg_error, std::fabs(answer->value - true_avg));
    result.bound = answer->bound;
  }
  result.messages = fleet.TotalMessages();
  return result;
}

}  // namespace

int main() {
  // The budget must leave even the most volatile source unsaturated
  // (message rate well below one per tick) — that is the regime the
  // allocation theory addresses; a saturated source costs ~1 msg/tick no
  // matter how its bound is trimmed.
  constexpr size_t kTicks = 8000;
  constexpr double kAvgBudget = 4.0;

  kc::bench::PrintHeader(
      "E7 | AVG queries over N heterogeneous sources (total budget fixed)",
      "random walks, volatilities log-spaced 0.1..2.0; AVG error budget "
      "4.0; 8000 ticks");
  std::printf("%4s %-24s %12s %16s %12s\n", "N", "allocation", "messages",
              "worst AVG error", "AVG bound");

  for (int n : {4, 16, 64}) {
    for (auto policy : {kc::AllocationPolicy::kUniform,
                        kc::AllocationPolicy::kVarianceProportional,
                        kc::AllocationPolicy::kAdaptive}) {
      FleetResult r = RunFleet(n, kAvgBudget, policy, kTicks);
      std::printf("%4d %-24s %12lld %16.4f %12.4f\n", n,
                  kc::AllocationPolicyName(policy), r.messages,
                  r.worst_avg_error, r.bound);
    }
  }

  std::printf(
      "\nExpected shape: every configuration keeps the worst observed AVG "
      "error under\nthe budget (soundness), while variance-proportional and "
      "adaptive ship fewer\nmessages than uniform — the budget flows to the "
      "volatile sources that need it\n(for random walks the optimal split is "
      "delta_i ~ sigma_i). Adaptive approaches\nvariance-proportional "
      "without prior knowledge of the volatilities.\n");
  return 0;
}
