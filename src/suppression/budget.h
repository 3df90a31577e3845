#ifndef KALMANCAST_SUPPRESSION_BUDGET_H_
#define KALMANCAST_SUPPRESSION_BUDGET_H_

#include <optional>

#include "suppression/agent.h"

namespace kc {

/// Configuration for the resource-constrained mode controller.
struct BudgetConfig {
  /// Target message rate in messages per tick (e.g. 0.02 = one message per
  /// 50 readings).
  double target_rate = 0.05;
  /// Ticks between controller adjustments.
  int64_t window = 200;
  /// Exponent applied to the observed/target rate ratio per adjustment
  /// (lower = gentler).
  double gamma = 0.5;
  /// Per-adjustment clamp on the multiplicative delta change.
  double max_step = 2.0;
  /// Hard bounds on the precision bound.
  double min_delta = 1e-6;
  double max_delta = 1e6;
};

/// Closes the paper's second tradeoff direction: instead of minimizing
/// messages under a fixed precision bound, maximize precision under a
/// message budget. The controller watches an agent's realized message rate
/// and steers its delta multiplicatively toward the budget — tighter when
/// the stream is predictable (spare budget becomes precision), looser when
/// it becomes volatile (precision is spent to stay inside the budget).
class BudgetController {
 public:
  explicit BudgetController(BudgetConfig config = {});

  /// Call once per tick after the agent's Offer(). Every config.window
  /// ticks, returns the bound the driver should apply next (via
  /// SourceAgent::set_delta or ShardedFleet::SetDelta); nullopt otherwise.
  std::optional<double> OnTick(const SourceAgent& agent);

  /// Message rate observed in the last completed window.
  double last_window_rate() const { return last_window_rate_; }
  /// Number of adjustments made so far.
  int64_t adjustments() const { return adjustments_; }

  const BudgetConfig& config() const { return config_; }

 private:
  static int64_t MessagesSent(const SourceAgent& agent);

  BudgetConfig config_;
  int64_t ticks_in_window_ = 0;
  int64_t messages_at_window_start_ = 0;
  double last_window_rate_ = 0.0;
  int64_t adjustments_ = 0;
};

}  // namespace kc

#endif  // KALMANCAST_SUPPRESSION_BUDGET_H_
