#include "suppression/budget.h"

#include <algorithm>
#include <cmath>

namespace kc {

BudgetController::BudgetController(BudgetConfig config) : config_(config) {
  config_.window = std::max<int64_t>(config_.window, 1);
}

int64_t BudgetController::MessagesSent(const SourceAgent& agent) {
  const AgentStats& s = agent.stats();
  return s.corrections + s.full_syncs;
}

std::optional<double> BudgetController::OnTick(const SourceAgent& agent) {
  ++ticks_in_window_;
  if (ticks_in_window_ < config_.window) return std::nullopt;

  int64_t sent = MessagesSent(agent);
  double rate = static_cast<double>(sent - messages_at_window_start_) /
                static_cast<double>(config_.window);
  last_window_rate_ = rate;
  messages_at_window_start_ = sent;
  ticks_in_window_ = 0;

  // Multiplicative control in log space: over budget -> grow delta
  // (cheaper, coarser); under budget -> shrink delta (spend the slack on
  // precision). A zero observed rate maps to the maximum shrink step.
  double ratio = rate / config_.target_rate;
  double step;
  if (ratio <= 0.0) {
    step = 1.0 / config_.max_step;
  } else {
    step = std::pow(ratio, config_.gamma);
    step = std::clamp(step, 1.0 / config_.max_step, config_.max_step);
  }
  ++adjustments_;
  return std::clamp(agent.delta() * step, config_.min_delta,
                    config_.max_delta);
}

}  // namespace kc
