#include "suppression/budget.h"

#include <gtest/gtest.h>

#include <memory>

#include "fleet/sharded_fleet.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace kc {
namespace {

/// Runs a volatile random walk through a value-cache agent on a one-source
/// fleet, steered by the budget controller; returns the realized message
/// rate of the last quarter of the run and the final delta.
struct BudgetRun {
  double tail_rate;
  double final_delta;
  int64_t adjustments;
};

BudgetRun RunWithBudget(BudgetConfig budget, double initial_delta,
                        size_t ticks) {
  ShardedFleet::Config config;
  config.seed = 1;
  config.num_shards = 1;
  ShardedFleet fleet(config);
  fleet.AddSource(std::make_unique<RandomWalkGenerator>(
                      RandomWalkGenerator::Config{.step_sigma = 1.0}),
                  std::make_unique<ValueCachePredictor>(), initial_delta);
  const SourceAgent& agent = fleet.agent(0);
  BudgetController controller(budget);

  int64_t tail_start_msgs = 0;
  size_t tail_start = ticks - ticks / 4;
  for (size_t i = 0; i < ticks; ++i) {
    EXPECT_TRUE(fleet.Step().ok());
    if (auto next = controller.OnTick(agent)) fleet.SetDelta(0, *next);
    if (i == tail_start) {
      tail_start_msgs = agent.stats().corrections + agent.stats().full_syncs;
    }
  }
  int64_t tail_msgs =
      agent.stats().corrections + agent.stats().full_syncs - tail_start_msgs;
  BudgetRun out;
  out.tail_rate = static_cast<double>(tail_msgs) /
                  static_cast<double>(ticks - tail_start);
  out.final_delta = agent.delta();
  out.adjustments = controller.adjustments();
  return out;
}

/// A one-source fleet that never steps: its agent has sent nothing.
std::unique_ptr<ShardedFleet> IdleFleet(double delta) {
  auto fleet = std::make_unique<ShardedFleet>();
  fleet->AddSource(
      std::make_unique<RandomWalkGenerator>(RandomWalkGenerator::Config{}),
      std::make_unique<ValueCachePredictor>(), delta);
  return fleet;
}

TEST(BudgetControllerTest, ConvergesDownToBudgetFromTightDelta) {
  // delta=0.1 on a sigma=1 walk fires nearly every tick; budget is 5%.
  BudgetConfig budget;
  budget.target_rate = 0.05;
  budget.window = 200;
  BudgetRun run = RunWithBudget(budget, /*initial_delta=*/0.1, 30000);
  EXPECT_NEAR(run.tail_rate, 0.05, 0.03);
  EXPECT_GT(run.final_delta, 0.1);  // Had to loosen.
  EXPECT_GT(run.adjustments, 10);
}

TEST(BudgetControllerTest, TightensWhenUnderBudget) {
  // delta=50 on a sigma=1 walk almost never fires; the controller should
  // spend the budget by shrinking delta substantially.
  BudgetConfig budget;
  budget.target_rate = 0.05;
  budget.window = 200;
  BudgetRun run = RunWithBudget(budget, /*initial_delta=*/50.0, 30000);
  EXPECT_LT(run.final_delta, 50.0 * 0.5);
  EXPECT_NEAR(run.tail_rate, 0.05, 0.04);
}

TEST(BudgetControllerTest, RespectsDeltaFloorAndCeiling) {
  BudgetConfig budget;
  budget.target_rate = 1e9;  // Absurd budget: wants delta -> 0.
  budget.window = 10;
  budget.min_delta = 0.5;
  BudgetRun run = RunWithBudget(budget, 1.0, 2000);
  EXPECT_GE(run.final_delta, 0.5);

  budget.target_rate = 1e-9;  // No budget at all: wants delta -> inf.
  budget.max_delta = 7.0;
  run = RunWithBudget(budget, 1.0, 2000);
  EXPECT_LE(run.final_delta, 7.0);
}

TEST(BudgetControllerTest, NoAdjustmentBeforeWindowFills) {
  auto fleet = IdleFleet(1.0);
  BudgetConfig budget;
  budget.window = 100;
  BudgetController controller(budget);
  for (int i = 0; i < 99; ++i) {
    EXPECT_FALSE(controller.OnTick(fleet->agent(0)).has_value());
  }
  EXPECT_EQ(controller.adjustments(), 0);
  EXPECT_DOUBLE_EQ(fleet->agent(0).delta(), 1.0);
  EXPECT_TRUE(controller.OnTick(fleet->agent(0)).has_value());
  EXPECT_EQ(controller.adjustments(), 1);
}

TEST(BudgetControllerTest, PerStepChangeIsClamped) {
  auto fleet = IdleFleet(1.0);
  BudgetConfig budget;
  budget.window = 10;
  budget.max_step = 2.0;
  budget.target_rate = 1e-9;  // Wants a huge increase.
  BudgetController controller(budget);
  // Zero traffic maps to the maximum shrink; either way the step is
  // bounded by max_step.
  for (int i = 0; i < 10; ++i) {
    if (auto next = controller.OnTick(fleet->agent(0))) {
      fleet->SetDelta(0, *next);
    }
  }
  double after_one = fleet->agent(0).delta();
  EXPECT_LE(after_one, 2.0 + 1e-12);
  EXPECT_GE(after_one, 0.5 - 1e-12);
}

}  // namespace
}  // namespace kc
