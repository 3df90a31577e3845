#include "server/query.h"

#include <gtest/gtest.h>

#include <memory>

#include "server/server.h"
#include "suppression/policies.h"

namespace kc {
namespace {

TEST(QuerySpecTest, ValidationRules) {
  QuerySpec spec;
  spec.kind = AggregateKind::kAvg;
  EXPECT_FALSE(spec.Validate().ok());  // No sources.

  spec.sources = {1, 2};
  EXPECT_TRUE(spec.Validate().ok());

  spec.kind = AggregateKind::kValue;
  EXPECT_FALSE(spec.Validate().ok());  // VALUE wants exactly one.
  spec.sources = {1};
  EXPECT_TRUE(spec.Validate().ok());

  spec.within = -1.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.within = 0.5;
  spec.every = 0;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(QuerySpecTest, ToStringReadable) {
  QuerySpec spec;
  spec.kind = AggregateKind::kAvg;
  spec.sources = {0, 1};
  spec.within = 0.5;
  spec.every = 10;
  spec.threshold = 40.0;
  spec.above = true;
  std::string s = spec.ToString();
  EXPECT_NE(s.find("AVG"), std::string::npos);
  EXPECT_NE(s.find("s0"), std::string::npos);
  EXPECT_NE(s.find("WITHIN"), std::string::npos);
  EXPECT_NE(s.find("EVERY"), std::string::npos);
  EXPECT_NE(s.find("WHEN"), std::string::npos);
}

TEST(AggregateValuesTest, AllKinds) {
  std::vector<double> v = {1.0, 5.0, 3.0};
  EXPECT_DOUBLE_EQ(AggregateValues(AggregateKind::kSum, v), 9.0);
  EXPECT_DOUBLE_EQ(AggregateValues(AggregateKind::kAvg, v), 3.0);
  EXPECT_DOUBLE_EQ(AggregateValues(AggregateKind::kMin, v), 1.0);
  EXPECT_DOUBLE_EQ(AggregateValues(AggregateKind::kMax, v), 5.0);
  EXPECT_DOUBLE_EQ(AggregateValues(AggregateKind::kValue, {7.0}), 7.0);
}

TEST(AggregateErrorBoundTest, BoundPropagation) {
  std::vector<double> b = {0.5, 1.0, 0.25};
  EXPECT_DOUBLE_EQ(AggregateErrorBound(AggregateKind::kSum, b), 1.75);
  EXPECT_DOUBLE_EQ(AggregateErrorBound(AggregateKind::kAvg, b), 1.75 / 3.0);
  EXPECT_DOUBLE_EQ(AggregateErrorBound(AggregateKind::kMin, b), 1.0);
  EXPECT_DOUBLE_EQ(AggregateErrorBound(AggregateKind::kMax, b), 1.0);
  EXPECT_DOUBLE_EQ(AggregateErrorBound(AggregateKind::kValue, {0.5}), 0.5);
}

TEST(AggregateErrorBoundTest, SumBoundIsTightForWorstCase) {
  // If each member can be off by delta_i in the same direction, the sum is
  // off by exactly sum(delta_i): the bound must not be smaller.
  std::vector<double> bounds = {0.1, 0.2};
  double bound = AggregateErrorBound(AggregateKind::kSum, bounds);
  double worst = 0.1 + 0.2;
  EXPECT_DOUBLE_EQ(bound, worst);
}

TEST(TriggerTest, AboveThreshold) {
  EXPECT_EQ(EvaluateTrigger(10.0, 1.0, 5.0, true), TriggerState::kYes);
  EXPECT_EQ(EvaluateTrigger(3.0, 1.0, 5.0, true), TriggerState::kNo);
  EXPECT_EQ(EvaluateTrigger(5.5, 1.0, 5.0, true), TriggerState::kMaybe);
  // Exactly at the edge: value - bound == threshold is not a definite yes.
  EXPECT_EQ(EvaluateTrigger(6.0, 1.0, 5.0, true), TriggerState::kMaybe);
}

TEST(TriggerTest, BelowThreshold) {
  EXPECT_EQ(EvaluateTrigger(2.0, 1.0, 5.0, false), TriggerState::kYes);
  EXPECT_EQ(EvaluateTrigger(8.0, 1.0, 5.0, false), TriggerState::kNo);
  EXPECT_EQ(EvaluateTrigger(5.0, 1.0, 5.0, false), TriggerState::kMaybe);
}

TEST(TriggerTest, ZeroBoundIsCrisp) {
  EXPECT_EQ(EvaluateTrigger(5.1, 0.0, 5.0, true), TriggerState::kYes);
  EXPECT_EQ(EvaluateTrigger(5.0, 0.0, 5.0, true), TriggerState::kNo);
}

TEST(QueryResultTest, ToStringMentionsBoundAndTrigger) {
  QueryResult r;
  r.name = "q1";
  r.value = 3.5;
  r.bound = 0.25;
  r.trigger = TriggerState::kMaybe;
  std::string s = r.ToString();
  EXPECT_NE(s.find("q1"), std::string::npos);
  EXPECT_NE(s.find("3.5"), std::string::npos);
  EXPECT_NE(s.find("MAYBE"), std::string::npos);
}

// ------------------------------------------------ registered-query plans

Message InitMessage(int32_t source, double delta, double value) {
  Message msg;
  msg.source_id = source;
  msg.type = MessageType::kInit;
  msg.payload = {delta, value};
  return msg;
}

/// Sources 0..n-1 reporting 10*id under bound 0.5.
void AddReportingSources(StreamServer* server, int n) {
  for (int32_t id = 0; id < n; ++id) {
    ASSERT_TRUE(
        server->RegisterSource(id, std::make_unique<ValueCachePredictor>())
            .ok());
    ASSERT_TRUE(server->OnMessage(InitMessage(id, 0.5, 10.0 * id)).ok());
  }
}

TEST(QueryPlanTest, UnregisteredMemberFailsWithNotFound) {
  StreamServer server;
  AddReportingSources(&server, 4);
  QuerySpec spec;
  spec.kind = AggregateKind::kAvg;
  spec.sources = {0, 2, 3};
  ASSERT_TRUE(server.AddQuery("avg", spec).ok());
  ASSERT_TRUE(server.Evaluate("avg").ok());

  ASSERT_TRUE(server.UnregisterSource(2).ok());
  auto result = server.Evaluate("avg");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().ToString().find("unknown source 2"),
            std::string::npos)
      << result.status();
  // EvaluateDue skips it (it stays due); EvaluateAll folds the error in.
  EXPECT_TRUE(server.EvaluateDue().empty());
  std::vector<QueryResult> all = server.EvaluateAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_NE(all[0].name.find("unknown source 2"), std::string::npos);
}

TEST(QueryPlanTest, ReregisteredMemberAnswersFromNewReplica) {
  StreamServer server;
  AddReportingSources(&server, 3);
  QuerySpec spec;
  spec.kind = AggregateKind::kSum;
  spec.sources = {2, 1};
  ASSERT_TRUE(server.AddQuery("sum", spec).ok());
  auto before = server.Evaluate("sum");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->value, 30.0);
  EXPECT_EQ(before->bound, 1.0);

  ASSERT_TRUE(server.UnregisterSource(1).ok());
  ASSERT_TRUE(
      server.RegisterSource(1, std::make_unique<ValueCachePredictor>()).ok());
  auto uninitialized = server.Evaluate("sum");
  ASSERT_FALSE(uninitialized.ok());
  EXPECT_EQ(uninitialized.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(server.OnMessage(InitMessage(1, 3.0, -7.0)).ok());
  auto after = server.Evaluate("sum");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->value, 20.0 - 7.0);
  EXPECT_EQ(after->bound, 0.5 + 3.0);
  std::vector<QueryResult> due = server.EvaluateDue();
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].value, after->value);
  EXPECT_EQ(due[0].bound, after->bound);
}

TEST(QueryPlanTest, FirstFailingMemberInSpecOrderDecidesTheError) {
  StreamServer server;
  AddReportingSources(&server, 2);
  ASSERT_TRUE(
      server.RegisterSource(5, std::make_unique<ValueCachePredictor>()).ok());
  QuerySpec spec;
  spec.kind = AggregateKind::kMax;
  spec.sources = {0, 5, 9};  // Reporting, uninitialized, unknown.
  auto uninitialized = server.EvaluateSpec(spec);
  ASSERT_FALSE(uninitialized.ok());
  EXPECT_EQ(uninitialized.status().code(), StatusCode::kFailedPrecondition);
  spec.sources = {0, 9, 5};
  auto unknown = server.EvaluateSpec(spec);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(QueryPlanTest, StalenessLimitReachesEveryReplica) {
  StreamServer server;
  AddReportingSources(&server, 1);
  server.SetStalenessLimit(3);  // After source 0, before source 1.
  ASSERT_TRUE(
      server.RegisterSource(1, std::make_unique<ValueCachePredictor>()).ok());
  ASSERT_TRUE(server.OnMessage(InitMessage(1, 0.5, 10.0)).ok());
  QuerySpec first;
  first.kind = AggregateKind::kValue;
  first.sources = {0};
  QuerySpec second = first;
  second.sources = {1};
  ASSERT_TRUE(server.AddQuery("first", first).ok());
  ASSERT_TRUE(server.AddQuery("second", second).ok());
  for (int t = 0; t < 4; ++t) server.Tick();
  for (const char* name : {"first", "second"}) {
    auto result = server.Evaluate(name);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->stale) << name;
  }
  server.SetStalenessLimit(0);
  for (const char* name : {"first", "second"}) {
    auto result = server.Evaluate(name);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->stale) << name;
  }
}

}  // namespace
}  // namespace kc
