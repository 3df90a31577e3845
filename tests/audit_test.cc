// The precision/SLO auditor: unit coverage for the sampling + window
// state machine, its metric/recorder/watchdog feeds, and the fleet-level
// guarantees that make it worth running — containment is exactly 100% on
// fault-free runs, dips only under injected faults, and every merged
// report is bit-identical for any thread count or predictor layout.

#include "obs/audit.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fleet/sharded_fleet.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace kc {
namespace obs {
namespace {

// ------------------------------------------------------------- unit tests

TEST(AuditConfigTest, ClampsDegenerateValues) {
  AuditConfig config;
  config.sample_every = 0;
  config.slo_window_ticks = -5;
  config.burning_after = 0;
  config.exhausted_after = 0;
  PrecisionAuditor auditor(config);
  EXPECT_EQ(auditor.config().sample_every, 1);
  EXPECT_EQ(auditor.config().slo_window_ticks, 1);
  EXPECT_EQ(auditor.config().burning_after, 1);
  // exhausted_after can never undercut burning_after.
  EXPECT_EQ(auditor.config().exhausted_after, 1);
}

TEST(AuditTest, ShouldSampleIsAPureFunctionOfTheTick) {
  AuditConfig config;
  config.sample_every = 4;
  PrecisionAuditor auditor(config);
  EXPECT_TRUE(auditor.ShouldSample(0));
  EXPECT_FALSE(auditor.ShouldSample(1));
  EXPECT_FALSE(auditor.ShouldSample(3));
  EXPECT_TRUE(auditor.ShouldSample(4));
  EXPECT_TRUE(auditor.ShouldSample(4000));
}

TEST(AuditTest, SampleTracksContainmentAndUtilization) {
  PrecisionAuditor auditor;
  SourceAudit* audit = auditor.ForSource(7);
  audit->Sample(/*tick=*/0, /*abs_error=*/0.2, /*bound=*/1.0,
                /*staleness_ticks=*/3, /*degraded=*/false);
  audit->Sample(1, 0.6, 1.0, 4, false);
  audit->Sample(2, 1.5, 1.0, 9, true);  // Violation, degraded.
  EXPECT_EQ(audit->samples(), 3);
  EXPECT_EQ(audit->contained(), 2);
  EXPECT_EQ(audit->violations(), 1);
  EXPECT_EQ(audit->degraded_samples(), 1);
  EXPECT_EQ(audit->last_staleness(), 9);
  EXPECT_DOUBLE_EQ(audit->max_utilization(), 1.5);
  EXPECT_DOUBLE_EQ(audit->mean_utilization(), (0.2 + 0.6 + 1.5) / 3.0);
}

TEST(AuditTest, NonPositiveBoundCountsAsFullBurn) {
  PrecisionAuditor auditor;
  SourceAudit* audit = auditor.ForSource(0);
  audit->Sample(0, 0.0, 0.0, 0, false);  // No error, no bound: contained.
  EXPECT_EQ(audit->contained(), 1);
  EXPECT_DOUBLE_EQ(audit->max_utilization(), 0.0);
  audit->Sample(1, 0.5, 0.0, 0, false);  // Any error vs zero bound burns.
  EXPECT_EQ(audit->violations(), 1);
  EXPECT_DOUBLE_EQ(audit->max_utilization(), 2.0);
}

TEST(AuditTest, SloWindowStateMachineBurnsAndRecovers) {
  AuditConfig config;
  config.sample_every = 1;
  config.slo_window_ticks = 8;
  config.burning_after = 1;
  config.exhausted_after = 3;
  PrecisionAuditor auditor(config);
  SourceAudit* audit = auditor.ForSource(0);

  // Window [0, 8): one violation -> BURNING once the window closes.
  for (int64_t t = 0; t < 8; ++t) {
    audit->Sample(t, t == 3 ? 2.0 : 0.1, 1.0, 0, false);
  }
  EXPECT_EQ(audit->slo_state(), SloState::kOk);  // Not yet closed.
  audit->Sample(8, 0.1, 1.0, 0, false);          // Closes [0, 8).
  EXPECT_EQ(audit->slo_state(), SloState::kBurning);
  EXPECT_EQ(audit->windows(), 1);

  // Window [8, 16): three violations -> EXHAUSTED.
  for (int64_t t = 9; t < 16; ++t) audit->Sample(t, 5.0, 1.0, 0, false);
  audit->Sample(16, 0.1, 1.0, 0, false);
  EXPECT_EQ(audit->slo_state(), SloState::kExhausted);

  // Window [16, 24): clean -> budget recovers to OK.
  for (int64_t t = 17; t < 24; ++t) audit->Sample(t, 0.1, 1.0, 0, false);
  audit->Sample(24, 0.1, 1.0, 0, false);
  EXPECT_EQ(audit->slo_state(), SloState::kOk);
  EXPECT_EQ(audit->windows(), 3);
}

TEST(AuditTest, SkippedWindowsCloseOnTheNextSample) {
  AuditConfig config;
  config.slo_window_ticks = 10;
  PrecisionAuditor auditor(config);
  SourceAudit* audit = auditor.ForSource(0);
  audit->Sample(0, 2.0, 1.0, 0, false);  // Violation in [0, 10).
  // A long silent gap: the next sample lands in [40, 50) and closes the
  // stale window, re-anchoring on the current tick's grid cell.
  audit->Sample(43, 0.1, 1.0, 0, false);
  EXPECT_EQ(audit->windows(), 1);
  EXPECT_EQ(audit->slo_state(), SloState::kBurning);
  audit->Sample(50, 0.1, 1.0, 0, false);  // Closes the clean [40, 50).
  EXPECT_EQ(audit->slo_state(), SloState::kOk);
}

TEST(AuditTest, MetricsMirrorSampleCounts) {
  MetricRegistry registry;
  AuditConfig config;
  config.slo_window_ticks = 4;
  PrecisionAuditor auditor(config);
  auditor.BindMetrics(&registry);
  SourceAudit* audit = auditor.ForSource(0);
  for (int64_t t = 0; t < 9; ++t) {
    audit->Sample(t, t % 4 == 1 ? 9.0 : 0.5, 1.0, t, t % 2 == 0);
  }
  EXPECT_EQ(registry.GetCounter("kc.audit.samples")->value(), 9);
  EXPECT_EQ(registry.GetCounter("kc.audit.violations")->value(),
            audit->violations());
  EXPECT_EQ(registry.GetCounter("kc.audit.degraded_samples")->value(), 5);
  EXPECT_EQ(registry.GetCounter("kc.audit.windows")->value(), 2);
  EXPECT_GT(registry.GetCounter("kc.audit.slo_transitions")->value(), 0);
  EXPECT_EQ(registry
                .GetHistogram("kc.audit.utilization",
                              Buckets::Linear(0.05, 0.05, 20))
                ->count(),
            9);
  EXPECT_DOUBLE_EQ(registry.GetGauge("kc.audit.sources_ok")->value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("kc.audit.sources_burning")->value(),
                   1.0);
}

TEST(AuditTest, ViolationsAndTransitionsLandInTheFlightRecorder) {
  FlightRecorder recorder(32);
  AuditConfig config;
  config.slo_window_ticks = 4;
  PrecisionAuditor auditor(config);
  auditor.BindRecorder(&recorder);
  SourceAudit* audit = auditor.ForSource(5);
  audit->Sample(0, 3.0, 1.0, 0, false);  // AUDIT_VIOLATION.
  audit->Sample(4, 0.1, 1.0, 0, false);  // Closes [0, 4): AUDIT_SLO_*.
  std::vector<RecorderEvent> events = recorder.ForSource(5)->Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, RecorderEventKind::kAuditViolation);
  EXPECT_EQ(events[0].tick, 0);
  EXPECT_DOUBLE_EQ(events[0].value, 3.0);  // |error| / bound.
  EXPECT_EQ(events[1].kind, RecorderEventKind::kAuditSloBurning);
  EXPECT_DOUBLE_EQ(events[1].value, 1.0);  // Window violation count.
}

TEST(AuditTest, SloWindowsFeedTheWatchdog) {
  HealthMonitor health;
  AuditConfig config;
  config.slo_window_ticks = 4;
  PrecisionAuditor auditor(config);
  health.ForSource(0, /*obs_dim=*/1);  // Fleets bind health first.
  auditor.BindHealth(&health);
  SourceAudit* audit = auditor.ForSource(0);
  for (int64_t t = 0; t <= 8; ++t) audit->Sample(t, 9.0, 1.0, 0, false);
  // Two breached windows closed -> the audit detector saw both.
  EXPECT_EQ(health.ForSource(0, 1)->audit_breaches(), 2);
  EXPECT_NE(health.ForSource(0, 1)->state(), HealthState::kOk);
}

TEST(AuditTest, QueryLedgerTalliesOutcomesByName) {
  PrecisionAuditor auditor;
  auditor.OnQuery("b", true, false, false, false);
  auditor.OnQuery("a", true, true, true, false);
  auditor.OnQuery("a", false, false, false, false);
  auditor.OnQuery("a", true, false, false, true);
  std::vector<AuditQueryTally> tallies = auditor.QueryTallies();
  ASSERT_EQ(tallies.size(), 2u);  // Sorted by name.
  EXPECT_EQ(tallies[0].name, "a");
  EXPECT_EQ(tallies[0].evals, 2);
  EXPECT_EQ(tallies[0].failed, 1);
  EXPECT_EQ(tallies[0].stale, 1);
  EXPECT_EQ(tallies[0].degraded, 1);
  EXPECT_EQ(tallies[0].unhealthy, 1);
  EXPECT_EQ(tallies[1].name, "b");
  EXPECT_EQ(tallies[1].evals, 1);
}

TEST(AuditTest, SingleArenaReportsAreDeterministic) {
  AuditConfig config;
  config.sample_every = 2;
  PrecisionAuditor auditor(config);
  auditor.ForSource(1)->Sample(0, 0.25, 1.0, 2, false);
  auditor.ForSource(0)->Sample(0, 2.0, 1.0, 5, true);
  auditor.OnQuery("avg", true, false, false, false);

  std::string text = auditor.ReportText();
  EXPECT_NE(text.find("source    0"), std::string::npos);
  EXPECT_NE(text.find("source    1"), std::string::npos);
  EXPECT_NE(text.find("containment=50%"), std::string::npos);
  EXPECT_NE(text.find("query avg"), std::string::npos);

  std::string json = auditor.ReportJson();
  EXPECT_NE(json.find("\"sample_every\":2"), std::string::npos);
  EXPECT_NE(json.find("\"totals\":"), std::string::npos);
  EXPECT_NE(json.find("\"violations\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"avg\""), std::string::npos);
  // Repeated renders are bit-identical.
  EXPECT_EQ(text, auditor.ReportText());
  EXPECT_EQ(json, auditor.ReportJson());
}

// ------------------------------------------------------------ fleet tests

KalmanPredictor::Config ScalarKalman() {
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.1, 0.25);
  return config;
}

void AddStandardSources(ShardedFleet& fleet, int n) {
  for (int i = 0; i < n; ++i) {
    RandomWalkGenerator::Config walk;
    walk.start = 5.0 * i;
    walk.step_sigma = 0.2 + 0.05 * (i % 4);
    fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                    std::make_unique<KalmanPredictor>(ScalarKalman()),
                    /*delta=*/0.5 + 0.1 * (i % 3));
  }
}

TEST(AuditFleetTest, FaultFreeContainmentIsExactly100Percent) {
  // The paper's guarantee, continuously verified: on a lossless channel
  // the replica tracks the agent in lockstep, so every audited sample of
  // every source is contained — not approximately, exactly.
  ShardedFleet::Config config;
  config.seed = 1234;
  config.threads = 3;
  config.num_shards = 8;
  ShardedFleet fleet(config);
  obs::AuditConfig audit;
  audit.sample_every = 1;  // Audit every tick.
  fleet.EnableAudit(audit);
  AddStandardSources(fleet, 16);
  ASSERT_TRUE(fleet.Run(200).ok());

  for (int32_t id = 0; id < 16; ++id) {
    size_t shard = fleet.server().ShardOf(id);
    const SourceAudit* audit_entry =
        fleet.server().shard_audit(shard)->Find(id);
    ASSERT_NE(audit_entry, nullptr) << "source " << id;
    EXPECT_GT(audit_entry->samples(), 0) << "source " << id;
    EXPECT_EQ(audit_entry->contained(), audit_entry->samples())
        << "source " << id;
    EXPECT_EQ(audit_entry->violations(), 0) << "source " << id;
    EXPECT_LE(audit_entry->max_utilization(), 1.0) << "source " << id;
    EXPECT_EQ(audit_entry->slo_state(), SloState::kOk) << "source " << id;
  }
  std::string summary = fleet.AuditSummaryLine();
  EXPECT_NE(summary.find("containment=100%"), std::string::npos) << summary;
  EXPECT_NE(summary.find("exhausted=0"), std::string::npos) << summary;
}

TEST(AuditFleetTest, ContainmentDipsOnlyUnderInjectedFaults) {
  // Heavy injected loss with recovery: while a replica is silently stale
  // (before the watchdog declares it desynced and quarantine widens the
  // bound) its answers drift past the contract — exactly the dip the
  // auditor exists to expose.
  ShardedFleet::Config config;
  config.seed = 4242;
  config.threads = 2;
  config.num_shards = 8;
  config.channel.loss_prob = 0.05;
  config.channel.faults.burst_enter_prob = 0.02;
  config.channel.faults.burst_exit_prob = 0.3;
  config.channel.faults.burst_loss_prob = 0.9;
  config.channel.faults.partition_start = 80;
  config.channel.faults.partition_length = 10;
  config.recovery.enabled = true;
  config.recovery.suspect_after_silent_ticks = 6;
  ShardedFleet fleet(config);
  obs::AuditConfig audit;
  audit.sample_every = 1;
  audit.slo_window_ticks = 32;
  fleet.EnableAudit(audit);
  AddStandardSources(fleet, 12);
  ASSERT_TRUE(fleet.Run(300).ok());

  int64_t violations = 0;
  int64_t samples = 0;
  int64_t degraded = 0;
  for (int32_t id = 0; id < 12; ++id) {
    const SourceAudit* entry =
        fleet.server().shard_audit(fleet.server().ShardOf(id))->Find(id);
    ASSERT_NE(entry, nullptr);
    violations += entry->violations();
    samples += entry->samples();
    degraded += entry->degraded_samples();
  }
  EXPECT_GT(violations, 0);
  EXPECT_LT(violations, samples / 2);  // Faults dent, not destroy.
  EXPECT_GT(degraded, 0);  // Quarantined (bound-widened) samples observed.
  std::string summary = fleet.AuditSummaryLine();
  EXPECT_EQ(summary.find("containment=100%"), std::string::npos) << summary;
}

struct AuditArtifacts {
  std::string text;
  std::string json;
  std::string summary;
  std::string metrics;
};

AuditArtifacts RunAuditedFleet(size_t threads, bool pooling) {
  ShardedFleet::Config config;
  config.seed = 777;
  config.threads = threads;
  config.num_shards = 8;
  config.pooling = pooling;
  config.channel.loss_prob = 0.1;
  config.recovery.enabled = true;
  ShardedFleet fleet(config);
  fleet.EnableMetrics();
  obs::AuditConfig audit;
  audit.sample_every = 2;
  audit.slo_window_ticks = 64;
  fleet.EnableAudit(audit);
  AddStandardSources(fleet, 12);
  EXPECT_TRUE(fleet.Run(2).ok());
  QuerySpec spec;
  spec.kind = AggregateKind::kAvg;
  for (int32_t id = 0; id < 12; ++id) spec.sources.push_back(id);
  EXPECT_TRUE(fleet.server().AddQuery("all", spec).ok());
  for (int t = 0; t < 250; ++t) {
    EXPECT_TRUE(fleet.Step().ok());
    if (t % 10 == 0) fleet.server().Evaluate("all");
  }
  AuditArtifacts out;
  out.text = fleet.AuditReportText();
  out.json = fleet.AuditReportJson();
  out.summary = fleet.AuditSummaryLine();
  MetricRegistry merged;
  fleet.MergeMetricsInto(&merged);
  out.metrics = ExportText(merged, /*include_wall_clock=*/false, "kc.audit");
  return out;
}

TEST(AuditFleetTest, ReportsBitIdenticalForAnyThreadCountAndLayout) {
  // The merged audit report is part of the determinism contract: any
  // thread count (which also sizes the pool sweep's workers) and the
  // predictors on private pools or on the shard's swept pools must
  // render byte-identical reports.
  AuditArtifacts one = RunAuditedFleet(1, /*pooling=*/true);
  AuditArtifacts four = RunAuditedFleet(4, true);
  AuditArtifacts object = RunAuditedFleet(2, /*pooling=*/false);
  AuditArtifacts three = RunAuditedFleet(3, true);
  EXPECT_EQ(one.text, four.text);
  EXPECT_EQ(one.json, four.json);
  EXPECT_EQ(one.summary, four.summary);
  EXPECT_EQ(one.metrics, four.metrics);
  EXPECT_EQ(one.text, object.text);
  EXPECT_EQ(one.json, object.json);
  EXPECT_EQ(one.metrics, object.metrics);
  EXPECT_EQ(one.text, three.text);
  EXPECT_EQ(one.json, three.json);
  EXPECT_EQ(one.metrics, three.metrics);

  // The run exercised the full surface: per-source lines, fleet totals,
  // the query ledger, and the kc.audit.* metric family.
  EXPECT_NE(one.text.find("source    0"), std::string::npos);
  EXPECT_NE(one.text.find("source   11"), std::string::npos);
  EXPECT_NE(one.text.find("query all"), std::string::npos);
  EXPECT_NE(one.json.find("\"queries\":"), std::string::npos);
  EXPECT_NE(one.metrics.find("kc.audit.samples"), std::string::npos);
  EXPECT_NE(one.metrics.find("kc.audit.utilization"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace kc
