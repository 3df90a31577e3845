#include "fleet/sharded_fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fleet/sharded_server.h"
#include "fleet/thread_pool.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace kc {
namespace {

KalmanPredictor::Config ScalarKalman(double q = 0.1, double r = 0.25) {
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(q, r);
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

/// Everything the determinism contract promises to hold fixed.
struct Fingerprint {
  /// Whether each source's replica initialized (INIT can be lost on a
  /// lossy channel — deterministically, so this too must match).
  std::vector<bool> initialized;
  std::vector<double> values;
  std::vector<double> bounds;
  std::vector<double> query_values;
  std::vector<double> query_bounds;
  int64_t total_messages = 0;
  int64_t total_bytes = 0;
  int64_t messages_processed = 0;
  NetworkStats net;
};

void ExpectEqualFingerprints(const Fingerprint& a, const Fingerprint& b,
                             const std::string& label) {
  ASSERT_EQ(a.values.size(), b.values.size()) << label;
  for (size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.initialized[i], b.initialized[i]) << label << " init " << i;
    EXPECT_EQ(a.values[i], b.values[i]) << label << " value " << i;
    EXPECT_EQ(a.bounds[i], b.bounds[i]) << label << " bound " << i;
  }
  ASSERT_EQ(a.query_values.size(), b.query_values.size()) << label;
  for (size_t i = 0; i < a.query_values.size(); ++i) {
    EXPECT_EQ(a.query_values[i], b.query_values[i]) << label << " query " << i;
    EXPECT_EQ(a.query_bounds[i], b.query_bounds[i]) << label << " query " << i;
  }
  EXPECT_EQ(a.total_messages, b.total_messages) << label;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << label;
  EXPECT_EQ(a.messages_processed, b.messages_processed) << label;
  EXPECT_EQ(a.net.messages_sent, b.net.messages_sent) << label;
  EXPECT_EQ(a.net.messages_delivered, b.net.messages_delivered) << label;
  EXPECT_EQ(a.net.messages_dropped, b.net.messages_dropped) << label;
  EXPECT_EQ(a.net.bytes_sent, b.net.bytes_sent) << label;
  EXPECT_EQ(a.net.bytes_delivered, b.net.bytes_delivered) << label;
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    EXPECT_EQ(a.net.by_type[i], b.net.by_type[i]) << label << " type " << i;
  }
}

Fingerprint RunSharded(size_t threads, size_t shards,
                       Channel::Config channel = Channel::Config(),
                       bool pooling = true) {
  ShardedFleet::Config config;
  config.seed = 12345;
  config.threads = threads;
  config.num_shards = shards;
  config.channel = channel;
  config.pooling = pooling;
  ShardedFleet fleet(config);
  AddStandardSources(fleet, 12);

  EXPECT_TRUE(fleet.Run(2).ok());  // Initialize before registering queries.
  auto avg = ParseQuery("SELECT AVG(s0, s3, s5, s7, s9, s11) WITHIN 10");
  EXPECT_TRUE(avg.ok());
  EXPECT_TRUE(fleet.server().AddQuery("avg", *avg).ok());
  auto mx = ParseQuery("SELECT MAX(s1, s2, s4, s6, s8, s10) EVERY 7");
  EXPECT_TRUE(mx.ok());
  EXPECT_TRUE(fleet.server().AddQuery("max", *mx).ok());

  Fingerprint fp;
  for (int t = 0; t < 300; ++t) {
    EXPECT_TRUE(fleet.Step().ok());
    std::vector<QueryResult> due = fleet.server().EvaluateDue();
    for (const QueryResult& r : due) {
      fp.query_values.push_back(r.value);
      fp.query_bounds.push_back(r.bound);
    }
  }
  for (int32_t id = 0; id < static_cast<int32_t>(fleet.num_sources()); ++id) {
    auto answer = fleet.server().SourceValue(id);
    fp.initialized.push_back(answer.ok());
    fp.values.push_back(answer.ok() ? answer->value[0] : 0.0);
    fp.bounds.push_back(answer.ok() ? answer->bound : 0.0);
  }
  fp.total_messages = fleet.TotalMessages();
  fp.total_bytes = fleet.TotalBytes();
  fp.messages_processed = fleet.server().messages_processed();
  fp.net = fleet.TotalNetworkStats();
  return fp;
}

TEST(ShardedFleetTest, BitIdenticalForAnyThreadCount) {
  Fingerprint one = RunSharded(/*threads=*/1, /*shards=*/8);
  Fingerprint two = RunSharded(/*threads=*/2, /*shards=*/8);
  Fingerprint four = RunSharded(/*threads=*/4, /*shards=*/8);
  ExpectEqualFingerprints(one, two, "threads 1 vs 2");
  ExpectEqualFingerprints(one, four, "threads 1 vs 4");
}

/// Runs a fleet with telemetry enabled and returns the deterministic
/// (non-wall-clock) part of the merged metrics export.
std::string RunShardedMetricsExport(size_t threads) {
  ShardedFleet::Config config;
  config.seed = 777;
  config.threads = threads;
  config.num_shards = 8;
  ShardedFleet fleet(config);
  fleet.EnableMetrics();
  AddStandardSources(fleet, 12);
  EXPECT_TRUE(fleet.Run(200).ok());
  obs::MetricRegistry merged;
  fleet.MergeMetricsInto(&merged);
  return obs::ExportText(merged, /*include_wall_clock=*/false);
}

TEST(ShardedFleetTest, MetricsExportBitIdenticalForAnyThreadCount) {
  std::string one = RunShardedMetricsExport(1);
  std::string four = RunShardedMetricsExport(4);
  EXPECT_EQ(one, four);
  // The export actually carries the serving path's telemetry.
  EXPECT_NE(one.find("kc.agent.decisions"), std::string::npos);
  EXPECT_NE(one.find("kc.net.messages_sent"), std::string::npos);
  EXPECT_NE(one.find("kc.server.ticks"), std::string::npos);
  EXPECT_NE(one.find("kc.agent.innovation"), std::string::npos);
  // Wall-clock timings exist but are excluded from deterministic exports.
  EXPECT_EQ(one.find("step_latency"), std::string::npos);
}

/// One fault-injected observability run: recorder + watchdog + metrics on
/// a lossy fleet with recovery. Returns every deterministic artefact the
/// observability layer can emit.
struct ObsArtifacts {
  std::string recorder_text;
  std::string recorder_json;
  std::string health_summary;
  std::string metrics;
  std::string audit_text;
  std::string audit_json;
  std::string audit_summary;
  std::vector<obs::HealthState> states;
};

ObsArtifacts RunShardedObservability(size_t threads) {
  ShardedFleet::Config config;
  config.seed = 4242;
  config.threads = threads;
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
  fleet.EnableMetrics();
  fleet.EnableFlightRecorder(/*capacity_per_source=*/256);
  obs::HealthConfig health;
  health.nis_window = 16;
  fleet.EnableHealth(health);
  obs::AuditConfig audit;
  audit.sample_every = 2;
  audit.slo_window_ticks = 64;
  fleet.EnableAudit(audit);
  AddStandardSources(fleet, 12);
  EXPECT_TRUE(fleet.Run(300).ok());

  ObsArtifacts out;
  out.recorder_text = fleet.DumpFlightRecorderText();
  out.recorder_json = fleet.server().DumpFlightRecorderJson();
  out.health_summary = fleet.HealthSummaryText();
  out.audit_text = fleet.AuditReportText();
  out.audit_json = fleet.AuditReportJson();
  out.audit_summary = fleet.AuditSummaryLine();
  obs::MetricRegistry merged;
  fleet.MergeMetricsInto(&merged);
  out.metrics = obs::ExportText(merged, /*include_wall_clock=*/false);
  for (int32_t id = 0; id < 12; ++id) out.states.push_back(fleet.HealthOf(id));
  return out;
}

TEST(ShardedFleetTest, ObservabilityArtifactsBitIdenticalForAnyThreadCount) {
  ObsArtifacts one = RunShardedObservability(1);
  ObsArtifacts four = RunShardedObservability(4);
  EXPECT_EQ(one.recorder_text, four.recorder_text);
  EXPECT_EQ(one.recorder_json, four.recorder_json);
  EXPECT_EQ(one.health_summary, four.health_summary);
  EXPECT_EQ(one.metrics, four.metrics);
  EXPECT_EQ(one.audit_text, four.audit_text);
  EXPECT_EQ(one.audit_json, four.audit_json);
  EXPECT_EQ(one.audit_summary, four.audit_summary);
  EXPECT_EQ(one.states, four.states);

  // The run actually exercised the interesting paths: faults left a
  // recovery trail in the black box, every source has a ring and a
  // summary line, and the watchdog's telemetry landed in the export.
  EXPECT_NE(one.recorder_text.find("WIRE_GAP"), std::string::npos);
  EXPECT_NE(one.recorder_text.find("RESYNC_REQUEST"), std::string::npos);
  for (int32_t id = 0; id < 12; ++id) {
    std::string needle = "source " + std::to_string(id) + " flight recorder";
    EXPECT_NE(one.recorder_text.find(needle), std::string::npos) << id;
  }
  EXPECT_NE(one.health_summary.find("source    0"), std::string::npos);
  EXPECT_NE(one.health_summary.find("source   11"), std::string::npos);
  // The injected loss is heavy enough that the watchdog flags at least
  // one source (resync storms trip the rate detector).
  int flagged = 0;
  for (obs::HealthState s : one.states) {
    if (s != obs::HealthState::kOk) ++flagged;
  }
  EXPECT_GT(flagged, 0) << one.health_summary;
  EXPECT_NE(one.metrics.find("kc.recorder.events"), std::string::npos);
  EXPECT_NE(one.metrics.find("kc.health.nis_windows"), std::string::npos);
  EXPECT_NE(one.metrics.find("kc.health.sources_ok"), std::string::npos);
  // The precision auditor rode along: per-source report lines, a fleet
  // summary, and its metric family all landed in the artefacts.
  EXPECT_NE(one.audit_text.find("source    0"), std::string::npos);
  EXPECT_NE(one.audit_text.find("source   11"), std::string::npos);
  EXPECT_NE(one.audit_summary.find("audit: sources=12"), std::string::npos);
  EXPECT_NE(one.audit_json.find("\"totals\":"), std::string::npos);
  EXPECT_NE(one.metrics.find("kc.audit.samples"), std::string::npos);
  EXPECT_NE(one.metrics.find("kc.health.audit_breaches"), std::string::npos);
}

/// The four observability artefacts of one faulty, queried run.
struct WiringArtifacts {
  std::string metrics;
  std::string recorder;
  std::string health;
  std::string audit_json;
  int64_t audit_breaches = 0;  ///< Audit windows the watchdog was fed.
};

/// Enables metrics, recorder, health and audit in forward order, or in
/// reverse, then runs the same faulty fleet with a live query.
WiringArtifacts RunWiredFleet(bool reverse) {
  ShardedFleet::Config config;
  config.seed = 4242;
  config.threads = 2;
  config.num_shards = 4;
  config.channel.loss_prob = 0.05;
  config.channel.faults.partition_start = 80;
  config.channel.faults.partition_length = 10;
  config.recovery.enabled = true;
  config.recovery.suspect_after_silent_ticks = 6;
  ShardedFleet fleet(config);
  obs::HealthConfig health;
  health.nis_window = 16;
  obs::AuditConfig audit;
  audit.sample_every = 2;
  audit.slo_window_ticks = 64;
  std::vector<std::function<Status()>> enables = {
      [&] { return fleet.EnableMetrics(); },
      [&] { return fleet.EnableFlightRecorder(/*capacity_per_source=*/128); },
      [&] { return fleet.EnableHealth(health); },
      [&] { return fleet.EnableAudit(audit); },
  };
  if (reverse) std::reverse(enables.begin(), enables.end());
  for (auto& enable : enables) EXPECT_TRUE(enable().ok());
  AddStandardSources(fleet, 12);
  auto spec = ParseQuery("SELECT AVG(s0, s3, s7, s11)");
  EXPECT_TRUE(spec.ok());
  EXPECT_TRUE(fleet.server().AddQuery("avg", *spec).ok());
  for (int t = 0; t < 300; ++t) {
    EXPECT_TRUE(fleet.Step().ok());
    if (t % 10 == 0) (void)fleet.server().Evaluate("avg");
  }
  WiringArtifacts out;
  obs::MetricRegistry merged;
  fleet.MergeMetricsInto(&merged);
  out.metrics = obs::ExportText(merged, /*include_wall_clock=*/false);
  out.audit_breaches = merged.GetCounter("kc.health.audit_breaches")->value();
  out.recorder = fleet.DumpFlightRecorderText();
  out.health = fleet.HealthSummaryText();
  out.audit_json = fleet.AuditReportJson();
  return out;
}

TEST(ShardedFleetTest, EnableOrderDoesNotChangeAnyArtifact) {
  WiringArtifacts forward = RunWiredFleet(/*reverse=*/false);
  WiringArtifacts reverse = RunWiredFleet(/*reverse=*/true);
  EXPECT_EQ(forward.metrics, reverse.metrics);
  EXPECT_EQ(forward.recorder, reverse.recorder);
  EXPECT_EQ(forward.health, reverse.health);
  EXPECT_EQ(forward.audit_json, reverse.audit_json);
  // Every cross-facility binding is live in both orders: the recorder and
  // watchdog count into the arena, audit windows feed the watchdog, and
  // the driver's query ledger lands in the report.
  EXPECT_NE(forward.metrics.find("kc.recorder.events"), std::string::npos);
  EXPECT_GT(forward.audit_breaches, 0);
  EXPECT_NE(forward.metrics.find("kc.audit.samples"), std::string::npos);
  EXPECT_NE(forward.metrics.find("kc.fleet.queries_served"),
            std::string::npos);
  EXPECT_NE(forward.recorder.find("WIRE_GAP"), std::string::npos);
  EXPECT_NE(forward.health.find("source   11"), std::string::npos);
  EXPECT_NE(forward.audit_json.find("\"avg\""), std::string::npos);
}

TEST(ShardedFleetTest, EnableAfterFirstSourceFailsAndChangesNothing) {
  ShardedFleet::Config config;
  config.num_shards = 4;
  ShardedFleet fleet(config);
  AddStandardSources(fleet, 3);
  const std::vector<std::pair<std::string, Status>> late = {
      {"metrics", fleet.EnableMetrics()},
      {"recorder", fleet.EnableFlightRecorder()},
      {"health", fleet.EnableHealth()},
      {"audit", fleet.EnableAudit()},
      {"timeseries", fleet.EnableTimeseries(/*every_n_ticks=*/1)},
      {"http", fleet.EnableHttpTelemetry(/*port=*/0)},
  };
  for (const auto& [what, status] : late) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << what << ": " << status;
  }
  EXPECT_FALSE(fleet.metrics_enabled());
  EXPECT_FALSE(fleet.flight_recorder_enabled());
  EXPECT_FALSE(fleet.health_enabled());
  EXPECT_FALSE(fleet.audit_enabled());
  EXPECT_FALSE(fleet.timeseries_enabled());
  EXPECT_EQ(fleet.http(), nullptr);
  ASSERT_TRUE(fleet.Run(20).ok());
  obs::MetricRegistry merged;
  fleet.MergeMetricsInto(&merged);
  EXPECT_TRUE(merged.Rows().empty());
  EXPECT_EQ(fleet.DumpFlightRecorderText(), "");
  EXPECT_EQ(fleet.HealthSummaryText(), "");
  EXPECT_EQ(fleet.AuditReportJson(), "{}");

  // A facility enabled in time stays as it was; enabling it again late is
  // refused all the same.
  ShardedFleet metered(config);
  ASSERT_TRUE(metered.EnableMetrics().ok());
  ASSERT_TRUE(metered.EnableMetrics().ok());  // Idempotent before sources.
  AddStandardSources(metered, 3);
  EXPECT_EQ(metered.EnableMetrics().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(metered.metrics_enabled());
}

TEST(ShardedFleetTest, ServerEnableAfterFirstRegistrationFails) {
  ShardedServer server(4);
  ASSERT_TRUE(
      server.RegisterSource(0, std::make_unique<ValueCachePredictor>()).ok());
  EXPECT_EQ(server.EnableMetrics().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.EnableFlightRecorder(16).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.EnableHealth().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.EnableAudit().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(server.metrics_enabled());
  EXPECT_FALSE(server.flight_recorder_enabled());
  EXPECT_FALSE(server.health_enabled());
  EXPECT_FALSE(server.audit_enabled());
  for (size_t s = 0; s < server.num_shards(); ++s) {
    EXPECT_EQ(server.shard_metrics(s), nullptr);
    EXPECT_EQ(server.shard_recorder(s), nullptr);
    EXPECT_EQ(server.shard_health(s), nullptr);
    EXPECT_EQ(server.shard_audit(s), nullptr);
  }
  // The rule counts registrations, not current sources.
  ASSERT_TRUE(server.UnregisterSource(0).ok());
  EXPECT_EQ(server.EnableMetrics().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedFleetTest, MetricsMirrorProtocolCounters) {
  ShardedFleet::Config config;
  config.seed = 99;
  config.threads = 2;
  config.num_shards = 4;
  ShardedFleet fleet(config);
  fleet.EnableMetrics();
  AddStandardSources(fleet, 8);
  ASSERT_TRUE(fleet.Run(150).ok());

  obs::MetricRegistry merged;
  fleet.MergeMetricsInto(&merged);
  int64_t corrections = 0;
  int64_t suppressed = 0;
  for (int32_t id = 0; id < 8; ++id) {
    corrections += fleet.agent(id).stats().corrections;
    suppressed += fleet.agent(id).stats().suppressed;
  }
  EXPECT_EQ(merged.GetCounter("kc.agent.corrections")->value(), corrections);
  EXPECT_EQ(merged.GetCounter("kc.agent.suppressed")->value(), suppressed);
  EXPECT_EQ(merged.GetCounter("kc.net.messages_sent")->value(),
            fleet.TotalNetworkStats().messages_sent);
  EXPECT_EQ(merged.GetCounter("kc.server.messages_in")->value(),
            fleet.server().messages_processed());
  EXPECT_EQ(merged.GetCounter("kc.server.ticks")->value(),
            static_cast<int64_t>(fleet.num_shards()) * 150);
  EXPECT_DOUBLE_EQ(merged.GetGauge("kc.server.sources")->value(), 8.0);
}

TEST(ShardedFleetTest, BitIdenticalForAnyShardCount) {
  Fingerprint s1 = RunSharded(/*threads=*/2, /*shards=*/1);
  Fingerprint s3 = RunSharded(/*threads=*/2, /*shards=*/3);
  Fingerprint s8 = RunSharded(/*threads=*/2, /*shards=*/8);
  ExpectEqualFingerprints(s1, s3, "shards 1 vs 3");
  ExpectEqualFingerprints(s1, s8, "shards 1 vs 8");
}

TEST(ShardedFleetTest, BitIdenticalUnderLossAndLatency) {
  Channel::Config lossy;
  lossy.loss_prob = 0.2;
  lossy.latency_ticks = 3;
  Fingerprint one = RunSharded(1, 8, lossy);
  Fingerprint four = RunSharded(4, 8, lossy);
  EXPECT_GT(one.net.messages_dropped, 0);
  ExpectEqualFingerprints(one, four, "lossy threads 1 vs 4");
}

/// What a shard link must hold fixed: every source's replica answer and
/// data count, and both merged link books.
struct LinkPrint {
  std::vector<bool> initialized;
  std::vector<double> values;
  std::vector<int64_t> messages;
  std::string uplink;
  std::string control;
};

/// A fleet on delayed, reordering, duplicating uplinks and delayed, lossy
/// control links with recovery on, so resync requests and bound pushes
/// cross the control link. `own_links` gives every source Channels of its
/// own through the factories: the per-source reference.
LinkPrint RunFaultyLinks(size_t shards, size_t threads, bool own_links) {
  ShardedFleet::Config config;
  config.seed = 77;
  config.threads = threads;
  config.num_shards = shards;
  config.channel.latency_ticks = 2;
  config.channel.faults.reorder_prob = 0.2;
  config.channel.faults.reorder_max_ticks = 3;
  config.channel.faults.duplicate_prob = 0.1;
  config.control_channel.latency_ticks = 1;
  config.control_channel.loss_prob = 0.1;
  config.recovery.enabled = true;
  config.recovery.suspect_after_silent_ticks = 8;
  config.recovery.backoff_initial_ticks = 2;
  config.recovery.backoff_max_ticks = 16;
  config.agent_base.heartbeat_every = 4;
  if (own_links) {
    auto own = [](int32_t, const Channel::Config& c) {
      return std::make_unique<Channel>(c);
    };
    config.uplink_factory = own;
    config.control_factory = own;
  }
  ShardedFleet fleet(config);
  constexpr int kSources = 12;
  AddStandardSources(fleet, kSources);
  for (int t = 0; t < 240; ++t) {
    EXPECT_TRUE(fleet.Step().ok());
    if (t % 10 == 9) {
      auto id = static_cast<int32_t>(t % kSources);
      EXPECT_TRUE(fleet.server().PushBound(id, 0.4 + 0.01 * t).ok());
    }
  }
  LinkPrint print;
  for (int32_t id = 0; id < kSources; ++id) {
    auto answer = fleet.server().SourceValue(id);
    print.initialized.push_back(answer.ok());
    print.values.push_back(answer.ok() ? answer->value[0] : 0.0);
    print.messages.push_back(fleet.MessagesOf(id));
  }
  NetworkStats up = fleet.TotalNetworkStats();
  NetworkStats down = fleet.TotalControlNetworkStats();
  print.uplink = up.ToString();
  print.control = down.ToString();
  EXPECT_GT(up.messages_reordered, 0);
  EXPECT_GT(up.messages_duplicated, 0);
  EXPECT_GT(down.by_type_sent[static_cast<size_t>(MessageType::kResyncRequest)],
            0);
  EXPECT_GT(down.messages_dropped, 0);
  return print;
}

TEST(ShardedFleetTest, ShardLinkDeliveryOrderIsBitIdentical) {
  // One uplink and one control link per shard deliver exactly what a
  // Channel per source would, for any shard and thread count.
  const LinkPrint reference = RunFaultyLinks(1, 1, /*own_links=*/true);
  for (size_t shards : {1, 3, 8}) {
    for (size_t threads : {1, 4}) {
      const LinkPrint p = RunFaultyLinks(shards, threads, /*own_links=*/false);
      std::string label = "shards=" + std::to_string(shards) +
                          " threads=" + std::to_string(threads);
      EXPECT_EQ(p.initialized, reference.initialized) << label;
      EXPECT_EQ(p.values, reference.values) << label;
      EXPECT_EQ(p.messages, reference.messages) << label;
      EXPECT_EQ(p.uplink, reference.uplink) << label;
      EXPECT_EQ(p.control, reference.control) << label;
    }
  }
}

TEST(ShardedFleetTest, RejectedControlIsCountedNotFatal) {
  // A control link may carry corrupt or hostile input (the split client's
  // is TCP from the server): the agent refuses it, counts it, keeps its
  // bound, and the fleet keeps stepping.
  ShardedFleet::Config config;
  Channel* control = nullptr;
  config.control_factory = [&control](int32_t, const Channel::Config& c) {
    auto link = std::make_unique<Channel>(c);
    control = link.get();
    return link;
  };
  ShardedFleet fleet(config);
  fleet.AddSource(
      std::make_unique<RandomWalkGenerator>(RandomWalkGenerator::Config()),
      std::make_unique<ValueCachePredictor>(), 1.0);
  ASSERT_TRUE(fleet.Run(3).ok());
  ASSERT_NE(control, nullptr);

  Message wrong_type;
  wrong_type.source_id = 0;
  wrong_type.type = MessageType::kCorrection;
  wrong_type.payload = {1.0, 2.0};
  Message nan_bound;
  nan_bound.source_id = 0;
  nan_bound.type = MessageType::kSetBound;
  nan_bound.payload = {std::numeric_limits<double>::quiet_NaN()};
  ASSERT_TRUE(control->Send(wrong_type).ok());
  ASSERT_TRUE(control->Send(nan_bound).ok());

  EXPECT_EQ(fleet.agent(0).stats().control_rejected, 2);
  EXPECT_DOUBLE_EQ(fleet.agent(0).delta(), 1.0);
  EXPECT_TRUE(fleet.Step().ok());
}

TEST(ShardedFleetTest, PooledBitIdenticalToPerObjectPredictors) {
  // Sharing the shard's swept pools is a memory-layout change only: it
  // must reproduce predictors on private pools (no sweep) bit-for-bit, on
  // clean and lossy channels alike.
  Fingerprint pooled = RunSharded(2, 8);
  Fingerprint object = RunSharded(2, 8, Channel::Config(), /*pooling=*/false);
  ExpectEqualFingerprints(pooled, object, "pooled vs per-object");

  Channel::Config lossy;
  lossy.loss_prob = 0.2;
  lossy.latency_ticks = 3;
  Fingerprint pooled_lossy = RunSharded(2, 8, lossy);
  Fingerprint object_lossy = RunSharded(2, 8, lossy, /*pooling=*/false);
  EXPECT_GT(pooled_lossy.net.messages_dropped, 0);
  ExpectEqualFingerprints(pooled_lossy, object_lossy,
                          "pooled vs per-object (lossy)");
}

TEST(ShardedFleetTest, PooledBitIdenticalToPerObjectUnderFaultsWithSweeps) {
  // The strongest cross-cutting pin: the lane kernels + a 4-thread sweep +
  // a faulty channel (loss, latency) on the shard's pools must reproduce
  // one-thread private pools bit-for-bit. Any FP reordering, masked-
  // store leak, or sweep/update interleaving bug shows up here.
  Channel::Config lossy;
  lossy.loss_prob = 0.2;
  lossy.latency_ticks = 3;
  Fingerprint pooled = RunSharded(4, 8, lossy, /*pooling=*/true);
  Fingerprint object = RunSharded(1, 8, lossy, /*pooling=*/false);
  EXPECT_GT(pooled.net.messages_dropped, 0);
  ExpectEqualFingerprints(pooled, object,
                          "pooled parallel-sweep vs per-object (lossy)");
}

/// The default adaptive predictor (MakeDefaultKalmanPredictor: adapt_q
/// with per-slot Q when pooled) on a faulty channel with recovery,
/// metrics and the precision auditor on. Returns the message books plus
/// every deterministic export, and the number of pooled filter slots.
struct AdaptiveFleetRun {
  Fingerprint books;
  std::string metrics;
  std::string audit_text;
  std::string audit_json;
  std::string audit_summary;
  size_t pooled_slots = 0;
};

AdaptiveFleetRun RunAdaptiveFleet(size_t threads, bool pooling) {
  ShardedFleet::Config config;
  config.seed = 9090;
  config.threads = threads;
  config.num_shards = 4;
  config.pooling = pooling;
  config.channel.loss_prob = 0.05;
  config.channel.latency_ticks = 2;
  config.channel.faults.burst_enter_prob = 0.02;
  config.channel.faults.burst_exit_prob = 0.3;
  config.channel.faults.burst_loss_prob = 0.9;
  config.channel.faults.partition_start = 120;
  config.channel.faults.partition_length = 10;
  config.control_channel.loss_prob = 0.05;
  config.recovery.enabled = true;
  config.recovery.suspect_after_silent_ticks = 8;
  config.agent_base.heartbeat_every = 8;
  ShardedFleet fleet(config);
  fleet.EnableMetrics();
  obs::AuditConfig audit;
  audit.sample_every = 2;
  fleet.EnableAudit(audit);
  for (int i = 0; i < 14; ++i) {
    // Volatility spread over two orders of magnitude: each private slot
    // adapts its Q to a different level.
    RandomWalkGenerator::Config walk;
    walk.start = 2.0 * i;
    walk.step_sigma = 0.02 * (1 + i * i);
    fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                    MakeDefaultKalmanPredictor(0.01, 0.09),
                    /*delta=*/0.4 + 0.05 * (i % 5));
  }
  EXPECT_TRUE(fleet.Run(2).ok());
  auto avg = ParseQuery("SELECT AVG(s0, s2, s4, s6, s8, s10, s12) WITHIN 5");
  EXPECT_TRUE(avg.ok());
  EXPECT_TRUE(fleet.server().AddQuery("avg", *avg).ok());

  AdaptiveFleetRun out;
  Fingerprint& fp = out.books;
  for (int t = 0; t < 400; ++t) {
    EXPECT_TRUE(fleet.Step().ok());
    for (const QueryResult& r : fleet.server().EvaluateDue()) {
      fp.query_values.push_back(r.value);
      fp.query_bounds.push_back(r.bound);
    }
  }
  for (int32_t id = 0; id < static_cast<int32_t>(fleet.num_sources()); ++id) {
    auto answer = fleet.server().SourceValue(id);
    fp.initialized.push_back(answer.ok());
    fp.values.push_back(answer.ok() ? answer->value[0] : 0.0);
    fp.bounds.push_back(answer.ok() ? answer->bound : 0.0);
  }
  fp.total_messages = fleet.TotalMessages();
  fp.total_bytes = fleet.TotalBytes();
  fp.messages_processed = fleet.server().messages_processed();
  fp.net = fleet.TotalNetworkStats();
  obs::MetricRegistry merged;
  fleet.MergeMetricsInto(&merged);
  out.metrics = obs::ExportText(merged, /*include_wall_clock=*/false);
  out.audit_text = fleet.AuditReportText();
  out.audit_json = fleet.AuditReportJson();
  out.audit_summary = fleet.AuditSummaryLine();
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    out.pooled_slots += fleet.server().shard_pools(s)->num_active();
  }
  return out;
}

void ExpectEqualAdaptiveRuns(const AdaptiveFleetRun& a,
                             const AdaptiveFleetRun& b,
                             const std::string& label) {
  ExpectEqualFingerprints(a.books, b.books, label);
  EXPECT_EQ(a.metrics, b.metrics) << label;
  EXPECT_EQ(a.audit_text, b.audit_text) << label;
  EXPECT_EQ(a.audit_json, b.audit_json) << label;
  EXPECT_EQ(a.audit_summary, b.audit_summary) << label;
}

TEST(ShardedFleetTest, DefaultAdaptivePredictorPooledBitIdenticalToPerObject) {
  // The shipped default predictor adapts Q per source, each slot with its
  // own Q and NIS ring. On the shard's swept pools the answers, message
  // books, metrics and audit must match private pools bit-for-bit, for
  // any thread count (which also sizes the sweep's worker pool: 1, 3 and 4
  // chunk the slabs differently).
  AdaptiveFleetRun object = RunAdaptiveFleet(/*threads=*/1, /*pooling=*/false);
  EXPECT_EQ(object.pooled_slots, 0u);
  EXPECT_GT(object.books.net.messages_dropped, 0);
  EXPECT_NE(object.audit_summary.find("audit: sources=14"), std::string::npos);
  for (size_t threads : {1u, 3u, 4u}) {
    std::string label = "threads " + std::to_string(threads);
    AdaptiveFleetRun pooled = RunAdaptiveFleet(threads, /*pooling=*/true);
    // Every source's agent and replica filters live in the pools.
    EXPECT_GE(pooled.pooled_slots, 2u * 14u) << label;
    ExpectEqualAdaptiveRuns(object, pooled, label);
  }
}

/// A faulty fleet whose replicas are, with `pooling`, on the shards'
/// swept pools (their counters come from the server clock and the tick
/// skips them unless recovery is on), and otherwise on private pools (every
/// replica ticked).
ShardedFleet::Config ClockParityConfig(bool pooling, bool recovery) {
  ShardedFleet::Config config;
  config.seed = 2468;
  config.threads = 1;
  config.num_shards = 4;
  config.pooling = pooling;
  config.channel.loss_prob = 0.1;
  config.channel.latency_ticks = 2;
  config.control_channel.loss_prob = 0.1;
  config.recovery.enabled = recovery;
  config.recovery.suspect_after_silent_ticks = 10;
  config.agent_base.heartbeat_every = 6;
  return config;
}

void AddParitySource(ShardedFleet& fleet, int i) {
  RandomWalkGenerator::Config walk;
  walk.start = 4.0 * i;
  walk.step_sigma = 0.2 + 0.1 * (i % 3);
  fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                  std::make_unique<KalmanPredictor>(ScalarKalman()),
                  /*delta=*/0.4 + 0.1 * (i % 2));
}

void ExpectSameReplica(const ServerReplica* a, const ServerReplica* b,
                       const std::string& label) {
  ASSERT_EQ(a == nullptr, b == nullptr) << label;
  if (a == nullptr) return;
  ASSERT_EQ(a->initialized(), b->initialized()) << label;
  ASSERT_EQ(a->ticks(), b->ticks()) << label;
  ASSERT_EQ(a->TicksSinceHeard(), b->TicksSinceHeard()) << label;
  ASSERT_EQ(a->stale(), b->stale()) << label;
  ASSERT_EQ(a->desynced(), b->desynced()) << label;
  ASSERT_EQ(a->resyncs_requested(), b->resyncs_requested()) << label;
  if (!a->initialized()) return;
  Vector va = a->Value();
  Vector vb = b->Value();
  ASSERT_EQ(va.size(), vb.size()) << label;
  for (size_t d = 0; d < va.size(); ++d) {
    ASSERT_EQ(std::bit_cast<uint64_t>(va[d]), std::bit_cast<uint64_t>(vb[d]))
        << label << " value " << d;
  }
}

TEST(ShardedFleetTest, ReplicaClockCountersMatchTickedReplicas) {
  // Pooled replicas are not ticked: ticks(), TicksSinceHeard(), stale()
  // and the recorder's timestamps derive from the shard clock. They must
  // read exactly what per-replica ticking gives, through uplink loss and
  // latency, control loss, a source added after the first Step, and an id
  // unregistered and registered again — with recovery off and on.
  constexpr int kSources = 9;
  constexpr int32_t kChurned = 2;
  for (bool recovery : {false, true}) {
    std::string mode = recovery ? "recovery on" : "recovery off";
    ShardedFleet pooled(ClockParityConfig(/*pooling=*/true, recovery));
    ShardedFleet ticked(ClockParityConfig(/*pooling=*/false, recovery));
    int64_t stale_seen = 0;
    for (ShardedFleet* fleet : {&pooled, &ticked}) {
      ASSERT_TRUE(fleet->EnableFlightRecorder(/*capacity_per_source=*/256)
                      .ok());
      fleet->server().SetStalenessLimit(4);
      for (int i = 0; i < kSources - 1; ++i) AddParitySource(*fleet, i);
      ASSERT_TRUE(fleet->Step().ok());
      AddParitySource(*fleet, kSources - 1);  // Registered at tick 1.
    }
    for (int t = 1; t < 400; ++t) {
      for (ShardedFleet* fleet : {&pooled, &ticked}) {
        if (t == 150) {
          ASSERT_TRUE(fleet->server().UnregisterSource(kChurned).ok());
        } else if (t == 170) {
          ASSERT_TRUE(fleet->server()
                          .RegisterSource(kChurned,
                                          fleet->agent(kChurned)
                                              .predictor()
                                              .Clone())
                          .ok());
        }
        ASSERT_TRUE(fleet->Step().ok());
      }
      for (int32_t id = 0; id < kSources; ++id) {
        const ServerReplica* a = pooled.server().replica(id);
        ExpectSameReplica(a, ticked.server().replica(id),
                          mode + " tick " + std::to_string(t) + " source " +
                              std::to_string(id));
        if (HasFatalFailure()) return;
        if (a != nullptr && a->stale()) ++stale_seen;
      }
    }
    EXPECT_EQ(pooled.DumpFlightRecorderText(), ticked.DumpFlightRecorderText())
        << mode;
    // The run reached the paths the derived counters must get right.
    EXPECT_GT(stale_seen, 0) << mode;
    EXPECT_GT(pooled.server().shard_pools(0)->num_active(), 0u) << mode;
    const ServerReplica* churned = pooled.server().replica(kChurned);
    ASSERT_NE(churned, nullptr);
    if (recovery) {
      // Re-INITed after the re-registration.
      EXPECT_TRUE(churned->initialized()) << mode;
      EXPECT_LT(churned->ticks(), 400 - 170) << mode;
      int64_t resyncs = 0;
      for (int32_t id = 0; id < kSources; ++id) {
        resyncs += pooled.server().replica(id)->resyncs_requested();
      }
      EXPECT_GT(resyncs, 0);
    }
  }
}

TEST(ShardedFleetTest, FailedFilterUpdateFailsStepNamingTheSource) {
  // A transition that doubles the state every tick from a variance near
  // DBL_MAX: the private filter's P overflows to inf, so S does not
  // factor. The step must fail — in release builds too, where the old
  // assert compiled away and the sample was silently skipped.
  ShardedFleet::Config config;
  config.num_shards = 2;
  ShardedFleet fleet(config);
  AddStandardSources(fleet, 3);
  KalmanPredictor::Config kf;
  kf.model = MakeRandomWalkModel(0.1, 0.25);
  kf.model.f = Matrix{{2.0}};
  kf.init_var = 1e308;
  RandomWalkGenerator::Config walk;
  int32_t bad = fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                                std::make_unique<KalmanPredictor>(kf), 1.0);
  ASSERT_TRUE(fleet.Step().ok());  // INIT.
  Status s = fleet.Step();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  EXPECT_NE(s.message().find("source " + std::to_string(bad) + ":"),
            std::string::npos)
      << s;
  EXPECT_NE(s.message().find("not positive definite"), std::string::npos)
      << s;

  // The same failure long after the first observation: a huge R keeps
  // each update from reining P in, so P grows 4x a tick until S
  // overflows.
  ShardedFleet late_fleet(config);
  AddStandardSources(late_fleet, 3);
  kf.init_var = 1.0;
  kf.model.r = Matrix{{5e307}};
  bad = late_fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                             std::make_unique<KalmanPredictor>(kf), 1.0);
  int ok_steps = 0;
  while (ok_steps < 1000 && (s = late_fleet.Step()).ok()) ++ok_steps;
  EXPECT_GT(ok_steps, 100);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  EXPECT_NE(s.message().find("source " + std::to_string(bad) + ":"),
            std::string::npos)
      << s;
}

TEST(ShardedFleetTest, MatchesSingleThreadedFleet) {
  // The sharded executor must reproduce the sequential reference — one
  // thread, one shard, private-pool predictors, every source stepped in id
  // order — bit-for-bit: same seed, same AddSource order => same
  // per-source answers and the same fleet-wide message accounting.
  ShardedFleet::Config flat_config;
  flat_config.seed = 777;
  flat_config.threads = 1;
  flat_config.num_shards = 1;
  flat_config.pooling = false;
  ShardedFleet flat(flat_config);
  ShardedFleet::Config sharded_config;
  sharded_config.seed = 777;
  sharded_config.threads = 4;
  sharded_config.num_shards = 5;
  ShardedFleet sharded(sharded_config);
  for (int i = 0; i < 9; ++i) {
    RandomWalkGenerator::Config walk;
    walk.start = 2.0 * i;
    walk.step_sigma = 0.3;
    flat.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                   std::make_unique<KalmanPredictor>(ScalarKalman()), 0.5);
    sharded.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                      std::make_unique<KalmanPredictor>(ScalarKalman()), 0.5);
  }
  ASSERT_TRUE(flat.Run(250).ok());
  ASSERT_TRUE(sharded.Run(250).ok());
  for (int32_t id = 0; id < 9; ++id) {
    auto a = flat.server().SourceValue(id);
    auto b = sharded.server().SourceValue(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->value[0], b->value[0]) << "source " << id;
    EXPECT_EQ(a->bound, b->bound) << "source " << id;
    EXPECT_EQ(flat.MessagesOf(id), sharded.MessagesOf(id)) << "source " << id;
  }
  EXPECT_EQ(flat.TotalMessages(), sharded.TotalMessages());
  EXPECT_EQ(flat.TotalBytes(), sharded.TotalBytes());
  EXPECT_EQ(flat.server().messages_processed(),
            sharded.server().messages_processed());
}

TEST(ShardedFleetTest, MessagesOfCountsEveryDataSend) {
  // MessagesOf is the source's uplink data traffic: every send except
  // heartbeats. Nothing is sent before the first Step, and under loss
  // with recovery the INITs re-sent for replicas that never saw theirs
  // count like any other data message.
  ShardedFleet::Config config;
  config.seed = 31;
  config.threads = 2;
  config.num_shards = 4;
  config.channel.loss_prob = 0.3;
  config.recovery.enabled = true;
  config.recovery.suspect_after_silent_ticks = 6;
  config.agent_base.heartbeat_every = 5;
  ShardedFleet fleet(config);
  constexpr int kSources = 16;
  AddStandardSources(fleet, kSources);
  for (int32_t id = 0; id < kSources; ++id) {
    EXPECT_EQ(fleet.MessagesOf(id), 0) << "source " << id;
  }

  ASSERT_TRUE(fleet.Run(300).ok());
  int64_t data = 0;
  int64_t heartbeats = 0;
  for (int32_t id = 0; id < kSources; ++id) {
    data += fleet.MessagesOf(id);
    heartbeats += fleet.agent(id).stats().heartbeats;
  }
  NetworkStats net = fleet.TotalNetworkStats();
  // Lost INITs were re-sent, and heartbeats flowed.
  EXPECT_GT(net.by_type_sent[static_cast<size_t>(MessageType::kInit)],
            kSources);
  EXPECT_GT(heartbeats, 0);
  EXPECT_EQ(data, fleet.TotalMessages() - heartbeats);
}

TEST(ShardedFleetTest, CrossShardQueriesAndArchives) {
  ShardedFleet::Config config;
  config.seed = 9;
  config.threads = 2;
  config.num_shards = 4;
  ShardedFleet fleet(config);
  AddStandardSources(fleet, 8);
  fleet.server().EnableArchiving(64);
  ASSERT_TRUE(fleet.Run(50).ok());

  // A query spanning every shard evaluates against the merged view.
  QuerySpec spec;
  spec.kind = AggregateKind::kAvg;
  for (int32_t id = 0; id < 8; ++id) spec.sources.push_back(id);
  ASSERT_TRUE(fleet.server().AddQuery("all", spec).ok());
  auto result = fleet.server().Evaluate("all");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->bound, 0.0);

  // Shard-local archives answer historical queries through the merged
  // view, including a LAST window larger than recorded history.
  for (int32_t id = 0; id < 8; ++id) {
    auto archive = fleet.server().Archive(id);
    ASSERT_TRUE(archive.ok()) << "source " << id;
    EXPECT_GT((*archive)->size(), 0u);
    QuerySpec last;
    last.kind = AggregateKind::kAvg;
    last.sources.push_back(id);
    last.last_ticks = 10000;  // Far more than the 50 recorded ticks.
    auto hist = fleet.server().EvaluateSpec(last, "hist");
    ASSERT_TRUE(hist.ok()) << hist.status();
  }

  // The registry behaves like StreamServer's.
  EXPECT_FALSE(fleet.server().AddQuery("all", spec).ok());
  EXPECT_EQ(fleet.server().QueryNames(),
            (std::vector<std::string>{"all"}));
  EXPECT_TRUE(fleet.server().RemoveQuery("all").ok());
  EXPECT_FALSE(fleet.server().Evaluate("all").ok());
}

/// The per-member semantics a live aggregate must keep, spelled out
/// against the server's per-source accessors: the first member (in spec
/// order) without a bounded answer decides the error; the result is stale
/// if any initialized member has been silent past the staleness limit,
/// degraded if any member is quarantined, and carries the worst member
/// health verdict.
StatusOr<QueryResult> ReferenceEvaluate(const ShardedServer& server,
                                        const QuerySpec& spec,
                                        const std::string& name) {
  std::vector<double> values;
  std::vector<double> bounds;
  for (int32_t id : spec.sources) {
    auto answer = server.SourceValue(id);
    if (!answer.ok()) return answer.status();
    values.push_back(answer->value[0]);
    bounds.push_back(answer->bound);
  }
  QueryResult result;
  result.name = name;
  result.value = AggregateValues(spec.kind, values);
  result.bound = AggregateErrorBound(spec.kind, bounds);
  result.meets_within = spec.within <= 0.0 || result.bound <= spec.within;
  for (int32_t id : spec.sources) {
    const int64_t limit = server.staleness_limit();
    result.stale = result.stale ||
                   (limit > 0 && server.replica(id)->TicksSinceHeard() > limit);
    result.degraded = result.degraded || server.IsDesynced(id);
    result.health = std::max(result.health, server.HealthOf(id));
  }
  if (spec.threshold.has_value()) {
    result.trigger = EvaluateTrigger(result.value, result.bound,
                                     *spec.threshold, spec.above);
  }
  return result;
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.name, b.name) << label;
  EXPECT_EQ(a.value, b.value) << label;
  EXPECT_EQ(a.bound, b.bound) << label;
  EXPECT_EQ(a.meets_within, b.meets_within) << label;
  EXPECT_EQ(a.stale, b.stale) << label;
  EXPECT_EQ(a.degraded, b.degraded) << label;
  EXPECT_EQ(a.health, b.health) << label;
  EXPECT_EQ(a.trigger, b.trigger) << label;
}

/// Every due query result of a faulty run with recovery, a staleness limit
/// and the health watchdog on, checked tick by tick against
/// ReferenceEvaluate.
struct FlagRun {
  std::vector<QueryResult> results;
  int64_t stale = 0;
  int64_t degraded = 0;
  int64_t unhealthy = 0;
  int64_t failed = 0;  ///< Queries that could not be evaluated on a tick.
};

void RunFlagWorkload(size_t threads, size_t shards, FlagRun* run) {
  ShardedFleet::Config config;
  config.seed = 4242;
  config.threads = threads;
  config.num_shards = shards;
  config.channel.loss_prob = 0.05;
  config.channel.faults.burst_enter_prob = 0.02;
  config.channel.faults.burst_exit_prob = 0.3;
  config.channel.faults.burst_loss_prob = 0.9;
  config.channel.faults.partition_start = 80;
  config.channel.faults.partition_length = 10;
  config.recovery.enabled = true;
  config.recovery.suspect_after_silent_ticks = 6;
  ShardedFleet fleet(config);
  obs::HealthConfig health;
  health.nis_window = 8;
  health.windows_to_diverge = 2;
  health.rate_window_ticks = 32;
  fleet.EnableHealth(health);
  AddStandardSources(fleet, 12);
  // Four filters that believe their walk barely moves: the watchdog's NIS
  // detector flags them.
  for (int i = 0; i < 4; ++i) {
    RandomWalkGenerator::Config walk;
    walk.start = -10.0 * i;
    walk.step_sigma = 0.5;
    fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                    std::make_unique<KalmanPredictor>(ScalarKalman(1e-6)),
                    /*delta=*/0.5);
  }
  fleet.server().SetStalenessLimit(4);

  const std::vector<std::pair<std::string, std::string>> queries = {
      {"avg_all",
       "SELECT AVG(s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, "
       "s13, s14, s15)"},
      {"max_even", "SELECT MAX(s0, s2, s4, s6, s8, s10, s12, s14) WHEN > 20"},
      {"min_odd", "SELECT MIN(s1, s3, s5, s13, s15) WHEN < 0 EVERY 3"},
      {"sum_few", "SELECT SUM(s12, s3, s9) WITHIN 2"},
      {"value", "SELECT VALUE(s7) EVERY 5"},
  };
  std::vector<QuerySpec> specs;
  for (const auto& [name, text] : queries) {
    auto spec = ParseQuery(text);
    EXPECT_TRUE(spec.ok()) << text;
    specs.push_back(*spec);
    EXPECT_TRUE(fleet.server().AddQuery(name, *spec).ok()) << name;
  }

  for (int t = 0; t < 300; ++t) {
    EXPECT_TRUE(fleet.Step().ok());
    const std::string tick = " tick " + std::to_string(t);
    for (size_t q = 0; q < specs.size(); ++q) {
      const std::string& name = queries[q].first;
      auto expected = ReferenceEvaluate(fleet.server(), specs[q], name);
      auto sharded = fleet.server().Evaluate(name);
      ASSERT_EQ(sharded.ok(), expected.ok()) << name << tick;
      if (!expected.ok()) {
        EXPECT_EQ(sharded.status().ToString(), expected.status().ToString());
        ++run->failed;
        continue;
      }
      ExpectSameResult(*sharded, *expected, name + tick);
    }
    for (QueryResult& r : fleet.server().EvaluateDue()) {
      run->stale += r.stale;
      run->degraded += r.degraded;
      run->unhealthy += r.health != obs::HealthState::kOk;
      run->results.push_back(std::move(r));
    }
  }
}

TEST(ShardedFleetTest, QueryFlagsMatchPerSourceSemanticsUnderFaults) {
  FlagRun one;
  RunFlagWorkload(/*threads=*/1, /*shards=*/1, &one);
  if (HasFatalFailure()) return;
  // Every flag is exercised, so the comparisons above saw each one set.
  EXPECT_GT(one.stale, 0);
  EXPECT_GT(one.degraded, 0);
  EXPECT_GT(one.unhealthy, 0);
  EXPECT_GT(one.results.size(), 300u);

  FlagRun eight;
  RunFlagWorkload(/*threads=*/2, /*shards=*/8, &eight);
  if (HasFatalFailure()) return;
  EXPECT_EQ(one.failed, eight.failed);
  ASSERT_EQ(one.results.size(), eight.results.size());
  for (size_t i = 0; i < one.results.size(); ++i) {
    ExpectSameResult(one.results[i], eight.results[i],
                     "{1,1} vs {2,8} result " + std::to_string(i));
  }
}

TEST(ShardedFleetTest, QueryPlanFollowsUnregisterAndReregister) {
  ShardedServer server(8);
  auto init = [&server](int32_t id, double value, double delta) {
    Message msg;
    msg.source_id = id;
    msg.type = MessageType::kInit;
    msg.payload = {delta, value};
    return server.OnMessage(msg);
  };
  for (int32_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(
        server.RegisterSource(id, std::make_unique<ValueCachePredictor>())
            .ok());
    ASSERT_TRUE(init(id, 10.0 * id, 0.5).ok());
  }
  QuerySpec spec;
  spec.kind = AggregateKind::kSum;
  spec.sources = {3, 11, 5};
  ASSERT_TRUE(server.AddQuery("sum", spec).ok());
  auto before = server.Evaluate("sum");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->value, 190.0);
  EXPECT_EQ(before->bound, 1.5);

  // Churn elsewhere re-resolves the plan to the same replicas.
  ASSERT_TRUE(server.UnregisterSource(0).ok());
  ASSERT_TRUE(
      server.RegisterSource(20, std::make_unique<ValueCachePredictor>()).ok());
  auto unchanged = server.Evaluate("sum");
  ASSERT_TRUE(unchanged.ok()) << unchanged.status();
  ExpectSameResult(*unchanged, *before, "after unrelated churn");

  // A removed member fails the query with NotFound, on every evaluator.
  // Source 5 lives on shard 7, so only the merged epoch sees the change.
  ASSERT_NE(server.ShardOf(5), 0u);
  ASSERT_TRUE(server.UnregisterSource(5).ok());
  auto removed = server.Evaluate("sum");
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kNotFound);
  EXPECT_NE(removed.status().ToString().find("unknown source 5"),
            std::string::npos)
      << removed.status();
  EXPECT_TRUE(server.EvaluateDue().empty());
  std::vector<QueryResult> all = server.EvaluateAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_NE(all[0].name.find("unknown source 5"), std::string::npos);

  // The same id registered again: first uninitialized, then it answers
  // from the new replica.
  ASSERT_TRUE(
      server.RegisterSource(5, std::make_unique<ValueCachePredictor>()).ok());
  auto uninitialized = server.Evaluate("sum");
  ASSERT_FALSE(uninitialized.ok());
  EXPECT_EQ(uninitialized.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(init(5, -40.0, 2.0).ok());
  auto after = server.Evaluate("sum");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->value, 30.0 + 110.0 - 40.0);
  EXPECT_EQ(after->bound, 0.5 + 0.5 + 2.0);
  std::vector<QueryResult> due = server.EvaluateDue();
  ASSERT_EQ(due.size(), 1u);
  ExpectSameResult(due[0], *after, "EvaluateDue after re-register");
}

TEST(ShardedFleetTest, SourceLifecycleOnShards) {
  ShardedServer server(4);
  ASSERT_TRUE(
      server.RegisterSource(3, std::make_unique<ValueCachePredictor>()).ok());
  EXPECT_FALSE(
      server.RegisterSource(3, std::make_unique<ValueCachePredictor>()).ok());
  EXPECT_EQ(server.num_sources(), 1u);
  EXPECT_EQ(server.SourceIds(), (std::vector<int32_t>{3}));
  EXPECT_TRUE(server.UnregisterSource(3).ok());
  EXPECT_FALSE(server.UnregisterSource(3).ok());
  EXPECT_EQ(server.num_sources(), 0u);
}

TEST(ShardedFleetTest, ControlPushReachesSource) {
  ShardedFleet::Config config;
  config.threads = 2;
  config.num_shards = 3;
  ShardedFleet fleet(config);
  RandomWalkGenerator::Config walk;
  fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                  std::make_unique<ValueCachePredictor>(), 1.0);
  ASSERT_TRUE(fleet.Run(3).ok());
  ASSERT_TRUE(fleet.server().PushBound(0, 2.5).ok());
  EXPECT_EQ(fleet.TotalControlNetworkStats().messages_sent, 1);
  ASSERT_TRUE(fleet.Run(1).ok());
  EXPECT_DOUBLE_EQ(fleet.agent(0).delta(), 2.5);
}

TEST(ShardedFleetTest, ShardAssignmentIsStable) {
  ShardedServer a(8);
  ShardedServer b(8);
  for (int32_t id = 0; id < 100; ++id) {
    EXPECT_EQ(a.ShardOf(id), b.ShardOf(id));
    EXPECT_LT(a.ShardOf(id), 8u);
  }
  // The hash must actually spread sources around.
  std::vector<int> counts(8, 0);
  for (int32_t id = 0; id < 1000; ++id) ++counts[a.ShardOf(id)];
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_GT(counts[shard], 50) << "shard " << shard;
  }
}

// Regression: ParallelFor used to deadlock when a body called back into
// its own pool (the nested batch overwrote the published batch while the
// workers were still draining the outer one, and the nested join waited
// on completions that could never arrive). Re-entry must now be detected
// and the nested loop run inline.
TEST(ThreadPoolTest, ReentrantParallelForRunsInline) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](size_t i) {
    // Nested batched work from inside a body — on workers and on the
    // driver thread alike.
    pool.ParallelFor(kInner, [&](size_t j) {
      hits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, DeeplyNestedAndDegenerateReentry) {
  ThreadPool pool(3);
  std::atomic<int> leaves{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(3, [&](size_t) {
      pool.ParallelFor(2, [&](size_t) {
        leaves.fetch_add(1, std::memory_order_relaxed);
      });
      pool.ParallelFor(0, [&](size_t) { FAIL() << "n=0 body must not run"; });
    });
  });
  EXPECT_EQ(leaves.load(), 4 * 3 * 2);
  // A sequential pool (threads=1) accepts the same nesting.
  ThreadPool seq(1);
  std::atomic<int> seq_leaves{0};
  seq.ParallelFor(2, [&](size_t) {
    seq.ParallelFor(2, [&](size_t) {
      seq_leaves.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(seq_leaves.load(), 4);
}

}  // namespace
}  // namespace kc
