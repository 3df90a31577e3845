#include "fleet/sharded_fleet.h"

#include <gtest/gtest.h>

#include <atomic>
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
                       bool pooling = true, bool simd = true) {
  ShardedFleet::Config config;
  config.seed = 12345;
  config.threads = threads;
  config.num_shards = shards;
  config.channel = channel;
  config.pooling = pooling;
  config.simd = simd;
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

TEST(ShardedFleetTest, PooledBitIdenticalToPerObjectPredictors) {
  // The SoA filter pools are a memory-layout change only: the pooled path
  // must reproduce the virtual per-object Predictor path bit-for-bit, on
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

TEST(ShardedFleetTest, BitIdenticalWithSimdOnAndOff) {
  // The lane kernels execute the exact scalar FP op sequence per slot, so
  // disabling them at runtime is invisible to every answer — with single-
  // and multi-threaded sweeps alike.
  Fingerprint simd_on = RunSharded(2, 8);
  Fingerprint simd_off = RunSharded(2, 8, Channel::Config(), true,
                                    /*simd=*/false);
  ExpectEqualFingerprints(simd_on, simd_off, "simd on vs off");

  Fingerprint simd_off_swept = RunSharded(4, 8, Channel::Config(), true,
                                          /*simd=*/false);
  ExpectEqualFingerprints(simd_on, simd_off_swept,
                          "simd on vs off (4-thread sweep)");
}

TEST(ShardedFleetTest, PooledBitIdenticalToPerObjectUnderFaultsWithSweeps) {
  // The strongest cross-cutting pin: SIMD lanes + a 4-thread sweep +
  // a faulty channel (loss, latency) on the pooled path must reproduce
  // the per-object scalar path bit-for-bit. Any FP reordering, masked-
  // store leak, or sweep/update interleaving bug shows up here.
  Channel::Config lossy;
  lossy.loss_prob = 0.2;
  lossy.latency_ticks = 3;
  Fingerprint pooled = RunSharded(4, 8, lossy, /*pooling=*/true,
                                  /*simd=*/true);
  Fingerprint object = RunSharded(1, 8, lossy, /*pooling=*/false);
  EXPECT_GT(pooled.net.messages_dropped, 0);
  ExpectEqualFingerprints(pooled, object,
                          "pooled simd parallel-sweep vs per-object (lossy)");
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

AdaptiveFleetRun RunAdaptiveFleet(size_t threads, bool pooling,
                                  bool simd = true) {
  ShardedFleet::Config config;
  config.seed = 9090;
  config.threads = threads;
  config.num_shards = 4;
  config.pooling = pooling;
  config.simd = simd;
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
  // The shipped default predictor adapts Q per source. Pooled, each slot
  // carries its own Q and NIS ring; the answers, message books, metrics
  // and audit must still match the per-object estimator bit-for-bit, for
  // any thread count (which also sizes the sweep's worker pool: 1, 3 and 4
  // chunk the slabs differently), and with the SIMD lanes on or off.
  AdaptiveFleetRun object = RunAdaptiveFleet(/*threads=*/1, /*pooling=*/false);
  EXPECT_EQ(object.pooled_slots, 0u);
  EXPECT_GT(object.books.net.messages_dropped, 0);
  EXPECT_NE(object.audit_summary.find("audit: sources=14"), std::string::npos);
  for (size_t threads : {1u, 3u, 4u}) {
    for (bool simd : {true, false}) {
      std::string label = "threads " + std::to_string(threads) + " simd " +
                          std::to_string(simd);
      AdaptiveFleetRun pooled =
          RunAdaptiveFleet(threads, /*pooling=*/true, simd);
      // Every source's agent and replica filters live in the pools.
      EXPECT_GE(pooled.pooled_slots, 2u * 14u) << label;
      ExpectEqualAdaptiveRuns(object, pooled, label);
    }
  }
}

TEST(ShardedFleetTest, MatchesSingleThreadedFleet) {
  // The sharded executor must reproduce the sequential reference — one
  // thread, one shard, per-object predictors, every source stepped in id
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
/// against the servers' per-source accessors: the first member (in spec
/// order) without a bounded answer decides the error; the result is stale
/// if any initialized member has been silent past the staleness limit,
/// degraded if any member is quarantined, and carries the worst member
/// health verdict.
template <typename Server>
StatusOr<QueryResult> ReferenceEvaluate(const Server& server,
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
/// ReferenceEvaluate. With one shard the same queries also run on the
/// shard's own StreamServer, whose results must match too.
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
    if (shards == 1) {
      EXPECT_TRUE(fleet.server().shard(0).AddQuery(name, *spec).ok()) << name;
    }
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
      if (shards == 1) {
        auto local = fleet.server().shard(0).Evaluate(name);
        ASSERT_TRUE(local.ok()) << name << tick;
        ExpectSameResult(*local, *expected, name + " (shard)" + tick);
      }
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
  EXPECT_EQ(fleet.TotalControlMessages(), 1);
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
