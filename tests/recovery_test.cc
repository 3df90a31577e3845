// Loss-tolerant recovery protocol: end-to-end contract tests.
//
// The headline guarantee under test: with fault injection on (burst loss,
// duplication, reordering, partition windows), a desynced replica is
// quarantined honestly (widened bound, degraded answers), requests a
// resync over the control downlink, and returns to exact lockstep within
// a bounded number of ticks of the FULL_SYNC / re-INIT landing — and the
// whole dance is bit-identical for any shard/thread configuration.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fleet/link.h"
#include "fleet/sharded_fleet.h"
#include "fleet/sharded_server.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/message.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "streams/generators.h"
#include "suppression/agent.h"
#include "suppression/policies.h"
#include "suppression/replica.h"

namespace kc {
namespace {

Reading MakeReading(int64_t seq, double value) {
  Reading r;
  r.seq = seq;
  r.time = static_cast<double>(seq);
  r.value = Vector({value});
  return r;
}

KalmanPredictor::Config MeasurementSyncKalman() {
  // Measurement-sync mode is the duplicate- and loss-sensitive protocol
  // variant: both ends fold the raw observation into their filter, so a
  // missed or double-applied CORRECTION diverges the replica silently.
  // If recovery holds lockstep here, it holds for the self-healing
  // state-sync modes a fortiori.
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.1, 0.5);
  config.sync_mode = KalmanPredictor::SyncMode::kMeasurement;
  return config;
}

/// One faulty link wired by hand at the class level (agent, replica and
/// both channels, stepped in the fleet's per-tick order): uplink with
/// faults, lossless zero-latency control downlink, recovery-enabled
/// replica. Unit tests of the recovery protocol itself; RunLink drives
/// the same protocol through a one-source ShardedFleet.
struct RecoveryLink {
  explicit RecoveryLink(const Channel::Config& uplink_config,
                        const ReplicaRecoveryConfig& recovery,
                        const AgentConfig& agent_config,
                        const KalmanPredictor::Config& kalman)
      : uplink(uplink_config),
        replica(0, std::make_unique<KalmanPredictor>(kalman)) {
    replica.SetRecovery(recovery);
    uplink.SetReceiver([this](const Message& m) {
      Status s = replica.OnMessage(m);
      (void)s;  // CORRECTION-before-INIT is expected under loss.
    });
    control.SetReceiver([this](const Message& m) {
      Status s = agent->OnControl(m);
      ASSERT_TRUE(s.ok());
    });
    replica.SetControlSender([this](const Message& m) {
      Status s = control.Send(m);
      (void)s;
    });
    agent = std::make_unique<SourceAgent>(
        0, std::make_unique<KalmanPredictor>(kalman), agent_config, &uplink);
  }

  void Step(const Reading& measured) {
    replica.Tick();
    uplink.AdvanceTick();
    control.AdvanceTick();
    ASSERT_TRUE(agent->Offer(measured).ok());
  }

  Channel uplink;
  Channel control;  // Lossless, zero latency.
  ServerReplica replica;
  std::unique_ptr<SourceAgent> agent;
};

TEST(RecoveryTest, PartitionWithDuplicationRecoversAndRelocks) {
  // A 10-tick partition blacks out the uplink mid-run while every
  // surviving message is also at risk of duplication. The replica must
  // (a) notice the gap, (b) quarantine itself with a widened bound,
  // (c) obtain a FULL_SYNC via the control downlink, and (d) be back in
  // exact lockstep within a bounded number of ticks of the window
  // closing — and stay there.
  Channel::Config uplink_config;
  uplink_config.seed = 11;
  uplink_config.faults.partition_start = 50;
  uplink_config.faults.partition_length = 10;
  uplink_config.faults.duplicate_prob = 0.3;

  ReplicaRecoveryConfig recovery;
  recovery.enabled = true;
  recovery.suspect_after_silent_ticks = 6;
  recovery.backoff_initial_ticks = 2;
  recovery.backoff_max_ticks = 16;

  AgentConfig agent_config;
  agent_config.delta = 0.5;
  agent_config.heartbeat_every = 3;

  RecoveryLink link(uplink_config, recovery, agent_config,
                    MeasurementSyncKalman());

  constexpr int64_t kTicks = 250;
  constexpr int64_t kPartitionClose = 60;
  constexpr int64_t kRecoveryDeadline = kPartitionClose + 20;

  Rng rng(12);
  double truth = 0.0;
  bool saw_desync = false;
  bool saw_quarantine_bound = false;
  int64_t recovered_at = -1;
  for (int64_t i = 0; i < kTicks; ++i) {
    truth += rng.Gaussian(0.0, 0.5);
    link.Step(MakeReading(i, truth));
    if (link.replica.desynced()) {
      saw_desync = true;
      recovered_at = -1;
      // Quarantine honesty: while desynced the replica's advertised
      // bound widens by the quarantine factor.
      if (link.replica.bound() ==
          link.replica.declared_bound() * recovery.quarantine_bound_factor) {
        saw_quarantine_bound = true;
      }
    } else if (saw_desync && recovered_at < 0) {
      recovered_at = i;
    }
    if (i >= kRecoveryDeadline) {
      // Bounded recovery: desync healed within 20 ticks of the window
      // closing, then exact lockstep for the rest of the run.
      ASSERT_FALSE(link.replica.desynced()) << "tick " << i;
      ASSERT_NEAR(link.replica.Value()[0], link.agent->PredictedValue()[0],
                  1e-9)
          << "tick " << i;
    }
  }
  EXPECT_TRUE(saw_desync) << "partition never tripped the detector";
  EXPECT_TRUE(saw_quarantine_bound);
  // The loop index runs one behind the channel clock (AdvanceTick before
  // Offer), so the earliest possible heal is loop tick kPartitionClose-1.
  EXPECT_GE(recovered_at, kPartitionClose - 1);
  EXPECT_LE(recovered_at, kRecoveryDeadline);
  EXPECT_GT(link.replica.resyncs_requested(), 0);
  EXPECT_GT(link.agent->stats().resyncs_served, 0);
  EXPECT_GT(link.uplink.stats().partition_drops, 0);
  EXPECT_GT(link.uplink.stats().messages_duplicated, 0);
  EXPECT_GT(link.control.stats().messages_delivered, 0)
      << "resync requests must ride the byte-accounted control downlink";
}

TEST(RecoveryTest, LostInitHealsViaReinit) {
  // The INIT itself is swallowed by a partition covering the start of the
  // run. Gap detection can't fire (no wire-seq baseline) — the replica
  // must still escalate off rejected traffic, advertise itself
  // uninitialized, and receive a fresh INIT.
  Channel::Config uplink_config;
  uplink_config.seed = 21;
  uplink_config.faults.partition_start = 0;
  uplink_config.faults.partition_length = 2;

  ReplicaRecoveryConfig recovery;
  recovery.enabled = true;
  recovery.backoff_initial_ticks = 2;
  recovery.backoff_max_ticks = 8;

  AgentConfig agent_config;
  agent_config.delta = 0.1;  // Frequent corrections keep the link chatty.
  agent_config.heartbeat_every = 2;

  RecoveryLink link(uplink_config, recovery, agent_config,
                    MeasurementSyncKalman());

  Rng rng(22);
  double truth = 0.0;
  for (int64_t i = 0; i < 100; ++i) {
    truth += rng.Gaussian(0.0, 1.0);
    link.Step(MakeReading(i, truth));
  }
  EXPECT_TRUE(link.replica.initialized());
  EXPECT_FALSE(link.replica.desynced());
  EXPECT_GT(link.agent->stats().resyncs_served, 0);
  EXPECT_NEAR(link.replica.Value()[0], link.agent->PredictedValue()[0], 1e-9);
}

TEST(RecoveryTest, BurstLossReorderDuplicationStaysBounded) {
  // The statistical test: Gilbert-Elliott burst loss plus duplication
  // plus bounded reordering, driven through the public RunLink harness.
  // Reordering can transiently re-break lockstep right after a resync, so
  // the assertions here are statistical — the recovery machinery engages
  // and the server's error stays bounded — not exact-lockstep.
  LinkConfig config;
  config.ticks = 4000;
  config.delta = 0.5;
  config.seed = 5;
  config.agent.heartbeat_every = 4;
  config.channel.latency_ticks = 1;
  config.channel.seed = 6;
  config.channel.faults.burst_enter_prob = 0.03;
  config.channel.faults.burst_exit_prob = 0.25;
  config.channel.faults.burst_loss_prob = 1.0;
  config.channel.faults.duplicate_prob = 0.1;
  config.channel.faults.reorder_prob = 0.1;
  config.channel.faults.reorder_max_ticks = 3;
  config.recovery.enabled = true;
  config.recovery.suspect_after_silent_ticks = 10;
  config.recovery.backoff_initial_ticks = 4;
  config.recovery.backoff_max_ticks = 32;

  RandomWalkGenerator::Config walk;
  walk.step_sigma = 0.3;
  RandomWalkGenerator generator(walk);
  KalmanPredictor prototype(MeasurementSyncKalman());
  LinkReport report = RunLink(generator, prototype, config);

  // The faults actually fired and the protocol actually fought back.
  EXPECT_GT(report.net.burst_drops, 0);
  EXPECT_GT(report.net.messages_duplicated, 0);
  EXPECT_GT(report.net.messages_reordered, 0);
  EXPECT_GT(report.gaps, 0);
  EXPECT_GT(report.resyncs_requested, 0);
  EXPECT_GT(report.resyncs_served, 0);
  EXPECT_GT(report.control_net.messages_delivered, 0);
  // Quarantine is honest but not permanent: the link spends some ticks
  // degraded, and recovers every time.
  EXPECT_GT(report.degraded_ticks, 0);
  EXPECT_LT(report.degraded_ticks, report.ticks / 4);
  // Bounded error despite a hostile channel: the mean server-side error
  // stays within a small multiple of the precision bound. (Without
  // recovery the measurement-sync filter diverges without bound here.)
  EXPECT_LT(report.err_vs_target.mean(), 4 * config.delta);
  EXPECT_EQ(report.net.messages_delivered,
            report.net.messages_sent - report.net.messages_dropped +
                report.net.messages_duplicated);
  // The report surfaces the recovery counters.
  EXPECT_NE(report.ToString().find("resyncs="), std::string::npos);
}

TEST(RecoveryTest, RecoveryOffMatchesLegacyByteStream) {
  // Guard on the protocol's compatibility promise: with faults and
  // recovery both off, the wire traffic is byte-for-byte what the seed
  // produced before this feature existed (same RNG draw sequence, same
  // header size, no control traffic).
  LinkConfig config;
  config.ticks = 2000;
  config.delta = 0.5;
  config.seed = 5;
  config.channel.loss_prob = 0.1;
  config.channel.seed = 6;

  RandomWalkGenerator::Config walk;
  walk.step_sigma = 0.3;
  RandomWalkGenerator generator(walk);
  KalmanPredictor prototype(MeasurementSyncKalman());
  LinkReport report = RunLink(generator, prototype, config);
  EXPECT_EQ(report.control_net.messages_sent, 0);
  EXPECT_EQ(report.gaps, 0);
  EXPECT_EQ(report.resyncs_requested, 0);
  EXPECT_EQ(report.degraded_ticks, 0);
  EXPECT_EQ(report.net.burst_drops, 0);
  EXPECT_EQ(report.net.messages_duplicated, 0);
  EXPECT_NE(report.net.messages_dropped, 0);
  EXPECT_EQ(report.ToString().find("resyncs="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sharded determinism with faults + recovery enabled.

ShardedFleet::Config FaultyFleetConfig(size_t threads) {
  ShardedFleet::Config config;
  config.seed = 4242;
  config.threads = threads;
  config.num_shards = 8;
  config.agent_base.heartbeat_every = 4;
  config.channel.latency_ticks = 2;
  config.channel.faults.burst_enter_prob = 0.04;
  config.channel.faults.burst_exit_prob = 0.25;
  config.channel.faults.burst_loss_prob = 1.0;
  config.channel.faults.duplicate_prob = 0.1;
  config.channel.faults.reorder_prob = 0.1;
  config.channel.faults.reorder_max_ticks = 2;
  config.recovery.enabled = true;
  config.recovery.suspect_after_silent_ticks = 12;
  return config;
}

KalmanPredictor::Config ScalarKalman() {
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.1, 0.25);
  return config;
}

std::string RunFaultyShardedExport(size_t threads, NetworkStats* net_out,
                                   int64_t* control_out) {
  ShardedFleet fleet(FaultyFleetConfig(threads));
  fleet.EnableMetrics();
  for (int i = 0; i < 12; ++i) {
    RandomWalkGenerator::Config walk;
    walk.start = 5.0 * i;
    walk.step_sigma = 0.2 + 0.05 * (i % 4);
    fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                    std::make_unique<KalmanPredictor>(ScalarKalman()),
                    /*delta=*/0.5 + 0.1 * (i % 3));
  }
  EXPECT_TRUE(fleet.Run(400).ok());
  *net_out = fleet.TotalNetworkStats();
  *control_out = fleet.TotalControlNetworkStats().messages_sent;
  obs::MetricRegistry merged;
  fleet.MergeMetricsInto(&merged);
  return obs::ExportText(merged, /*include_wall_clock=*/false);
}

TEST(RecoveryTest, ShardedMetricsBitIdenticalForAnyThreadsWithFaultsOn) {
  NetworkStats net_one, net_four;
  int64_t control_one = 0, control_four = 0;
  std::string one = RunFaultyShardedExport(1, &net_one, &control_one);
  std::string four = RunFaultyShardedExport(4, &net_four, &control_four);

  // The faults and the recovery protocol genuinely engaged...
  EXPECT_GT(net_one.burst_drops, 0);
  EXPECT_GT(net_one.messages_duplicated, 0);
  EXPECT_GT(control_one, 0) << "no resync requests ever flowed";
  EXPECT_NE(one.find("kc.net.faults.burst_drops"), std::string::npos);
  EXPECT_NE(one.find("kc.replica.gaps"), std::string::npos);
  EXPECT_NE(one.find("kc.replica.resyncs_requested"), std::string::npos);
  EXPECT_NE(one.find("kc.agent.resyncs_served"), std::string::npos);

  // ...and the entire run is a pure function of (seed, id): thread count
  // changes nothing, down to the merged telemetry text.
  EXPECT_EQ(one, four);
  EXPECT_EQ(net_one.messages_sent, net_four.messages_sent);
  EXPECT_EQ(net_one.messages_dropped, net_four.messages_dropped);
  EXPECT_EQ(net_one.messages_duplicated, net_four.messages_duplicated);
  EXPECT_EQ(net_one.messages_reordered, net_four.messages_reordered);
  EXPECT_EQ(net_one.burst_drops, net_four.burst_drops);
  EXPECT_EQ(net_one.bytes_delivered, net_four.bytes_delivered);
  EXPECT_EQ(control_one, control_four);
}

TEST(RecoveryTest, FlatFleetMatchesShardedUnderFaults) {
  // The sequential reference (one thread, one shard, per-object
  // predictors) and the sharded executor must agree bit-for-bit even with
  // the full fault model and recovery running.
  ShardedFleet::Config flat_config = FaultyFleetConfig(1);
  flat_config.num_shards = 1;
  flat_config.pooling = false;
  ShardedFleet flat(flat_config);
  ShardedFleet sharded(FaultyFleetConfig(4));
  for (int i = 0; i < 9; ++i) {
    RandomWalkGenerator::Config walk;
    walk.start = 2.0 * i;
    walk.step_sigma = 0.3;
    flat.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                   std::make_unique<KalmanPredictor>(ScalarKalman()), 0.5);
    sharded.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                      std::make_unique<KalmanPredictor>(ScalarKalman()), 0.5);
  }
  ASSERT_TRUE(flat.Run(300).ok());
  ASSERT_TRUE(sharded.Run(300).ok());
  for (int32_t id = 0; id < 9; ++id) {
    auto a = flat.server().SourceValue(id);
    auto b = sharded.server().SourceValue(id);
    ASSERT_EQ(a.ok(), b.ok()) << "source " << id;
    if (!a.ok()) continue;
    EXPECT_EQ(a->value[0], b->value[0]) << "source " << id;
    EXPECT_EQ(a->bound, b->bound) << "source " << id;
    EXPECT_EQ(a->degraded, b->degraded) << "source " << id;
  }
  EXPECT_EQ(flat.TotalMessages(), sharded.TotalMessages());
  EXPECT_EQ(flat.TotalBytes(), sharded.TotalBytes());
  EXPECT_EQ(flat.TotalControlNetworkStats().messages_sent,
            sharded.TotalControlNetworkStats().messages_sent);
}

TEST(RecoveryTest, DegradedSourcePropagatesIntoQueryAnswers) {
  // Quarantine reaches the query layer: while a source is desynced its
  // point answer and any aggregate touching it report degraded with the
  // widened bound.
  ShardedServer server;
  ASSERT_TRUE(
      server.RegisterSource(0, std::make_unique<ValueCachePredictor>()).ok());
  ReplicaRecoveryConfig recovery;
  recovery.enabled = true;
  server.SetRecovery(recovery);

  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.wire_seq = 0;
  init.payload = {1.0, 5.0};
  ASSERT_TRUE(server.OnMessage(init).ok());

  auto healthy = server.SourceValue(0);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy->degraded);
  EXPECT_DOUBLE_EQ(healthy->bound, 1.0);

  Message corr;
  corr.source_id = 0;
  corr.type = MessageType::kCorrection;
  corr.seq = 5;
  corr.wire_seq = 5;  // Gap: wire seqs 1-4 lost.
  corr.payload = {1.0, 6.0};
  ASSERT_TRUE(server.OnMessage(corr).ok());

  auto degraded = server.SourceValue(0);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_DOUBLE_EQ(degraded->bound, 8.0);  // Widened by the default factor.

  QuerySpec spec;
  spec.kind = AggregateKind::kAvg;
  spec.sources.push_back(0);
  auto result = server.EvaluateSpec(spec, "q");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->degraded);
  EXPECT_NE(result->ToString().find("DEGRADED"), std::string::npos);

  // FULL_SYNC lifts the quarantine end to end.
  Message sync;
  sync.source_id = 0;
  sync.type = MessageType::kFullSync;
  sync.seq = 6;
  sync.wire_seq = 6;
  sync.payload = {1.0, 6.5};
  ASSERT_TRUE(server.OnMessage(sync).ok());
  auto recovered = server.SourceValue(0);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->degraded);
  EXPECT_DOUBLE_EQ(recovered->bound, 1.0);
  auto result2 = server.EvaluateSpec(spec, "q");
  ASSERT_TRUE(result2.ok());
  EXPECT_FALSE(result2->degraded);
}

}  // namespace
}  // namespace kc
