#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/channel.h"
#include "net/codec.h"
#include "suppression/agent.h"
#include "suppression/policies.h"
#include "suppression/replica.h"

namespace kc {
namespace {

Reading MakeReading(int64_t seq, double value) {
  Reading r;
  r.seq = seq;
  r.time = static_cast<double>(seq);
  r.value = Vector{value};
  return r;
}

/// A wired agent+replica pair over a lossless channel.
struct Link {
  Channel channel;
  std::unique_ptr<ServerReplica> replica;
  std::unique_ptr<SourceAgent> agent;

  Link(std::unique_ptr<Predictor> proto, AgentConfig config) {
    replica = std::make_unique<ServerReplica>(0, proto->Clone());
    ServerReplica* r = replica.get();
    channel.SetReceiver([r](const Message& msg) {
      ASSERT_TRUE(r->OnMessage(msg).ok());
    });
    agent = std::make_unique<SourceAgent>(0, std::move(proto), config, &channel);
  }

  void Step(const Reading& reading) {
    replica->Tick();
    ASSERT_TRUE(agent->Offer(reading).ok());
  }
};

TEST(AgentReplicaTest, FirstOfferSendsInit) {
  AgentConfig config;
  config.delta = 1.0;
  Link link(std::make_unique<ValueCachePredictor>(), config);
  link.Step(MakeReading(0, 5.0));
  EXPECT_TRUE(link.replica->initialized());
  EXPECT_EQ(link.channel.stats().by_type[static_cast<size_t>(MessageType::kInit)],
            1);
  EXPECT_DOUBLE_EQ(link.replica->Value()[0], 5.0);
  EXPECT_DOUBLE_EQ(link.replica->bound(), 1.0);
}

TEST(AgentReplicaTest, SuppressesInsideBound) {
  AgentConfig config;
  config.delta = 1.0;
  Link link(std::make_unique<ValueCachePredictor>(), config);
  link.Step(MakeReading(0, 5.0));
  // All these stay within +/-1 of the cached 5.0: no further messages.
  for (int64_t i = 1; i <= 10; ++i) {
    link.Step(MakeReading(i, 5.0 + 0.09 * static_cast<double>(i % 10)));
  }
  EXPECT_EQ(link.channel.stats().messages_sent, 1);  // Just the INIT.
  EXPECT_EQ(link.agent->stats().suppressed, 10);
}

TEST(AgentReplicaTest, CorrectsOnViolation) {
  AgentConfig config;
  config.delta = 1.0;
  Link link(std::make_unique<ValueCachePredictor>(), config);
  link.Step(MakeReading(0, 5.0));
  link.Step(MakeReading(1, 7.0));  // |7-5| > 1: correction.
  EXPECT_EQ(link.agent->stats().corrections, 1);
  EXPECT_DOUBLE_EQ(link.replica->Value()[0], 7.0);
  EXPECT_EQ(link.replica->last_heard_seq(), 1);
}

TEST(AgentReplicaTest, ServerMirrorsClientForKalman) {
  AgentConfig config;
  config.delta = 0.5;
  KalmanPredictor::Config kf_config;
  kf_config.model = MakeRandomWalkModel(0.1, 0.5);
  Link link(std::make_unique<KalmanPredictor>(kf_config), config);
  Rng rng(1);
  double truth = 0.0;
  for (int64_t i = 0; i < 500; ++i) {
    truth += rng.Gaussian(0.0, 0.3);
    link.Step(MakeReading(i, truth + rng.Gaussian(0.0, 0.2)));
    if (link.replica->initialized()) {
      // Server view == client's shadow view at every tick.
      ASSERT_NEAR(link.replica->Value()[0], link.agent->PredictedValue()[0],
                  1e-15);
      // Contract: server within delta of the client's filtered estimate.
      ASSERT_LE(std::fabs(link.replica->Value()[0] -
                          link.agent->ContractTarget()[0]),
                0.5 + 1e-9);
    }
  }
  EXPECT_GT(link.agent->stats().suppressed, 0);
  EXPECT_GT(link.agent->stats().corrections, 0);
}

TEST(AgentReplicaTest, HeartbeatsEmittedWhenSilent) {
  AgentConfig config;
  config.delta = 100.0;  // Never violated: pure suppression.
  config.heartbeat_every = 5;
  Link link(std::make_unique<ValueCachePredictor>(), config);
  for (int64_t i = 0; i <= 20; ++i) link.Step(MakeReading(i, 1.0));
  EXPECT_EQ(link.agent->stats().heartbeats, 4);  // Ticks 5,10,15,20.
  EXPECT_EQ(
      link.channel.stats().by_type[static_cast<size_t>(MessageType::kHeartbeat)],
      4);
  // Heartbeats refresh liveness at the replica.
  EXPECT_EQ(link.replica->last_heard_seq(), 20);
}

TEST(AgentReplicaTest, PeriodicFullSyncUpgradesCorrections) {
  AgentConfig config;
  config.delta = 0.1;
  config.full_sync_every = 3;  // Every 3rd data message is a FULL_SYNC.
  KalmanPredictor::Config kf_config;
  kf_config.model = MakeRandomWalkModel(0.1, 0.5);
  Link link(std::make_unique<KalmanPredictor>(kf_config), config);
  Rng rng(2);
  double v = 0.0;
  for (int64_t i = 0; i < 300; ++i) {
    v += rng.Gaussian(0.0, 1.0);  // Volatile: frequent corrections.
    link.Step(MakeReading(i, v));
  }
  EXPECT_GT(link.agent->stats().full_syncs, 0);
  EXPECT_GT(link.agent->stats().corrections, 0);
  EXPECT_EQ(
      link.channel.stats().by_type[static_cast<size_t>(MessageType::kFullSync)],
      link.agent->stats().full_syncs);
}

TEST(AgentReplicaTest, AlwaysFullStateMode) {
  AgentConfig config;
  config.delta = 0.1;
  config.always_full_state = true;
  KalmanPredictor::Config kf_config;
  kf_config.model = MakeRandomWalkModel(0.1, 0.5);
  Link link(std::make_unique<KalmanPredictor>(kf_config), config);
  Rng rng(3);
  double v = 0.0;
  for (int64_t i = 0; i < 100; ++i) {
    v += rng.Gaussian(0.0, 1.0);
    link.Step(MakeReading(i, v));
  }
  EXPECT_EQ(link.agent->stats().corrections, 0);
  EXPECT_GT(link.agent->stats().full_syncs, 0);
}

TEST(AgentReplicaTest, FullStateModeWorksForEveryPolicy) {
  AgentConfig config;
  config.delta = 0.1;
  config.always_full_state = true;
  Channel channel;
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  channel.SetReceiver([&replica](const Message& m) {
    (void)replica.OnMessage(m);
  });
  SourceAgent agent(0, std::make_unique<ValueCachePredictor>(), config,
                    &channel);
  ASSERT_TRUE(agent.Offer(MakeReading(0, 0.0)).ok());  // INIT.
  ASSERT_TRUE(agent.Offer(MakeReading(1, 10.0)).ok());
  EXPECT_EQ(agent.stats().full_syncs, 1);
  EXPECT_DOUBLE_EQ(replica.Value()[0], 10.0);
}

TEST(AgentReplicaTest, DeltaChangePropagatesWithNextMessage) {
  AgentConfig config;
  config.delta = 1.0;
  Link link(std::make_unique<ValueCachePredictor>(), config);
  link.Step(MakeReading(0, 0.0));
  link.agent->set_delta(3.0);
  link.Step(MakeReading(1, 2.0));  // Within new delta: suppressed.
  EXPECT_DOUBLE_EQ(link.replica->bound(), 1.0);  // Server hasn't heard yet.
  link.Step(MakeReading(2, 10.0));  // Violation: correction carries delta.
  EXPECT_DOUBLE_EQ(link.replica->bound(), 3.0);
}

TEST(AgentReplicaTest, NonFiniteReadingsRejected) {
  AgentConfig config;
  Channel channel;
  channel.SetReceiver([](const Message&) {});
  SourceAgent agent(0, std::make_unique<ValueCachePredictor>(), config,
                    &channel);
  ASSERT_TRUE(agent.Offer(MakeReading(0, 1.0)).ok());
  Reading nan = MakeReading(1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(agent.Offer(nan).ok());
  Reading inf = MakeReading(2, std::numeric_limits<double>::infinity());
  EXPECT_FALSE(agent.Offer(inf).ok());
  // The predictor is untouched: a good reading still works.
  EXPECT_TRUE(agent.Offer(MakeReading(3, 1.1)).ok());
}

TEST(AgentReplicaTest, DimensionMismatchRejected) {
  AgentConfig config;
  Channel channel;
  channel.SetReceiver([](const Message&) {});
  SourceAgent agent(0, std::make_unique<ValueCachePredictor>(1), config,
                    &channel);
  Reading planar;
  planar.value = Vector{1.0, 2.0};
  EXPECT_FALSE(agent.Offer(planar).ok());
}

TEST(ReplicaTest, RejectsWrongSource) {
  ServerReplica replica(7, std::make_unique<ValueCachePredictor>());
  Message msg;
  msg.source_id = 8;
  EXPECT_FALSE(replica.OnMessage(msg).ok());
}

TEST(ReplicaTest, RejectsCorrectionBeforeInit) {
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  Message msg;
  msg.source_id = 0;
  msg.type = MessageType::kCorrection;
  msg.payload = {1.0, 2.0};
  EXPECT_FALSE(replica.OnMessage(msg).ok());
}

TEST(ReplicaTest, RejectsMalformedInit) {
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  Message msg;
  msg.source_id = 0;
  msg.type = MessageType::kInit;
  msg.payload = {1.0};  // Delta but no value.
  EXPECT_FALSE(replica.OnMessage(msg).ok());
}

Message DataFrame(MessageType type, int64_t seq, double time,
                  std::vector<double> payload) {
  Message msg;
  msg.source_id = 0;
  msg.type = type;
  msg.seq = seq;
  msg.wire_seq = seq;
  msg.time = time;
  msg.payload = std::move(payload);
  return msg;
}

TEST(ReplicaTest, RejectsNonFiniteOrNegativeBoundDataFrames) {
  // The codec passes any double: a hostile INIT, CORRECTION or FULL_SYNC
  // must be refused before it touches the replica, leaving its answer,
  // its bound and its sequencing exactly as they were.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  ASSERT_TRUE(
      replica.OnMessage(DataFrame(MessageType::kInit, 0, 0.0, {1.0, 5.0}))
          .ok());
  const std::vector<Message> hostile = {
      DataFrame(MessageType::kCorrection, 1, 1.0, {nan, nan}),
      DataFrame(MessageType::kCorrection, 1, 1.0, {1.0, inf}),
      DataFrame(MessageType::kCorrection, 1, 1.0, {-0.5, 6.0}),
      DataFrame(MessageType::kCorrection, 1, nan, {1.0, 6.0}),
      DataFrame(MessageType::kFullSync, 1, 1.0, {1.0, inf}),
      DataFrame(MessageType::kFullSync, 1, -inf, {1.0, 6.0}),
      DataFrame(MessageType::kInit, 1, 1.0, {1.0, nan}),
      DataFrame(MessageType::kInit, 1, 1.0, {inf, 6.0}),
  };
  for (size_t i = 0; i < hostile.size(); ++i) {
    SCOPED_TRACE(i);
    Status s = replica.OnMessage(hostile[i]);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_EQ(replica.Value()[0], 5.0);
    EXPECT_EQ(replica.bound(), 1.0);
    EXPECT_EQ(replica.last_heard_seq(), 0);
    EXPECT_EQ(replica.messages_applied(), 1);
  }
  // A bound of zero is a legal (exact) contract.
  ASSERT_TRUE(replica
                  .OnMessage(DataFrame(MessageType::kCorrection, 1, 1.0,
                                       {0.0, 6.0}))
                  .ok());
  EXPECT_EQ(replica.Value()[0], 6.0);
  EXPECT_EQ(replica.bound(), 0.0);

  // An INIT carrying a NaN reading leaves a fresh replica uninitialized.
  ServerReplica fresh(0, std::make_unique<ValueCachePredictor>());
  EXPECT_FALSE(
      fresh.OnMessage(DataFrame(MessageType::kInit, 0, 0.0, {1.0, nan}))
          .ok());
  EXPECT_FALSE(fresh.initialized());
}

TEST(ReplicaTest, RejectsNonFiniteFullSyncOffTheWire) {
  // The same refusal for bytes off a socket: a FULL_SYNC whose state
  // holds +inf encodes and decodes cleanly, and the replica rejects it.
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.1, 0.5);
  ServerReplica replica(0, std::make_unique<KalmanPredictor>(config));
  ASSERT_TRUE(
      replica.OnMessage(DataFrame(MessageType::kInit, 0, 0.0, {1.0, 5.0}))
          .ok());
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<uint8_t> bytes = codec::Encode(
      DataFrame(MessageType::kFullSync, 1, 1.0, {1.0, inf, 1.0}));
  Message decoded;
  size_t consumed = 0;
  ASSERT_TRUE(
      codec::DecodeFrame(bytes.data(), bytes.size(), &decoded, &consumed)
          .ok());
  EXPECT_EQ(decoded.payload[1], inf);
  EXPECT_EQ(replica.OnMessage(decoded).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(replica.Value()[0], 5.0);
  EXPECT_EQ(replica.last_heard_seq(), 0);
}

TEST(ReplicaTest, TickBeforeInitIsNoop) {
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  replica.Tick();
  EXPECT_EQ(replica.ticks(), 0);
  EXPECT_FALSE(replica.initialized());
}

KalmanPredictor::Config MeasurementSyncKalman() {
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.1, 0.5);
  config.sync_mode = KalmanPredictor::SyncMode::kMeasurement;
  return config;
}

TEST(ReplicaTest, ExactDuplicateCorrectionIsIgnoredNotReapplied) {
  // Regression: the sequencing guard rejected only msg.seq <
  // last_heard_seq_, so an exact duplicate (seq ==) slipped through and
  // re-applied the CORRECTION. For a measurement-sync Kalman replica that
  // second Update() moves the state and shrinks the covariance — silent
  // divergence from the source.
  ServerReplica replica(0,
                        std::make_unique<KalmanPredictor>(MeasurementSyncKalman()));
  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.time = 0.0;
  init.payload = {0.5, 1.0};  // delta, value.
  ASSERT_TRUE(replica.OnMessage(init).ok());

  replica.Tick();
  Message corr;
  corr.source_id = 0;
  corr.type = MessageType::kCorrection;
  corr.seq = 1;
  corr.time = 1.0;
  corr.wire_seq = 1;
  corr.payload = {0.5, 3.0};  // delta, z.
  ASSERT_TRUE(replica.OnMessage(corr).ok());
  double value_after_first = replica.Value()[0];

  ASSERT_TRUE(replica.OnMessage(corr).ok());  // Exact duplicate.
  EXPECT_EQ(replica.messages_ignored(), 1);
  EXPECT_EQ(replica.messages_applied(), 2);  // INIT + one CORRECTION.
  EXPECT_DOUBLE_EQ(replica.Value()[0], value_after_first)
      << "duplicate must not move the filter";
}

TEST(AgentReplicaTest, DuplicatedCorrectionsKeepLockstepOverChannel) {
  // End-to-end duplicate regression: with every uplink message duplicated
  // by the fault model, the replica must ignore every copy and track the
  // agent's shadow exactly.
  Channel::Config channel_config;
  channel_config.faults.duplicate_prob = 1.0;
  channel_config.seed = 3;
  Channel channel(channel_config);
  ServerReplica replica(0,
                        std::make_unique<KalmanPredictor>(MeasurementSyncKalman()));
  channel.SetReceiver(
      [&replica](const Message& m) { ASSERT_TRUE(replica.OnMessage(m).ok()); });
  AgentConfig agent_config;
  agent_config.delta = 0.5;
  SourceAgent agent(0, std::make_unique<KalmanPredictor>(MeasurementSyncKalman()),
                    agent_config, &channel);
  Rng rng(4);
  double truth = 0.0;
  for (int64_t i = 0; i < 300; ++i) {
    truth += rng.Gaussian(0.0, 0.5);
    replica.Tick();
    ASSERT_TRUE(agent.Offer(MakeReading(i, truth)).ok());
    if (replica.initialized()) {
      ASSERT_NEAR(replica.Value()[0], agent.PredictedValue()[0], 1e-12)
          << "tick " << i;
    }
  }
  EXPECT_GT(channel.stats().messages_duplicated, 0);
  // Every duplicate is ignored except the INIT's copy: a repeated INIT
  // re-anchors the replica to the identical state instead (idempotent).
  EXPECT_EQ(replica.messages_ignored(),
            channel.stats().messages_duplicated - 1);
}

TEST(AgentReplicaTest, LossLatencyDuplicationMatrixKeepsAccountingSound) {
  // Sweep the loss x latency x duplication cube; whatever the fault mix,
  // the channel's ledger must balance and the replica must never move
  // backwards or double-apply.
  for (double loss : {0.0, 0.2}) {
    for (int64_t latency : {int64_t{0}, int64_t{2}}) {
      for (double dup : {0.0, 0.5}) {
        Channel::Config config;
        config.loss_prob = loss;
        config.latency_ticks = latency;
        config.faults.duplicate_prob = dup;
        config.seed = 31;
        Channel channel(config);
        ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
        int64_t last_applied_seq = -1;
        channel.SetReceiver([&](const Message& m) {
          Status s = replica.OnMessage(m);
          // Loss can kill the INIT; later messages are then rejected.
          if (s.ok() && replica.last_heard_seq() != last_applied_seq) {
            EXPECT_GT(replica.last_heard_seq(), last_applied_seq);
            last_applied_seq = replica.last_heard_seq();
          }
        });
        AgentConfig agent_config;
        agent_config.delta = 0.5;
        SourceAgent agent(0, std::make_unique<ValueCachePredictor>(),
                          agent_config, &channel);
        Rng rng(32);
        double truth = 0.0;
        for (int64_t i = 0; i < 500; ++i) {
          truth += rng.Gaussian(0.0, 0.5);
          replica.Tick();
          channel.AdvanceTick();
          ASSERT_TRUE(agent.Offer(MakeReading(i, truth)).ok());
        }
        for (int i = 0; i < 3; ++i) channel.AdvanceTick();
        const NetworkStats& s = channel.stats();
        std::string label = "loss=" + std::to_string(loss) +
                            " latency=" + std::to_string(latency) +
                            " dup=" + std::to_string(dup);
        EXPECT_EQ(s.messages_delivered,
                  s.messages_sent - s.messages_dropped + s.messages_duplicated)
            << label;
        if (dup > 0.0) {
          EXPECT_GT(replica.messages_ignored(), 0) << label;
        }
        if (loss == 0.0) {
          // Without loss every data message eventually applies; the
          // replica ends in lockstep with the agent's shadow.
          EXPECT_NEAR(replica.Value()[0], agent.PredictedValue()[0], 1e-12)
              << label;
        }
      }
    }
  }
}

TEST(ReplicaRecoveryTest, SilenceEscalationRequestsResyncWithBackoff) {
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  ReplicaRecoveryConfig recovery;
  recovery.enabled = true;
  recovery.suspect_after_silent_ticks = 5;
  recovery.backoff_initial_ticks = 4;
  recovery.backoff_max_ticks = 16;
  replica.SetRecovery(recovery);
  std::vector<int64_t> request_ticks;
  int64_t now = 0;
  replica.SetControlSender(
      [&](const Message& msg) {
        EXPECT_EQ(msg.type, MessageType::kResyncRequest);
        request_ticks.push_back(now);
      });
  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.payload = {1.0, 5.0};
  ASSERT_TRUE(replica.OnMessage(init).ok());
  for (now = 1; now <= 40; ++now) replica.Tick();
  // Silence threshold 5 => first request once silence exceeds it, then
  // backoff 4, 8, 16, 16 ticks between retries.
  ASSERT_GE(request_ticks.size(), 4u);
  EXPECT_TRUE(replica.desynced());
  EXPECT_EQ(request_ticks[1] - request_ticks[0], 4);
  EXPECT_EQ(request_ticks[2] - request_ticks[1], 8);
  EXPECT_EQ(request_ticks[3] - request_ticks[2], 16);
  EXPECT_EQ(replica.resyncs_requested(),
            static_cast<int64_t>(request_ticks.size()));
  // Quarantine honesty: the reported bound is widened while desynced.
  EXPECT_GT(replica.bound(), replica.declared_bound());
}

TEST(ReplicaRecoveryTest, HeartbeatsPreventSilenceEscalation) {
  Channel channel;
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  ReplicaRecoveryConfig recovery;
  recovery.enabled = true;
  recovery.suspect_after_silent_ticks = 5;
  replica.SetRecovery(recovery);
  channel.SetReceiver(
      [&replica](const Message& m) { ASSERT_TRUE(replica.OnMessage(m).ok()); });
  AgentConfig config;
  config.delta = 100.0;  // Pure suppression.
  config.heartbeat_every = 3;
  SourceAgent agent(0, std::make_unique<ValueCachePredictor>(), config,
                    &channel);
  for (int64_t i = 0; i < 50; ++i) {
    replica.Tick();
    ASSERT_TRUE(agent.Offer(MakeReading(i, 1.0)).ok());
  }
  EXPECT_FALSE(replica.desynced());
  EXPECT_EQ(replica.resyncs_requested(), 0);
  EXPECT_GT(agent.stats().heartbeats, 0);
}

TEST(ReplicaRecoveryTest, WireSeqGapMarksDesyncAndFullSyncClears) {
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  ReplicaRecoveryConfig recovery;
  recovery.enabled = true;
  replica.SetRecovery(recovery);
  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.seq = 0;
  init.wire_seq = 0;
  init.payload = {1.0, 5.0};
  ASSERT_TRUE(replica.OnMessage(init).ok());

  Message corr;
  corr.source_id = 0;
  corr.type = MessageType::kCorrection;
  corr.seq = 3;
  corr.wire_seq = 3;  // Wire seqs 1 and 2 never arrived: a gap.
  corr.payload = {1.0, 9.0};
  ASSERT_TRUE(replica.OnMessage(corr).ok());
  EXPECT_EQ(replica.gaps(), 1);
  EXPECT_TRUE(replica.desynced());
  EXPECT_DOUBLE_EQ(replica.bound(), 8.0);  // delta 1.0 * default factor 8.

  Message sync;
  sync.source_id = 0;
  sync.type = MessageType::kFullSync;
  sync.seq = 4;
  sync.wire_seq = 4;
  sync.payload = {1.0, 9.5};
  ASSERT_TRUE(replica.OnMessage(sync).ok());
  EXPECT_FALSE(replica.desynced());
  EXPECT_DOUBLE_EQ(replica.bound(), 1.0);
}

TEST(ReplicaRecoveryTest, DisabledRecoveryNeverDesyncsOrRequests) {
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  int sends = 0;
  replica.SetControlSender([&sends](const Message&) { ++sends; });
  Message init;
  init.source_id = 0;
  init.type = MessageType::kInit;
  init.payload = {1.0, 5.0};
  ASSERT_TRUE(replica.OnMessage(init).ok());
  Message corr;
  corr.source_id = 0;
  corr.type = MessageType::kCorrection;
  corr.seq = 5;
  corr.wire_seq = 40;  // Huge gap, but recovery is off.
  corr.payload = {1.0, 6.0};
  ASSERT_TRUE(replica.OnMessage(corr).ok());
  for (int i = 0; i < 100; ++i) replica.Tick();
  EXPECT_FALSE(replica.desynced());
  EXPECT_EQ(replica.gaps(), 0);
  EXPECT_EQ(sends, 0);
}

TEST(ReplicaRecoveryTest, ControlMessagesRejectedOnUplink) {
  ServerReplica replica(0, std::make_unique<ValueCachePredictor>());
  Message msg;
  msg.source_id = 0;
  msg.type = MessageType::kSetBound;
  msg.payload = {1.0};
  EXPECT_FALSE(replica.OnMessage(msg).ok());
  msg.type = MessageType::kResyncRequest;
  EXPECT_FALSE(replica.OnMessage(msg).ok());
}

}  // namespace
}  // namespace kc
