#ifndef KALMANCAST_SUPPRESSION_AGENT_H_
#define KALMANCAST_SUPPRESSION_AGENT_H_

#include <memory>

#include "net/channel.h"
#include "suppression/predictor.h"

namespace kc {

namespace obs {
class SourceRecorder;
class SourceHealth;
}  // namespace obs

/// Configuration of a stream source's suppression behaviour.
struct AgentConfig {
  /// Precision bound delta: the source ships a correction whenever the
  /// shared predictor's error exceeds this (L-infinity across dimensions).
  double delta = 1.0;
  /// If > 0, send a HEARTBEAT after this many consecutive silent ticks so
  /// the server can distinguish suppression from source failure.
  int64_t heartbeat_every = 0;
  /// If > 0, every Nth correction is upgraded to a FULL_SYNC carrying the
  /// predictor's complete state (recovery hardening; E9 ablation).
  int64_t full_sync_every = 0;
  /// If true, *all* corrections ship full predictor state instead of the
  /// compact observation payload (E9 ablation: payload size vs robustness).
  bool always_full_state = false;
};

/// Per-agent counters.
struct AgentStats {
  int64_t ticks = 0;
  int64_t corrections = 0;
  int64_t full_syncs = 0;
  int64_t heartbeats = 0;
  int64_t suppressed = 0;
  /// Replica-requested resyncs answered (with a FULL_SYNC, or a fresh
  /// INIT when the replica never saw one). A FULL_SYNC answer (or a plain
  /// correction, for predictors without full state) is also counted in
  /// full_syncs / corrections; a re-INIT, like the first INIT, is counted
  /// in no other field. So data messages sent are the uplink's sends
  /// minus heartbeats, not corrections + full_syncs + 1.
  int64_t resyncs_served = 0;

  /// Fraction of post-init ticks that required no correction.
  double SuppressionRatio() const {
    int64_t decisions = corrections + full_syncs + suppressed;
    if (decisions <= 0) return 0.0;
    return static_cast<double>(suppressed) / static_cast<double>(decisions);
  }
};

/// The client (source) half of the precision-bounded suppression protocol.
///
/// Owns the source-side predictor replica. Offer() is called once per
/// stream tick with the sensor's measurement; the agent ticks the
/// predictor, checks the precision contract, and ships a correction over
/// the channel only on violation — the message suppression that is the
/// whole point of the reproduced paper.
class SourceAgent {
 public:
  /// `channel` must outlive the agent.
  SourceAgent(int32_t source_id, std::unique_ptr<Predictor> predictor,
              AgentConfig config, Channel* channel);

  /// Processes one measurement. The first call emits INIT; later calls
  /// emit at most one CORRECTION/FULL_SYNC (or HEARTBEAT).
  Status Offer(const Reading& measured);

  /// Applies a server-originated control message: SET_BOUND (budget
  /// reallocation; the new bound takes effect from the next Offer and the
  /// server learns it back with the next data message) or RESYNC_REQUEST
  /// (the replica suspects desync; the next Offer answers with a
  /// FULL_SYNC, or a fresh INIT if the replica reported itself
  /// uninitialized).
  Status OnControl(const Message& msg);

  /// Current precision bound.
  double delta() const { return config_.delta; }
  /// Adjusts the bound (used by BudgetController in resource-constrained
  /// mode). Takes effect from the next Offer; the server learns the new
  /// bound with the next message.
  void set_delta(double delta) { config_.delta = delta; }

  int32_t source_id() const { return source_id_; }
  const AgentStats& stats() const { return stats_; }
  const Predictor& predictor() const { return *predictor_; }
  bool initialized() const { return initialized_; }

  /// The source-side predictor's current prediction (mirrors the server's
  /// view on a lossless channel).
  Vector PredictedValue() const { return predictor_->Predict(); }

  /// The value the precision contract protects (raw measurement for
  /// memoryless policies; the client's filtered estimate for the
  /// state-sync Kalman policy).
  Vector ContractTarget() const { return predictor_->Target(); }

  /// Registers kc.agent.* counters and the kc.agent.innovation histogram
  /// (per-decision |target - prediction|) on the arena, mirrors every
  /// suppression decision onto them, and forwards the binding to the
  /// owned predictor. Pass nullptr to unbind.
  void BindMetrics(obs::MetricRegistry* registry);

  /// Attaches the flight recorder ring and/or health watchdog entry for
  /// this source (either may be nullptr). The recorder retains every
  /// protocol decision (INIT/suppress/correction/heartbeat/gate fires/
  /// resyncs served); the watchdog is fed one tick, one NIS sample, and
  /// one decision per Offer. Both are observation-only: binding them
  /// never changes what goes on the wire.
  void BindObservability(obs::SourceRecorder* recorder,
                         obs::SourceHealth* health);

 private:
  /// Arena handles, cached at bind time; null until BindMetrics.
  struct Metrics {
    obs::Counter* decisions = nullptr;
    obs::Counter* suppressed = nullptr;
    obs::Counter* corrections = nullptr;
    obs::Counter* full_syncs = nullptr;
    obs::Counter* heartbeats = nullptr;
    obs::Counter* resyncs_served = nullptr;
    obs::Histogram* innovation = nullptr;
  };

  Status SendInit(const Reading& measured);
  Status SendCorrection(const Reading& measured, bool full_state);
  /// Answers a pending RESYNC_REQUEST with the strongest sync the
  /// predictor supports (FULL_SYNC, else a forced CORRECTION).
  Status ServeResync(const Reading& measured);

  int32_t source_id_;
  std::unique_ptr<Predictor> predictor_;
  AgentConfig config_;
  Channel* channel_;
  AgentStats stats_;
  Metrics metrics_;
  obs::SourceRecorder* recorder_ = nullptr;  ///< Optional black box.
  obs::SourceHealth* health_ = nullptr;      ///< Optional watchdog feed.
  /// Predictor gate fires already logged to the recorder.
  int64_t seen_outliers_ = 0;
  bool initialized_ = false;
  int64_t silent_ticks_ = 0;
  /// Dense per-link message counter stamped on every uplink send; the
  /// replica detects losses as gaps in this sequence.
  int64_t next_wire_seq_ = 0;
  /// Set by OnControl(RESYNC_REQUEST); served at the next Offer.
  bool resync_pending_ = false;
  bool reinit_pending_ = false;
};

}  // namespace kc

#endif  // KALMANCAST_SUPPRESSION_AGENT_H_
