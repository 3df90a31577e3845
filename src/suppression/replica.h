#ifndef KALMANCAST_SUPPRESSION_REPLICA_H_
#define KALMANCAST_SUPPRESSION_REPLICA_H_

#include <functional>
#include <memory>

#include "common/status.h"
#include "net/message.h"
#include "obs/health_state.h"
#include "suppression/predictor.h"

namespace kc {

namespace obs {
class Counter;
class MetricRegistry;
class SourceRecorder;
class SourceHealth;
}  // namespace obs

/// Loss-tolerant recovery knobs for a server replica. Disabled by
/// default, in which case the replica behaves exactly as the lossless
/// protocol assumes (no wire-seq tracking, no resync traffic, no bound
/// widening). All thresholds are in ticks and the whole state machine is
/// RNG-free, so recovery never perturbs the fleet's determinism contract.
struct ReplicaRecoveryConfig {
  bool enabled = false;
  /// Wire-sequence gap events (lost uplink messages) tolerated since the
  /// last sync before the replica suspects desync. 1 = any gap triggers.
  int64_t max_gap_events = 1;
  /// Silence escalation: with no message (of any type) for more than this
  /// many replica ticks, suspect a dead link or partition and request
  /// resync. 0 disables the escalation; deployments should keep it above
  /// the agent's heartbeat_every.
  int64_t suspect_after_silent_ticks = 0;
  /// Resync-request backoff: the first retry fires backoff_initial_ticks
  /// after the initial request, then doubles up to backoff_max_ticks.
  int64_t backoff_initial_ticks = 4;
  int64_t backoff_max_ticks = 256;
  /// While desynced (quarantined) the replica reports bound() widened by
  /// this factor: queries stay answerable but honestly degraded instead
  /// of silently wrong. Must be >= 1.
  double quarantine_bound_factor = 8.0;
};

/// The server half of the suppression protocol: the cached dynamic
/// procedure that answers queries for one source without contacting it.
///
/// Tick() advances the predictor clock once per stream tick; OnMessage()
/// folds in whatever the source ships. Between messages, Value() returns
/// the prediction, which the protocol guarantees is within bound() of the
/// source's measurements on a lossless channel. With recovery enabled
/// (SetRecovery), the replica detects lost uplink messages via wire-seq
/// gaps and silence, quarantines itself (widened bound, desynced() true),
/// and emits RESYNC_REQUEST control messages with exponential backoff
/// until a FULL_SYNC or INIT re-anchors it.
class ServerReplica {
 public:
  /// Outbound control hook (RESYNC_REQUEST). Installed by the server; the
  /// replica never fails on a lost/undeliverable request — backoff simply
  /// retries.
  using ControlSender = std::function<void(const Message&)>;

  /// `predictor` must be a fresh Clone() of the source's predictor.
  ServerReplica(int32_t source_id, std::unique_ptr<Predictor> predictor);

  /// Advances one stream tick (predictor no-op before INIT arrives) and,
  /// with recovery enabled, runs gap/silence escalation and emits due
  /// RESYNC_REQUESTs through the control sender.
  void Tick();

  /// Applies a message from this replica's source. Messages for other
  /// sources are rejected.
  Status OnMessage(const Message& msg);

  /// Enables/updates loss-tolerant recovery for this replica.
  void SetRecovery(const ReplicaRecoveryConfig& config);
  const ReplicaRecoveryConfig& recovery() const { return recovery_; }

  /// Installs the downlink used to emit RESYNC_REQUEST control messages.
  void SetControlSender(ControlSender sender) {
    control_sender_ = std::move(sender);
  }

  bool initialized() const { return initialized_; }
  int32_t source_id() const { return source_id_; }

  /// Current bounded estimate of the source value. Requires initialized().
  Vector Value() const { return predictor_->Predict(); }

  /// Precision bound currently in force: the source's declared bound,
  /// widened by the quarantine factor while desynced.
  double bound() const {
    return desynced_ ? delta_ * recovery_.quarantine_bound_factor : delta_;
  }
  /// The bound the source declared, regardless of quarantine.
  double declared_bound() const { return delta_; }

  /// True while the replica suspects it has diverged from the source
  /// (wire-seq gap or silence escalation) and awaits a resync.
  bool desynced() const { return desynced_; }

  /// Bookkeeping for staleness/liveness monitoring.
  int64_t last_heard_seq() const { return last_heard_seq_; }
  double last_heard_time() const { return last_heard_time_; }
  /// Highest wire sequence number seen from the source (-1 before any).
  int64_t last_wire_seq() const { return last_wire_seq_; }
  int64_t ticks() const { return ticks_; }
  int64_t messages_applied() const { return messages_applied_; }
  /// Duplicate or out-of-order messages dropped by the sequencing guard.
  int64_t messages_ignored() const { return messages_ignored_; }
  /// Wire-sequence gap events observed (recovery enabled only).
  int64_t gaps() const { return gaps_; }
  /// RESYNC_REQUEST control messages emitted.
  int64_t resyncs_requested() const { return resyncs_requested_; }

  /// Replica ticks elapsed since the source was last heard from (any
  /// message type, heartbeats included). Returns a huge value before the
  /// first message.
  int64_t TicksSinceHeard() const {
    return tick_at_last_heard_ < 0 ? (int64_t{1} << 60)
                                   : ticks_ - tick_at_last_heard_;
  }

  /// Liveness threshold in replica ticks (0, the default, disables
  /// staleness tracking). Set by the owning server for every replica.
  void SetStalenessLimit(int64_t max_silent_ticks) {
    staleness_limit_ = max_silent_ticks;
  }

  /// True if the replica is initialized and its source has been silent
  /// for more than the staleness limit.
  bool stale() const {
    return staleness_limit_ > 0 && initialized_ &&
           TicksSinceHeard() > staleness_limit_;
  }

  /// The bound watchdog entry's verdict (kOk when none is bound).
  obs::HealthState health() const;

  const Predictor& predictor() const { return *predictor_; }

  /// Registers kc.replica.{messages_applied,messages_ignored,full_syncs,
  /// gaps,resyncs_requested} on the arena, mirrors message handling onto
  /// them, and forwards the binding to the replicated predictor. Pass
  /// nullptr to unbind.
  void BindMetrics(obs::MetricRegistry* registry);

  /// Attaches the flight recorder ring and/or health watchdog entry for
  /// this source (either may be nullptr). The recorder retains the
  /// receive side of the protocol (applies, ignores, wire gaps,
  /// quarantine transitions, resync requests); the watchdog is fed every
  /// RESYNC_REQUEST for its resync-rate detector. Observation-only:
  /// binding never changes protocol behaviour.
  void BindObservability(obs::SourceRecorder* recorder,
                         obs::SourceHealth* health);

 private:
  /// Arena handles, cached at bind time; null until BindMetrics.
  struct Metrics {
    obs::Counter* applied = nullptr;
    obs::Counter* ignored = nullptr;
    obs::Counter* full_syncs = nullptr;
    obs::Counter* gaps = nullptr;
    obs::Counter* resyncs_requested = nullptr;
  };

  void MarkDesynced();
  void ClearDesync();
  void SendResyncRequest();

  int32_t source_id_;
  std::unique_ptr<Predictor> predictor_;
  Metrics metrics_;
  obs::SourceRecorder* recorder_ = nullptr;  ///< Optional black box.
  obs::SourceHealth* health_ = nullptr;      ///< Optional watchdog feed.
  ReplicaRecoveryConfig recovery_;
  int64_t staleness_limit_ = 0;
  ControlSender control_sender_;
  bool initialized_ = false;
  bool desynced_ = false;
  double delta_ = 0.0;
  int64_t last_heard_seq_ = -1;
  int64_t last_wire_seq_ = -1;
  double last_heard_time_ = 0.0;
  int64_t ticks_ = 0;
  int64_t tick_at_last_heard_ = -1;
  int64_t messages_applied_ = 0;
  int64_t messages_ignored_ = 0;
  int64_t gaps_ = 0;
  int64_t gap_events_since_sync_ = 0;
  int64_t resyncs_requested_ = 0;
  /// Ticks since construction, counted even before INIT so a lost INIT
  /// can escalate (ticks_ starts only after initialization).
  int64_t lifetime_ticks_ = 0;
  /// Liveness for recovery escalation: unlike tick_at_last_heard_, this
  /// refreshes on *any* correctly-routed message, including duplicates
  /// the sequencing guard discards — a duplicate still proves the source
  /// and link are alive.
  int64_t lifetime_tick_at_heard_ = 0;
  int64_t next_resync_tick_ = 0;
  int64_t backoff_ = 0;
};

}  // namespace kc

#endif  // KALMANCAST_SUPPRESSION_REPLICA_H_
