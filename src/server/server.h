#ifndef KALMANCAST_SERVER_SERVER_H_
#define KALMANCAST_SERVER_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/message.h"
#include "server/archive.h"
#include "server/query.h"
#include "suppression/replica.h"

namespace kc {

/// A source's current bounded answer.
struct BoundedAnswer {
  Vector value;
  double bound = 0.0;
  int64_t last_heard_seq = -1;
  /// True while the replica is quarantined (suspected desync): `bound` is
  /// already widened by the quarantine factor.
  bool degraded = false;
};

class FilterPoolSet;

namespace obs {
class Counter;
class FlightRecorder;
class Gauge;
class HealthMonitor;
class Histogram;
class MetricRegistry;
}  // namespace obs

/// One shard of the stream management server: the registry of per-source
/// predictor replicas, the shard's stream clock, its tick archives, and
/// the recovery, staleness and control-downlink plumbing around them.
/// Continuous queries are answered from these cached procedures — i.e.
/// "without the clients' involvement", which is the communication saving
/// the paper measures — by the query front of ShardedServer
/// (src/fleet/sharded_server.h), which owns one StreamServer per shard.
///
/// The server's tick count is every replica's clock (ServerReplica keeps
/// only its registration and first-INIT ticks), so Tick() touches only the
/// replicas with per-tick work of their own: those with recovery enabled,
/// and those whose predictor's time update no sweep of `swept_pools` does
/// (non-Kalman policies, private or bare pools). A pooled replica on the
/// swept set costs the tick nothing.
///
/// Single-threaded by design: one StreamServer is driven by
/// Tick()/OnMessage() from a single thread (its shard's worker), so every
/// instance stays thread-confined to its shard.
class StreamServer {
 public:
  /// `swept_pools`, when set, is a pool set whose owner runs its batched
  /// time update (PredictAll, or ShardedServer::SweepPools) before every
  /// Tick(); replicas whose predictor draws from it are not ticked.
  explicit StreamServer(const FilterPoolSet* swept_pools = nullptr)
      : swept_pools_(swept_pools) {}
  /// Replicas hold pointers to the clock and control hooks hold `this`.
  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Registers a source. `predictor` must be a fresh clone of the
  /// source-side predictor's configuration. Fails on duplicate ids.
  Status RegisterSource(int32_t source_id, std::unique_ptr<Predictor> predictor);

  /// Removes a source (its queries start failing with NotFound). The
  /// source's archive is erased with it: a later registration under the
  /// same id starts a fresh history instead of resuming the dead
  /// source's.
  Status UnregisterSource(int32_t source_id);

  /// Advances the stream clock one tick (and with it every replica's
  /// counters), then runs the per-tick work of the replicas that have
  /// some, in id order; then the archive and bound-width passes.
  void Tick();

  /// Routes a wire message to its source's replica.
  Status OnMessage(const Message& msg);

  /// The current bounded answer for one source.
  StatusOr<BoundedAnswer> SourceValue(int32_t source_id) const;

  /// Sets the liveness threshold on every replica, current and future: a
  /// source silent (no message, heartbeats included) for more than
  /// `max_silent_ticks` replica ticks marks every query touching it stale.
  /// 0 disables staleness tracking (default).
  void SetStalenessLimit(int64_t max_silent_ticks);
  int64_t staleness_limit() const { return staleness_limit_; }

  /// True if the source exists, is initialized, and has exceeded the
  /// staleness limit.
  bool IsStale(int32_t source_id) const;

  /// Enables loss-tolerant recovery on every replica, current and future:
  /// wire-seq gap detection, silence escalation, RESYNC_REQUEST emission
  /// through the control sink, and bound-widening quarantine while
  /// desynced (see ReplicaRecoveryConfig).
  void SetRecovery(const ReplicaRecoveryConfig& config);
  const ReplicaRecoveryConfig& recovery() const { return recovery_; }

  /// True if the source's replica is quarantined pending resync.
  bool IsDesynced(int32_t source_id) const;

  /// Enables per-tick archiving of every *scalar* source's bounded view
  /// into a ring of `capacity` points (multi-dimensional sources are
  /// skipped). Costs one append per source per tick and zero
  /// communication — the archive is built entirely from cached
  /// predictions. Call before the ticks you want recorded.
  void EnableArchiving(size_t capacity);

  /// The archive for one source; error if archiving is disabled or the
  /// source is unknown/non-scalar.
  StatusOr<const TickArchive*> Archive(int32_t source_id) const;

  /// Historical aggregate over one source's archived views in [t0, t1].
  StatusOr<QueryResult> HistoricalAggregate(int32_t source_id,
                                            AggregateKind kind, double t0,
                                            double t1) const;

  /// Installs the downlink used to push control messages (SET_BOUND) back
  /// to sources. The deployment (e.g. ShardedFleet) routes by source_id.
  using ControlSink = std::function<Status(const Message&)>;
  void SetControlSink(ControlSink sink) { control_sink_ = std::move(sink); }

  /// Pushes a new precision bound to a source over the control downlink.
  /// The source adopts it on its next reading; the server's replica keeps
  /// reporting the old bound until the source's next data message confirms
  /// the change (the contract is never overstated in the interim).
  Status PushBound(int32_t source_id, double delta);

  size_t num_sources() const { return replicas_.size(); }
  int64_t ticks() const { return ticks_; }
  /// Bumped by every RegisterSource/UnregisterSource.
  uint64_t registration_epoch() const { return registration_epoch_; }
  int64_t messages_processed() const { return messages_processed_; }

  /// Direct replica access (diagnostics/tests); nullptr if unknown.
  const ServerReplica* replica(int32_t source_id) const;

  /// Registered source ids (sorted).
  std::vector<int32_t> SourceIds() const;

  /// Binds the shard's observability, for every source registered
  /// afterwards; legal only before the first RegisterSource. `registry` gets the
  /// kc.server.* counters/gauges, the wall-clock tick-latency histogram,
  /// the per-tick bound-width distribution, and each replica's (and
  /// predictor's) telemetry. Each replica records the receive side of the
  /// protocol into its ring of `recorder` and feeds its resync-rate
  /// detector in `health`. Any argument may be null (facility off). In a
  /// sharded deployment each shard binds its own bundle, so hot-path
  /// recording never crosses shard boundaries.
  void BindObservability(obs::MetricRegistry* registry,
                         obs::FlightRecorder* recorder,
                         obs::HealthMonitor* health);

 private:
  /// Arena handles, cached at bind time; null until BindObservability.
  struct Metrics {
    obs::Counter* ticks = nullptr;
    obs::Counter* messages_in = nullptr;
    obs::Counter* control_out = nullptr;
    obs::Gauge* sources = nullptr;
    obs::Histogram* tick_latency_us = nullptr;  ///< Wall-clock.
    obs::Histogram* bound_width = nullptr;
  };

  /// Wires one replica's outbound RESYNC_REQUESTs into the control sink.
  void InstallControlSender(ServerReplica* replica);

  /// True if Tick() must call the replica's Tick() (see the class note).
  bool NeedsTick(const ServerReplica& replica) const;
  /// Where `source_id` is, or would go, in ticked_.
  std::vector<ServerReplica*>::iterator TickedAt(int32_t source_id);
  /// Rebuilds ticked_ from replicas_ (after SetRecovery).
  void RebuildTicked();

  const FilterPoolSet* swept_pools_;
  std::map<int32_t, std::unique_ptr<ServerReplica>> replicas_;
  /// The replicas NeedsTick selects, in id order.
  std::vector<ServerReplica*> ticked_;
  ReplicaRecoveryConfig recovery_;
  std::map<int32_t, TickArchive> archives_;
  ControlSink control_sink_;
  Metrics metrics_;
  obs::MetricRegistry* registry_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::HealthMonitor* health_ = nullptr;
  size_t archive_capacity_ = 0;  ///< 0 = archiving disabled.
  int64_t ticks_ = 0;
  uint64_t registration_epoch_ = 0;
  int64_t messages_processed_ = 0;
  int64_t staleness_limit_ = 0;
};

}  // namespace kc

#endif  // KALMANCAST_SERVER_SERVER_H_
