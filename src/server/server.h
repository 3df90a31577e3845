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
#include "server/query_eval.h"
#include "suppression/replica.h"

namespace kc {

namespace obs {
class Counter;
class FlightRecorder;
class Gauge;
class HealthMonitor;
class Histogram;
class MetricRegistry;
class PrecisionAuditor;
}  // namespace obs

/// The stream management server: a registry of per-source predictor
/// replicas plus a set of continuous queries answered from those cached
/// procedures — i.e. "without the clients' involvement", which is the
/// communication saving the paper measures.
///
/// Single-threaded by design: one StreamServer is driven by
/// Tick()/OnMessage() from a single harness thread (or an embedding
/// application's event loop). Multi-core deployments run one StreamServer
/// per shard behind a ShardedServer (src/fleet/sharded_server.h), which
/// keeps every instance thread-confined to its shard worker.
class StreamServer : public SourceView {
 public:
  StreamServer() = default;

  /// Registers a source. `predictor` must be a fresh clone of the
  /// source-side predictor's configuration. Fails on duplicate ids.
  Status RegisterSource(int32_t source_id, std::unique_ptr<Predictor> predictor);

  /// Removes a source (its queries start failing with NotFound). The
  /// source's archive is erased with it: a later registration under the
  /// same id starts a fresh history instead of resuming the dead
  /// source's.
  Status UnregisterSource(int32_t source_id);

  /// Advances every replica one stream tick.
  void Tick();

  /// Routes a wire message to its source's replica.
  Status OnMessage(const Message& msg);

  /// The current bounded answer for one source.
  StatusOr<BoundedAnswer> SourceValue(int32_t source_id) const;

  /// Registers a named continuous query. Fails if the spec is invalid,
  /// the name is taken, or a referenced source is unknown.
  Status AddQuery(const std::string& name, QuerySpec spec);

  Status RemoveQuery(const std::string& name);

  /// Evaluates one registered query now.
  StatusOr<QueryResult> Evaluate(const std::string& name) const;

  /// Evaluates an ad-hoc spec without registering it.
  StatusOr<QueryResult> EvaluateSpec(const QuerySpec& spec,
                                     const std::string& name = "adhoc") const;

  /// Evaluates every registered query (order: by name).
  std::vector<QueryResult> EvaluateAll() const;

  /// Evaluates exactly the queries whose EVERY cadence has elapsed since
  /// their previous due evaluation, and marks them evaluated. Call once
  /// per tick (after Tick()) for paper-style continuous query semantics.
  std::vector<QueryResult> EvaluateDue();

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
  StatusOr<const TickArchive*> Archive(int32_t source_id) const override;

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
  size_t num_queries() const { return queries_.size(); }
  int64_t ticks() const override { return ticks_; }
  /// Bumped by every RegisterSource/UnregisterSource.
  uint64_t registration_epoch() const override { return registration_epoch_; }
  int64_t messages_processed() const { return messages_processed_; }

  /// Direct replica access (diagnostics/tests); nullptr if unknown.
  const ServerReplica* replica(int32_t source_id) const override;

  /// Registered query names (sorted).
  std::vector<std::string> QueryNames() const;

  /// Registered source ids (sorted).
  std::vector<int32_t> SourceIds() const;

  /// The spec of a registered query.
  StatusOr<QuerySpec> GetQuery(const std::string& name) const;

  /// Restores the server clock (snapshot loading only; see
  /// server/snapshot.h). Must be called before any Tick().
  void RestoreTicks(int64_t ticks) { ticks_ = ticks; }

  /// Appends one archived point for a source (snapshot loading only).
  /// Requires archiving enabled.
  Status RestoreArchivePoint(int32_t source_id, double time, double value,
                             double bound);

  /// Binds the serving path's telemetry to a metric arena: kc.server.*
  /// counters/gauges, the wall-clock tick-latency histogram, and the
  /// per-tick bound-width distribution. The binding propagates to every
  /// registered replica (and their predictors); sources registered later
  /// are bound on registration. In a sharded deployment each shard's
  /// server binds its own arena, so hot-path recording never crosses
  /// shard boundaries. Pass nullptr to unbind.
  void BindMetrics(obs::MetricRegistry* registry);

  /// Attaches a flight recorder: every registered replica (and each one
  /// registered later) gets its per-source ring and records the receive
  /// side of the protocol into it. In a sharded deployment each shard's
  /// server binds its own recorder so hot-path recording stays
  /// shard-confined. Pass nullptr to detach.
  void BindFlightRecorder(obs::FlightRecorder* recorder);

  /// Attaches the filter-health watchdog: every replica feeds its
  /// resync-rate detector, and HealthOf()/QueryResult.health surface the
  /// verdicts. Same sharding discipline as BindFlightRecorder. Pass
  /// nullptr to detach.
  void BindHealth(obs::HealthMonitor* health);

  /// The watchdog's verdict for one source (kOk when no watchdog bound).
  obs::HealthState HealthOf(int32_t source_id) const;

  /// Attaches the precision auditor's query ledger: every evaluation on
  /// this server is tallied per query name (served/failed/stale/degraded/
  /// unhealthy). Source-level audit sampling is driven by the deployment
  /// that owns both protocol ends (the fleet), not here. Pass nullptr to
  /// detach.
  void BindAudit(obs::PrecisionAuditor* auditor) { auditor_ = auditor; }

 private:
  /// Arena handles, cached at bind time; null until BindMetrics.
  struct Metrics {
    obs::Counter* ticks = nullptr;
    obs::Counter* messages_in = nullptr;
    obs::Counter* control_out = nullptr;
    obs::Counter* queries_served = nullptr;
    obs::Counter* queries_failed = nullptr;
    obs::Counter* queries_stale = nullptr;
    obs::Gauge* sources = nullptr;
    obs::Histogram* tick_latency_us = nullptr;  ///< Wall-clock.
    obs::Histogram* bound_width = nullptr;
  };

  /// Mirrors one query evaluation onto the arena (no-op when unbound).
  void RecordQueryOutcome(bool ok, bool stale) const;

  /// Mirrors one evaluation into the audit ledger (no-op when unbound).
  /// `result` is null for failed evaluations.
  void RecordQueryAudit(const std::string& name,
                        const QueryResult* result) const;

  /// Wires one replica's outbound RESYNC_REQUESTs into the control sink.
  void InstallControlSender(ServerReplica* replica);

  /// Re-binds one replica's recorder ring / watchdog entry from the
  /// currently attached recorder_/health_ (either may be null).
  void BindReplicaObservability(ServerReplica* replica);

  std::map<int32_t, std::unique_ptr<ServerReplica>> replicas_;
  ReplicaRecoveryConfig recovery_;
  QueryTable queries_;
  std::map<int32_t, TickArchive> archives_;
  ControlSink control_sink_;
  Metrics metrics_;
  obs::MetricRegistry* registry_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::HealthMonitor* health_ = nullptr;
  obs::PrecisionAuditor* auditor_ = nullptr;
  size_t archive_capacity_ = 0;  ///< 0 = archiving disabled.
  int64_t ticks_ = 0;
  uint64_t registration_epoch_ = 0;
  int64_t messages_processed_ = 0;
  int64_t staleness_limit_ = 0;
};

}  // namespace kc

#endif  // KALMANCAST_SERVER_SERVER_H_
