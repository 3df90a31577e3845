#ifndef KALMANCAST_FLEET_SHARDED_SERVER_H_
#define KALMANCAST_FLEET_SHARDED_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "suppression/filter_pool.h"
#include "fleet/thread_pool.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "server/server.h"

namespace kc {

/// A fleet-scale stream server: N single-threaded StreamServer shards,
/// each owning the replicas, channels-facing state, and tick archives of
/// the sources hashed to it.
///
/// Threading model (the determinism contract):
///  - Sources are partitioned by a fixed hash of source_id, so shard
///    assignment never depends on registration order or thread count.
///  - During a tick, each shard is driven by exactly one worker thread
///    (TickShard + the shard's message deliveries); shards share no
///    mutable state, so no locks are needed on the hot path.
///  - Readers (queries, stats, archives) run after the driver's barrier
///    (ThreadPool::ParallelFor join) on one thread, against a merged,
///    consistent view: every shard has ticked the same number of times
///    and drained its messages.
///  - All randomness lives in per-source RNG streams owned by the shard
///    (seeded from the fleet seed and source id only), so answers are
///    bit-identical for any shard or thread count.
///
/// This is the only query server: the continuous-query registry lives
/// here, evaluated against the merged SourceView, so a single query may
/// span sources on any subset of shards. One shard (the default) is the
/// plain single-threaded server.
class ShardedServer : public SourceView {
 public:
  explicit ShardedServer(size_t num_shards = 1);

  size_t num_shards() const { return shards_.size(); }

  /// The shard owning a source id (fixed hash; stable across runs).
  size_t ShardOf(int32_t source_id) const;

  /// Direct shard access (the sharded fleet wires each source's channel
  /// straight into its owning shard). Shard references are stable for the
  /// server's lifetime.
  StreamServer& shard(size_t index) { return *shards_[index]; }
  const StreamServer& shard(size_t index) const { return *shards_[index]; }

  /// Registers a source on its owning shard. Fails on duplicate ids.
  Status RegisterSource(int32_t source_id,
                        std::unique_ptr<Predictor> predictor);

  /// Removes a source (and its shard-local archive).
  Status UnregisterSource(int32_t source_id);

  /// Advances every shard one stream tick, in shard order, on the calling
  /// thread. Threaded drivers call TickShard(s) from their per-shard
  /// workers instead.
  void Tick();

  /// Advances one shard one stream tick: first the shard's batched filter
  /// sweep (FilterPoolSet::PredictAll — one contiguous pass over every
  /// pooled filter's state), then the shard's replicas. Thread-affine: at
  /// most one thread per shard per tick. Drivers that already swept every
  /// pool via SweepPools this tick pass run_pool_sweep = false, otherwise
  /// the slots would advance twice.
  void TickShard(size_t index, bool run_pool_sweep = true);

  /// Runs this tick's batched filter sweep for EVERY shard's pools, as one
  /// flat list of slab blocks chunked across `pool` (sequentially on the
  /// calling thread when null or when the pool is this thread's own — the
  /// chunking is ThreadPool::NumChunks, a pure function of the block
  /// count). Pool slots are mutually independent and a sweep writes only
  /// block-local slab memory, so any chunking of the block list — across
  /// pools, shards, and threads — produces bit-identical state; it also
  /// cannot race the subsequent per-shard tick work, which this call must
  /// complete before (call from the driver, then fan out TickShard(s,
  /// /*run_pool_sweep=*/false)). Hoisting the sweep out of the per-shard
  /// ticks is state-identical because a shard's tick only ever touches its
  /// own pools.
  void SweepPools(ThreadPool* pool = nullptr);

  /// Toggles the vectorized sweep kernels on every shard's pool set
  /// (current and future pools). Bit-identical either way; bench/CI knob.
  void SetSimdEnabled(bool on);

  /// The shard's filter pools. Pooled predictors registered on a shard
  /// (ShardedFleet does this for poolable Kalman sources) must draw their
  /// slots from its own pool set, so the shard's worker remains the only
  /// thread touching that state. Stable for the server's lifetime.
  FilterPoolSet* shard_pools(size_t index) { return pool_sets_[index].get(); }

  /// Routes a wire message to the owning shard's replica. In threaded
  /// use, call only from the thread driving that shard this tick.
  Status OnMessage(const Message& msg);

  // --- Merged reads (call after the tick barrier) ---

  StatusOr<BoundedAnswer> SourceValue(int32_t source_id) const;
  const ServerReplica* replica(int32_t source_id) const override;
  bool IsStale(int32_t source_id) const;
  bool IsDesynced(int32_t source_id) const;
  StatusOr<const TickArchive*> Archive(int32_t source_id) const override;
  /// The merged stream clock. All shards tick together, so this is shard
  /// 0's clock.
  int64_t ticks() const override;
  /// The sum of the shards' epochs: any shard's (un)registration moves it.
  uint64_t registration_epoch() const override;

  StatusOr<QueryResult> HistoricalAggregate(int32_t source_id,
                                            AggregateKind kind, double t0,
                                            double t1) const;

  /// Sources registered across all shards.
  size_t num_sources() const;
  /// Messages processed across all shards (merged on read).
  int64_t messages_processed() const;
  /// Registered source ids across all shards (sorted).
  std::vector<int32_t> SourceIds() const;

  // --- Fleet-wide configuration (applied to every shard) ---

  void SetStalenessLimit(int64_t max_silent_ticks);
  int64_t staleness_limit() const;
  void EnableArchiving(size_t capacity);

  /// Enables loss-tolerant replica recovery on every shard (current and
  /// future sources).
  void SetRecovery(const ReplicaRecoveryConfig& config);

  /// Installs the control downlink on every shard (PushBound routes
  /// through the owning shard so the pushed message carries that shard's
  /// clock).
  void SetControlSink(StreamServer::ControlSink sink);
  Status PushBound(int32_t source_id, double delta);

  // --- Cross-shard continuous queries ---

  Status AddQuery(const std::string& name, QuerySpec spec);
  Status RemoveQuery(const std::string& name);
  StatusOr<QueryResult> Evaluate(const std::string& name) const;
  StatusOr<QueryResult> EvaluateSpec(const QuerySpec& spec,
                                     const std::string& name = "adhoc") const;
  std::vector<QueryResult> EvaluateAll() const;
  std::vector<QueryResult> EvaluateDue();
  std::vector<std::string> QueryNames() const;
  size_t num_queries() const { return queries_.size(); }

  // --- Per-shard observability ---
  //
  // Each shard owns one observability bundle (metric arena, flight
  // recorder, health watchdog, precision auditor), each facility null
  // until its Enable*. Every Enable* is legal only before the first
  // RegisterSource — afterwards it returns FailedPrecondition and changes
  // nothing — so a source is bound exactly once, at registration, to
  // whatever its shard's bundle holds. Before that, each Enable* is
  // idempotent and the four may come in any order. During a tick each
  // shard worker records only into its own bundle, so the hot path never
  // contends or crosses shard boundaries.

  /// Creates one metric arena per shard plus a driver arena. Cross-shard
  /// query evaluations (driver thread, post-barrier) record into the
  /// driver arena.
  Status EnableMetrics();
  bool metrics_enabled() const { return driver_metrics_ != nullptr; }

  /// A shard's arena (nullptr before EnableMetrics). The sharded fleet
  /// binds each source's channels and agent to its owning shard's arena.
  obs::MetricRegistry* shard_metrics(size_t index) {
    return bundles_[index].metrics.get();
  }
  obs::MetricRegistry* driver_metrics() { return driver_metrics_.get(); }

  /// Merges every shard arena — in shard order, a fixed function of the
  /// source-id hash, never of thread schedule — then the driver arena
  /// into `out`. Call after the tick barrier; the result is bit-identical
  /// for any worker-thread count.
  void MergeMetricsInto(obs::MetricRegistry* out) const;

  /// Creates one flight recorder per shard (capacity events per source).
  /// Each source's replica — and the fleet's agent, via shard_recorder()
  /// — records into its shard's per-source ring. A source lives on
  /// exactly one shard, so every dump walks sources in ascending-id order
  /// and is bit-identical for any worker-thread count.
  Status EnableFlightRecorder(size_t capacity_per_source);
  bool flight_recorder_enabled() const {
    return bundles_.front().recorder != nullptr;
  }

  /// Creates one health watchdog per shard, fed by each source's replica
  /// (and the fleet's agent).
  Status EnableHealth(const obs::HealthConfig& config = {});
  bool health_enabled() const { return bundles_.front().health != nullptr; }

  /// A shard's recorder/watchdog (nullptr before the matching Enable).
  obs::FlightRecorder* shard_recorder(size_t index) {
    return bundles_[index].recorder.get();
  }
  obs::HealthMonitor* shard_health(size_t index) {
    return bundles_[index].health.get();
  }

  /// Creates one precision auditor per shard plus a driver-side auditor
  /// for the cross-shard query ledger. The fleet feeds per-source samples
  /// into the shard auditors from the shard workers; this server feeds
  /// its own cross-shard query evaluations into the driver auditor.
  Status EnableAudit(const obs::AuditConfig& config = {});
  bool audit_enabled() const { return driver_audit_ != nullptr; }

  /// A shard's auditor / the driver-side query auditor (nullptr before
  /// EnableAudit).
  obs::PrecisionAuditor* shard_audit(size_t index) {
    return bundles_[index].audit.get();
  }
  obs::PrecisionAuditor* driver_audit() { return driver_audit_.get(); }

  /// Merged fleet-wide audit reports: sources in ascending-id order,
  /// query tallies from the driver ledger. Call after the tick barrier;
  /// bit-identical for any worker thread count. Empty ("{}"/"" ) when
  /// disabled.
  std::string AuditReportText() const;
  std::string AuditReportJson() const;
  /// The JSON report as addressable pieces (obs::AuditDoc) for
  /// `?prefix=`-scoped /audit scrapes. Empty doc when disabled.
  obs::AuditDoc AuditReportDoc() const;
  std::string AuditSummaryLine() const;

  /// Sources whose SLO error budget is currently EXHAUSTED (0 when
  /// disabled) — the /healthz verdict input.
  int64_t AuditExhaustedSources() const;

  /// The watchdog's merged verdict for one source (kOk when disabled).
  obs::HealthState HealthOf(int32_t source_id) const;

  /// Fleet-wide black-box dump / health summary, sources in ascending-id
  /// order (deterministic for any thread count). Empty when disabled.
  std::string DumpFlightRecorderText() const;
  std::string DumpFlightRecorderJson() const;
  std::string HealthSummaryText() const;

 private:
  /// One shard's observability; see "Per-shard observability" above.
  struct ObsBundle {
    std::unique_ptr<obs::MetricRegistry> metrics;
    std::unique_ptr<obs::FlightRecorder> recorder;
    std::unique_ptr<obs::HealthMonitor> health;
    std::unique_ptr<obs::PrecisionAuditor> audit;
  };

  /// FailedPrecondition once any source has registered.
  Status CheckNoSources(const char* what) const;

  /// Binds, in dependency order (arena, recorder, watchdog, auditor),
  /// whatever shard `index`'s bundle holds to each other and hands it to
  /// the shard's StreamServer. Each Enable* re-wires every shard; no
  /// source exists yet, so nothing else needs re-binding.
  void WireShard(size_t index);
  /// WireShard for every shard, then the driver auditor to the driver
  /// arena.
  void Wire();

  /// Mirrors one cross-shard query evaluation onto the driver arena and
  /// into the driver audit ledger (null `result` = failed evaluation).
  void RecordQuery(const std::string& name, const QueryResult* result) const;

  /// The merged view over every audit arena (shard order, then driver).
  obs::AuditMergeView AuditView() const;

  /// One pool's position in the flattened block list SweepPools chunks
  /// over: its blocks occupy [first_block, first_block + num_blocks()).
  struct SweepUnit {
    FilterPool* pool;
    size_t first_block;
  };

  /// Declared before shards_: replicas (and the fleet's agents) hold pool
  /// slots, so the pool sets must be destroyed after every predictor that
  /// releases into them.
  std::vector<std::unique_ptr<FilterPoolSet>> pool_sets_;
  std::vector<std::unique_ptr<StreamServer>> shards_;
  /// Rebuilt by each SweepPools call; a member so the steady-state tick
  /// reuses its capacity (zero allocations per tick).
  std::vector<SweepUnit> sweep_units_;
  QueryTable queries_;
  std::vector<ObsBundle> bundles_;  ///< One per shard.
  std::unique_ptr<obs::MetricRegistry> driver_metrics_;
  std::unique_ptr<obs::PrecisionAuditor> driver_audit_;
  obs::Counter* queries_served_ = nullptr;
  obs::Counter* queries_failed_ = nullptr;
  obs::Counter* queries_stale_ = nullptr;
};

/// Renders a human-readable status report of a server: per-source
/// bounded views, liveness, policies, query results, and archive depth.
/// This is the operator-facing "what does the server believe right now"
/// view used by the cql_shell example and useful in logs.
std::string DescribeServer(const ShardedServer& server);

}  // namespace kc

#endif  // KALMANCAST_FLEET_SHARDED_SERVER_H_
