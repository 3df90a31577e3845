#ifndef KALMANCAST_FLEET_SHARDED_FLEET_H_
#define KALMANCAST_FLEET_SHARDED_FLEET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fleet/sharded_server.h"
#include "fleet/thread_pool.h"
#include "obs/http_exporter.h"
#include "obs/remote.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"
#include "server/simulation.h"

namespace kc {

/// The sharded, multi-threaded fleet simulation: N generator+agent pairs
/// feeding a ShardedServer, partitioned into shards driven in parallel by
/// a persistent worker pool.
///
/// Each shard exclusively owns its sources' generators, agents, uplink
/// and control channels, and its ShardedServer shard (replicas +
/// archives) — including every RNG stream those components draw from. A
/// Step() runs one worker per shard: the shard's server tick, its
/// channels' in-flight deliveries, its generators' samples, and its
/// agents' suppression decisions, with zero cross-shard traffic. The
/// ParallelFor join is the barrier; queries, stats, and archives are then
/// read from the merged view on the driver thread.
///
/// Determinism contract: every RNG seed derives from (config.seed,
/// source id) alone — see SourceGeneratorSeed and friends in
/// server/simulation.h — and shard assignment is a fixed hash of the id,
/// so per-source answers, query results, and merged NetworkStats are
/// bit-identical for ANY `threads` and ANY `num_shards` — including the
/// sequential reference {threads=1, num_shards=1, pooling=false}, which
/// steps every source in id order on per-object predictors.
class ShardedFleet {
 public:
  struct Config {
    uint64_t seed = 1;
    AgentConfig agent_base;  ///< delta is overridden per source.
    Channel::Config channel;
    /// Server -> source downlink (SET_BOUND, RESYNC_REQUEST answers ride
    /// the uplink; only the requests themselves travel here). The seed is
    /// overridden per source, so downlink faults are as deterministic as
    /// uplink ones.
    Channel::Config control_channel;
    /// Loss-tolerant replica recovery, applied to every shard when
    /// enabled (see ReplicaRecoveryConfig).
    ReplicaRecoveryConfig recovery;
    /// Worker threads driving shards (1 = fully sequential, no workers).
    size_t threads = 1;
    /// Shard count; 0 picks max(threads, 8). More shards than threads is
    /// fine (workers pick up shards dynamically); results never depend on
    /// either knob.
    size_t num_shards = 0;
    /// Pool eligible Kalman predictors into per-shard structure-of-arrays
    /// FilterPools swept by a batched PredictAll each tick (see
    /// fleet/pool.h). Bit-identical to the per-object path — pinned by
    /// tests/pool_test.cc — so this is purely a performance knob; turning
    /// it off forces every source onto the virtual Predictor path (the
    /// per-object baseline BM_FleetTick_1M measures against). Predictors
    /// that cannot pool (adapt_r configs, non-Kalman policies) always
    /// use the per-object path regardless.
    bool pooling = true;
    /// Vectorized (lane-per-slot SIMD) sweep kernels. Bit-identical on or
    /// off — pinned by tests/batch_kernels_test.cc — so purely a bench/CI
    /// knob.
    bool simd = true;
    /// Transport seam: when set, every source's uplink channel comes from
    /// this factory instead of `new Channel(config)` — e.g. a socket
    /// backend (net/transport.h) so the fleet's traffic crosses a real
    /// wire. The factory receives the per-source config (seed already
    /// derived); the fleet wires the receiver and metrics exactly as for
    /// a simulated channel, so NetworkStats books stay comparable across
    /// backends (pinned by tests/transport_test.cc).
    using ChannelFactory = std::function<std::unique_ptr<Channel>(
        int32_t id, const Channel::Config& config)>;
    ChannelFactory uplink_factory;
    /// Same seam for the server -> source control downlink.
    ChannelFactory control_factory;
  };

  ShardedFleet();
  explicit ShardedFleet(Config config);

  /// Adds a source; returns its id (sequential from 0). The predictor
  /// prototype is cloned for the agent and the server replica; all RNG
  /// seeds derive from (config.seed, id) only. Not thread-safe; add
  /// sources before the first Step or between Steps.
  int32_t AddSource(std::unique_ptr<StreamGenerator> generator,
                    std::unique_ptr<Predictor> predictor, double delta);

  /// Advances the whole system one stream tick: shards in parallel, then
  /// the barrier. On error the first failing shard's status (lowest shard
  /// index) is returned — deterministically, regardless of thread
  /// interleaving. With the telemetry plane on, a self-merge snapshot
  /// that fails to decode is returned as well.
  Status Step();

  /// Runs `ticks` steps, stopping on the first error.
  Status Run(size_t ticks);

  ShardedServer& server() { return server_; }
  const ShardedServer& server() const { return server_; }

  size_t num_sources() const { return by_id_.size(); }
  int64_t ticks() const { return ticks_; }
  size_t num_shards() const { return server_.num_shards(); }
  size_t threads() const { return pool_.threads(); }

  const SourceAgent& agent(int32_t id) const { return *by_id_[id]->agent; }
  /// Changes a source's precision bound (adaptive allocation). Driver
  /// thread only, between Steps.
  void SetDelta(int32_t id, double delta) {
    by_id_[id]->agent->set_delta(delta);
  }

  /// Ground truth of the source's latest sample (scalar streams).
  double TruthOf(int32_t id) const {
    return by_id_[id]->last_sample.truth.scalar();
  }
  const Sample& LastSampleOf(int32_t id) const {
    return by_id_[id]->last_sample;
  }
  /// Data messages this source has sent so far: every uplink send except
  /// heartbeats (INIT, re-INITs, corrections, full syncs) — RunLink's
  /// LinkReport::messages for one source of the fleet.
  int64_t MessagesOf(int32_t id) const;

  int64_t TotalMessages() const;
  int64_t TotalBytes() const;
  /// Server-to-source control traffic (SET_BOUND pushes).
  int64_t TotalControlMessages() const;

  /// Shard-local uplink NetworkStats merged on read (driver thread, after
  /// the barrier): the fleet-wide sent/delivered/dropped/bytes/per-type
  /// accounting the overhead experiments report.
  NetworkStats TotalNetworkStats() const;

  // --- Telemetry ---

  /// Turns on per-shard metric arenas (ShardedServer::EnableMetrics) and
  /// binds every source's uplink, control channel, and agent — including
  /// sources added later — to its owning shard's arena. Also registers
  /// the wall-clock kc.fleet.step_latency_us histogram on the driver
  /// arena. Idempotent; call before the Steps you want recorded.
  void EnableMetrics();
  bool metrics_enabled() const { return server_.metrics_enabled(); }

  /// Merges shard arenas (shard order) then the driver arena into `out`.
  /// Driver thread, after Step returns. Deterministic across `threads`.
  void MergeMetricsInto(obs::MetricRegistry* out) const {
    server_.MergeMetricsInto(out);
  }

  /// Turns on per-shard flight recorders (capacity events per source) and
  /// binds every source's agent AND replica to its shard's per-source
  /// ring — both ends of the protocol share one black box. Idempotent;
  /// covers sources added later.
  void EnableFlightRecorder(
      size_t capacity_per_source = obs::FlightRecorder::kDefaultCapacity);
  bool flight_recorder_enabled() const {
    return server_.flight_recorder_enabled();
  }

  /// Turns on the per-shard filter-health watchdogs and feeds them from
  /// every agent (ticks, NIS, decisions) and replica (resync requests).
  /// Idempotent; covers sources added later.
  void EnableHealth(const obs::HealthConfig& config = {});
  bool health_enabled() const { return server_.health_enabled(); }

  /// Turns on the per-shard precision auditors and the end-to-end sample
  /// feed: every `config.sample_every` ticks each shard worker compares,
  /// for each of its sources, the replica-side answer against the
  /// agent-side contract target (the fleet owns both ends, so this is
  /// ground truth, not an estimate) and hands the auditor the error, the
  /// in-force bound, staleness, and quarantine state. On a lossless
  /// channel containment is exactly 100% by the paper's guarantee; any
  /// violation is an injected fault or a bug. Sampling runs inside the
  /// shard's step (single writer, no locks, no allocations); merged
  /// reports come from ShardedServer::AuditReport*. Idempotent; covers
  /// sources added later.
  void EnableAudit(const obs::AuditConfig& config = {});
  bool audit_enabled() const { return server_.audit_enabled(); }

  /// Turns on windowed metric time-series: after the barrier of every
  /// `every_n_ticks`-th Step the merged registry is snapshotted into the
  /// store's rings (counter deltas, gauge lasts, windowed histogram
  /// percentiles — see obs/timeseries.h). Requires EnableMetrics (called
  /// implicitly). Idempotent.
  void EnableTimeseries(int64_t every_n_ticks,
                        obs::TimeSeriesConfig config = {});
  bool timeseries_enabled() const { return timeseries_ != nullptr; }
  const obs::TimeSeriesStore* timeseries() const { return timeseries_.get(); }

  /// Starts the scrapeable HTTP telemetry endpoint (obs/http_exporter.h)
  /// on 127.0.0.1:`port` (0 = ephemeral; see http()->port()) and
  /// republishes /metrics, /healthz, /audit, and /timeseries snapshots
  /// after the barrier of every `publish_every_n_ticks`-th Step (plus
  /// once at startup). Requires EnableMetrics (called implicitly).
  Status EnableHttpTelemetry(int port, int64_t publish_every_n_ticks = 64);
  obs::TelemetryHttpServer* http() { return http_.get(); }

  /// Turns on the distributed-telemetry plane in self-merge mode: after
  /// the barrier of every `every_n_ticks`-th Step, the merged registry is
  /// encoded through the snapshot codec (obs/snapshot.h) and absorbed by
  /// a RemoteTelemetryMerger exactly as a split deployment's server
  /// absorbs its client's snapshots — so the single-process run exercises
  /// the same codec/merge path the split smoke pins, and /metrics gains
  /// the same kc.remote.client.* namespaced rows. Deterministic: rows are
  /// merged in shard order, and the only run-dependent products
  /// (kc.telemetry.snapshot_bytes, remote copies of wall-clock rows) are
  /// wall_clock-flagged, so deterministic exports stay bit-identical for
  /// any thread count. Requires EnableMetrics (called implicitly).
  /// Idempotent.
  void EnableTelemetryPlane(int64_t every_n_ticks = 32);
  bool telemetry_plane_enabled() const { return telemetry_merger_ != nullptr; }
  const obs::RemoteTelemetryMerger* telemetry_merger() const {
    return telemetry_merger_.get();
  }

  /// Fleet-wide deterministic dumps (empty when the facility is off);
  /// driver thread, after the barrier. Forwarded from ShardedServer.
  std::string DumpFlightRecorderText() const {
    return server_.DumpFlightRecorderText();
  }
  std::string HealthSummaryText() const { return server_.HealthSummaryText(); }
  std::string AuditReportText() const { return server_.AuditReportText(); }
  std::string AuditReportJson() const { return server_.AuditReportJson(); }
  obs::AuditDoc AuditReportDoc() const { return server_.AuditReportDoc(); }
  std::string AuditSummaryLine() const { return server_.AuditSummaryLine(); }
  obs::HealthState HealthOf(int32_t id) const { return server_.HealthOf(id); }

 private:
  struct SourceSlot {
    int32_t id = 0;
    std::unique_ptr<StreamGenerator> generator;
    std::unique_ptr<Channel> channel;          ///< Uplink: source -> server.
    std::unique_ptr<Channel> control_channel;  ///< Downlink: server -> source.
    std::unique_ptr<SourceAgent> agent;
    Sample last_sample;
    obs::SourceAudit* audit = nullptr;  ///< Shard auditor entry (or null).
  };

  /// One shard's exclusively-owned simulation state. `sources` is kept in
  /// id order so a shard's work is independent of AddSource interleaving.
  struct Shard {
    std::vector<std::unique_ptr<SourceSlot>> sources;
    Status status;  ///< Sticky first error seen by this shard's worker.
  };

  void StepShard(size_t index);
  /// Binds one slot's channels and agent to its shard's arena.
  void BindSlotMetrics(SourceSlot* slot, size_t shard_index);
  /// Binds one slot's agent to its shard's recorder ring / watchdog entry
  /// (whichever facilities are enabled).
  void BindSlotObservability(SourceSlot* slot, size_t shard_index);
  /// Registers one slot with its shard's precision auditor (no-op when
  /// auditing is off).
  void BindSlotAudit(SourceSlot* slot, size_t shard_index);
  /// One shard's audit pass: samples every initialized source at `tick`
  /// (shard worker, inside the step — single writer, allocation-free).
  void AuditShard(size_t index, int64_t tick);
  /// Republishes every HTTP snapshot from the merged post-barrier view.
  void PublishTelemetry();

  Config config_;
  ShardedServer server_;
  std::vector<Shard> shards_;
  std::vector<SourceSlot*> by_id_;  ///< id -> slot (owned by its shard).
  ThreadPool pool_;
  int64_t ticks_ = 0;
  obs::Histogram* step_latency_us_ = nullptr;  ///< Wall-clock; driver arena.
  std::unique_ptr<obs::TimeSeriesStore> timeseries_;
  int64_t timeseries_every_ = 0;
  std::unique_ptr<obs::TelemetryHttpServer> http_;
  int64_t publish_every_ = 0;
  std::unique_ptr<obs::RemoteTelemetryMerger> telemetry_merger_;
  int64_t telemetry_every_ = 0;
  obs::Counter* telemetry_snapshots_ = nullptr;  ///< kc.telemetry.snapshots
  /// kc.telemetry.snapshot_bytes — wall-clock (varint sizes depend on
  /// wall-clock histogram values).
  obs::Counter* telemetry_snapshot_bytes_ = nullptr;
};

}  // namespace kc

#endif  // KALMANCAST_FLEET_SHARDED_FLEET_H_
