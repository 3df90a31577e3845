#ifndef KALMANCAST_FLEET_SHARDED_FLEET_H_
#define KALMANCAST_FLEET_SHARDED_FLEET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fleet/sharded_server.h"
#include "fleet/thread_pool.h"
#include "net/channel.h"
#include "obs/http_exporter.h"
#include "obs/timeseries.h"
#include "streams/generator.h"
#include "suppression/agent.h"

namespace kc {

/// The source half of a fleet: ShardedFleet steps each shard next to its
/// ShardedServer shard, the split client (server/split_deploy.h) steps
/// one shard whose links are its UDP and TCP sockets. A shard owns its
/// sources (generator + agent) in id order, so its work is independent of
/// AddSource interleaving, and one uplink and one control link shared by
/// all of them (each source keeps its own draw stream, see
/// Channel::AddSource), or with a factory one link per source.
class SourceFleet {
 public:
  struct Config {
    using ChannelFactory = std::function<std::unique_ptr<Channel>(
        int32_t id, const Channel::Config& config)>;

    uint64_t seed = 1;
    AgentConfig agent_base;  ///< delta is overridden per source.
    Channel::Config channel;
    /// Server -> source downlink (SET_BOUND, RESYNC_REQUEST answers ride
    /// the uplink; only the requests themselves travel here). On both
    /// links the seed is overridden per source, so downlink faults are as
    /// deterministic as uplink ones.
    Channel::Config control_channel;
    /// Transport seam: when set, every source gets an uplink channel of
    /// its own from this factory instead of a lane on its shard's link —
    /// e.g. a socket backend (net/transport.h) so the fleet's traffic
    /// crosses a real wire. The factory receives the per-source config
    /// (seed already derived); the fleet wires the receiver and metrics
    /// exactly as for a simulated link, so NetworkStats books stay
    /// comparable across backends (pinned by tests/transport_test.cc).
    ChannelFactory uplink_factory;
    /// Same seam for the server -> source control downlink.
    ChannelFactory control_factory;
  };

  /// What a shard's new sources bind to (each may be null): the server's
  /// shard bundle in-process, the split client's registry and recorder.
  struct ShardObs {
    obs::MetricRegistry* metrics = nullptr;
    obs::FlightRecorder* recorder = nullptr;
    obs::HealthMonitor* health = nullptr;
    obs::PrecisionAuditor* audit = nullptr;
  };

  struct Source {
    int32_t id = 0;
    std::unique_ptr<StreamGenerator> generator;
    Channel* control = nullptr;  ///< Downlink: server -> source.
    std::unique_ptr<SourceAgent> agent;
    Sample last_sample;
    obs::SourceAudit* audit = nullptr;  ///< Shard auditor entry (or null).
  };

  SourceFleet(Config config, size_t num_shards);

  /// Makes `uplink` and `control` the shard's shared links, as given (the
  /// caller binds their metrics); the control link delivers into this
  /// fleet's demux. Before the shard's first source; not with a factory.
  void AdoptLinks(size_t shard, std::unique_ptr<Channel> uplink,
                  std::unique_ptr<Channel> control);

  /// Adds a source on `shard`; returns its id (sequential from 0). Its
  /// generator is Reset with SourceGeneratorSeed(config.seed, id); its
  /// agent owns `predictor`, suppresses against `delta` and binds to
  /// `obs`. A link built for it delivers into `uplink_receiver`.
  int32_t AddSource(size_t shard, std::unique_ptr<StreamGenerator> generator,
                    std::unique_ptr<Predictor> predictor, double delta,
                    const ShardObs& obs, Channel::Receiver uplink_receiver);

  /// The source side of one tick on `shard`: in-flight deliveries, once
  /// per link (the uplinks, then the control links, so delayed SET_BOUND /
  /// RESYNC_REQUEST traffic reaches the agents before this tick's offers),
  /// then every source samples and offers its reading. Sources share no
  /// state, and nothing sent this tick is due before the next, so this is
  /// the per-source interleaving exactly. An Offer error sticks.
  void StepShard(size_t shard);

  /// The first failing shard's sticky error (lowest index), else OK.
  Status status() const;

  /// Sends a control message on its addressed source's control link.
  Status SendControl(const Message& msg);

  size_t num_sources() const { return by_id_.size(); }
  const Source& source(int32_t id) const { return *by_id_[id]; }
  Source& source(int32_t id) { return *by_id_[id]; }
  /// A shard's sources, in id order.
  const std::vector<std::unique_ptr<Source>>& sources(size_t shard) const {
    return shards_[shard].sources;
  }

  /// Send-side totals: the uplinks' and control links' books merged, and
  /// every agent's stats summed.
  NetworkStats TotalNetworkStats() const { return Merged(&Shard::uplinks); }
  NetworkStats TotalControlNetworkStats() const {
    return Merged(&Shard::controls);
  }
  AgentStats TotalAgentStats() const;

 private:
  using Links = std::vector<std::unique_ptr<Channel>>;

  struct Shard {
    Links uplinks;
    Links controls;
    std::vector<std::unique_ptr<Source>> sources;
    Status status;  ///< Sticky first error seen by this shard's stepper.
  };

  /// Hands source `id` a lane (seeded `seed`) on its shard's shared link
  /// of one kind (built from `config` with the first source unless
  /// adopted), or a link of its own from `factory`. A new link gets
  /// `receiver` and binds to `arena`.
  Channel* AttachLink(Links Shard::*links,
                      const Config::ChannelFactory& factory,
                      const Channel::Config& config, uint64_t seed,
                      int32_t id, Shard& shard, obs::MetricRegistry* arena,
                      Channel::Receiver receiver);
  /// Downlink demux: hands `msg` to its addressed agent.
  void OnControl(const Message& msg);
  NetworkStats Merged(Links Shard::*links) const;

  Config config_;
  std::vector<Shard> shards_;
  std::vector<Source*> by_id_;  ///< id -> source (owned by its shard).
};

/// The sharded, multi-threaded fleet simulation: a SourceFleet feeding a
/// ShardedServer, both partitioned into the same shards and driven in
/// parallel by a persistent worker pool. A Step() runs one worker per
/// shard — the shard's server tick, then its source side
/// (SourceFleet::StepShard) — with zero cross-shard traffic: a shard
/// exclusively owns its sources, links, replicas and archives, and every
/// RNG stream they draw from. The ParallelFor join is the barrier;
/// queries, stats, and archives are then read from the merged view on
/// the driver thread.
///
/// Determinism contract: every RNG seed derives from (config.seed,
/// source id) alone — see SourceGeneratorSeed and friends in
/// server/simulation.h — and shard assignment is a fixed hash of the id,
/// so per-source answers, query results, and merged NetworkStats are
/// bit-identical for ANY `threads` and ANY `num_shards` — including the
/// sequential reference {threads=1, num_shards=1}, which steps every
/// source in id order — and with `pooling` on or off.
class ShardedFleet {
 public:
  /// The source half's fields (seed, agent_base, channel configs and the
  /// uplink_factory / control_factory seam) plus the server side's.
  struct Config : SourceFleet::Config {
    /// Loss-tolerant replica recovery, applied to every shard when
    /// enabled (see ReplicaRecoveryConfig).
    ReplicaRecoveryConfig recovery;
    /// Worker threads driving shards (1 = fully sequential, no workers).
    size_t threads = 1;
    /// Shard count; 0 picks max(threads, 8). More shards than threads is
    /// fine (workers pick up shards dynamically); results never depend on
    /// either knob.
    size_t num_shards = 0;
    /// Move every KalmanPredictor onto its shard's swept pools (the
    /// per-shard FilterPoolSet a batched PredictAll advances each tick,
    /// see fleet/pool.h); off, each predictor keeps one private pool and
    /// does its own time updates (the baseline BM_FleetTick_1M measures
    /// against). Bit-identical either way — pinned by tests/pool_test.cc
    /// — so purely a performance knob. Non-Kalman policies never pool.
    bool pooling = true;
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
  /// interleaving.
  Status Step();

  /// Runs `ticks` steps, stopping on the first error.
  Status Run(size_t ticks);

  ShardedServer& server() { return server_; }
  const ShardedServer& server() const { return server_; }

  size_t num_sources() const { return source_.num_sources(); }
  int64_t ticks() const { return ticks_; }
  size_t num_shards() const { return server_.num_shards(); }
  size_t threads() const { return pool_.threads(); }

  const SourceAgent& agent(int32_t id) const {
    return *source_.source(id).agent;
  }
  /// Changes a source's precision bound (adaptive allocation). Driver
  /// thread only, between Steps.
  void SetDelta(int32_t id, double delta) {
    source_.source(id).agent->set_delta(delta);
  }

  /// Ground truth of the source's latest sample (scalar streams).
  double TruthOf(int32_t id) const {
    return source_.source(id).last_sample.truth.scalar();
  }
  const Sample& LastSampleOf(int32_t id) const {
    return source_.source(id).last_sample;
  }
  /// Data messages this source has sent so far: every uplink send except
  /// heartbeats (INIT, re-INITs, corrections, full syncs) — RunLink's
  /// LinkReport::messages for one source of the fleet.
  int64_t MessagesOf(int32_t id) const {
    const SourceAgent& a = agent(id);
    return a.messages_sent() - a.stats().heartbeats;
  }

  int64_t TotalMessages() const { return TotalNetworkStats().messages_sent; }
  int64_t TotalBytes() const { return TotalNetworkStats().bytes_sent; }

  /// The shards' uplink books merged on read (driver thread, after the
  /// barrier): the fleet-wide sent/delivered/dropped/bytes/per-type
  /// accounting the overhead experiments report.
  NetworkStats TotalNetworkStats() const {
    return source_.TotalNetworkStats();
  }
  /// The same merge over the server -> source control downlinks
  /// (SET_BOUND pushes and RESYNC_REQUESTs).
  NetworkStats TotalControlNetworkStats() const {
    return source_.TotalControlNetworkStats();
  }

  // --- Telemetry ---
  //
  // Every Enable* is legal only before the first AddSource: afterwards it
  // returns FailedPrecondition and changes nothing. AddSource binds each
  // new source once, both ends, to whatever its shard's observability
  // bundle holds (ShardedServer's "Per-shard observability"). Before the
  // first source each Enable* is idempotent and they may come in any
  // order.

  /// Turns on per-shard metric arenas (ShardedServer::EnableMetrics): every
  /// shard's uplink and control link, and every agent, record into the
  /// owning shard's arena. Also registers the wall-clock
  /// kc.fleet.step_latency_us histogram on the driver arena.
  Status EnableMetrics();
  bool metrics_enabled() const { return server_.metrics_enabled(); }

  /// Merges shard arenas (shard order) then the driver arena into `out`.
  /// Driver thread, after Step returns. Deterministic across `threads`.
  void MergeMetricsInto(obs::MetricRegistry* out) const {
    server_.MergeMetricsInto(out);
  }

  /// Turns on per-shard flight recorders (capacity events per source):
  /// every source's agent AND replica record into its shard's per-source
  /// ring — both ends of the protocol share one black box.
  Status EnableFlightRecorder(
      size_t capacity_per_source = obs::FlightRecorder::kDefaultCapacity) {
    return server_.EnableFlightRecorder(capacity_per_source);
  }
  bool flight_recorder_enabled() const {
    return server_.flight_recorder_enabled();
  }

  /// Turns on the per-shard filter-health watchdogs, fed by every agent
  /// (ticks, NIS, decisions) and replica (resync requests).
  Status EnableHealth(const obs::HealthConfig& config = {}) {
    return server_.EnableHealth(config);
  }
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
  /// reports come from ShardedServer::AuditReport*.
  Status EnableAudit(const obs::AuditConfig& config = {}) {
    return server_.EnableAudit(config);
  }
  bool audit_enabled() const { return server_.audit_enabled(); }

  /// Turns on windowed metric time-series: after the barrier of every
  /// `every_n_ticks`-th Step the merged registry is snapshotted into the
  /// store's rings (counter deltas, gauge lasts, windowed histogram
  /// percentiles — see obs/timeseries.h). Requires EnableMetrics (called
  /// implicitly).
  Status EnableTimeseries(int64_t every_n_ticks,
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
  /// One shard's tick: the server shard, then its source side.
  void StepShard(size_t index);
  /// One shard's audit pass: samples every initialized source at `tick`
  /// (shard worker, inside the step — single writer, allocation-free).
  void AuditShard(size_t index, int64_t tick);
  /// Republishes every HTTP snapshot from `merged`, the post-barrier
  /// registry merge.
  void PublishTelemetry(const obs::MetricRegistry& merged);

  Config config_;
  ShardedServer server_;
  /// After server_: agents release their pool slots into its pool sets.
  SourceFleet source_;
  ThreadPool pool_;
  int64_t ticks_ = 0;
  obs::Histogram* step_latency_us_ = nullptr;  ///< Wall-clock; driver arena.
  std::unique_ptr<obs::TimeSeriesStore> timeseries_;
  int64_t timeseries_every_ = 0;
  std::unique_ptr<obs::TelemetryHttpServer> http_;
  int64_t publish_every_ = 0;
};

}  // namespace kc

#endif  // KALMANCAST_FLEET_SHARDED_FLEET_H_
