#ifndef KALMANCAST_SERVER_SPLIT_DEPLOY_H_
#define KALMANCAST_SERVER_SPLIT_DEPLOY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/channel.h"
#include "streams/generator.h"
#include "suppression/agent.h"
#include "suppression/predictor.h"
#include "suppression/replica.h"

namespace kc {

/// Split-process deployment: the source fleet and the stream server run
/// as separate OS processes joined by real sockets (net/transport.h) —
/// the distributed shape the paper's sensor networks assume.
///
/// Topology (one port, two protocols):
///  - UDP `port`: the uplink. Every agent in the client process shares
///    one datagram socket; frames carry source_id, the server demuxes.
///  - TCP `port`: the control plane. RESYNC_REQUEST / SET_BOUND ride it
///    server -> client, and transport-level tick barriers client ->
///    server keep the two processes' stream clocks lockstep.
///
/// Both halves are the in-process fleet's own halves over sockets
/// (implemented in kc_fleet). The client half is a one-shard SourceFleet
/// (fleet/sharded_fleet.h) whose two links are the UDP and TCP sockets: it
/// drives the clock, each tick stepping the source half (control
/// deliveries, then every source's sample and offer) and then sending a
/// tick barrier, so its agents decide exactly as ShardedFleet's do. The
/// server half is a one-shard ShardedServer (fleet/sharded_server.h): it
/// ticks once per barrier and applies whatever the uplink delivered, so
/// it answers exactly what an in-process ShardedFleet answers. Closing
/// the TCP connection ends the run; the server drains a short grace
/// window and reports.
///
/// Byte-accounting parity: the client's uplink SentLine() and the
/// server's uplink DeliveredLine() are comparable, string for string,
/// with a simulated fleet running the same seed and workload — the CI
/// smoke in scripts/ci_asan.sh pins exactly that.

/// Workload + wiring shared by both halves. Sources are identified by
/// dense ids [0, num_sources); all per-source state is derived from the
/// factories so the two processes (and the simulated reference run)
/// construct identical fleets.
struct SplitConfig {
  std::string host = "127.0.0.1";
  int port = 0;
  size_t ticks = 2880;
  int32_t num_sources = 0;
  /// Fleet seed: generators are Reset with SourceGeneratorSeed(seed, id),
  /// identically to ShardedFleet.
  uint64_t seed = 1;
  AgentConfig agent_base;      ///< delta is overridden per source.
  std::vector<double> deltas;  ///< Per-source precision bounds.
  /// Server-side loss recovery (real UDP loses datagrams under load).
  ReplicaRecoveryConfig recovery;
  /// How long the server waits for the client to connect.
  int accept_timeout_ms = 30000;

  // --- Distributed telemetry plane (docs/OBSERVABILITY.md,
  // "Distributed telemetry"; 0 = off) ---

  /// Snapshot cadence: every N ticks the client encodes its metric
  /// registry, recent trace spans, and drained send-timestamp log into a
  /// telemetry snapshot (obs/snapshot.h) and ships it over the control
  /// stream as an uncharged escape frame; the server's merger folds it
  /// into kc.remote.client.* rows. Also enables per-tick clock probes
  /// (offset + wire-latency attribution) and the remote black-box pull.
  int64_t telemetry_every = 0;
  /// Server-side HTTP telemetry endpoint: -1 = off, 0 = ephemeral port,
  /// >0 = that port. One scrape of /metrics covers both processes.
  int http_port = -1;
  /// Keeps the server's HTTP endpoint alive this many seconds after the
  /// client disconnects, so post-run scrapes see the final merged state.
  int serve_seconds = 0;
  /// Called once the HTTP endpoint is listening (resolved port).
  std::function<void(int port)> on_http_ready;
  /// Enables trace rings on both halves and a stitched cross-process
  /// Chrome trace (SplitServerReport::trace_json): client spans are
  /// rebased onto the server clock via the estimated offset and rendered
  /// as pid 1 ("fleet-client") next to the server's pid 0
  /// ("stream-server").
  bool trace = false;
};

/// Per-source factories. The predictor factory is called once per source
/// on each side (agent replica in the client, server replica in the
/// server), so both processes clone the same prototype by construction.
using GeneratorFactory =
    std::function<std::unique_ptr<StreamGenerator>(int32_t id)>;
using PredictorFactory =
    std::function<std::unique_ptr<Predictor>(int32_t id)>;

/// What the client half reports after the run.
struct SplitClientReport {
  NetworkStats uplink;   ///< Send-side books (SentLine is the CI surface).
  NetworkStats control;  ///< Control endpoint books (delivered = received).
  int64_t ticks = 0;
  int64_t corrections = 0;
  int64_t suppressed = 0;
  int64_t resyncs_served = 0;
  double suppression_ratio = 0.0;
  // Telemetry plane (zero / -1 when telemetry_every == 0):
  int64_t snapshots_sent = 0;
  int64_t clock_samples = 0;          ///< Accepted ping/pong round trips.
  int64_t clock_offset_ns = 0;        ///< Final estimate (server - client).
  int64_t clock_uncertainty_ns = -1;  ///< best RTT / 2; -1 = no estimate.
  int64_t blackbox_dumps_served = 0;  ///< Flight-recorder pulls answered.
};

/// What the server half reports after the run.
struct SplitServerReport {
  NetworkStats uplink;   ///< Delivery-side books (DeliveredLine).
  NetworkStats control;  ///< Send-side books of the control plane.
  int64_t ticks = 0;            ///< Tick barriers processed.
  int64_t frames_rejected = 0;  ///< Malformed datagrams discarded.
  int32_t initialized = 0;      ///< Replicas that saw INIT.
  int64_t resyncs_requested = 0;
  double mean_value = 0.0;  ///< Mean of replica answers at end (scalar).
  // Telemetry plane (zero / empty when telemetry_every == 0):
  int64_t snapshots_merged = 0;
  int64_t latency_matched = 0;    ///< Send records joined to arrivals.
  int64_t latency_unmatched = 0;  ///< Sends the wire genuinely lost.
  int64_t clock_offset_ns = 0;    ///< As reported by the client's last
                                  ///< snapshot.
  int64_t clock_uncertainty_ns = -1;
  int http_port = 0;        ///< Bound telemetry port (0 = endpoint off).
  std::string trace_json;   ///< Stitched cross-process trace (trace on).
  /// Flight-recorder dumps pulled from the client over the control
  /// channel (one per source whose replica requested a resync).
  std::vector<std::string> remote_black_boxes;
};

/// Runs the source-fleet half: connects to a listening server at
/// config.host:config.port, drives config.ticks ticks, closes, reports.
StatusOr<SplitClientReport> RunSplitClient(
    const SplitConfig& config, const GeneratorFactory& make_generator,
    const PredictorFactory& make_predictor);

/// Runs the server half: listens on config.host:config.port, serves one
/// client until it disconnects, reports. `progress` (optional) is called
/// once per processed tick barrier.
StatusOr<SplitServerReport> RunSplitServer(
    const SplitConfig& config, const PredictorFactory& make_predictor,
    const std::function<void(int64_t tick)>& progress = nullptr);

}  // namespace kc

#endif  // KALMANCAST_SERVER_SPLIT_DEPLOY_H_
