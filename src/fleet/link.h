#ifndef KALMANCAST_FLEET_LINK_H_
#define KALMANCAST_FLEET_LINK_H_

#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "net/channel.h"
#include "obs/health.h"
#include "streams/generator.h"
#include "suppression/budget.h"
#include "suppression/replica.h"

namespace kc {

/// Configuration for a single source-to-server link experiment.
struct LinkConfig {
  size_t ticks = 10000;
  /// Precision bound (overrides agent.delta).
  double delta = 1.0;
  uint64_t seed = 1;
  AgentConfig agent;
  Channel::Config channel;
  /// Server -> source control downlink (RESYNC_REQUESTs travel here; the
  /// agent's answers ride the uplink). Lossy/faulty configs are honoured
  /// just like the uplink's.
  Channel::Config control_channel;
  /// Loss-tolerant replica recovery (disabled by default: the lossless
  /// lockstep protocol, exactly as before).
  ReplicaRecoveryConfig recovery;
  /// When set, run in resource-constrained mode: the controller steers
  /// delta to hit the message budget instead of holding it fixed.
  std::optional<BudgetConfig> budget;
  /// When > 0, both ends of the link record their protocol decisions into
  /// a shared per-source flight-recorder ring of this capacity; the dump
  /// lands in LinkReport::black_box.
  size_t flight_recorder_capacity = 0;
  /// When true, the filter-health watchdog runs over the link and its
  /// verdict lands in LinkReport::{health,health_summary}.
  bool health = false;
  obs::HealthConfig health_config;
};

/// Everything the experiment tables report about one link run.
struct LinkReport {
  std::string policy;
  std::string stream;
  double delta = 0.0;  ///< Configured (initial) precision bound.
  int64_t ticks = 0;

  int64_t messages = 0;  ///< Data messages (INIT + corrections + syncs).
  int64_t bytes = 0;
  double messages_per_tick = 0.0;

  /// |server view - contract target| each tick; the protocol guarantee.
  RunningStats err_vs_target;
  /// |server view - raw measurement| each tick.
  RunningStats err_vs_measured;
  /// |server view - noiseless ground truth| each tick — the scientifically
  /// interesting accuracy (only differs from measured under sensor noise).
  RunningStats err_vs_truth;
  /// Ticks where err_vs_target exceeded the in-force delta (should be 0
  /// for contract-exact policies on a lossless channel).
  int64_t contract_violations = 0;

  AgentStats agent;
  NetworkStats net;
  /// Control-downlink traffic (RESYNC_REQUESTs; empty when recovery off).
  NetworkStats control_net;
  /// Recovery-protocol activity (all zero when recovery is disabled).
  int64_t gaps = 0;               ///< Wire-seq gap events at the replica.
  int64_t resyncs_requested = 0;  ///< RESYNC_REQUESTs the replica emitted.
  int64_t resyncs_served = 0;     ///< Resyncs the agent answered.
  int64_t degraded_ticks = 0;     ///< Ticks spent desynced (quarantined).
  /// delta in force at the end (differs from `delta` in budget mode).
  double final_delta = 0.0;

  /// Watchdog verdict at end of run (kOk unless LinkConfig::health).
  obs::HealthState health = obs::HealthState::kOk;
  /// One-line watchdog summary (empty unless LinkConfig::health).
  std::string health_summary;
  /// Flight-recorder dump of the run's tail (empty unless
  /// LinkConfig::flight_recorder_capacity > 0).
  std::string black_box;

  /// Ok, or the first failed tick's error (e.g. a reading the agent
  /// rejects); the run stops at that tick and the report covers the ticks
  /// before it.
  Status status;

  std::string ToString() const;
};

/// One tick of a link run, for the figure-style benches that print time
/// series: the server's view next to truth and the in-force bound.
struct TrajectoryPoint {
  double time = 0.0;
  double truth = 0.0;
  double measured = 0.0;
  double server_view = 0.0;
  double delta = 0.0;
  bool message_sent = false;
  int64_t cumulative_messages = 0;
};

/// Runs one generator against one suppression policy for config.ticks and
/// reports communication and error statistics. The link is a one-source
/// ShardedFleet (one thread, one shard), the pooled production path; its
/// two channels are built from config.channel/control_channel as given,
/// seeds included. The fleet runs clones of `generator` (Reset to
/// config.seed) and of `prototype` (one per end), so the caller's objects
/// are untouched. When `trajectory` is set, every tick with an initialized
/// replica appends one point to it.
LinkReport RunLink(const StreamGenerator& generator, const Predictor& prototype,
                   const LinkConfig& config,
                   std::vector<TrajectoryPoint>* trajectory = nullptr);

}  // namespace kc

#endif  // KALMANCAST_FLEET_LINK_H_
