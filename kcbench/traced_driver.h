#ifndef KCBENCH_TRACED_DRIVER_H_
#define KCBENCH_TRACED_DRIVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/sharded_server.h"
#include "fleet/thread_pool.h"
#include "net/channel.h"
#include "net/message.h"
#include "obs/trace.h"
#include "streams/generator.h"
#include "suppression/agent.h"
#include "suppression/replica.h"
#include "workload_inputs.h"

namespace kcbench {

/// L-infinity distance between the replica's answer and the agent's
/// contract target: the quantity the protocol bounds by replica.bound().
double AnswerError(const kc::ServerReplica& replica,
                   const kc::SourceAgent& agent);

/// Busy time of each phase of the traced tick, in nanoseconds, summed
/// over the ticks driven (and, for shard phases, over shards).
struct PhaseTotals {
  int64_t sweep_ns = 0;    ///< ShardedServer::SweepPools.
  int64_t tick_ns = 0;     ///< ShardedServer::TickShard(s, false).
  int64_t advance_ns = 0;  ///< Channel::AdvanceTick, uplink + control.
  int64_t next_ns = 0;     ///< StreamGenerator::Next.
  int64_t offer_ns = 0;    ///< SourceAgent::Offer self time (minus apply).
  int64_t apply_ns = 0;    ///< StreamServer::OnMessage, nested in Offer.
  int64_t audit_ns = 0;    ///< Replica-vs-agent comparison + auditor.
  int64_t query_ns = 0;    ///< ShardedServer::EvaluateDue.
  int64_t shard_wall_ns = 0;  ///< Each shard worker's wall, entry to exit.

  int64_t applied = 0;          ///< Messages applied by OnMessage.
  int64_t apply_rejected = 0;   ///< OnMessage calls that returned non-OK.
  int64_t audit_samples = 0;
  int64_t audit_contained = 0;
  int64_t query_members = 0;    ///< Member sources of evaluated queries.

  /// Shard phase busy time (tick + advance + next + offer + apply +
  /// audit) summed over shards and ticks.
  int64_t ShardPhaseNs() const {
    return tick_ns + advance_ns + next_ns + offer_ns + apply_ns + audit_ns;
  }
};

/// Drives the sources a ShardedFleet would build from the same inputs,
/// phase by phase through public calls, timing each phase per shard:
///
///   1. SweepPools  2. TickShard per shard  3. every AdvanceTick
///   4. every Next  5. every Offer  6. the audit comparison
///   7. EvaluateDue
///
/// StepShard interleaves 3-5 per source instead; since a shard's sources
/// never touch each other's state, the resulting state — and so every
/// message and byte — is identical to the fleet's for the same seed.
class PhaseDriver {
 public:
  explicit PhaseDriver(const FleetInputs& inputs);
  PhaseDriver(const PhaseDriver&) = delete;
  PhaseDriver& operator=(const PhaseDriver&) = delete;

  /// One tick. When `keep_spans`, the tick's phase spans (one per phase
  /// per shard, plus the driver thread's sweep and query spans) are kept for
  /// TakeSpans. Returns the first non-OK Offer status, if any.
  kc::Status Step(bool keep_spans);

  /// Phase totals over every Step so far.
  PhaseTotals Totals() const;
  /// Wall time of each Step (sweep + fan-out + queries), in ms.
  const std::vector<double>& tick_ms() const { return tick_ms_; }
  /// Per Step: slowest shard worker's wall ÷ mean shard worker wall.
  const std::vector<double>& shard_imbalance() const { return imbalance_; }
  /// Per shard: phase busy time ÷ worker wall over the whole run.
  std::vector<double> ShardPhaseSumRatios() const;

  int64_t TotalMessages() const;
  int64_t TotalBytes() const;
  /// Control downlink bytes sent (SET_BOUND / RESYNC_REQUEST).
  int64_t ControlBytes() const;
  /// Sources whose predictor went onto a shard filter pool.
  int32_t pooled_sources() const { return pooled_; }
  /// Up to a few hundred uplink messages per shard as applied, in
  /// delivery order: the message mix the codec is timed on.
  std::vector<kc::Message> CapturedMessages() const;
  /// The kept spans (driver track 0, shard s on track s + 1).
  std::vector<kc::obs::TraceEvent> TakeSpans();

 private:
  struct Slot {
    int32_t id = 0;
    std::unique_ptr<kc::StreamGenerator> generator;
    std::unique_ptr<kc::Channel> channel;
    std::unique_ptr<kc::Channel> control;
    std::unique_ptr<kc::SourceAgent> agent;
    kc::Sample sample;
    kc::obs::SourceAudit* audit = nullptr;
  };
  /// One shard's slots and its worker's accumulators (single writer).
  struct Shard {
    std::vector<Slot*> slots;
    PhaseTotals totals;
    kc::Status status;
    int64_t last_wall_ns = 0;
    std::vector<kc::Message> captured;
    std::vector<kc::obs::TraceEvent> spans;
  };

  void StepShard(size_t index, bool keep_spans);

  kc::ShardedServer server_;
  std::vector<Shard> shards_;
  /// Destroyed before server_: agents release pooled slots into its pools.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::map<std::string, int64_t> query_members_;  ///< Members per query.
  PhaseTotals driver_;  ///< Sweep and query phases (driver thread).
  std::vector<double> tick_ms_;
  std::vector<double> imbalance_;
  std::vector<kc::obs::TraceEvent> spans_;
  int32_t pooled_ = 0;
  /// Declared last: joins its workers before the state they touch goes.
  kc::ThreadPool pool_;
};

}  // namespace kcbench

#endif  // KCBENCH_TRACED_DRIVER_H_
