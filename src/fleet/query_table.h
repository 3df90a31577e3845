#ifndef KALMANCAST_FLEET_QUERY_TABLE_H_
#define KALMANCAST_FLEET_QUERY_TABLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/query.h"
#include "suppression/replica.h"

namespace kc {

class ShardedServer;

/// Query evaluation over a ShardedServer. Every lookup routes to the
/// owning shard, which is what lets one query span sources scattered over
/// many shards while every shard keeps exclusive ownership of its replicas
/// and archives.
///
/// Live aggregates touch the server only to resolve member ids to replica
/// handles; value, bound and the stale/degraded/health flags are then read
/// straight from each replica. A handle stays valid until its source is
/// unregistered, and every RegisterSource/UnregisterSource moves
/// ShardedServer::registration_epoch(), so handles resolved at one epoch
/// may be reused for as long as the epoch is unchanged.

/// Evaluates a spec against the server: live aggregates resolve each
/// member once and read its replica; historical specs (FROM..TO / LAST n)
/// read the single source's archive. A LAST n window larger than the
/// recorded history is clamped to the archive's oldest time rather than
/// silently querying t < 0.
StatusOr<QueryResult> EvaluateSpecOn(const ShardedServer& server,
                                     const QuerySpec& spec,
                                     const std::string& name);

/// ShardedServer's registered-continuous-query table: name -> spec plus
/// the EVERY-cadence bookkeeping that EvaluateDue needs.
///
/// Each live query keeps a member plan: its members' replica handles in
/// spec order, resolved when the query is added and re-resolved on the
/// first evaluation after the server's registration_epoch() moves. An
/// unregistered member so re-resolves to null and the query fails with
/// NotFound; a re-registered id picks up its new replica. The plan also
/// owns the per-query value/bound scratch, so a steady-state evaluation
/// allocates nothing per member.
///
/// Not thread-safe, including the const evaluators, which refresh plans
/// in place: the driver evaluates queries from one thread after the tick
/// barrier, when no shard worker is touching a replica.
class QueryTable {
 public:
  /// Validates the spec (every source it references must exist on
  /// `server` and be scalar) and registers it. Fails if the name is taken.
  Status Add(const ShardedServer& server, const std::string& name,
             QuerySpec spec);

  Status Remove(const std::string& name);

  /// Evaluates one registered query now.
  StatusOr<QueryResult> Evaluate(const ShardedServer& server,
                                 const std::string& name) const;

  /// Evaluates every registered query (order: by name). Evaluation errors
  /// are folded into the result name.
  std::vector<QueryResult> EvaluateAll(const ShardedServer& server) const;

  /// Evaluates exactly the queries whose EVERY cadence has elapsed since
  /// their previous due evaluation, and marks them evaluated.
  std::vector<QueryResult> EvaluateDue(const ShardedServer& server);

  /// Registered query names (sorted).
  std::vector<std::string> Names() const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    QuerySpec spec;
    int64_t last_due_eval = -1;  ///< Tick of the last EvaluateDue() firing.
    /// The member plan (live specs only; see the class comment).
    mutable std::vector<const ServerReplica*> members;
    mutable uint64_t plan_epoch = 0;
    mutable std::vector<double> values;
    mutable std::vector<double> bounds;
  };

  /// Evaluates one entry into `result`. `epoch` is the server's current
  /// registration epoch; a plan resolved at another epoch is re-resolved
  /// first.
  static Status EvaluateEntry(const ShardedServer& server, uint64_t epoch,
                              const std::string& name, const Entry& entry,
                              QueryResult* result);

  std::map<std::string, Entry> entries_;
};

}  // namespace kc

#endif  // KALMANCAST_FLEET_QUERY_TABLE_H_
