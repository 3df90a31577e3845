#ifndef KALMANCAST_SERVER_QUERY_EVAL_H_
#define KALMANCAST_SERVER_QUERY_EVAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
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

/// Read-only view of a set of sources that query evaluation runs against.
///
/// StreamServer implements it for a single shard; ShardedServer
/// (src/fleet) implements it across shards by routing each lookup to the
/// owning shard. Keeping evaluation against this interface is what lets
/// one query span sources scattered over many shards while every shard
/// keeps exclusive ownership of its replicas and archives.
///
/// Live aggregates touch the view only to resolve member ids to replica
/// handles; value, bound and the stale/degraded/health flags are then read
/// straight from each replica. A handle stays valid until its source is
/// unregistered, and every RegisterSource/UnregisterSource moves
/// registration_epoch(), so handles resolved at one epoch may be reused
/// for as long as the epoch is unchanged.
class SourceView {
 public:
  virtual ~SourceView() = default;

  /// Direct replica access; nullptr if unknown.
  virtual const ServerReplica* replica(int32_t source_id) const = 0;

  /// The archive for one source; error if archiving is disabled or the
  /// source is unknown/non-scalar.
  virtual StatusOr<const TickArchive*> Archive(int32_t source_id) const = 0;

  /// The view's stream clock (ticks elapsed).
  virtual int64_t ticks() const = 0;

  /// A counter that changes on every source registration or removal
  /// anywhere in the view, and on nothing else.
  virtual uint64_t registration_epoch() const = 0;
};

/// Checks that every source a spec references exists in the view and is
/// scalar (aggregates are defined over scalar sources only).
Status ValidateSpecSources(const SourceView& view, const QuerySpec& spec);

/// Evaluates a spec against the view: live aggregates resolve each member
/// once and read its replica; historical specs (FROM..TO / LAST n) read
/// the single source's archive. A LAST n window larger than the recorded
/// history is clamped to the archive's oldest time rather than silently
/// querying t < 0.
StatusOr<QueryResult> EvaluateSpecOn(const SourceView& view,
                                     const QuerySpec& spec,
                                     const std::string& name);

/// The registered-continuous-query table shared by StreamServer and
/// ShardedServer: name -> spec plus the EVERY-cadence bookkeeping that
/// EvaluateDue needs.
///
/// Each live query keeps a member plan: its members' replica handles in
/// spec order, resolved when the query is added and re-resolved on the
/// first evaluation after the view's registration_epoch() moves. An
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
  /// Validates the spec (including its sources against `view`) and
  /// registers it. Fails if the name is taken.
  Status Add(const SourceView& view, const std::string& name, QuerySpec spec);

  Status Remove(const std::string& name);

  StatusOr<QuerySpec> Get(const std::string& name) const;

  /// Evaluates one registered query now.
  StatusOr<QueryResult> Evaluate(const SourceView& view,
                                 const std::string& name) const;

  /// Evaluates every registered query (order: by name). Evaluation errors
  /// are folded into the result name, matching StreamServer semantics.
  std::vector<QueryResult> EvaluateAll(const SourceView& view) const;

  /// Evaluates exactly the queries whose EVERY cadence has elapsed since
  /// their previous due evaluation, and marks them evaluated.
  std::vector<QueryResult> EvaluateDue(const SourceView& view);

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

  /// Evaluates one entry into `result`. `epoch` is the view's current
  /// registration epoch; a plan resolved at another epoch is re-resolved
  /// first.
  static Status EvaluateEntry(const SourceView& view, uint64_t epoch,
                              const std::string& name, const Entry& entry,
                              QueryResult* result);

  std::map<std::string, Entry> entries_;
};

}  // namespace kc

#endif  // KALMANCAST_SERVER_QUERY_EVAL_H_
