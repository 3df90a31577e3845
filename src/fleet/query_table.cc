#include "fleet/query_table.h"

#include <algorithm>

#include "common/strings.h"
#include "fleet/sharded_server.h"

namespace kc {

namespace {

/// Checks that every source a spec references exists on the server and
/// is scalar (aggregates are defined over scalar sources only).
Status ValidateSpecSources(const ShardedServer& server,
                           const QuerySpec& spec) {
  for (int32_t id : spec.sources) {
    const ServerReplica* replica = server.replica(id);
    if (replica == nullptr) {
      return Status::NotFound(
          StrFormat("query references unknown source %d", id));
    }
    if (replica->predictor().dims() != 1) {
      return Status::InvalidArgument(
          StrFormat("source %d is not scalar; aggregates need scalar "
                    "sources",
                    id));
    }
  }
  return Status::Ok();
}

/// Resolves every member of `spec` to its replica handle (null if
/// unknown), in spec order.
void ResolveMembers(const ShardedServer& server, const QuerySpec& spec,
                    std::vector<const ServerReplica*>* members) {
  members->clear();
  for (int32_t id : spec.sources) members->push_back(server.replica(id));
}

/// How many members ahead of the one being read the pass prefetches.
/// Post-barrier, every replica was last written by a shard worker on
/// another core, so a member's first reads miss; starting them a few
/// members early overlaps those misses.
constexpr size_t kPrefetchAhead = 8;

/// Prefetches every cache line of one replica (no-op for null).
void PrefetchReplica(const ServerReplica* replica) {
  if (replica == nullptr) return;
  const char* bytes = reinterpret_cast<const char*>(replica);
  for (size_t off = 0; off < sizeof(ServerReplica); off += 64) {
    __builtin_prefetch(bytes + off);
  }
}

/// The live-aggregate pass: one walk over the resolved members reads each
/// replica's value, bound and flags, then aggregates in member order.
/// Errors report the first member (in spec order) that is unknown,
/// uninitialized or non-scalar. `values`/`bounds` are scratch.
Status EvaluateMembers(const QuerySpec& spec,
                       const std::vector<const ServerReplica*>& members,
                       std::vector<double>* values,
                       std::vector<double>* bounds, QueryResult* result) {
  values->clear();
  bounds->clear();
  bool stale = false;
  bool degraded = false;
  obs::HealthState health = obs::HealthState::kOk;
  for (size_t i = 0; i < members.size(); ++i) {
    if (i + kPrefetchAhead < members.size()) {
      PrefetchReplica(members[i + kPrefetchAhead]);
    }
    const ServerReplica* replica = members[i];
    const int32_t id = spec.sources[i];
    if (replica == nullptr) {
      return Status::NotFound(StrFormat("unknown source %d", id));
    }
    if (!replica->initialized()) {
      return Status::FailedPrecondition(
          StrFormat("source %d has not reported yet", id));
    }
    const Vector value = replica->Value();
    if (value.size() != 1) {
      return Status::InvalidArgument(StrFormat("source %d is not scalar", id));
    }
    values->push_back(value[0]);
    bounds->push_back(replica->bound());
    stale = stale || replica->stale();
    degraded = degraded || replica->desynced();
    health = std::max(health, replica->health());
  }
  result->value = AggregateValues(spec.kind, *values);
  result->bound = AggregateErrorBound(spec.kind, *bounds);
  result->meets_within = spec.within <= 0.0 || result->bound <= spec.within;
  result->stale = stale;
  result->degraded = degraded;
  result->health = health;
  if (spec.threshold.has_value()) {
    result->trigger = EvaluateTrigger(result->value, result->bound,
                                      *spec.threshold, spec.above);
  }
  return Status::Ok();
}

StatusOr<QueryResult> EvaluateHistorical(const ShardedServer& server,
                                         const QuerySpec& spec,
                                         const std::string& name) {
  auto archive = server.Archive(spec.sources.front());
  if (!archive.ok()) return archive.status();
  double from;
  double to;
  if (spec.last_ticks.has_value()) {
    // LAST n anchors to evaluation time: the most recent n archived
    // ticks. When n exceeds the recorded history the naive
    // ticks - n + 1 goes negative; clamp to the archive's oldest time.
    to = static_cast<double>(server.ticks());
    from = static_cast<double>(server.ticks() - *spec.last_ticks + 1);
    from = std::max(from, (*archive)->oldest_time());
  } else {
    from = *spec.from_time;
    to = *spec.to_time;
  }
  auto result = (*archive)->Aggregate(spec.kind, from, to);
  if (!result.ok()) return result.status();
  result->name = name;
  result->meets_within = spec.within <= 0.0 || result->bound <= spec.within;
  if (spec.threshold.has_value()) {
    result->trigger = EvaluateTrigger(result->value, result->bound,
                                      *spec.threshold, spec.above);
  }
  return result;
}

}  // namespace

StatusOr<QueryResult> EvaluateSpecOn(const ShardedServer& server,
                                     const QuerySpec& spec,
                                     const std::string& name) {
  KC_RETURN_IF_ERROR(spec.Validate());
  if (spec.IsHistorical()) return EvaluateHistorical(server, spec, name);
  std::vector<const ServerReplica*> members;
  members.reserve(spec.sources.size());
  ResolveMembers(server, spec, &members);
  std::vector<double> values;
  std::vector<double> bounds;
  values.reserve(spec.sources.size());
  bounds.reserve(spec.sources.size());
  QueryResult result;
  result.name = name;
  KC_RETURN_IF_ERROR(EvaluateMembers(spec, members, &values, &bounds, &result));
  return result;
}

Status QueryTable::Add(const ShardedServer& server, const std::string& name,
                       QuerySpec spec) {
  KC_RETURN_IF_ERROR(spec.Validate());
  if (entries_.count(name) > 0) {
    return Status::AlreadyExists("query name taken: " + name);
  }
  KC_RETURN_IF_ERROR(ValidateSpecSources(server, spec));
  Entry& entry = entries_[name];
  entry.spec = std::move(spec);
  if (!entry.spec.IsHistorical()) {
    ResolveMembers(server, entry.spec, &entry.members);
    entry.plan_epoch = server.registration_epoch();
    entry.values.reserve(entry.members.size());
    entry.bounds.reserve(entry.members.size());
  }
  return Status::Ok();
}

Status QueryTable::Remove(const std::string& name) {
  if (entries_.erase(name) == 0) {
    return Status::NotFound("unknown query: " + name);
  }
  return Status::Ok();
}

Status QueryTable::EvaluateEntry(const ShardedServer& server, uint64_t epoch,
                                 const std::string& name, const Entry& entry,
                                 QueryResult* result) {
  if (entry.spec.IsHistorical()) {
    auto historical = EvaluateHistorical(server, entry.spec, name);
    if (!historical.ok()) return historical.status();
    *result = std::move(*historical);
    return Status::Ok();
  }
  if (entry.plan_epoch != epoch) {
    ResolveMembers(server, entry.spec, &entry.members);
    entry.plan_epoch = epoch;
  }
  result->name = name;
  return EvaluateMembers(entry.spec, entry.members, &entry.values,
                         &entry.bounds, result);
}

StatusOr<QueryResult> QueryTable::Evaluate(const ShardedServer& server,
                                           const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown query: " + name);
  }
  QueryResult result;
  KC_RETURN_IF_ERROR(EvaluateEntry(server, server.registration_epoch(), name,
                                   it->second, &result));
  return result;
}

std::vector<QueryResult> QueryTable::EvaluateAll(
    const ShardedServer& server) const {
  const uint64_t epoch = server.registration_epoch();
  std::vector<QueryResult> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    QueryResult result;
    Status status = EvaluateEntry(server, epoch, name, entry, &result);
    if (!status.ok()) {
      result = QueryResult();
      result.name = name + " (error: " + status.ToString() + ")";
    }
    out.push_back(std::move(result));
  }
  return out;
}

std::vector<QueryResult> QueryTable::EvaluateDue(const ShardedServer& server) {
  const uint64_t epoch = server.registration_epoch();
  std::vector<QueryResult> out;
  for (auto& [name, entry] : entries_) {
    if (entry.last_due_eval >= 0 &&
        server.ticks() - entry.last_due_eval < entry.spec.every) {
      continue;
    }
    QueryResult result;
    // Unevaluable queries (uninitialized sources) stay due and retry on
    // the next tick rather than silently skipping a period.
    if (!EvaluateEntry(server, epoch, name, entry, &result).ok()) continue;
    entry.last_due_eval = server.ticks();
    out.push_back(std::move(result));
  }
  return out;
}

std::vector<std::string> QueryTable::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

}  // namespace kc
