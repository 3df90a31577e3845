#ifndef KALMANCAST_SERVER_REPORT_H_
#define KALMANCAST_SERVER_REPORT_H_

#include <sstream>
#include <string>

#include "common/strings.h"
#include "server/server.h"

namespace kc {

/// Renders a human-readable status report of a stream server: per-source
/// bounded views, liveness, policies, query results, and archive depth.
/// This is the operator-facing "what does the server believe right now"
/// view used by the cql_shell example and useful in logs. `Server` is a
/// StreamServer or a fleet's ShardedServer — anything with the
/// StreamServer read API.
template <typename Server>
std::string DescribeServer(const Server& server) {
  std::ostringstream os;
  os << "server @ tick " << server.ticks() << ": "
     << server.num_sources() << " sources, " << server.num_queries()
     << " queries, " << server.messages_processed()
     << " messages processed\n";
  if (server.staleness_limit() > 0) {
    os << "staleness limit: " << server.staleness_limit() << " ticks\n";
  }

  os << "sources:\n";
  for (int32_t id : server.SourceIds()) {
    const ServerReplica* replica = server.replica(id);
    if (replica == nullptr) continue;
    os << "  s" << id << " [" << replica->predictor().name() << "] ";
    if (!replica->initialized()) {
      os << "(not initialized)\n";
      continue;
    }
    Vector value = replica->Value();
    os << "value=";
    if (value.size() == 1) {
      os << StrFormat("%.6g", value[0]);
    } else {
      os << value.ToString();
    }
    os << " +/-" << StrFormat("%.4g", replica->bound()) << " last_seq="
       << replica->last_heard_seq() << " msgs="
       << replica->messages_applied();
    if (server.IsStale(id)) os << " STALE";
    auto archive = server.Archive(id);
    if (archive.ok()) {
      os << " archive=" << (*archive)->size() << "pts";
    }
    os << "\n";
  }

  if (server.num_queries() > 0) {
    os << "queries:\n";
    for (const QueryResult& result : server.EvaluateAll()) {
      os << "  " << result.ToString() << "\n";
    }
  }
  return os.str();
}

}  // namespace kc

#endif  // KALMANCAST_SERVER_REPORT_H_
