#ifndef KALMANCAST_QUERY_PARSER_H_
#define KALMANCAST_QUERY_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "server/query.h"

namespace kc {

/// Parses the kalmancast continuous-query language into a QuerySpec.
///
/// Grammar (keywords case-insensitive; sources are "s<N>" or bare ids):
///
///   query   := SELECT agg '(' source (',' source)* ')'
///              [FROM number TO number] [WHEN ('>'|'<') number]
///              [WITHIN number] [EVERY integer]
///   agg     := VALUE | SUM | AVG | MIN | MAX
///
/// FROM..TO makes the query historical: the aggregate runs over the
/// server's archived per-tick views of a single source (see
/// ShardedServer::EnableArchiving).
///
/// Examples:
///   SELECT VALUE(s3) WITHIN 0.5
///   SELECT AVG(s0, s1, s2) WITHIN 1.0 EVERY 10
///   SELECT MAX(s0, s1) WHEN > 40 WITHIN 0.25
///   SELECT AVG(s2) FROM 100 TO 200
StatusOr<QuerySpec> ParseQuery(std::string_view input);

}  // namespace kc

#endif  // KALMANCAST_QUERY_PARSER_H_
