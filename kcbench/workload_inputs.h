#ifndef KCBENCH_WORKLOAD_INPUTS_H_
#define KCBENCH_WORKLOAD_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/sharded_fleet.h"
#include "server/query.h"
#include "streams/generator.h"
#include "suppression/predictor.h"

namespace kcbench {

/// One continuous query, as CQL text and (after ParseQueries) parsed.
struct QueryText {
  std::string name;
  std::string cql;
  kc::QuerySpec spec;
};

/// Everything a fleet workload hands the program: the generated sources
/// and the fleet configuration. Made from the seed alone; the untraced
/// ShardedFleet and the traced phase driver consume the same inputs.
struct FleetInputs {
  kc::ShardedFleet::Config config;
  std::vector<std::unique_ptr<kc::StreamGenerator>> generators;
  std::unique_ptr<kc::Predictor> predictor;  ///< Cloned per source.
  std::vector<double> deltas;
  std::vector<QueryText> queries;
  bool metrics = false;
  /// Fleet precision audit cadence in ticks; 0 = no observability.
  int64_t audit_every = 0;
};

/// pooled_quiet: random walks under a wide bound, every source pooled.
FleetInputs MakePooledQuietInputs(uint64_t seed);

/// The sensor_network example's sensors (diurnal temperature, weather
/// drift, 0.3 Gaussian noise) with variance-proportional bounds for an
/// average budget of 0.25, probed from the seed. Shared by sensor_queries
/// and split_loopback.
struct SensorSet {
  std::vector<std::unique_ptr<kc::StreamGenerator>> generators;
  std::vector<double> deltas;
};
SensorSet MakeSensors(uint64_t seed);
/// The sensors' predictor: MakeDefaultKalmanPredictor(0.01, 0.09).
std::unique_ptr<kc::Predictor> MakeSensorPredictor();

/// sensor_queries: MakeSensors plus AVG/MIN/MAX queries in CQL, metrics
/// and audit on, two threads.
FleetInputs MakeSensorQueriesInputs(uint64_t seed);

/// Parses every query's CQL into its spec; returns false (after printing
/// the error) on a parse failure.
bool ParseQueries(std::vector<QueryText>* queries);

/// Builds the untraced fleet from `inputs` (sources cloned, so the inputs
/// stay usable) and registers its queries.
std::unique_ptr<kc::ShardedFleet> BuildFleet(const FleetInputs& inputs);

}  // namespace kcbench

#endif  // KCBENCH_WORKLOAD_INPUTS_H_
