#ifndef KALMANCAST_SERVER_SIMULATION_H_
#define KALMANCAST_SERVER_SIMULATION_H_

#include <cstdint>

namespace kc {

/// Deterministic per-source seed derivation for the fleet driver
/// (src/fleet/sharded_fleet.h) and every harness that rebuilds its
/// sources. Every stochastic component of a simulated source — its
/// generator, its uplink channel, its control downlink — draws from an
/// RNG seeded purely from (fleet seed, source id). Because no seed
/// depends on shard assignment or thread count, a fleet's trajectory is
/// bit-identical for any --threads/--shards configuration: the
/// determinism contract the scalability experiments rely on.
inline uint64_t SourceGeneratorSeed(uint64_t fleet_seed, int32_t id) {
  return fleet_seed + static_cast<uint64_t>(id) * 7919;
}
inline uint64_t SourceUplinkSeed(uint64_t fleet_seed, int32_t id) {
  return fleet_seed ^ (static_cast<uint64_t>(id) << 17);
}
inline uint64_t SourceControlSeed(uint64_t fleet_seed, int32_t id) {
  return fleet_seed ^ (static_cast<uint64_t>(id) << 29);
}

}  // namespace kc

#endif  // KALMANCAST_SERVER_SIMULATION_H_
