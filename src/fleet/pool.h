#ifndef KALMANCAST_FLEET_POOL_H_
#define KALMANCAST_FLEET_POOL_H_

#include <memory>

#include "suppression/filter_pool.h"
#include "suppression/predictor.h"

namespace kc {

/// If `prototype` is a KalmanPredictor, returns an equivalent one whose
/// filters are slots in `pools` (the shard's set, which must outlive it),
/// with its config interned there; nullptr for every other predictor
/// (EKF/IMM-style policies stay on their own path).
std::unique_ptr<Predictor> MakePooledPredictor(const Predictor& prototype,
                                               FilterPoolSet* pools);

}  // namespace kc

#endif  // KALMANCAST_FLEET_POOL_H_
