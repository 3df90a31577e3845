#include "fleet/pool.h"

namespace kc {

std::unique_ptr<Predictor> MakePooledPredictor(const Predictor& prototype,
                                               FilterPoolSet* pools) {
  const auto* kp = dynamic_cast<const KalmanPredictor*>(&prototype);
  if (kp == nullptr) return nullptr;
  return std::make_unique<KalmanPredictor>(pools->InternConfig(kp->config()),
                                           pools);
}

}  // namespace kc
