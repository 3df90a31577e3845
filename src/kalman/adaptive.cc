#include "kalman/adaptive.h"

#include <algorithm>
#include <cmath>

#include "linalg/decomp.h"

namespace kc {

double RingMean(const double* ring, size_t ring_size, size_t updates_seen) {
  const size_t fill = std::min(updates_seen, ring_size);
  if (fill == 0) return 0.0;
  double sum = 0.0;
  size_t i = (updates_seen - fill) % ring_size;  // The oldest entry.
  for (size_t n = 0; n < fill; ++n) {
    sum += ring[i];
    if (++i == ring_size) i = 0;
  }
  return sum / static_cast<double>(fill);
}

void AdaptQAfterUpdate(const AdaptiveConfig& config, double nis,
                       size_t obs_dim, size_t state_dim,
                       const AdaptiveQState& state) {
  const size_t ring_size = config.RingSize();
  state.nis_ring[*state.updates_seen % ring_size] = nis;
  const size_t seen = ++*state.updates_seen;
  if (seen < config.warmup || !config.adapt_q) return;

  // Expected NIS is obs_dim. A sustained excess means the model's
  // uncertainty is too small: inflate Q. A deficit means Q is too large:
  // deflate (slowly) to regain suppression.
  double expected = static_cast<double>(obs_dim);
  double avg = RingMean(state.nis_ring, ring_size, seen);
  if (!(avg > 0.0)) return;
  double raw_scale = avg / expected;
  raw_scale = std::clamp(raw_scale, config.min_scale_per_step,
                         config.max_scale_per_step);
  // Smooth in log space so inflation and deflation are symmetric.
  double log_step = config.smoothing * std::log(raw_scale);
  double scale = std::exp(log_step);
  if (!(std::fabs(scale - 1.0) > 1e-3)) return;
  const size_t stride = state.q_stride;
  for (size_t i = 0; i < state_dim * state_dim; ++i) {
    state.q[i * stride] *= scale;
  }
  for (size_t i = 0; i < state_dim; ++i) {
    double& diag = state.q[(i * state_dim + i) * stride];
    diag = std::max(diag, config.variance_floor);
  }
  *state.cumulative_q_scale *= scale;
}

AdaptiveNoiseEstimator::AdaptiveNoiseEstimator(AdaptiveConfig config)
    : config_(config) {
  config_.window = config_.RingSize();
  nis_ring_.assign(config_.window, 0.0);
  if (config_.adapt_r) outer_ring_.resize(config_.window);
}

void AdaptiveNoiseEstimator::AfterUpdate(KalmanFilter& filter) {
  if (filter.update_count() == 0) return;
  Matrix& q = filter.mutable_model().q;
  AdaptQAfterUpdate(config_, filter.last_nis(), filter.obs_dim(),
                    filter.state_dim(),
                    {nis_ring_.data(), &updates_seen_, &cumulative_q_scale_,
                     q.data().data(), /*q_stride=*/1});
  if (!config_.adapt_r) return;

  const Vector& nu = filter.last_innovation();
  outer_ring_[(updates_seen_ - 1) % outer_ring_.size()] =
      Matrix::Outer(nu, nu);
  const size_t fill = window_fill();
  if (updates_seen_ < config_.warmup || fill < config_.warmup) return;

  // Sample innovation covariance C ≈ H P- H^T + R, so R ≈ C - H P H^T.
  size_t m = filter.obs_dim();
  Matrix c(m, m);
  for (size_t k = updates_seen_ - fill; k < updates_seen_; ++k) {
    c += outer_ring_[k % outer_ring_.size()];
  }
  c *= 1.0 / static_cast<double>(fill);
  Matrix hph = Sandwich(filter.model().h, filter.covariance());
  Matrix r_hat = c - hph;
  // Clamp to a PD matrix: floor the diagonal, zero wildly negative mass.
  for (size_t i = 0; i < m; ++i) {
    r_hat(i, i) = std::max(r_hat(i, i), config_.variance_floor);
  }
  r_hat.Symmetrize();
  if (Cholesky(r_hat).ok()) {
    Matrix& r = filter.mutable_model().r;
    // Exponential smoothing toward the estimate.
    r = (1.0 - config_.smoothing) * r + config_.smoothing * r_hat;
    r.Symmetrize();
  }
}

void AdaptiveNoiseEstimator::Reset() {
  cumulative_q_scale_ = 1.0;
  updates_seen_ = 0;
}

double AdaptiveNoiseEstimator::WindowedNis() const {
  return RingMean(nis_ring_.data(), nis_ring_.size(), updates_seen_);
}

}  // namespace kc
