#ifndef KALMANCAST_KALMAN_ADAPTIVE_H_
#define KALMANCAST_KALMAN_ADAPTIVE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "kalman/kalman_filter.h"

namespace kc {

/// Configuration for innovation-based adaptive noise estimation.
struct AdaptiveConfig {
  /// Number of recent innovations averaged when estimating noise levels
  /// (at least 2 are kept; see RingSize).
  size_t window = 32;
  /// Minimum updates before any adaptation kicks in.
  size_t warmup = 8;
  /// If true, rescale Q when the average NIS departs from its expected
  /// value (obs_dim) — this is how the filter tracks *time-varying stream
  /// dynamics* (the paper's adaptivity claim C3).
  bool adapt_q = true;
  /// If true, re-estimate R from the innovation sample covariance minus
  /// H P H^T — this is how the filter tracks *sensor noise* (claim C2).
  bool adapt_r = false;
  /// Exponential smoothing applied to each adaptation step (0 = frozen,
  /// 1 = jump immediately to the new estimate).
  double smoothing = 0.2;
  /// Clamp on the per-window Q scale factor, to keep a burst of outliers
  /// from destabilizing the filter.
  double max_scale_per_step = 10.0;
  double min_scale_per_step = 0.1;
  /// Floor applied to adapted variances (keeps Q, R positive definite).
  double variance_floor = 1e-12;

  /// Entries in the NIS (and innovation) history rings: `window`, raised
  /// to 2 so a window always averages more than the newest sample.
  size_t RingSize() const { return std::max<size_t>(window, 2); }

  bool operator==(const AdaptiveConfig&) const = default;
};

/// One filter's adaptive-Q state, viewed in place. The per-object
/// AdaptiveNoiseEstimator points it at its own members; a pooled filter
/// slot (fleet/pool.h) points it at its slab entries. Both then run the
/// single AdaptQAfterUpdate below, so the adaptation math exists once and
/// the two paths stay bit-identical.
struct AdaptiveQState {
  /// RingSize() entries: the NIS of update k (1-based) lives at index
  /// (k - 1) % RingSize(), so the ring holds the newest
  /// min(updates_seen, RingSize()) samples.
  double* nis_ring = nullptr;
  size_t* updates_seen = nullptr;
  /// Product of every Q scale applied since the last reset.
  double* cumulative_q_scale = nullptr;
  /// Q(r, c) of the state_dim x state_dim process noise lives at
  /// q[(r * state_dim + c) * q_stride] (1 for a dense Matrix, the lane
  /// count for a lane-interleaved slab).
  double* q = nullptr;
  size_t q_stride = 1;
};

/// Mean of the newest min(updates_seen, ring_size) ring entries, summed
/// oldest to newest — the order a FIFO window sums in, so every caller
/// gets the same bits. 0 when the ring is empty.
double RingMean(const double* ring, size_t ring_size, size_t updates_seen);

/// The Q half of one adaptation step, run after each successful
/// measurement update with that update's NIS: records the NIS in the
/// ring and counts the update; then, once `warmup` updates have been
/// seen and if `adapt_q` is set, moves Q toward the scale that brings
/// the windowed mean NIS back to its expectation obs_dim. The raw scale
/// is clamped to [min_scale_per_step, max_scale_per_step] and smoothed
/// in log space; a step within 1e-3 of 1 is skipped, otherwise every Q
/// entry is multiplied by it, the diagonal is floored at variance_floor
/// and the cumulative scale absorbs it.
void AdaptQAfterUpdate(const AdaptiveConfig& config, double nis,
                       size_t obs_dim, size_t state_dim,
                       const AdaptiveQState& state);

/// Innovation-based adaptive noise estimator.
///
/// The Kalman filter is only optimal when Q and R match reality; streams in
/// a DSMS drift (volatility regimes, sensor degradation). This monitor
/// watches the filter's innovation sequence and rescales Q and/or
/// re-estimates R so the normalized innovation squared (NIS) stays near its
/// chi-squared expectation. In the dual-filter protocol only the source's
/// private filter adapts: the server-view replicas keep the base model and
/// resynchronize through the state corrections the source ships.
///
/// History lives in fixed rings sized once from the window (the innovation
/// ring only when adapt_r is set), so steady-state updates never touch the
/// heap.
class AdaptiveNoiseEstimator {
 public:
  explicit AdaptiveNoiseEstimator(AdaptiveConfig config = {});

  /// Call after each successful filter.Update(); reads the innovation
  /// diagnostics and possibly adjusts filter.mutable_model().
  void AfterUpdate(KalmanFilter& filter);

  /// Clears history (e.g. after a filter Reset).
  void Reset();

  /// Average NIS over the current window (0 if empty).
  double WindowedNis() const;
  /// Cumulative Q scale applied so far (1.0 = untouched).
  double cumulative_q_scale() const { return cumulative_q_scale_; }
  size_t window_fill() const {
    return std::min(updates_seen_, nis_ring_.size());
  }

  const AdaptiveConfig& config() const { return config_; }

 private:
  AdaptiveConfig config_;
  std::vector<double> nis_ring_;
  /// Innovation outer products for R estimation, same indexing as
  /// nis_ring_; empty unless adapt_r.
  std::vector<Matrix> outer_ring_;
  double cumulative_q_scale_ = 1.0;
  size_t updates_seen_ = 0;
};

}  // namespace kc

#endif  // KALMANCAST_KALMAN_ADAPTIVE_H_
