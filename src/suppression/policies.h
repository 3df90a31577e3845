#ifndef KALMANCAST_SUPPRESSION_POLICIES_H_
#define KALMANCAST_SUPPRESSION_POLICIES_H_

#include <memory>
#include <optional>

#include "kalman/adaptive.h"
#include "kalman/kalman_filter.h"
#include "suppression/predictor.h"

namespace kc {

namespace obs {
class Counter;
}  // namespace obs

class FilterPool;
class FilterPoolSet;

/// Olston-style approximate caching — the paper's principal baseline.
/// The server holds the last shipped value; prediction is constant between
/// corrections. Correction payload: the new value. Contract-exact: after a
/// correction the server holds the measurement itself.
class ValueCachePredictor : public Predictor {
 public:
  explicit ValueCachePredictor(size_t dims = 1);

  void Init(const Reading& first) override;
  void Tick() override {}
  Vector Predict() const override { return cached_; }
  std::vector<double> EncodeCorrection(const Reading& measured) const override;
  Status ApplyCorrection(int64_t seq, double time,
                         const std::vector<double>& payload) override;
  std::vector<double> EncodeFullState() const override { return cached_.data(); }
  Status ApplyFullState(const std::vector<double>& payload) override {
    return ApplyCorrection(0, 0.0, payload);
  }
  std::unique_ptr<Predictor> Clone() const override;
  std::string name() const override { return "value_cache"; }
  size_t dims() const override { return dims_; }

 private:
  size_t dims_;
  Vector cached_;
};

/// Two-point dead reckoning — the fixed linear-prediction baseline.
/// Prediction extrapolates the line through the last two corrections; the
/// slope is derived identically on both replicas from the shipped values,
/// so the payload is no bigger than value caching's. Contract-exact.
class LinearPredictor : public Predictor {
 public:
  /// `dt` must equal the stream's tick spacing.
  explicit LinearPredictor(size_t dims = 1, double dt = 1.0);

  void Init(const Reading& first) override;
  void Tick() override { now_ += dt_; }
  Vector Predict() const override;
  std::vector<double> EncodeCorrection(const Reading& measured) const override;
  Status ApplyCorrection(int64_t seq, double time,
                         const std::vector<double>& payload) override;
  /// [base_time, now, base..., slope...] — the complete extrapolator.
  std::vector<double> EncodeFullState() const override;
  Status ApplyFullState(const std::vector<double>& payload) override;
  std::unique_ptr<Predictor> Clone() const override;
  std::string name() const override { return "linear"; }
  size_t dims() const override { return dims_; }

 private:
  size_t dims_;
  double dt_;
  double now_ = 0.0;
  double base_time_ = 0.0;
  Vector base_;
  Vector slope_;
};

/// Client-side exponential smoothing: the source maintains a private EWMA
/// of its measurements (the protected Target()); the server caches the last
/// shipped level. Resists shipping corrections for pure noise. Corrections
/// carry the private level, so the contract is exact against the smoothed
/// signal.
class EwmaPredictor : public Predictor {
 public:
  explicit EwmaPredictor(size_t dims = 1, double alpha = 0.5);

  void Init(const Reading& first) override;
  void Tick() override {}
  void ObserveLocal(const Reading& measured) override;
  Vector Target() const override { return level_; }
  Vector Predict() const override { return cached_; }
  std::vector<double> EncodeCorrection(const Reading& measured) const override;
  Status ApplyCorrection(int64_t seq, double time,
                         const std::vector<double>& payload) override;
  /// [level..., cached...] — private smoother plus server-visible hold.
  std::vector<double> EncodeFullState() const override;
  Status ApplyFullState(const std::vector<double>& payload) override;
  std::unique_ptr<Predictor> Clone() const override;
  std::string name() const override { return "ewma"; }
  size_t dims() const override { return dims_; }

 private:
  size_t dims_;
  double alpha_;
  Vector level_;   ///< Client-private smoothed signal.
  Vector cached_;  ///< Server-visible shipped level.
};

/// The paper's contribution: a dual Kalman filter.
///
/// State-sync modes (the default, matching the paper's "cache a dynamic
/// procedure" semantics): the source runs a private filter over every
/// measurement; the server replica predicts by pure time-updates of the
/// last shipped state; when the replica's prediction drifts more than
/// delta from the private estimate, the source ships its state and the two
/// coincide again — the contract is exact against the filtered signal.
///
/// Measurement-sync mode (E9 ablation, Olston-adjacent): corrections carry
/// the raw observation and both replicas fold it in with an identical
/// Update(); cheapest payload, but the post-update residual can briefly
/// exceed delta on jumps.
///
/// Both filters — the shadow (server view) and the private (client) one —
/// are slots in a FilterPool (suppression/filter_pool.h): the shard's
/// pool set when MakePooledPredictor moved the predictor there, otherwise
/// a private pool the predictor allocates at its first Init (never at
/// construction or Clone, so clones stay cheap). With an adaptive config
/// the private slot adapts its own Q (and R) after every successful
/// update; the shadow never adapts. Every operation is bit-identical to
/// the same protocol run on two KalmanFilters and an
/// AdaptiveNoiseEstimator (pinned by tests/pool_test.cc).
///
/// Predict epochs: Tick() and ObserveLocal() advance per-predictor tick
/// counters and ask the pool to catch the slot up (PredictSlotUpTo). When
/// the owning shard runs FilterPoolSet::PredictAll once per tick, the
/// catch-up is a no-op and the time updates happen in the batched sweep;
/// on a private pool the catch-up does the predicts itself. Either way
/// each slot sees exactly one time update per protocol tick.
///
/// The private filter's slot is materialized lazily at first use: a
/// server-side replica clone never observes locally, so its private slot
/// is never created and the batched sweep never wastes a time update on
/// state nobody reads.
class KalmanPredictor : public Predictor {
 public:
  /// What a correction carries and how replicas resynchronize.
  enum class SyncMode {
    kState,        ///< Ship x only (server ignores covariance). Default.
    kStateAndCov,  ///< Ship x and P (server can report uncertainty).
    kMeasurement,  ///< Ship z; both replicas Update(z).
  };

  struct Config {
    StateSpaceModel model;
    SyncMode sync_mode = SyncMode::kState;
    /// Initial state variance put on every state component at Init.
    double init_var = 100.0;
    /// Innovation-based adaptation of the private filter (client side).
    std::optional<AdaptiveConfig> adaptive;
    KalmanFilter::UpdateForm update_form = KalmanFilter::UpdateForm::kJoseph;
    /// If > 0 (e.g. 0.999), readings whose NIS against the private filter
    /// exceeds this chi-squared quantile are treated as sensor outliers:
    /// skipped by the filter rather than shipped to the server (state-sync
    /// modes only). A run of `outlier_gate_limit` consecutive rejections
    /// is accepted as a genuine jump, so the gate cannot wedge the filter.
    double outlier_gate_prob = 0.0;
    int outlier_gate_limit = 3;
  };

  /// A predictor on its own private pool.
  explicit KalmanPredictor(Config config);
  /// A predictor whose slots come from `pools` (the shard's set, which
  /// must outlive it), or from a private pool when `pools` is null.
  /// Clones share `config` and `pools`.
  KalmanPredictor(std::shared_ptr<const Config> config, FilterPoolSet* pools);
  ~KalmanPredictor() override;
  KalmanPredictor(const KalmanPredictor&) = delete;
  KalmanPredictor& operator=(const KalmanPredictor&) = delete;

  void Init(const Reading& first) override;
  void Tick() override;
  void ObserveLocal(const Reading& measured) override;
  Vector Target() const override;
  Vector Predict() const override;
  std::vector<double> EncodeCorrection(const Reading& measured) const override;
  Status ApplyCorrection(int64_t seq, double time,
                         const std::vector<double>& payload) override;
  std::vector<double> EncodeFullState() const override;
  Status ApplyFullState(const std::vector<double>& payload) override;
  /// Registers kc.kalman.{outliers_rejected,gate_forced_accepts,
  /// filter_resets} on the arena and mirrors those events onto it.
  void BindMetrics(obs::MetricRegistry* registry) override;
  /// NIS of the last ObserveLocal reading against the private filter —
  /// the gate's statistic when gating ran, the update's otherwise; -1 in
  /// measurement-sync mode (no private filter).
  double LastNis() const override { return last_nis_; }
  int64_t OutliersRejected() const override { return outliers_rejected_; }
  std::unique_ptr<Predictor> Clone() const override;
  std::string name() const override;
  size_t dims() const override { return config_->model.obs_dim(); }

  const Config& config() const { return *config_; }
  /// Readings rejected by the innovation gate so far (source side).
  int64_t outliers_rejected() const { return outliers_rejected_; }
  /// The pool holding this predictor's slots (nullptr before Init).
  const FilterPool* pool() const { return pool_; }
  int32_t shadow_slot() const { return shadow_slot_; }
  /// The private slot, or -1 while it is still pending (see above).
  int32_t private_slot() const { return private_slot_; }

 private:
  /// Arena counter handles, cached at bind time; null until BindMetrics.
  struct Metrics {
    obs::Counter* outliers_rejected = nullptr;
    obs::Counter* forced_accepts = nullptr;
    obs::Counter* filter_resets = nullptr;
  };

  /// Materializes the private slot from the Init reading if it is still
  /// pending (state-sync modes only).
  void EnsurePrivateSlot();
  void ReleaseSlots();

  std::shared_ptr<const Config> config_;
  FilterPoolSet* pools_;  ///< The shard's set; null for a private pool.
  std::unique_ptr<FilterPool> own_pool_;  ///< The private pool, if any.
  FilterPool* pool_ = nullptr;            ///< Resolved at first Init.
  Metrics metrics_;
  int32_t shadow_slot_ = -1;   ///< FilterPool::kNoSlot until Init.
  int32_t private_slot_ = -1;  ///< FilterPool::kNoSlot while pending.
  /// True between Init and the first private-slot use (lazy acquisition).
  bool private_pending_ = false;
  /// The Init reading's value, kept so a pending private slot can be
  /// materialized with the same x0/P0 Init would have used.
  Vector init_value_;
  double gate_threshold_ = 0.0;  ///< Chi-squared NIS cutoff (0 = no gate).
  int consecutive_rejects_ = 0;
  int64_t outliers_rejected_ = 0;
  double last_nis_ = -1.0;  ///< See LastNis().
  int64_t shadow_ticks_ = 0;   ///< Tick() calls since Init.
  int64_t private_ticks_ = 0;  ///< ObserveLocal() calls since Init.
  /// Reusable payload -> Vector scratch for measurement-sync corrections.
  Vector z_scratch_;
};

/// Convenience factory: a scalar state-sync dual-KF predictor over a
/// random-walk model with adaptive process noise — the recommended default
/// for unknown scalar streams.
std::unique_ptr<Predictor> MakeDefaultKalmanPredictor(double process_var,
                                                      double obs_var);

}  // namespace kc

#endif  // KALMANCAST_SUPPRESSION_POLICIES_H_
