#include "suppression/policies.h"

#include <cassert>

#include "common/chisq.h"
#include "obs/metrics.h"
#include "suppression/filter_pool.h"

namespace kc {

namespace {

/// Copies payload doubles into a Vector, validating length. Writes straight
/// into the destination's (usually inline) storage — no intermediate buffer.
Status PayloadToVector(const std::vector<double>& payload, size_t dims,
                       Vector* out) {
  if (payload.size() != dims) {
    return Status::InvalidArgument("correction payload has wrong size");
  }
  out->ResizeUninit(dims);
  for (size_t i = 0; i < dims; ++i) (*out)[i] = payload[i];
  return Status::Ok();
}

}  // namespace

// --------------------------------------------------------------- ValueCache

ValueCachePredictor::ValueCachePredictor(size_t dims)
    : dims_(dims), cached_(dims) {}

void ValueCachePredictor::Init(const Reading& first) {
  assert(first.value.size() == dims_);
  cached_ = first.value;
  last_observed_ = first;
}

std::vector<double> ValueCachePredictor::EncodeCorrection(
    const Reading& measured) const {
  return measured.value.data();
}

Status ValueCachePredictor::ApplyCorrection(int64_t /*seq*/, double /*time*/,
                                            const std::vector<double>& payload) {
  return PayloadToVector(payload, dims_, &cached_);
}

std::unique_ptr<Predictor> ValueCachePredictor::Clone() const {
  return std::make_unique<ValueCachePredictor>(dims_);
}

// ------------------------------------------------------------------- Linear

LinearPredictor::LinearPredictor(size_t dims, double dt)
    : dims_(dims), dt_(dt), base_(dims), slope_(dims) {}

void LinearPredictor::Init(const Reading& first) {
  assert(first.value.size() == dims_);
  base_ = first.value;
  slope_ = Vector(dims_);
  base_time_ = first.time;
  now_ = first.time;
  last_observed_ = first;
}

Vector LinearPredictor::Predict() const {
  return base_ + slope_ * (now_ - base_time_);
}

std::vector<double> LinearPredictor::EncodeCorrection(
    const Reading& measured) const {
  return measured.value.data();
}

Status LinearPredictor::ApplyCorrection(int64_t /*seq*/, double time,
                                        const std::vector<double>& payload) {
  Vector value;
  KC_RETURN_IF_ERROR(PayloadToVector(payload, dims_, &value));
  // Derive the new slope from the previous anchor — both replicas know it,
  // so the slope never has to be transmitted.
  double span = time - base_time_;
  if (span > 0.0) {
    slope_ = (value - base_) / span;
  } else {
    slope_ = Vector(dims_);
  }
  base_ = value;
  base_time_ = time;
  now_ = time;
  return Status::Ok();
}

std::vector<double> LinearPredictor::EncodeFullState() const {
  std::vector<double> buf;
  buf.reserve(2 + 2 * dims_);
  buf.push_back(base_time_);
  buf.push_back(now_);
  buf.insert(buf.end(), base_.data().begin(), base_.data().end());
  buf.insert(buf.end(), slope_.data().begin(), slope_.data().end());
  return buf;
}

Status LinearPredictor::ApplyFullState(const std::vector<double>& payload) {
  if (payload.size() != 2 + 2 * dims_) {
    return Status::InvalidArgument("linear full-state payload has wrong size");
  }
  base_time_ = payload[0];
  now_ = payload[1];
  for (size_t d = 0; d < dims_; ++d) {
    base_[d] = payload[2 + d];
    slope_[d] = payload[2 + dims_ + d];
  }
  return Status::Ok();
}

std::unique_ptr<Predictor> LinearPredictor::Clone() const {
  return std::make_unique<LinearPredictor>(dims_, dt_);
}

// --------------------------------------------------------------------- EWMA

EwmaPredictor::EwmaPredictor(size_t dims, double alpha)
    : dims_(dims), alpha_(alpha), level_(dims), cached_(dims) {}

void EwmaPredictor::Init(const Reading& first) {
  assert(first.value.size() == dims_);
  level_ = first.value;
  cached_ = first.value;
  last_observed_ = first;
}

void EwmaPredictor::ObserveLocal(const Reading& measured) {
  last_observed_ = measured;
  level_ = alpha_ * measured.value + (1.0 - alpha_) * level_;
}

std::vector<double> EwmaPredictor::EncodeCorrection(
    const Reading& /*measured*/) const {
  return level_.data();  // Ship the private smoothed level, not the raw z.
}

Status EwmaPredictor::ApplyCorrection(int64_t /*seq*/, double /*time*/,
                                      const std::vector<double>& payload) {
  return PayloadToVector(payload, dims_, &cached_);
}

std::vector<double> EwmaPredictor::EncodeFullState() const {
  std::vector<double> buf;
  buf.reserve(2 * dims_);
  buf.insert(buf.end(), level_.data().begin(), level_.data().end());
  buf.insert(buf.end(), cached_.data().begin(), cached_.data().end());
  return buf;
}

Status EwmaPredictor::ApplyFullState(const std::vector<double>& payload) {
  if (payload.size() != 2 * dims_) {
    return Status::InvalidArgument("ewma full-state payload has wrong size");
  }
  for (size_t d = 0; d < dims_; ++d) {
    level_[d] = payload[d];
    cached_[d] = payload[dims_ + d];
  }
  return Status::Ok();
}

std::unique_ptr<Predictor> EwmaPredictor::Clone() const {
  return std::make_unique<EwmaPredictor>(dims_, alpha_);
}

// ------------------------------------------------------------------- Kalman

KalmanPredictor::KalmanPredictor(Config config)
    : KalmanPredictor(std::make_shared<const Config>(std::move(config)),
                      nullptr) {}

KalmanPredictor::KalmanPredictor(std::shared_ptr<const Config> config,
                                 FilterPoolSet* pools)
    : config_(std::move(config)), pools_(pools) {
  assert(config_->model.Validate().ok());
  if (config_->outlier_gate_prob > 0.0 && config_->outlier_gate_prob < 1.0) {
    gate_threshold_ = ChiSquaredQuantile(config_->outlier_gate_prob,
                                         config_->model.obs_dim());
  }
}

KalmanPredictor::~KalmanPredictor() { ReleaseSlots(); }

void KalmanPredictor::ReleaseSlots() {
  if (pool_ == nullptr) return;
  if (shadow_slot_ != FilterPool::kNoSlot) pool_->Release(shadow_slot_);
  if (private_slot_ != FilterPool::kNoSlot) pool_->Release(private_slot_);
  shadow_slot_ = FilterPool::kNoSlot;
  private_slot_ = FilterPool::kNoSlot;
}

void KalmanPredictor::Init(const Reading& first) {
  assert(first.value.size() == config_->model.obs_dim());
  if (pool_ == nullptr) {
    if (pools_ != nullptr) {
      pool_ = pools_->PoolFor(config_->model, config_->update_form,
                              config_->adaptive);
    } else {
      own_pool_ = std::make_unique<FilterPool>(
          config_->model, config_->update_form, config_->adaptive);
      pool_ = own_pool_.get();
    }
  }
  // Lift the observation into state space. Our models' H matrices select
  // state components with unit rows, so H^T z places the observed values
  // in the right slots and leaves derivatives at zero.
  size_t n = config_->model.state_dim();
  Vector x0 = config_->model.h.Transposed() * first.value;
  Matrix p0 = Matrix::ScalarDiagonal(n, config_->init_var);
  if (shadow_slot_ == FilterPool::kNoSlot) {
    shadow_slot_ = pool_->Acquire(/*owner_id=*/-1);
  }
  pool_->ResetSlot(shadow_slot_, x0, p0);
  if (config_->sync_mode != SyncMode::kMeasurement) {
    // The private slot is materialized lazily (EnsurePrivateSlot): a
    // server replica clone never observes locally, so its private filter
    // would only waste a slot — and a batched time update per tick. A
    // re-Init restarts it (adaptation included) from the base model.
    if (private_slot_ != FilterPool::kNoSlot) {
      pool_->ResetSlot(private_slot_, x0, p0);
      private_pending_ = false;
    } else {
      private_pending_ = true;
      init_value_ = first.value;
    }
  } else {
    if (private_slot_ != FilterPool::kNoSlot) {
      pool_->Release(private_slot_);
      private_slot_ = FilterPool::kNoSlot;
    }
    private_pending_ = false;
  }
  shadow_ticks_ = 0;
  private_ticks_ = 0;
  consecutive_rejects_ = 0;
  outliers_rejected_ = 0;
  last_nis_ = -1.0;
  last_observed_ = first;
}

void KalmanPredictor::EnsurePrivateSlot() {
  if (!private_pending_) return;
  size_t n = config_->model.state_dim();
  Vector x0 = config_->model.h.Transposed() * init_value_;
  Matrix p0 = Matrix::ScalarDiagonal(n, config_->init_var);
  private_slot_ = pool_->Acquire(/*owner_id=*/-1);
  pool_->ResetSlot(private_slot_, x0, p0);
  private_pending_ = false;
}

void KalmanPredictor::Tick() {
  assert(shadow_slot_ != FilterPool::kNoSlot);
  ++shadow_ticks_;
  // A no-op when the shard's batched PredictAll already advanced the
  // slot this tick; does the time update itself otherwise.
  pool_->PredictSlotUpTo(shadow_slot_, shadow_ticks_);
}

void KalmanPredictor::ObserveLocal(const Reading& measured) {
  last_observed_ = measured;
  if (config_->sync_mode == SyncMode::kMeasurement) return;
  EnsurePrivateSlot();
  ++private_ticks_;
  pool_->PredictSlotUpTo(private_slot_, private_ticks_);

  if (gate_threshold_ > 0.0) {
    // Innovation gate: a reading wildly inconsistent with the filter's
    // prediction (NIS beyond the configured chi-squared quantile) is a
    // sensor outlier — skip the update so neither the estimate nor the
    // server is polluted by it. A run of rejections means the stream
    // really jumped; accept and let the filter re-converge. Only a
    // conclusive gate resets the rejection run.
    double nis = pool_->GateSlot(private_slot_, measured.value);
    if (nis >= 0.0) {
      last_nis_ = nis;  // A rejected reading is still a consistency sample.
      if (nis > gate_threshold_) {
        if (consecutive_rejects_ + 1 < config_->outlier_gate_limit) {
          ++consecutive_rejects_;
          ++outliers_rejected_;
          if (metrics_.outliers_rejected) metrics_.outliers_rejected->Inc();
          return;  // Predict-only this tick.
        }
        // The rejection run hit the limit: the stream genuinely jumped.
        if (metrics_.forced_accepts) metrics_.forced_accepts->Inc();
      }
    }
    consecutive_rejects_ = 0;
  }

  // A failed update (singular S) cannot happen with validated PD R; assert
  // in debug, skip the sample (and its adaptation step) in release.
  Status s = pool_->UpdateSlot(private_slot_, measured.value);
  assert(s.ok());
  last_nis_ = pool_->LastNisOf(private_slot_);
  if (s.ok() && config_->adaptive.has_value()) pool_->AdaptSlot(private_slot_);
}

Vector KalmanPredictor::Target() const {
  if (config_->sync_mode != SyncMode::kMeasurement &&
      (private_slot_ != FilterPool::kNoSlot || private_pending_)) {
    // Materializing the pending slot is logically const: the returned
    // value is exactly the Init lift's H x0.
    const_cast<KalmanPredictor*>(this)->EnsurePrivateSlot();
    return pool_->PredictObservationOf(private_slot_);
  }
  return last_observed_.value;
}

Vector KalmanPredictor::Predict() const {
  assert(shadow_slot_ != FilterPool::kNoSlot);
  return pool_->PredictObservationOf(shadow_slot_);
}

std::vector<double> KalmanPredictor::EncodeCorrection(
    const Reading& measured) const {
  switch (config_->sync_mode) {
    case SyncMode::kMeasurement:
      return measured.value.data();
    case SyncMode::kState:
      const_cast<KalmanPredictor*>(this)->EnsurePrivateSlot();
      return pool_->StateOf(private_slot_).data();
    case SyncMode::kStateAndCov:
      const_cast<KalmanPredictor*>(this)->EnsurePrivateSlot();
      return pool_->SerializeSlot(private_slot_);
  }
  return {};
}

Status KalmanPredictor::ApplyCorrection(int64_t /*seq*/, double /*time*/,
                                        const std::vector<double>& payload) {
  if (shadow_slot_ == FilterPool::kNoSlot) {
    return Status::FailedPrecondition("predictor not initialized");
  }
  switch (config_->sync_mode) {
    case SyncMode::kMeasurement:
      KC_RETURN_IF_ERROR(PayloadToVector(payload, config_->model.obs_dim(),
                                         &z_scratch_));
      return pool_->UpdateSlot(shadow_slot_, z_scratch_);
    case SyncMode::kState:
      // Overwrite the shadow's state; its covariance is irrelevant to
      // predictions (the server never runs Update in this mode).
      return pool_->OverwriteStateOf(shadow_slot_, payload);
    case SyncMode::kStateAndCov:
      return pool_->DeserializeSlot(shadow_slot_, payload);
  }
  return Status::Internal("unreachable");
}

std::vector<double> KalmanPredictor::EncodeFullState() const {
  // The shadow is the authoritative *shared* state: on the agent the
  // full-sync path corrects it from the private filter immediately before
  // encoding, and on a server replica it simply IS the replica's view
  // (the private filter there never observes anything).
  assert(shadow_slot_ != FilterPool::kNoSlot);
  return pool_->SerializeSlot(shadow_slot_);
}

Status KalmanPredictor::ApplyFullState(const std::vector<double>& payload) {
  if (shadow_slot_ == FilterPool::kNoSlot) {
    return Status::FailedPrecondition("predictor not initialized");
  }
  if (metrics_.filter_resets) metrics_.filter_resets->Inc();
  return pool_->DeserializeSlot(shadow_slot_, payload);
}

void KalmanPredictor::BindMetrics(obs::MetricRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics();
    return;
  }
  metrics_.outliers_rejected =
      registry->GetCounter("kc.kalman.outliers_rejected");
  metrics_.forced_accepts =
      registry->GetCounter("kc.kalman.gate_forced_accepts");
  metrics_.filter_resets = registry->GetCounter("kc.kalman.filter_resets");
}

std::unique_ptr<Predictor> KalmanPredictor::Clone() const {
  // Clones share the config and the pool set; a clone on a private pool
  // allocates its own at its first Init.
  return std::make_unique<KalmanPredictor>(config_, pools_);
}

std::string KalmanPredictor::name() const {
  switch (config_->sync_mode) {
    case SyncMode::kState:
      return "kalman";
    case SyncMode::kStateAndCov:
      return "kalman_cov";
    case SyncMode::kMeasurement:
      return "kalman_meas";
  }
  return "kalman";
}

std::unique_ptr<Predictor> MakeDefaultKalmanPredictor(double process_var,
                                                      double obs_var) {
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(process_var, obs_var);
  config.adaptive = AdaptiveConfig{};
  return std::make_unique<KalmanPredictor>(std::move(config));
}

}  // namespace kc
