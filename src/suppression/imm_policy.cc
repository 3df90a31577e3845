#include "suppression/imm_policy.h"

#include <cassert>

#include "obs/metrics.h"

namespace kc {

ImmPredictor::ImmPredictor(Config config) : config_(std::move(config)) {
  assert(config_.models.size() >= 2);
  for (const auto& m : config_.models) {
    assert(m.Validate().ok());
    assert(m.state_dim() == config_.models.front().state_dim());
    assert(m.obs_dim() == config_.models.front().obs_dim());
    (void)m;
  }
}

Imm ImmPredictor::BuildImm(const Reading& first) const {
  size_t n = config_.models.front().state_dim();
  Vector x0 = config_.models.front().h.Transposed() * first.value;
  Matrix p0 = Matrix::ScalarDiagonal(n, config_.init_var);
  std::vector<KalmanFilter> filters;
  filters.reserve(config_.models.size());
  for (const auto& m : config_.models) {
    filters.emplace_back(m, x0, p0);
  }
  return Imm(std::move(filters), config_.transition, config_.initial_prob);
}

void ImmPredictor::Init(const Reading& first) {
  assert(first.value.size() == dims());
  shadow_.emplace(BuildImm(first));
  private_.emplace(BuildImm(first));
  last_mode_ = DominantMode();
  model_switches_ = 0;
  last_observed_ = first;
}

int ImmPredictor::DominantMode() const {
  const Vector& mu = private_->mode_probabilities();
  int best = 0;
  for (size_t m = 1; m < mu.size(); ++m) {
    if (mu[m] > mu[best]) best = static_cast<int>(m);
  }
  return best;
}

void ImmPredictor::Tick() {
  assert(shadow_.has_value());
  shadow_->Predict();
}

Status ImmPredictor::ObserveLocal(const Reading& measured) {
  last_observed_ = measured;
  assert(private_.has_value());
  private_->Predict();
  KC_RETURN_IF_ERROR(private_->Update(measured.value));
  int mode = DominantMode();
  if (mode != last_mode_) {
    last_mode_ = mode;
    ++model_switches_;
    if (switch_counter_ != nullptr) switch_counter_->Inc();
  }
  return Status::Ok();
}

Vector ImmPredictor::Target() const {
  assert(private_.has_value());
  return private_->PredictObservation();
}

Vector ImmPredictor::Predict() const {
  assert(shadow_.has_value());
  return shadow_->PredictObservation();
}

std::vector<double> ImmPredictor::EncodeCorrection(
    const Reading& /*measured*/) const {
  assert(private_.has_value());
  return private_->SerializeState();
}

Status ImmPredictor::ApplyCorrection(int64_t /*seq*/, double /*time*/,
                                     const std::vector<double>& payload) {
  if (!shadow_.has_value()) {
    return Status::FailedPrecondition("predictor not initialized");
  }
  return shadow_->DeserializeState(payload);
}

std::vector<double> ImmPredictor::EncodeFullState() const {
  // Shadow = the shared replicated state (see KalmanPredictor note).
  assert(shadow_.has_value());
  return shadow_->SerializeState();
}

Status ImmPredictor::ApplyFullState(const std::vector<double>& payload) {
  return ApplyCorrection(0, 0.0, payload);
}

void ImmPredictor::BindMetrics(obs::MetricRegistry* registry) {
  switch_counter_ = registry == nullptr
                        ? nullptr
                        : registry->GetCounter("kc.imm.model_switches");
}

std::unique_ptr<Predictor> ImmPredictor::Clone() const {
  return std::make_unique<ImmPredictor>(config_);
}

const Imm& ImmPredictor::private_imm() const {
  assert(private_.has_value());
  return *private_;
}

const Imm& ImmPredictor::shadow_imm() const {
  assert(shadow_.has_value());
  return *shadow_;
}

std::unique_ptr<Predictor> MakeTwoModeImmPredictor(double quiet_var,
                                                   double loud_var,
                                                   double obs_var,
                                                   double sticky) {
  ImmPredictor::Config config;
  config.models = {MakeRandomWalkModel(quiet_var, obs_var),
                   MakeRandomWalkModel(loud_var, obs_var)};
  config.transition =
      Matrix{{sticky, 1.0 - sticky}, {1.0 - sticky, sticky}};
  config.initial_prob = Vector{0.5, 0.5};
  return std::make_unique<ImmPredictor>(std::move(config));
}

}  // namespace kc
