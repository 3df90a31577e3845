#include "suppression/ekf_policy.h"

#include <cassert>

namespace kc {

EkfPredictor::EkfPredictor(Config config) : config_(std::move(config)) {
  assert(config_.model.Validate().ok());
  assert(config_.init_state != nullptr);
}

void EkfPredictor::Init(const Reading& first) {
  assert(first.value.size() == config_.model.obs_dim);
  Vector x0 = config_.init_state(first.value);
  assert(x0.size() == config_.model.state_dim);
  Matrix p0 = Matrix::ScalarDiagonal(config_.model.state_dim, config_.init_var);
  shadow_.emplace(config_.model, x0, p0);
  private_.emplace(config_.model, x0, p0);
  last_observed_ = first;
}

void EkfPredictor::Tick() {
  assert(shadow_.has_value());
  shadow_->Predict();
}

Status EkfPredictor::ObserveLocal(const Reading& measured) {
  last_observed_ = measured;
  assert(private_.has_value());
  private_->Predict();
  KC_RETURN_IF_ERROR(private_->Update(measured.value));
  return Status::Ok();
}

Vector EkfPredictor::Target() const {
  assert(private_.has_value());
  return private_->PredictObservation();
}

Vector EkfPredictor::Predict() const {
  assert(shadow_.has_value());
  return shadow_->PredictObservation();
}

std::vector<double> EkfPredictor::EncodeCorrection(
    const Reading& /*measured*/) const {
  assert(private_.has_value());
  return private_->SerializeState();
}

Status EkfPredictor::ApplyCorrection(int64_t /*seq*/, double /*time*/,
                                     const std::vector<double>& payload) {
  if (!shadow_.has_value()) {
    return Status::FailedPrecondition("predictor not initialized");
  }
  return shadow_->DeserializeState(payload);
}

std::vector<double> EkfPredictor::EncodeFullState() const {
  // Shadow = the shared replicated state (see KalmanPredictor note).
  assert(shadow_.has_value());
  return shadow_->SerializeState();
}

Status EkfPredictor::ApplyFullState(const std::vector<double>& payload) {
  return ApplyCorrection(0, 0.0, payload);
}

std::unique_ptr<Predictor> EkfPredictor::Clone() const {
  return std::make_unique<EkfPredictor>(config_);
}

const ExtendedKalmanFilter& EkfPredictor::shadow_filter() const {
  assert(shadow_.has_value());
  return *shadow_;
}

const ExtendedKalmanFilter& EkfPredictor::private_filter() const {
  assert(private_.has_value());
  return *private_;
}

std::unique_ptr<Predictor> MakeCoordinatedTurnPredictor(double dt,
                                                        double obs_var) {
  EkfPredictor::Config config;
  config.model =
      MakeCoordinatedTurnModel(dt, /*q_pos=*/0.01, /*q_speed=*/0.05,
                               /*q_turn=*/1e-4, obs_var);
  config.init_state = [](const Vector& z) {
    Vector x0(5);
    x0[0] = z[0];
    x0[1] = z[1];
    return x0;
  };
  return std::make_unique<EkfPredictor>(std::move(config));
}

}  // namespace kc
