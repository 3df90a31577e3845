#ifndef KALMANCAST_SUPPRESSION_EKF_POLICY_H_
#define KALMANCAST_SUPPRESSION_EKF_POLICY_H_

#include <optional>

#include "kalman/ekf.h"
#include "suppression/predictor.h"

namespace kc {

/// Dual *extended* Kalman filter predictor: the suppression protocol over
/// a nonlinear state-space model (e.g. coordinated-turn vehicle
/// dynamics). State-sync only — the client runs a private EKF over every
/// measurement and ships (x, P) when the server-shadow's prediction
/// drifts beyond delta. Because EKF behaviour depends on the
/// linearization point, corrections always carry the covariance too, so
/// the shadow's next linearizations match the client's exactly.
class EkfPredictor : public Predictor {
 public:
  struct Config {
    NonlinearModel model;
    double init_var = 100.0;
    /// Maps the first observation to an initial state (e.g. put the first
    /// GPS fix into the position slots). Must be pure.
    std::function<Vector(const Vector&)> init_state;
  };

  explicit EkfPredictor(Config config);

  void Init(const Reading& first) override;
  void Tick() override;
  Status ObserveLocal(const Reading& measured) override;
  Vector Target() const override;
  Vector Predict() const override;
  std::vector<double> EncodeCorrection(const Reading& measured) const override;
  Status ApplyCorrection(int64_t seq, double time,
                         const std::vector<double>& payload) override;
  std::vector<double> EncodeFullState() const override;
  Status ApplyFullState(const std::vector<double>& payload) override;
  std::unique_ptr<Predictor> Clone() const override;
  std::string name() const override { return "ekf"; }
  size_t dims() const override { return config_.model.obs_dim; }

  const ExtendedKalmanFilter& shadow_filter() const;
  const ExtendedKalmanFilter& private_filter() const;

 private:
  Config config_;
  std::optional<ExtendedKalmanFilter> shadow_;
  std::optional<ExtendedKalmanFilter> private_;
};

/// Convenience: a coordinated-turn EkfPredictor for planar vehicle
/// streams observing [x, y]; initializes position from the first fix with
/// zero speed/heading/turn-rate.
std::unique_ptr<Predictor> MakeCoordinatedTurnPredictor(double dt,
                                                        double obs_var);

}  // namespace kc

#endif  // KALMANCAST_SUPPRESSION_EKF_POLICY_H_
