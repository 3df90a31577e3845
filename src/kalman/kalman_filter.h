#ifndef KALMANCAST_KALMAN_KALMAN_FILTER_H_
#define KALMANCAST_KALMAN_KALMAN_FILTER_H_

#include <vector>

#include "common/status.h"
#include "kalman/model.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace kc {

/// Discrete-time Kalman filter over a StateSpaceModel.
///
/// This is the prediction procedure the paper caches at both the stream
/// source and the server. Its two halves:
///   - Predict(): advance (x, P) one step through the dynamics — the server
///     does this on every tick to answer queries without any communication.
///   - Update(z): fold in a measurement — executed *identically* on both
///     sides whenever the source ships a correction, which keeps the two
///     filter replicas in lockstep.
///
/// Numerical hygiene: the covariance update defaults to the Joseph
/// stabilized form and re-symmetrizes P, so P stays symmetric PSD over
/// millions of steps (property-tested in tests/kalman_filter_test.cc).
class KalmanFilter {
 public:
  /// How Update() propagates the covariance.
  enum class UpdateForm {
    kStandard,  ///< P = (I - K H) P. Cheaper, less robust.
    kJoseph,    ///< P = (I-KH) P (I-KH)^T + K R K^T. Stabilized (default).
  };

  /// Builds a filter with initial state estimate x0 and covariance p0.
  /// The model must Validate(); construction asserts in debug builds and
  /// produces a filter whose Update() fails otherwise.
  KalmanFilter(StateSpaceModel model, Vector x0, Matrix p0,
               UpdateForm form = UpdateForm::kJoseph);

  /// Time update: x <- F x, P <- F P F^T + Q.
  void Predict();

  /// Runs Predict() `steps` times.
  void PredictSteps(size_t steps);

  /// Measurement update with observation z (dimension obs_dim).
  /// On success also records innovation, innovation covariance, NIS and
  /// the Gaussian log-likelihood of z. Fails (without modifying state) if
  /// z has the wrong dimension or the innovation covariance is singular.
  Status Update(const Vector& z);

  /// Expected observation H x for the current state.
  Vector PredictObservation() const;

  /// Innovation covariance S = H P H^T + R for the current state.
  Matrix InnovationCovariance() const;

  const Vector& state() const { return x_; }
  const Matrix& covariance() const { return p_; }
  const StateSpaceModel& model() const { return model_; }
  /// Mutable model access for adaptive noise estimation.
  StateSpaceModel& mutable_model() { return model_; }

  size_t state_dim() const { return model_.state_dim(); }
  size_t obs_dim() const { return model_.obs_dim(); }

  /// Diagnostics from the most recent successful Update().
  const Vector& last_innovation() const { return innovation_; }
  const Matrix& last_innovation_covariance() const { return s_; }
  /// Normalized innovation squared nu^T S^{-1} nu (chi-squared with obs_dim
  /// degrees of freedom when the model matches reality).
  double last_nis() const { return nis_; }
  /// log N(z; Hx, S) of the most recent update's observation.
  double last_log_likelihood() const { return log_likelihood_; }
  /// Number of successful Update() calls since construction/Reset.
  int64_t update_count() const { return update_count_; }

  /// Reinitializes state and covariance, clearing diagnostics.
  void Reset(Vector x0, Matrix p0);

  /// Flattens (x, P) for transmission in a sync message: x's entries
  /// followed by P's rows. Size = state_dim + state_dim^2.
  std::vector<double> SerializeState() const;

  /// Restores (x, P) from SerializeState() output.
  Status DeserializeState(const std::vector<double>& buf);

 private:
  /// Scratch storage reused across Predict/Update so steady-state filter
  /// steps perform zero heap allocations: every temporary the update needs
  /// lives here, is reshaped once on first use, and is fully overwritten by
  /// the *Into kernels each step (see docs/PERF.md).
  struct Workspace {
    Vector fx;       ///< F x.
    Vector hx;       ///< H x (predicted observation).
    Vector nu;       ///< Innovation z - H x.
    Vector knu;      ///< K nu.
    Vector sinv_nu;  ///< S^{-1} nu (NIS solve).
    Matrix tmp1;     ///< Sandwich scratch (F P, H P, (I-KH) P, K R).
    Matrix s;        ///< Innovation covariance H P H^T + R.
    Matrix l;        ///< Cholesky factor of s.
    Matrix ph_t;     ///< P H^T.
    Matrix kt;       ///< K^T = S^{-1} H P.
    Matrix k;        ///< Gain K.
    Matrix kh;       ///< K H.
    Matrix i_kh;     ///< I - K H.
    Matrix j1;       ///< (I-KH) P (I-KH)^T (Joseph) or (I-KH) P (standard).
    Matrix krk;      ///< K R K^T (Joseph).
  };

  StateSpaceModel model_;
  UpdateForm form_;
  Vector x_;
  Matrix p_;
  Workspace ws_;

  // Last-update diagnostics.
  Vector innovation_;
  Matrix s_;
  double nis_ = 0.0;
  double log_likelihood_ = 0.0;
  int64_t update_count_ = 0;
};

}  // namespace kc

#endif  // KALMANCAST_KALMAN_KALMAN_FILTER_H_
