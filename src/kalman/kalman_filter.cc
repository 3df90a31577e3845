#include "kalman/kalman_filter.h"

#include <cmath>
#include <numbers>

#include "linalg/decomp.h"
#include "linalg/kernels.h"

namespace kc {

KalmanFilter::KalmanFilter(StateSpaceModel model, Vector x0, Matrix p0,
                           UpdateForm form)
    : model_(std::move(model)), form_(form), x_(std::move(x0)), p_(std::move(p0)) {
  assert(model_.Validate().ok());
  assert(x_.size() == model_.state_dim());
  assert(p_.rows() == model_.state_dim() && p_.cols() == model_.state_dim());
}

void KalmanFilter::Predict() {
  // All temporaries live in ws_, so the steady-state time update performs
  // zero heap allocations; the kernels are bit-identical to the
  // value-returning operators they replaced.
  MultiplyInto(model_.f, x_, &ws_.fx);
  x_ = ws_.fx;
  SandwichInto(model_.f, p_, &ws_.tmp1, &ws_.j1);
  AddInto(ws_.j1, model_.q, &p_);
  p_.Symmetrize();
}

void KalmanFilter::PredictSteps(size_t steps) {
  for (size_t i = 0; i < steps; ++i) Predict();
}

Status KalmanFilter::Update(const Vector& z) {
  if (z.size() != model_.obs_dim()) {
    return Status::InvalidArgument("observation dimension mismatch");
  }
  const Matrix& h = model_.h;
  MultiplyInto(h, x_, &ws_.hx);
  SubInto(z, ws_.hx, &ws_.nu);

  SandwichInto(h, p_, &ws_.tmp1, &ws_.s);
  ws_.s += model_.r;
  ws_.s.Symmetrize();
  if (!Cholesky::FactorInto(ws_.s, &ws_.l)) {
    return Status::FailedPrecondition("innovation covariance not PD");
  }

  // Gain K = P H^T S^{-1}; computed as solve(S, H P)^T to stay factored.
  MultiplyTransposedInto(p_, h, &ws_.ph_t);    // n x m
  TransposeInto(ws_.ph_t, &ws_.tmp1);          // m x n
  Cholesky::SolveInto(ws_.l, ws_.tmp1, &ws_.kt);  // m x n, equals S^{-1} H P
  TransposeInto(ws_.kt, &ws_.k);               // n x m

  MultiplyInto(ws_.k, ws_.nu, &ws_.knu);
  x_ += ws_.knu;

  // The gain complement I - K H feeds both covariance forms; compute it
  // once above the branch.
  MultiplyInto(ws_.k, h, &ws_.kh);
  IdentityMinusInto(ws_.kh, &ws_.i_kh);
  if (form_ == UpdateForm::kJoseph) {
    SandwichInto(ws_.i_kh, p_, &ws_.tmp1, &ws_.j1);
    SandwichInto(ws_.k, model_.r, &ws_.tmp1, &ws_.krk);
    AddInto(ws_.j1, ws_.krk, &p_);
  } else {
    MultiplyInto(ws_.i_kh, p_, &ws_.j1);
    p_ = ws_.j1;
  }
  p_.Symmetrize();

  // Diagnostics.
  innovation_ = ws_.nu;
  s_ = ws_.s;
  Cholesky::SolveInto(ws_.l, ws_.nu, &ws_.sinv_nu);
  nis_ = ws_.nu.Dot(ws_.sinv_nu);
  double m = static_cast<double>(obs_dim());
  log_likelihood_ = -0.5 * (nis_ + Cholesky::LogDeterminantOf(ws_.l) +
                            m * std::log(2.0 * std::numbers::pi));
  ++update_count_;
  return Status::Ok();
}

Vector KalmanFilter::PredictObservation() const { return model_.h * x_; }

Matrix KalmanFilter::InnovationCovariance() const {
  Matrix s = Sandwich(model_.h, p_) + model_.r;
  s.Symmetrize();
  return s;
}

void KalmanFilter::Reset(Vector x0, Matrix p0) {
  assert(x0.size() == model_.state_dim());
  assert(p0.rows() == model_.state_dim() && p0.cols() == model_.state_dim());
  x_ = std::move(x0);
  p_ = std::move(p0);
  innovation_ = Vector();
  s_ = Matrix();
  nis_ = 0.0;
  log_likelihood_ = 0.0;
  update_count_ = 0;
}

std::vector<double> KalmanFilter::SerializeState() const {
  std::vector<double> buf;
  buf.reserve(state_dim() + state_dim() * state_dim());
  buf.insert(buf.end(), x_.data().begin(), x_.data().end());
  buf.insert(buf.end(), p_.data().begin(), p_.data().end());
  return buf;
}

Status KalmanFilter::DeserializeState(const std::vector<double>& buf) {
  size_t n = state_dim();
  if (buf.size() != n + n * n) {
    return Status::InvalidArgument("serialized state has wrong size");
  }
  for (size_t i = 0; i < n; ++i) x_[i] = buf[i];
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) p_(r, c) = buf[n + r * n + c];
  }
  p_.Symmetrize();
  return Status::Ok();
}

}  // namespace kc
