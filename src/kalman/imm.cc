#include "kalman/imm.h"

#include <cassert>
#include <cmath>

#include "linalg/kernels.h"

namespace kc {

namespace {
constexpr double kProbFloor = 1e-12;
}  // namespace

Imm::Imm(std::vector<KalmanFilter> filters, Matrix transition,
         Vector initial_prob)
    : filters_(std::move(filters)),
      transition_(std::move(transition)),
      mu_(std::move(initial_prob)) {
  assert(Validate().ok());
  mixed_x_.resize(filters_.size());
  mixed_p_.resize(filters_.size());
}

Status Imm::Validate() const {
  if (filters_.size() < 2) {
    return Status::InvalidArgument("IMM needs at least two modes");
  }
  size_t n = filters_.front().state_dim();
  size_t m = filters_.front().obs_dim();
  for (const auto& f : filters_) {
    if (f.state_dim() != n || f.obs_dim() != m) {
      return Status::InvalidArgument("IMM filters must share dimensions");
    }
  }
  size_t k = filters_.size();
  if (transition_.rows() != k || transition_.cols() != k) {
    return Status::InvalidArgument("transition matrix shape mismatch");
  }
  for (size_t i = 0; i < k; ++i) {
    double row = 0.0;
    for (size_t j = 0; j < k; ++j) {
      if (transition_(i, j) < 0.0) {
        return Status::InvalidArgument("negative transition probability");
      }
      row += transition_(i, j);
    }
    if (std::fabs(row - 1.0) > 1e-9) {
      return Status::InvalidArgument("transition rows must sum to 1");
    }
  }
  if (mu_.size() != k) {
    return Status::InvalidArgument("initial probabilities shape mismatch");
  }
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) sum += mu_[i];
  if (std::fabs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("initial probabilities must sum to 1");
  }
  return Status::Ok();
}

void Imm::Predict() {
  size_t k = filters_.size();
  size_t n = filters_.front().state_dim();

  // Predicted mode probabilities: c_j = sum_i pi_ij mu_i.
  Vector c(k);
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < k; ++i) c[j] += transition_(i, j) * mu_[i];
    c[j] = std::max(c[j], kProbFloor);
  }

  // Mixing probabilities mu_{i|j} and mixed initial conditions, written
  // into the persistent buffers. All mixing is computed against the
  // pre-update filter states before any Reset below, and the fused
  // accumulators are bit-identical to the operator chains they replaced.
  for (size_t j = 0; j < k; ++j) {
    Vector& x0 = mixed_x_[j];
    x0.ResizeUninit(n);
    x0.SetZero();
    for (size_t i = 0; i < k; ++i) {
      double w = transition_(i, j) * mu_[i] / c[j];
      AddScaledInPlace(w, filters_[i].state(), &x0);
    }
    Matrix& p0 = mixed_p_[j];
    p0.ResizeUninit(n, n);
    p0.SetZero();
    for (size_t i = 0; i < k; ++i) {
      double w = transition_(i, j) * mu_[i] / c[j];
      Vector d = filters_[i].state() - x0;
      AddScaledPlusOuterInPlace(w, filters_[i].covariance(), d, &p0);
    }
    p0.Symmetrize();
  }

  for (size_t j = 0; j < k; ++j) {
    filters_[j].Reset(mixed_x_[j], mixed_p_[j]);
    filters_[j].Predict();
  }
  mu_ = c;
}

Status Imm::Update(const Vector& z) {
  size_t k = filters_.size();
  Vector likelihood(k);
  for (size_t j = 0; j < k; ++j) {
    KC_RETURN_IF_ERROR(filters_[j].Update(z));
    likelihood[j] = std::exp(filters_[j].last_log_likelihood());
  }
  double norm = 0.0;
  for (size_t j = 0; j < k; ++j) {
    mu_[j] = std::max(mu_[j] * likelihood[j], kProbFloor);
    norm += mu_[j];
  }
  for (size_t j = 0; j < k; ++j) mu_[j] /= norm;
  return Status::Ok();
}

Vector Imm::CombinedState() const {
  size_t n = filters_.front().state_dim();
  Vector x(n);
  for (size_t j = 0; j < filters_.size(); ++j) {
    x += mu_[j] * filters_[j].state();
  }
  return x;
}

Matrix Imm::CombinedCovariance() const {
  size_t n = filters_.front().state_dim();
  Vector x = CombinedState();
  Matrix p(n, n);
  for (size_t j = 0; j < filters_.size(); ++j) {
    Vector d = filters_[j].state() - x;
    p += mu_[j] * (filters_[j].covariance() + Matrix::Outer(d, d));
  }
  p.Symmetrize();
  return p;
}

Vector Imm::PredictObservation() const {
  return filters_.front().model().h * CombinedState();
}

size_t Imm::MostLikelyMode() const {
  size_t best = 0;
  for (size_t j = 1; j < mu_.size(); ++j) {
    if (mu_[j] > mu_[best]) best = j;
  }
  return best;
}

std::vector<double> Imm::SerializeState() const {
  std::vector<double> buf;
  size_t k = filters_.size();
  size_t n = filters_.front().state_dim();
  buf.reserve(k + k * (n + n * n));
  buf.insert(buf.end(), mu_.data().begin(), mu_.data().end());
  for (const KalmanFilter& f : filters_) {
    std::vector<double> fs = f.SerializeState();
    buf.insert(buf.end(), fs.begin(), fs.end());
  }
  return buf;
}

Status Imm::DeserializeState(const std::vector<double>& buf) {
  size_t k = filters_.size();
  size_t n = filters_.front().state_dim();
  size_t per_filter = n + n * n;
  if (buf.size() != k + k * per_filter) {
    return Status::InvalidArgument("serialized IMM state has wrong size");
  }
  for (size_t j = 0; j < k; ++j) mu_[j] = buf[j];
  for (size_t j = 0; j < k; ++j) {
    std::vector<double> fs(buf.begin() + static_cast<long>(k + j * per_filter),
                           buf.begin() +
                               static_cast<long>(k + (j + 1) * per_filter));
    KC_RETURN_IF_ERROR(filters_[j].DeserializeState(fs));
  }
  return Status::Ok();
}

}  // namespace kc
