#ifndef KALMANCAST_LINALG_DECOMP_H_
#define KALMANCAST_LINALG_DECOMP_H_

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace kc {

/// Cholesky (LL^T) factorization of a symmetric positive-definite matrix.
/// The workhorse for innovation-covariance solves in the Kalman update and
/// for PSD validation of covariance matrices.
///
/// The static FactorInto/SolveInto interface operates on a caller-owned
/// factor matrix so hot loops can reuse scratch storage and stay
/// allocation-free (see docs/PERF.md); the member interface wraps it.
class Cholesky {
 public:
  /// Factorizes `a`. Check ok() before using the results; factorization
  /// fails if `a` is not (numerically) positive definite.
  explicit Cholesky(const Matrix& a);

  bool ok() const { return ok_; }

  /// The lower-triangular factor L with A = L L^T. Valid only if ok().
  const Matrix& L() const { return l_; }

  /// Solves A x = b. Valid only if ok().
  Vector Solve(const Vector& b) const;

  /// Solves A X = B, all right-hand sides in one pass over the factor.
  /// Valid only if ok().
  Matrix Solve(const Matrix& b) const;

  /// A^{-1}. Valid only if ok().
  Matrix Inverse() const;

  /// log(det(A)) = 2 * sum(log L_ii). Valid only if ok().
  double LogDeterminant() const;

  /// Factorizes `a` into caller-owned `*l` (reshaped as needed), returning
  /// false if `a` is not square or not (numerically) positive definite; on
  /// failure *l's contents are unspecified. Allocation-free whenever *l's
  /// storage already fits (always true within the inline envelope).
  static bool FactorInto(const Matrix& a, Matrix* l);

  /// Solves (L L^T) x = b given a factor produced by FactorInto. `*x` may
  /// alias `b` (the substitution runs in place).
  static void SolveInto(const Matrix& l, const Vector& b, Vector* x);

  /// Solves (L L^T) X = B for every column of B in one pass over the
  /// factor. `*x` may alias `b`.
  static void SolveInto(const Matrix& l, const Matrix& b, Matrix* x);

  /// log(det(L L^T)) = 2 * sum(log L_ii) for a factor from FactorInto.
  static double LogDeterminantOf(const Matrix& l);

  /// The loops behind FactorInto/SolveInto, on row-major n x n arrays
  /// (`x` n long, or n x cols). FactorRaw zeroes `l` first; the solves
  /// run in place. FilterPool::Observe runs them on stack
  /// temporaries.
  [[gnu::always_inline]] static bool FactorRaw(const double* a, double* l,
                                               size_t n);
  [[gnu::always_inline]] static void SolveRaw(const double* l, double* x,
                                              size_t n);
  [[gnu::always_inline]] static void SolveColumnsRaw(const double* l,
                                                     double* x, size_t n,
                                                     size_t cols);

 private:
  bool ok_ = false;
  Matrix l_;
};

/// LU factorization with partial pivoting, for general square systems
/// (model calibration, tests). PA = LU packed in-place.
class PartialPivLu {
 public:
  explicit PartialPivLu(const Matrix& a);

  /// False if the matrix is (numerically) singular.
  bool ok() const { return ok_; }

  Vector Solve(const Vector& b) const;
  Matrix Solve(const Matrix& b) const;
  Matrix Inverse() const;
  double Determinant() const;

 private:
  bool ok_ = false;
  Matrix lu_;                 // Combined L (unit diag, below) and U (on/above).
  std::vector<size_t> perm_;  // Row permutation.
  int sign_ = 1;              // Permutation parity, for the determinant.
};

/// Convenience: solves A x = b via Cholesky when A is symmetric, falling
/// back to LU. Errors if A is singular or shapes mismatch.
StatusOr<Vector> SolveLinear(const Matrix& a, const Vector& b);

/// Convenience: A^{-1} via the same dispatch as SolveLinear.
StatusOr<Matrix> Invert(const Matrix& a);

/// True if `a` is symmetric (to `tol`) and positive semi-definite, checked
/// by attempting a Cholesky factorization of A + jitter*I.
bool IsPositiveSemiDefinite(const Matrix& a, double tol = 1e-9,
                            double jitter = 1e-12);

// The static factor/solve entry points run once per filter step, on
// matrices no larger than the state dimension; they are defined inline
// with hoisted raw storage pointers for the same reason as the kernels in
// linalg/kernels.h (call overhead and per-access indirection dominate at
// n <= 8). The arithmetic and its ordering are unchanged from the
// out-of-line versions, so results are bit-identical.

inline bool Cholesky::FactorRaw(const double* a, double* l, size_t n) {
  for (size_t i = 0; i < n * n; ++i) l[i] = 0.0;
  for (size_t j = 0; j < n; ++j) {
    const double* l_j = l + j * n;
    double diag = a[j * n + j];
    for (size_t k = 0; k < j; ++k) diag -= l_j[k] * l_j[k];
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return false;  // Not positive definite.
    }
    double ljj = std::sqrt(diag);
    l[j * n + j] = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double* l_i = l + i * n;
      double sum = a[i * n + j];
      for (size_t k = 0; k < j; ++k) sum -= l_i[k] * l_j[k];
      l_i[j] = sum / ljj;
    }
  }
  return true;
}

inline void Cholesky::SolveRaw(const double* l, double* x, size_t n) {
  // Forward substitution L y = b, in place: x[i] is read before it is
  // overwritten and entries above i already hold y.
  for (size_t i = 0; i < n; ++i) {
    const double* l_i = l + i * n;
    double sum = x[i];
    for (size_t k = 0; k < i; ++k) sum -= l_i[k] * x[k];
    x[i] = sum / l_i[i];
  }
  // Back substitution L^T x = y, in place: entries below ii already hold x.
  for (size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l[k * n + ii] * x[k];
    x[ii] = sum / l[ii * n + ii];
  }
}

inline void Cholesky::SolveColumnsRaw(const double* l, double* x, size_t n,
                                      size_t cols) {
  // Forward then back substitution applied to every right-hand side in one
  // pass over the factor; per column the arithmetic matches the vector
  // solve operation-for-operation, so results are bit-identical.
  for (size_t i = 0; i < n; ++i) {
    double* x_i = x + i * cols;
    for (size_t k = 0; k < i; ++k) {
      double lik = l[i * n + k];
      const double* x_k = x + k * cols;
      for (size_t c = 0; c < cols; ++c) x_i[c] -= lik * x_k[c];
    }
    double lii = l[i * n + i];
    for (size_t c = 0; c < cols; ++c) x_i[c] /= lii;
  }
  for (size_t ii = n; ii-- > 0;) {
    double* x_ii = x + ii * cols;
    for (size_t k = ii + 1; k < n; ++k) {
      double lki = l[k * n + ii];
      const double* x_k = x + k * cols;
      for (size_t c = 0; c < cols; ++c) x_ii[c] -= lki * x_k[c];
    }
    double lii = l[ii * n + ii];
    for (size_t c = 0; c < cols; ++c) x_ii[c] /= lii;
  }
}

inline bool Cholesky::FactorInto(const Matrix& a, Matrix* l) {
  if (!a.IsSquare() || a.rows() == 0) return false;
  l->ResizeUninit(a.rows(), a.rows());
  return FactorRaw(a.data().data(), l->data().data(), a.rows());
}

inline void Cholesky::SolveInto(const Matrix& l, const Vector& b, Vector* x) {
  size_t n = l.rows();
  assert(b.size() == n);
  if (x != &b) {
    x->ResizeUninit(n);
    std::copy_n(b.data().data(), n, x->data().data());
  }
  SolveRaw(l.data().data(), x->data().data(), n);
}

inline void Cholesky::SolveInto(const Matrix& l, const Matrix& b, Matrix* x) {
  size_t n = l.rows();
  assert(b.rows() == n);
  if (x != &b) {
    x->ResizeUninit(n, b.cols());
    std::copy_n(b.data().data(), n * b.cols(), x->data().data());
  }
  SolveColumnsRaw(l.data().data(), x->data().data(), n, x->cols());
}

inline double Cholesky::LogDeterminantOf(const Matrix& l) {
  double sum = 0.0;
  for (size_t i = 0; i < l.rows(); ++i) sum += std::log(l(i, i));
  return 2.0 * sum;
}

}  // namespace kc

#endif  // KALMANCAST_LINALG_DECOMP_H_
