#ifndef KALMANCAST_LINALG_MATRIX_H_
#define KALMANCAST_LINALG_MATRIX_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "linalg/small_buf.h"
#include "linalg/vector.h"

namespace kc {

/// Matrix::Symmetrize on a row-major n x n array (also run by
/// FilterPool::Observe on its stack temporaries).
[[gnu::always_inline]] inline void SymmetrizeRaw(double* p, size_t n) {
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = r + 1; c < n; ++c) {
      double avg = 0.5 * (p[r * n + c] + p[c * n + r]);
      p[r * n + c] = avg;
      p[c * n + r] = avg;
    }
  }
}

/// Dense row-major real matrix. Sized for Kalman filtering workloads
/// (state dimension <= 8), so operations are straightforward triple loops.
/// Storage is small-buffer optimized: up to kInlineCap entries (8x8) live
/// inline, so filter-sized matrices never touch the allocator; the hot
/// filter paths additionally route through the destination-passing kernels
/// in linalg/kernels.h (see docs/PERF.md).
class Matrix {
 public:
  /// Matrices with rows*cols up to this live in inline storage (covers the
  /// documented state_dim <= 8 envelope: 8x8 = 64).
  static constexpr size_t kInlineCap = 64;
  using Store = SmallBuf<kInlineCap>;

  /// Empty (0x0) matrix.
  Matrix() = default;

  /// Zero matrix of shape rows x cols.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Row-wise initialization:
  ///   Matrix m({{1.0, 2.0}, {3.0, 4.0}});
  /// All rows must have equal length (asserted).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Zero(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Identity(size_t n);
  /// Square matrix with `diag` on the diagonal, zero elsewhere.
  static Matrix Diagonal(const Vector& diag);
  /// n x n multiple of the identity.
  static Matrix ScalarDiagonal(size_t n, double value);
  /// Outer product a b^T (rows = a.size(), cols = b.size()).
  static Matrix Outer(const Vector& a, const Vector& b);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool IsSquare() const { return rows_ == cols_; }
  bool empty() const { return data_.empty(); }

  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const Store& data() const { return data_; }
  Store& data() { return data_; }

  /// Reshapes to rows x cols; contents are unspecified afterwards (the
  /// *Into kernels fully overwrite their destinations). Allocation-free
  /// whenever rows*cols <= kInlineCap or existing heap storage suffices.
  void ResizeUninit(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.ResizeUninit(rows * cols);
  }
  /// Sets every entry to zero.
  void SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

  // The in-place elementwise ops sit on the filter hot path (covariance
  // accumulate/correct each step), so they are defined inline over the raw
  // storage; op order matches the historical loops (bit-identical).
  Matrix& operator+=(const Matrix& other) {
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    double* p = data_.data();
    const double* q = other.data_.data();
    size_t n = data_.size();
    for (size_t i = 0; i < n; ++i) p[i] += q[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& other) {
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    double* p = data_.data();
    const double* q = other.data_.data();
    size_t n = data_.size();
    for (size_t i = 0; i < n; ++i) p[i] -= q[i];
    return *this;
  }
  Matrix& operator*=(double s) {
    double* p = data_.data();
    size_t n = data_.size();
    for (size_t i = 0; i < n; ++i) p[i] *= s;
    return *this;
  }

  /// Matrix transpose.
  Matrix Transposed() const;

  /// Row r as a Vector.
  Vector Row(size_t r) const;
  /// Column c as a Vector.
  Vector Col(size_t c) const;
  /// Main diagonal (length min(rows, cols)).
  Vector Diag() const;

  /// Sum of diagonal entries; requires a square matrix.
  double Trace() const;
  /// Largest absolute entry.
  double MaxAbs() const;
  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// True if max |A - A^T| entry <= tol. Requires square.
  bool IsSymmetric(double tol = 1e-9) const;
  /// Replaces A with (A + A^T)/2 (guards covariance symmetry after
  /// repeated filter updates). Requires square. Runs once per filter step,
  /// hence inline over raw storage like the in-place operators.
  void Symmetrize() {
    assert(IsSquare());
    SymmetrizeRaw(data_.data(), rows_);
  }

  /// "[[a, b], [c, d]]".
  std::string ToString() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  Store data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix m, double s);
Matrix operator*(double s, Matrix m);
Matrix operator*(const Matrix& a, const Matrix& b);
Vector operator*(const Matrix& m, const Vector& v);
Matrix operator-(Matrix m);

bool operator==(const Matrix& a, const Matrix& b);

/// True if shapes match and all entries are within tol.
bool AlmostEqual(const Matrix& a, const Matrix& b, double tol = 1e-9);

/// x^T A x for square A (e.g. NIS computation). Dimensions asserted.
double QuadraticForm(const Matrix& a, const Vector& x);

/// A B A^T, the congruence transform used by covariance propagation.
Matrix Sandwich(const Matrix& a, const Matrix& b);

}  // namespace kc

#endif  // KALMANCAST_LINALG_MATRIX_H_
