#ifndef KALMANCAST_LINALG_VECTOR_H_
#define KALMANCAST_LINALG_VECTOR_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "linalg/small_buf.h"

namespace kc {

/// Vector::Dot on raw arrays (also run by FilterPool::Observe on its
/// stack temporaries).
[[gnu::always_inline]] inline double DotRaw(const double* a, const double* b,
                                            size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// Dense real vector. This is the library's Eigen substitute for the small
/// (n <= 8) state/observation vectors Kalman filtering needs; it favors
/// clarity and asserts over micro-optimization. Storage is small-buffer
/// optimized: dimensions up to kInlineCap live inline, so filter-sized
/// vectors never touch the allocator (see docs/PERF.md).
class Vector {
 public:
  /// Dimensions up to this live in inline storage (the documented
  /// state_dim <= 8 envelope).
  static constexpr size_t kInlineCap = 8;
  using Store = SmallBuf<kInlineCap>;

  /// Empty (size-0) vector.
  Vector() = default;

  /// Zero vector of dimension n.
  explicit Vector(size_t n) : data_(n, 0.0) {}

  /// Vector with explicit entries, e.g. Vector({1.0, 2.0}).
  Vector(std::initializer_list<double> values) : data_(values) {}

  /// Copies an existing buffer.
  explicit Vector(const std::vector<double>& values)
      : data_(values.begin(), values.end()) {}

  static Vector Zero(size_t n) { return Vector(n); }
  /// Vector of all ones.
  static Vector Ones(size_t n);
  /// i-th standard basis vector of dimension n.
  static Vector Unit(size_t n, size_t i);

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double operator[](size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }
  double& operator[](size_t i) {
    assert(i < data_.size());
    return data_[i];
  }

  const Store& data() const { return data_; }
  Store& data() { return data_; }

  /// Reshapes to n entries; contents are unspecified afterwards (the *Into
  /// kernels fully overwrite their destinations). Allocation-free whenever
  /// n <= kInlineCap or existing heap storage suffices.
  void ResizeUninit(size_t n) { data_.ResizeUninit(n); }
  /// Sets every entry to zero.
  void SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

  // The in-place elementwise ops and Dot sit on the filter hot path
  // (state correction, NIS), so they are defined inline over the raw
  // storage; op order matches the historical loops (bit-identical).
  Vector& operator+=(const Vector& other) {
    assert(size() == other.size());
    double* p = data_.data();
    const double* q = other.data_.data();
    size_t n = data_.size();
    for (size_t i = 0; i < n; ++i) p[i] += q[i];
    return *this;
  }
  Vector& operator-=(const Vector& other) {
    assert(size() == other.size());
    double* p = data_.data();
    const double* q = other.data_.data();
    size_t n = data_.size();
    for (size_t i = 0; i < n; ++i) p[i] -= q[i];
    return *this;
  }
  Vector& operator*=(double s) {
    double* p = data_.data();
    size_t n = data_.size();
    for (size_t i = 0; i < n; ++i) p[i] *= s;
    return *this;
  }
  Vector& operator/=(double s) {
    double* p = data_.data();
    size_t n = data_.size();
    for (size_t i = 0; i < n; ++i) p[i] /= s;
    return *this;
  }

  /// Inner product; dimensions must match.
  double Dot(const Vector& other) const {
    assert(size() == other.size());
    return DotRaw(data_.data(), other.data_.data(), data_.size());
  }

  /// Euclidean norm.
  double Norm() const;
  /// Squared Euclidean norm.
  double SquaredNorm() const;
  /// Max-abs (infinity) norm.
  double NormInf() const;

  /// "[a, b, c]".
  std::string ToString() const;

 private:
  Store data_;
};

Vector operator+(Vector a, const Vector& b);
Vector operator-(Vector a, const Vector& b);
Vector operator*(Vector v, double s);
Vector operator*(double s, Vector v);
Vector operator/(Vector v, double s);
Vector operator-(Vector v);

bool operator==(const Vector& a, const Vector& b);

/// True if a and b have equal size and entries within `tol` of each other.
bool AlmostEqual(const Vector& a, const Vector& b, double tol = 1e-9);

/// L-infinity distance; dimensions must match.
inline double MaxAbsDiff(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

}  // namespace kc

#endif  // KALMANCAST_LINALG_VECTOR_H_
