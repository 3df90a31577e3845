#ifndef KALMANCAST_LINALG_KERNELS_H_
#define KALMANCAST_LINALG_KERNELS_H_

#include <cassert>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace kc {

/// Destination-passing fused kernels for the Kalman hot loop.
///
/// Conventions (see docs/PERF.md):
///   - Destinations are reshaped as needed via ResizeUninit and fully
///     overwritten; reuse of a caller-owned destination is allocation-free
///     once its storage has the right capacity (always true within the
///     inline envelope).
///   - Aliasing: for the multiply/transpose kernels the destination (and
///     `tmp` for SandwichInto) must not alias any input (asserted in debug
///     builds). The elementwise kernels (AddInto/SubInto/IdentityMinusInto
///     and the *InPlace accumulators) tolerate any aliasing.
///   - Bit-identity: every kernel performs the same floating-point
///     operations in the same order as the value-returning operator it
///     backs, so results are bit-for-bit identical — required by the
///     replica-lockstep suppression protocol and the sharded-fleet
///     determinism tests.
///
/// The kernels are defined inline: filter-sized matrices are tiny (n <= 8),
/// so call overhead is a measurable fraction of each operation, and the
/// inner loops index hoisted raw storage pointers for the same reason.
/// Inlining does not reorder floating-point arithmetic, so the bit-identity
/// guarantee is unaffected.

// Raw-storage forms: the loops every kernel below runs, on row-major
// arrays. FilterPool::Observe runs them directly on stack
// temporaries, with constant dims where it is specialized (so they
// unroll); being the same loops, its results are bit-identical to the
// Matrix/Vector kernels'.

/// out (ar x bc) = a (ar x ac) b (ac x bc). Accumulates from 0.0 and skips
/// a's zero entries, like the value-returning operator*.
[[gnu::always_inline]] inline void MultiplyRaw(const double* a,
                                               const double* b, double* out,
                                               size_t ar, size_t ac,
                                               size_t bc) {
  for (size_t i = 0; i < ar * bc; ++i) out[i] = 0.0;
  for (size_t r = 0; r < ar; ++r) {
    double* out_row = out + r * bc;
    for (size_t k = 0; k < ac; ++k) {
      double av = a[r * ac + k];
      if (av == 0.0) continue;
      const double* b_row = b + k * bc;
      for (size_t c = 0; c < bc; ++c) out_row[c] += av * b_row[c];
    }
  }
}

/// out (ar) = a (ar x ac) v; no zero-skip.
[[gnu::always_inline]] inline void MultiplyVectorRaw(const double* a,
                                                     const double* v,
                                                     double* out, size_t ar,
                                                     size_t ac) {
  for (size_t r = 0; r < ar; ++r) {
    const double* a_row = a + r * ac;
    double sum = 0.0;
    for (size_t c = 0; c < ac; ++c) sum += a_row[c] * v[c];
    out[r] = sum;
  }
}

/// out (ar x br) = a (ar x ac) b^T, b being br x ac; mirrors
/// a * b.Transposed() entry for entry (b^T(k, c) == b(c, k)).
[[gnu::always_inline]] inline void MultiplyTransposedRaw(
    const double* a, const double* b, double* out, size_t ar, size_t ac,
    size_t br) {
  for (size_t i = 0; i < ar * br; ++i) out[i] = 0.0;
  for (size_t r = 0; r < ar; ++r) {
    double* out_row = out + r * br;
    for (size_t k = 0; k < ac; ++k) {
      double av = a[r * ac + k];
      if (av == 0.0) continue;
      for (size_t c = 0; c < br; ++c) out_row[c] += av * b[c * ac + k];
    }
  }
}

/// out (ac x ar) = a^T, a being ar x ac.
[[gnu::always_inline]] inline void TransposeRaw(const double* a, double* out,
                                                size_t ar, size_t ac) {
  for (size_t r = 0; r < ar; ++r) {
    for (size_t c = 0; c < ac; ++c) out[c * ar + r] = a[r * ac + c];
  }
}

/// out = a b.
inline void MultiplyInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.cols() == b.rows());
  assert(out->data().data() != a.data().data() &&
         out->data().data() != b.data().data());
  out->ResizeUninit(a.rows(), b.cols());
  MultiplyRaw(a.data().data(), b.data().data(), out->data().data(), a.rows(),
              a.cols(), b.cols());
}

/// out = a v.
inline void MultiplyInto(const Matrix& a, const Vector& v, Vector* out) {
  assert(a.cols() == v.size());
  assert(out->data().data() != v.data().data());
  out->ResizeUninit(a.rows());
  MultiplyVectorRaw(a.data().data(), v.data().data(), out->data().data(),
                    a.rows(), a.cols());
}

/// out = a b^T (without materializing the transpose).
inline void MultiplyTransposedInto(const Matrix& a, const Matrix& b,
                                   Matrix* out) {
  assert(a.cols() == b.cols());
  assert(out->data().data() != a.data().data() &&
         out->data().data() != b.data().data());
  out->ResizeUninit(a.rows(), b.rows());
  MultiplyTransposedRaw(a.data().data(), b.data().data(), out->data().data(),
                        a.rows(), a.cols(), b.rows());
}

/// out = a b a^T via tmp = a b; the congruence transform of covariance
/// propagation. `tmp` and `out` must be distinct from each other and from
/// the inputs.
inline void SandwichInto(const Matrix& a, const Matrix& b, Matrix* tmp,
                         Matrix* out) {
  assert(tmp != out);
  MultiplyInto(a, b, tmp);
  MultiplyTransposedInto(*tmp, a, out);
}

/// out = a + b (elementwise; out may alias a or b).
inline void AddInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  out->ResizeUninit(a.rows(), a.cols());
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* po = out->data().data();
  size_t n = a.data().size();
  for (size_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
}

inline void AddInto(const Vector& a, const Vector& b, Vector* out) {
  assert(a.size() == b.size());
  out->ResizeUninit(a.size());
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* po = out->data().data();
  size_t n = a.size();
  for (size_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
}

/// out = a - b (elementwise; out may alias a or b).
inline void SubInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  out->ResizeUninit(a.rows(), a.cols());
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* po = out->data().data();
  size_t n = a.data().size();
  for (size_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
}

inline void SubInto(const Vector& a, const Vector& b, Vector* out) {
  assert(a.size() == b.size());
  out->ResizeUninit(a.size());
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* po = out->data().data();
  size_t n = a.size();
  for (size_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
}

/// out = a^T.
inline void TransposeInto(const Matrix& a, Matrix* out) {
  assert(out->data().data() != a.data().data());
  out->ResizeUninit(a.cols(), a.rows());
  TransposeRaw(a.data().data(), out->data().data(), a.rows(), a.cols());
}

/// out (n x n) = I - a.
[[gnu::always_inline]] inline void IdentityMinusRaw(const double* a,
                                                    double* out, size_t n) {
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      out[r * n + c] = (r == c ? 1.0 : 0.0) - a[r * n + c];
    }
  }
}

/// out = I - a for square a (the gain complement I - K H).
inline void IdentityMinusInto(const Matrix& a, Matrix* out) {
  assert(a.IsSquare());
  out->ResizeUninit(a.rows(), a.rows());
  IdentityMinusRaw(a.data().data(), out->data().data(), a.rows());
}

/// acc += w * v.
inline void AddScaledInPlace(double w, const Vector& v, Vector* acc) {
  assert(acc->size() == v.size());
  double* pa = acc->data().data();
  const double* pv = v.data().data();
  size_t n = v.size();
  for (size_t i = 0; i < n; ++i) pa[i] += w * pv[i];
}

/// acc += w * (m + d d^T) — the IMM mixed-covariance accumulation.
inline void AddScaledPlusOuterInPlace(double w, const Matrix& m,
                                      const Vector& d, Matrix* acc) {
  assert(m.rows() == d.size() && m.cols() == d.size());
  assert(acc->rows() == d.size() && acc->cols() == d.size());
  size_t n = d.size();
  const double* pm = m.data().data();
  const double* pd = d.data().data();
  double* pa = acc->data().data();
  for (size_t r = 0; r < n; ++r) {
    const double* pm_row = pm + r * n;
    double* pa_row = pa + r * n;
    double dr = pd[r];
    for (size_t c = 0; c < n; ++c) {
      pa_row[c] += w * (pm_row[c] + dr * pd[c]);
    }
  }
}

}  // namespace kc

#endif  // KALMANCAST_LINALG_KERNELS_H_
