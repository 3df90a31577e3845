#ifndef KALMANCAST_LINALG_BATCH_KERNELS_H_
#define KALMANCAST_LINALG_BATCH_KERNELS_H_

#include <cstddef>

#if defined(__AVX2__) && !defined(KC_BATCH_FORCE_SCALAR)
#define KC_BATCH_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace kc {
namespace batch {

/// Lane-per-slot batch kernels for the FilterPool predict sweep.
///
/// Each SIMD lane carries one *slot's* filter: lane l of every vector
/// register holds slot (4*block + l)'s value of the same (x element /
/// P entry / intermediate). The kernels execute, per slot, exactly the
/// floating-point operation sequence of the scalar destination-passing
/// kernels in linalg/kernels.h (the sequence FilterPool::PredictSlot and
/// KalmanFilter::Predict run) — cross-slot vectorization reorders nothing
/// *within* a slot, so every lane's result is bit-identical to the scalar
/// path by construction. Two details make that exact rather than merely
/// close:
///
///  - No FMA, ever. a*b then +c rounds twice in the scalar kernels, so
///    the lane kernels use separate multiply and add. The build adds
///    -mavx2 but deliberately not -mfma, so the compiler cannot contract
///    the pair behind our back (contraction needs the FMA ISA).
///  - The data-dependent zero-skip. MultiplyTransposedInto skips the
///    accumulation `out += av * b` when av == 0.0, and in tmp * F^T the
///    `av` is per-slot data — lanes may disagree. A compare+blend keeps
///    each lane's *old* accumulator exactly where that lane's av is zero,
///    which reproduces the skip bit-for-bit (including -0.0 == 0.0
///    skipping, and NaN av not skipping, matching the scalar compare).
///    The F-side skip in F * P depends only on the shared F, so it stays
///    an ordinary branch, uniform across lanes.
///
/// Slab layout (AoSoA): a block is kLanes consecutive slots. Element e of
/// slot s lives at x_blk[e * kLanes + lane] with block = s / kLanes,
/// lane = s % kLanes; P entry (r, c) at p_blk[(r*dim + c) * kLanes +
/// lane]. Loads are full-width (inactive lanes hold zeroed state, safe to
/// compute with); stores honor an active-lane mask so freed slots stay
/// zeroed and remainder blocks (slot counts not a multiple of kLanes)
/// never touch memory beyond their live lanes.
///
/// Two lane types compile side by side: LanePortable (plain double[4],
/// the scalar fallback — also what KC_SIMD=OFF builds use exclusively via
/// KC_BATCH_FORCE_SCALAR) and, when AVX2 is available, LaneAvx on
/// __m256d. Both are available at runtime so a single binary can pin
/// SIMD-vs-scalar bit-identity (tests/batch_kernels_test.cc) and bench
/// the simd on/off axis.

inline constexpr size_t kLanes = 4;
/// Largest state dimension with a specialized batch kernel; matches the
/// inline small-buffer envelope. FilterPool runs larger models on its
/// scalar per-slot fallback.
inline constexpr size_t kMaxDim = 8;
inline constexpr unsigned kFullMask = (1u << kLanes) - 1;

#if KC_BATCH_HAVE_AVX2
inline constexpr bool kSimdCompiledIn = true;
#else
inline constexpr bool kSimdCompiledIn = false;
#endif

/// Portable lane: four independent scalar pipelines. The loops below are
/// trivially auto-vectorizable, but correctness never depends on that —
/// each lane performs the scalar op sequence verbatim.
struct LanePortable {
  double v[kLanes];

  static LanePortable Zero() { return Broadcast(0.0); }
  static LanePortable Broadcast(double s) {
    LanePortable r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = s;
    return r;
  }
  static LanePortable Load(const double* p) {
    LanePortable r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = p[l];
    return r;
  }
  void Store(double* p) const {
    for (size_t l = 0; l < kLanes; ++l) p[l] = v[l];
  }
  void StoreMasked(double* p, unsigned mask) const {
    for (size_t l = 0; l < kLanes; ++l) {
      if (mask & (1u << l)) p[l] = v[l];
    }
  }
  friend LanePortable Add(LanePortable a, LanePortable b) {
    LanePortable r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  friend LanePortable Mul(LanePortable a, LanePortable b) {
    LanePortable r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  /// Per lane: av == 0.0 ? if_zero : if_nonzero — the lane form of the
  /// scalar kernels' `if (av == 0.0) continue;` accumulation skip.
  friend LanePortable BlendWhereZero(LanePortable av, LanePortable if_zero,
                                     LanePortable if_nonzero) {
    LanePortable r;
    for (size_t l = 0; l < kLanes; ++l) {
      r.v[l] = (av.v[l] == 0.0) ? if_zero.v[l] : if_nonzero.v[l];
    }
    return r;
  }
};

#if KC_BATCH_HAVE_AVX2
/// AVX2 lane: one 256-bit register = four slots' doubles.
struct LaneAvx {
  __m256d v;

  static LaneAvx Zero() { return {_mm256_setzero_pd()}; }
  static LaneAvx Broadcast(double s) { return {_mm256_set1_pd(s)}; }
  static LaneAvx Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }
  void StoreMasked(double* p, unsigned mask) const {
    double tmp[kLanes];
    _mm256_storeu_pd(tmp, v);
    for (size_t l = 0; l < kLanes; ++l) {
      if (mask & (1u << l)) p[l] = tmp[l];
    }
  }
  friend LaneAvx Add(LaneAvx a, LaneAvx b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend LaneAvx Mul(LaneAvx a, LaneAvx b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend LaneAvx BlendWhereZero(LaneAvx av, LaneAvx if_zero,
                                LaneAvx if_nonzero) {
    // Ordered quiet ==: -0.0 compares equal to 0.0 (skip, like the scalar
    // branch) and NaN compares unequal (no skip, ditto).
    __m256d zero_mask = _mm256_cmp_pd(av.v, _mm256_setzero_pd(), _CMP_EQ_OQ);
    return {_mm256_blendv_pd(if_nonzero.v, if_zero.v, zero_mask)};
  }
};
#endif  // KC_BATCH_HAVE_AVX2

/// One block's time update — per slot (lane), the exact sequence of
/// FilterPool::PredictSlot / KalmanFilter::Predict:
///   fx = F x                       (MultiplyInto(Matrix, Vector))
///   tmp = F P                      (MultiplyInto — zero-skip on F)
///   j1  = tmp F^T                  (MultiplyTransposedInto — zero-skip
///                                   on tmp, per-lane blend)
///   P   = j1 + Q; Symmetrize(P)    (AddInto; avg = 0.5 * (p_rc + p_cr))
///   x   = fx
/// `f` is the pool's shared row-major dim x dim transition matrix;
/// `x_blk`/`p_blk` point at the block's lane-interleaved slab storage.
/// With LaneQ false, `q` is the shared row-major Q, broadcast to every
/// lane. With LaneQ true (adaptive pools, where each slot owns its Q),
/// `q` is the block's lane-interleaved Q slab, Q(r, c) of lane l at
/// q[(r*dim + c) * kLanes + l], loaded per lane — the only difference;
/// the per-lane op sequence is the same either way. Only lanes set in
/// `mask` are stored; all lanes are loaded and computed (inactive lanes
/// hold zeroed state, so the arithmetic is well-defined and the results
/// are discarded).
template <typename Lane, size_t Dim, bool LaneQ = false>
inline void PredictBlock(const double* f, const double* q, double* x_blk,
                         double* p_blk, unsigned mask) {
  // fx = F x: per output row, accumulate from 0.0 in column order (no
  // zero-skip — the matrix*vector kernel has none).
  Lane fx[Dim];
  for (size_t r = 0; r < Dim; ++r) {
    Lane sum = Lane::Zero();
    for (size_t c = 0; c < Dim; ++c) {
      sum = Add(sum, Mul(Lane::Broadcast(f[r * Dim + c]),
                         Lane::Load(x_blk + c * kLanes)));
    }
    fx[r] = sum;
  }

  // tmp = F P. The skip tests the shared F entry, so it is a plain
  // branch, identical across lanes.
  Lane tmp[Dim * Dim];
  for (size_t i = 0; i < Dim * Dim; ++i) tmp[i] = Lane::Zero();
  for (size_t r = 0; r < Dim; ++r) {
    for (size_t k = 0; k < Dim; ++k) {
      double av = f[r * Dim + k];
      if (av == 0.0) continue;
      Lane bav = Lane::Broadcast(av);
      for (size_t c = 0; c < Dim; ++c) {
        tmp[r * Dim + c] =
            Add(tmp[r * Dim + c],
                Mul(bav, Lane::Load(p_blk + (k * Dim + c) * kLanes)));
      }
    }
  }

  // j1 = tmp F^T: b^T(k, c) == F(c, k). The skip tests per-slot data, so
  // each lane blends its old accumulator back where its av is zero.
  Lane j1[Dim * Dim];
  for (size_t i = 0; i < Dim * Dim; ++i) j1[i] = Lane::Zero();
  for (size_t r = 0; r < Dim; ++r) {
    for (size_t k = 0; k < Dim; ++k) {
      Lane av = tmp[r * Dim + k];
      for (size_t c = 0; c < Dim; ++c) {
        Lane old = j1[r * Dim + c];
        Lane acc = Add(old, Mul(av, Lane::Broadcast(f[c * Dim + k])));
        j1[r * Dim + c] = BlendWhereZero(av, old, acc);
      }
    }
  }

  // P = j1 + Q, then the in-place symmetrization, in register.
  Lane p[Dim * Dim];
  for (size_t i = 0; i < Dim * Dim; ++i) {
    if constexpr (LaneQ) {
      p[i] = Add(j1[i], Lane::Load(q + i * kLanes));
    } else {
      p[i] = Add(j1[i], Lane::Broadcast(q[i]));
    }
  }
  const Lane half = Lane::Broadcast(0.5);
  for (size_t r = 0; r < Dim; ++r) {
    for (size_t c = r + 1; c < Dim; ++c) {
      Lane avg = Mul(half, Add(p[r * Dim + c], p[c * Dim + r]));
      p[r * Dim + c] = avg;
      p[c * Dim + r] = avg;
    }
  }

  if (mask == kFullMask) {
    for (size_t e = 0; e < Dim; ++e) fx[e].Store(x_blk + e * kLanes);
    for (size_t i = 0; i < Dim * Dim; ++i) p[i].Store(p_blk + i * kLanes);
  } else {
    for (size_t e = 0; e < Dim; ++e) {
      fx[e].StoreMasked(x_blk + e * kLanes, mask);
    }
    for (size_t i = 0; i < Dim * Dim; ++i) {
      p[i].StoreMasked(p_blk + i * kLanes, mask);
    }
  }
}

/// Signature of a dim-specialized block predict.
using PredictBlockFn = void (*)(const double* f, const double* q,
                                double* x_blk, double* p_blk, unsigned mask);

template <typename Lane, bool LaneQ>
inline PredictBlockFn PredictBlockFnForDim(size_t dim) {
  switch (dim) {
    case 1: return &PredictBlock<Lane, 1, LaneQ>;
    case 2: return &PredictBlock<Lane, 2, LaneQ>;
    case 3: return &PredictBlock<Lane, 3, LaneQ>;
    case 4: return &PredictBlock<Lane, 4, LaneQ>;
    case 5: return &PredictBlock<Lane, 5, LaneQ>;
    case 6: return &PredictBlock<Lane, 6, LaneQ>;
    case 7: return &PredictBlock<Lane, 7, LaneQ>;
    case 8: return &PredictBlock<Lane, 8, LaneQ>;
    default: return nullptr;  // Outside the slab envelope: scalar path.
  }
}

/// The vector instantiation for `dim` — AVX2 lanes when compiled in,
/// otherwise the portable lanes. Null for dim > kMaxDim. `lane_q` selects
/// the per-lane-Q variant (see PredictBlock).
inline PredictBlockFn SimdPredictFn(size_t dim, bool lane_q = false) {
#if KC_BATCH_HAVE_AVX2
  using Lane = LaneAvx;
#else
  using Lane = LanePortable;
#endif
  return lane_q ? PredictBlockFnForDim<Lane, true>(dim)
                : PredictBlockFnForDim<Lane, false>(dim);
}

/// The portable instantiation, always available (the runtime simd=off
/// path and the reference side of the bit-identity tests).
inline PredictBlockFn PortablePredictFn(size_t dim, bool lane_q = false) {
  return lane_q ? PredictBlockFnForDim<LanePortable, true>(dim)
                : PredictBlockFnForDim<LanePortable, false>(dim);
}

}  // namespace batch
}  // namespace kc

#endif  // KALMANCAST_LINALG_BATCH_KERNELS_H_
