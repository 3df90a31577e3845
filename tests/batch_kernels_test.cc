// Bit-identity pins for the lane-per-slot batch kernels: the SIMD lane
// type against the portable lane type against the scalar destination-
// passing kernels, at the raw-kernel level and through the full FilterPool
// protocol. These are the tests that make "vectorization is purely a
// performance knob" an enforced invariant rather than an intention.

#include "linalg/batch_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstddef>
#include <optional>
#include <vector>

#include "fleet/pool.h"
#include "kalman/kalman_filter.h"
#include "kalman/model.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "streams/reading.h"
#include "suppression/policies.h"

namespace kc {
namespace {

constexpr size_t kLanes = batch::kLanes;

/// Deterministic value stream (xorshift) so every test input is pinned.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed | 1) {}
  double Uniform() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<double>(state_ >> 11) * (1.0 / 9007199254740992.0);
  }
  double Centered() { return 2.0 * Uniform() - 1.0; }

 private:
  uint64_t state_;
};

/// A dim x dim model with structural zeros in F (the shared-branch skip)
/// and a dense-ish Q; symmetric positive P per slot.
struct BlockFixture {
  std::vector<double> f, q;          // Row-major dim x dim.
  std::vector<double> x_blk, p_blk;  // Lane-interleaved block slabs.

  BlockFixture(size_t dim, uint64_t seed) : dim_(dim) {
    Rng rng(seed);
    f.assign(dim * dim, 0.0);
    q.assign(dim * dim, 0.0);
    for (size_t r = 0; r < dim; ++r) {
      f[r * dim + r] = 1.0 + 0.1 * rng.Centered();
      if (r + 1 < dim) f[r * dim + r + 1] = 0.01;  // Off-diagonal coupling.
      // Everything else stays exactly 0.0: the F-side skip fires.
      for (size_t c = 0; c < dim; ++c) {
        q[r * dim + c] = (r == c) ? 0.01 + 0.001 * rng.Uniform() : 0.0;
      }
    }
    x_blk.assign(dim * kLanes, 0.0);
    p_blk.assign(dim * dim * kLanes, 0.0);
    for (size_t l = 0; l < kLanes; ++l) {
      for (size_t e = 0; e < dim; ++e) {
        x_blk[e * kLanes + l] = rng.Centered();
      }
      // P = diagonal + tiny symmetric off-diagonals; some exact zeros so
      // the per-lane data-dependent skip in tmp * F^T fires too.
      for (size_t r = 0; r < dim; ++r) {
        for (size_t c = r; c < dim; ++c) {
          double v;
          if (r == c) {
            v = 1.0 + rng.Uniform();
          } else if ((r + c + l) % 3 == 0) {
            v = 0.0;  // Exact zero: lanes disagree on the skip.
          } else {
            v = 0.05 * rng.Centered();
          }
          p_blk[(r * dim_ + c) * kLanes + l] = v;
          p_blk[(c * dim_ + r) * kLanes + l] = v;
        }
      }
    }
  }

  Vector XOf(size_t lane) const {
    Vector x(dim_);
    for (size_t e = 0; e < dim_; ++e) x[e] = x_blk[e * kLanes + lane];
    return x;
  }
  Matrix POf(size_t lane) const {
    Matrix p(dim_, dim_);
    for (size_t r = 0; r < dim_; ++r) {
      for (size_t c = 0; c < dim_; ++c) {
        p(r, c) = p_blk[(r * dim_ + c) * kLanes + lane];
      }
    }
    return p;
  }

 private:
  size_t dim_;
};

/// The scalar reference: exactly FilterPool::PredictScalarSlot /
/// KalmanFilter::Predict's kernel sequence on one (x, P).
void ScalarPredict(const std::vector<double>& f_raw,
                   const std::vector<double>& q_raw, size_t dim, Vector* x,
                   Matrix* p) {
  Matrix f(dim, dim), q(dim, dim);
  for (size_t i = 0; i < dim * dim; ++i) {
    f.data()[i] = f_raw[i];
    q.data()[i] = q_raw[i];
  }
  Vector fx;
  Matrix tmp, j1;
  MultiplyInto(f, *x, &fx);
  *x = fx;
  SandwichInto(f, *p, &tmp, &j1);
  AddInto(j1, q, p);
  p->Symmetrize();
}

// ---------------------------------------------------- Raw kernel identity

// Portable lanes vs the scalar kernel sequence, every dim, several steps:
// the core "cross-slot vectorization reorders nothing within a slot"
// claim, checked bit-for-bit per lane.
TEST(BatchKernels, PortableLanesMatchScalarKernelsEveryDim) {
  for (size_t dim = 1; dim <= batch::kMaxDim; ++dim) {
    BlockFixture fx(dim, 0x9000 + dim);
    batch::PredictBlockFn fn = batch::PortablePredictFn(dim);
    ASSERT_NE(fn, nullptr) << "dim " << dim;

    Vector x_ref[kLanes];
    Matrix p_ref[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      x_ref[l] = fx.XOf(l);
      p_ref[l] = fx.POf(l);
    }
    for (int step = 0; step < 5; ++step) {
      fn(fx.f.data(), fx.q.data(), fx.x_blk.data(), fx.p_blk.data(),
         batch::kFullMask);
      for (size_t l = 0; l < kLanes; ++l) {
        ScalarPredict(fx.f, fx.q, dim, &x_ref[l], &p_ref[l]);
        Vector x_got = fx.XOf(l);
        Matrix p_got = fx.POf(l);
        for (size_t e = 0; e < dim; ++e) {
          ASSERT_EQ(x_ref[l][e], x_got[e])
              << "dim " << dim << " lane " << l << " step " << step;
        }
        for (size_t r = 0; r < dim; ++r) {
          for (size_t c = 0; c < dim; ++c) {
            ASSERT_EQ(p_ref[l](r, c), p_got(r, c))
                << "dim " << dim << " lane " << l << " step " << step;
          }
        }
      }
    }
  }
}

// SIMD lanes vs portable lanes on identical blocks, every dim. When AVX2
// is not compiled in the two function pointers coincide and this pins the
// trivial case.
TEST(BatchKernels, SimdLanesMatchPortableLanesEveryDim) {
  for (size_t dim = 1; dim <= batch::kMaxDim; ++dim) {
    BlockFixture simd_fx(dim, 0xA000 + dim);
    BlockFixture port_fx(dim, 0xA000 + dim);  // Same seed: same inputs.
    batch::PredictBlockFn simd_fn = batch::SimdPredictFn(dim);
    batch::PredictBlockFn port_fn = batch::PortablePredictFn(dim);
    ASSERT_NE(simd_fn, nullptr);
    ASSERT_NE(port_fn, nullptr);
    for (int step = 0; step < 8; ++step) {
      simd_fn(simd_fx.f.data(), simd_fx.q.data(), simd_fx.x_blk.data(),
              simd_fx.p_blk.data(), batch::kFullMask);
      port_fn(port_fx.f.data(), port_fx.q.data(), port_fx.x_blk.data(),
              port_fx.p_blk.data(), batch::kFullMask);
      ASSERT_EQ(simd_fx.x_blk, port_fx.x_blk) << "dim " << dim;
      ASSERT_EQ(simd_fx.p_blk, port_fx.p_blk) << "dim " << dim;
    }
  }
}

// The data-dependent zero-skip blend: -0.0 must skip (compare equal to
// zero), NaN must not skip — exactly like the scalar `av == 0.0` branch.
// Feed P entries that make tmp = F P carry -0.0 in some lanes by using a
// pure-diagonal F with a -0.0 P entry (tmp inherits P's signed zeros).
TEST(BatchKernels, BlendReproducesSignedZeroSkip) {
  const size_t dim = 2;
  for (bool simd : {false, true}) {
    std::vector<double> f = {1.0, 0.0, 0.0, 1.0};  // Identity.
    std::vector<double> q = {0.01, 0.0, 0.0, 0.01};
    std::vector<double> x_blk(dim * kLanes, 0.5);
    std::vector<double> p_blk(dim * dim * kLanes, 0.0);
    for (size_t l = 0; l < kLanes; ++l) {
      p_blk[(0 * dim + 0) * kLanes + l] = 1.0;
      p_blk[(1 * dim + 1) * kLanes + l] = 2.0;
      // Off-diagonals: +0.0, -0.0, small nonzero, -0.0 across lanes.
      double off = (l == 2) ? 0.125 : (l % 2 == 1 ? -0.0 : 0.0);
      p_blk[(0 * dim + 1) * kLanes + l] = off;
      p_blk[(1 * dim + 0) * kLanes + l] = off;
    }
    batch::PredictBlockFn fn =
        simd ? batch::SimdPredictFn(dim) : batch::PortablePredictFn(dim);
    fn(f.data(), q.data(), x_blk.data(), p_blk.data(), batch::kFullMask);

    for (size_t l = 0; l < kLanes; ++l) {
      Vector x{0.5, 0.5};
      Matrix p(dim, dim);
      p(0, 0) = 1.0;
      p(1, 1) = 2.0;
      double off = (l == 2) ? 0.125 : (l % 2 == 1 ? -0.0 : 0.0);
      p(0, 1) = off;
      p(1, 0) = off;
      ScalarPredict(f, q, dim, &x, &p);
      for (size_t r = 0; r < dim; ++r) {
        for (size_t c = 0; c < dim; ++c) {
          double got = p_blk[(r * dim + c) * kLanes + l];
          ASSERT_EQ(p(r, c), got) << "lane " << l << " simd " << simd;
          // Signed zeros must match bit-for-bit, not just compare equal.
          ASSERT_EQ(std::signbit(p(r, c)), std::signbit(got))
              << "lane " << l << " simd " << simd;
        }
      }
    }
  }
}

// Masked stores: every one of the 16 masks leaves unmasked lanes' slab
// memory EXACTLY as it was (sentinel-checked) and stores masked lanes'
// results, for both lane types.
TEST(BatchKernels, MaskedStoresTouchOnlyActiveLanes) {
  const size_t dim = 3;
  for (bool simd : {false, true}) {
    batch::PredictBlockFn fn =
        simd ? batch::SimdPredictFn(dim) : batch::PortablePredictFn(dim);
    for (unsigned mask = 0; mask <= batch::kFullMask; ++mask) {
      BlockFixture fx(dim, 0xB33F);
      // Plant sentinels in inactive lanes. The kernel computes on all
      // lanes, so inactive lanes must still hold finite values — use a
      // recognizable finite sentinel.
      const double kSentinel = 1234.5;
      for (size_t l = 0; l < kLanes; ++l) {
        if (mask & (1u << l)) continue;
        for (size_t e = 0; e < dim; ++e) fx.x_blk[e * kLanes + l] = kSentinel;
        for (size_t i = 0; i < dim * dim; ++i) {
          fx.p_blk[i * kLanes + l] = kSentinel;
        }
      }
      // Reference results for active lanes, from the same pre-state.
      Vector x_ref[kLanes];
      Matrix p_ref[kLanes];
      for (size_t l = 0; l < kLanes; ++l) {
        x_ref[l] = fx.XOf(l);
        p_ref[l] = fx.POf(l);
        ScalarPredict(fx.f, fx.q, dim, &x_ref[l], &p_ref[l]);
      }
      fn(fx.f.data(), fx.q.data(), fx.x_blk.data(), fx.p_blk.data(), mask);
      for (size_t l = 0; l < kLanes; ++l) {
        const bool active = (mask & (1u << l)) != 0;
        for (size_t e = 0; e < dim; ++e) {
          double got = fx.x_blk[e * kLanes + l];
          if (active) {
            ASSERT_EQ(x_ref[l][e], got) << "mask " << mask << " lane " << l;
          } else {
            ASSERT_EQ(kSentinel, got) << "mask " << mask << " lane " << l;
          }
        }
        for (size_t r = 0; r < dim; ++r) {
          for (size_t c = 0; c < dim; ++c) {
            double got = fx.p_blk[(r * dim + c) * kLanes + l];
            if (active) {
              ASSERT_EQ(p_ref[l](r, c), got)
                  << "mask " << mask << " lane " << l;
            } else {
              ASSERT_EQ(kSentinel, got) << "mask " << mask << " lane " << l;
            }
          }
        }
      }
    }
  }
}

// The per-lane-Q variant adaptive pools sweep with: each lane adds its own
// Q from a lane-interleaved slab. For every dim 1..8 and every one of the
// 16 store masks, SIMD and portable lanes agree bit-for-bit on the whole
// block, active lanes match the scalar sequence run with that lane's Q,
// and inactive lanes keep their sentinels.
TEST(BatchKernels, LaneQKernelMatchesPortableAndScalarEveryDimAndMask) {
  const double kSentinel = 1234.5;
  for (size_t dim = 1; dim <= batch::kMaxDim; ++dim) {
    batch::PredictBlockFn simd_fn = batch::SimdPredictFn(dim, /*lane_q=*/true);
    batch::PredictBlockFn port_fn =
        batch::PortablePredictFn(dim, /*lane_q=*/true);
    ASSERT_NE(simd_fn, nullptr);
    ASSERT_NE(port_fn, nullptr);
    for (unsigned mask = 0; mask <= batch::kFullMask; ++mask) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << " mask " << mask);
      BlockFixture simd_fx(dim, 0xE000 + dim);
      // Distinct symmetric Q per lane: the fixture's diagonal scaled per
      // lane plus lane-dependent off-diagonal coupling.
      std::vector<double> q_blk(dim * dim * kLanes);
      std::vector<std::vector<double>> lane_q(kLanes);
      for (size_t l = 0; l < kLanes; ++l) {
        lane_q[l].assign(dim * dim, 0.0);
        for (size_t r = 0; r < dim; ++r) {
          for (size_t c = 0; c < dim; ++c) {
            double v = (r == c) ? simd_fx.q[r * dim + c] * (1.0 + 0.37 * l)
                                : 0.001 * static_cast<double>(l);
            lane_q[l][r * dim + c] = v;
            q_blk[(r * dim + c) * kLanes + l] = v;
          }
        }
      }
      for (size_t l = 0; l < kLanes; ++l) {
        if (mask & (1u << l)) continue;
        for (size_t e = 0; e < dim; ++e) {
          simd_fx.x_blk[e * kLanes + l] = kSentinel;
        }
        for (size_t i = 0; i < dim * dim; ++i) {
          simd_fx.p_blk[i * kLanes + l] = kSentinel;
        }
      }
      BlockFixture port_fx = simd_fx;
      Vector x_ref[kLanes];
      Matrix p_ref[kLanes];
      for (size_t l = 0; l < kLanes; ++l) {
        x_ref[l] = simd_fx.XOf(l);
        p_ref[l] = simd_fx.POf(l);
      }
      for (int step = 0; step < 3; ++step) {
        simd_fn(simd_fx.f.data(), q_blk.data(), simd_fx.x_blk.data(),
                simd_fx.p_blk.data(), mask);
        port_fn(port_fx.f.data(), q_blk.data(), port_fx.x_blk.data(),
                port_fx.p_blk.data(), mask);
        ASSERT_EQ(simd_fx.x_blk, port_fx.x_blk) << "step " << step;
        ASSERT_EQ(simd_fx.p_blk, port_fx.p_blk) << "step " << step;
        for (size_t l = 0; l < kLanes; ++l) {
          const bool active = (mask & (1u << l)) != 0;
          if (active) ScalarPredict(simd_fx.f, lane_q[l], dim, &x_ref[l],
                                    &p_ref[l]);
          Vector x_got = simd_fx.XOf(l);
          Matrix p_got = simd_fx.POf(l);
          for (size_t e = 0; e < dim; ++e) {
            ASSERT_EQ(active ? x_ref[l][e] : kSentinel, x_got[e])
                << "lane " << l << " step " << step;
          }
          for (size_t i = 0; i < dim * dim; ++i) {
            ASSERT_EQ(active ? p_ref[l].data()[i] : kSentinel,
                      p_got.data()[i])
                << "lane " << l << " step " << step;
          }
        }
      }
    }
  }
}

// ------------------------------------------------- Pool-level equivalence

/// A valid model of any state dimension n (observing component 0).
StateSpaceModel MakeDimModel(size_t n) {
  StateSpaceModel model;
  model.f = Matrix::Identity(n);
  for (size_t i = 0; i + 1 < n; ++i) model.f(i, i + 1) = 0.01;
  model.q = Matrix::ScalarDiagonal(n, 0.01);
  model.h = Matrix(1, n);
  model.h(0, 0) = 1.0;
  model.r = Matrix{{0.04}};
  return model;
}

/// Drives two pools — one simd, one scalar — through an identical mixed
/// workload (sweeps, per-slot predicts, updates, gates, serialization)
/// and asserts every slot stays bit-identical throughout. With `adaptive`
/// both are adaptive pools and every update is followed by AdaptSlot, so
/// the lane-Q sweep runs over slots whose Q has diverged.
void DrivePoolSimdEquivalence(
    size_t dim, size_t slots, KalmanFilter::UpdateForm form,
    const std::optional<AdaptiveConfig>& adaptive = std::nullopt) {
  StateSpaceModel model = MakeDimModel(dim);
  FilterPool simd_pool(model, form, adaptive);
  FilterPool scalar_pool(model, form, adaptive);
  simd_pool.set_simd(true);
  scalar_pool.set_simd(false);

  Rng rng(0xC0FFEE ^ (dim << 8) ^ slots);
  Matrix p0 = Matrix::ScalarDiagonal(dim, 100.0);
  std::vector<int32_t> a_slots, b_slots;
  for (size_t i = 0; i < slots; ++i) {
    Vector x0(dim);
    for (size_t e = 0; e < dim; ++e) x0[e] = rng.Centered();
    int32_t sa = simd_pool.Acquire(static_cast<int32_t>(i));
    int32_t sb = scalar_pool.Acquire(static_cast<int32_t>(i));
    ASSERT_EQ(sa, sb);
    simd_pool.ResetSlot(sa, x0, p0);
    scalar_pool.ResetSlot(sb, x0, p0);
    a_slots.push_back(sa);
    b_slots.push_back(sb);
  }

  for (int t = 0; t < 30; ++t) {
    ASSERT_EQ(simd_pool.PredictAll(), scalar_pool.PredictAll());
    for (size_t i = 0; i < slots; ++i) {
      if ((t + static_cast<int>(i)) % 3 == 0) {
        Vector z{rng.Centered() * 3.0};
        ASSERT_EQ(simd_pool.GateSlot(a_slots[i], z),
                  scalar_pool.GateSlot(b_slots[i], z));
        ASSERT_TRUE(simd_pool.UpdateSlot(a_slots[i], z).ok());
        ASSERT_TRUE(scalar_pool.UpdateSlot(b_slots[i], z).ok());
        ASSERT_EQ(simd_pool.LastNisOf(a_slots[i]),
                  scalar_pool.LastNisOf(b_slots[i]));
        if (adaptive) {
          simd_pool.AdaptSlot(a_slots[i]);
          scalar_pool.AdaptSlot(b_slots[i]);
          ASSERT_TRUE(simd_pool.ProcessNoiseOf(a_slots[i]) ==
                      scalar_pool.ProcessNoiseOf(b_slots[i]));
        }
      }
      if ((t + static_cast<int>(i)) % 7 == 0) {
        // Extra per-slot predicts: the single-lane-mask path.
        simd_pool.PredictSlot(a_slots[i]);
        scalar_pool.PredictSlot(b_slots[i]);
      }
      std::vector<double> sa = simd_pool.SerializeSlot(a_slots[i]);
      std::vector<double> sb = scalar_pool.SerializeSlot(b_slots[i]);
      ASSERT_EQ(sa, sb) << "dim " << dim << " slot " << i << " tick " << t;
    }
  }
}

// Full pool protocol, simd vs scalar, all dims, BOTH update forms, and
// slot counts that are not multiples of the lane width (remainder-block
// handling: 1, 2, 3, 5, 9 live lanes).
TEST(BatchKernels, PoolSimdOffMatchesOnEveryDimAndForm) {
  for (size_t dim = 1; dim <= batch::kMaxDim; ++dim) {
    DrivePoolSimdEquivalence(dim, /*slots=*/6,
                             KalmanFilter::UpdateForm::kJoseph);
    DrivePoolSimdEquivalence(dim, /*slots=*/6,
                             KalmanFilter::UpdateForm::kStandard);
  }
  for (size_t slots : {1u, 2u, 3u, 5u, 9u}) {
    DrivePoolSimdEquivalence(/*dim=*/2, slots,
                             KalmanFilter::UpdateForm::kJoseph);
  }
}

// The same protocol on adaptive pools: per-slot Qs diverge as each slot
// adapts to its own readings, and the lane-Q sweep must stay SIMD-
// invariant over them.
TEST(BatchKernels, AdaptivePoolSimdOffMatchesOnEveryDim) {
  AdaptiveConfig adaptive;
  adaptive.warmup = 2;
  adaptive.window = 4;
  adaptive.smoothing = 0.5;
  for (size_t dim = 1; dim <= batch::kMaxDim; ++dim) {
    DrivePoolSimdEquivalence(dim, /*slots=*/7,
                             KalmanFilter::UpdateForm::kJoseph, adaptive);
  }
}

// The gate's three branches (accept, reject, forced accept) through the
// full PooledKalmanPredictor protocol, simd vs scalar: both predictors
// fed identical readings (with outlier bursts) must agree bit-for-bit on
// every externally visible value.
TEST(BatchKernels, PooledPredictorGateBranchesSimdInvariant) {
  KalmanPredictor::Config config;
  config.model = MakeDimModel(2);
  config.outlier_gate_prob = 0.99;
  config.outlier_gate_limit = 3;

  FilterPoolSet simd_pools;
  FilterPoolSet scalar_pools;
  simd_pools.set_simd(true);
  scalar_pools.set_simd(false);
  PooledKalmanPredictor a(config, &simd_pools);
  PooledKalmanPredictor b(config, &scalar_pools);

  Rng rng(0xFEED);
  Reading first;
  first.seq = 0;
  first.time = 0.0;
  first.value = Vector{0.0};
  a.Init(first);
  b.Init(first);

  int rejects_seen = 0;
  int forced_runs_seen = 0;
  for (int t = 1; t <= 160; ++t) {
    a.Tick();
    b.Tick();
    Reading r;
    r.seq = t;
    r.time = static_cast<double>(t);
    r.value = Vector{0.02 * rng.Centered()};
    if (t % 19 == 0) r.value[0] += 80.0;  // Isolated outlier: reject.
    if (t >= 60 && t < 60 + 2 * config.outlier_gate_limit) {
      r.value[0] += 80.0;  // Sustained run: exhausts the limit, forces.
      ++forced_runs_seen;
    }
    int64_t before = a.OutliersRejected();
    a.ObserveLocal(r);
    b.ObserveLocal(r);
    if (a.OutliersRejected() > before) ++rejects_seen;
    ASSERT_EQ(a.LastNis(), b.LastNis()) << t;
    ASSERT_EQ(a.OutliersRejected(), b.OutliersRejected()) << t;
    std::vector<double> fa = a.EncodeFullState();
    std::vector<double> fb = b.EncodeFullState();
    ASSERT_EQ(fa, fb) << t;
  }
  // The history actually exercised reject and forced-accept branches.
  EXPECT_GT(rejects_seen, 0);
  EXPECT_GT(forced_runs_seen, 0);
  EXPECT_GT(a.OutliersRejected(), 0);
}

// Chunked sweeps equal one whole sweep bit-for-bit, for every possible
// split point — the determinism half of the parallel-sweep contract
// (threads only ever change WHICH chunks run where, never their content).
TEST(BatchKernels, SweepBlocksAnyChunkingMatchesPredictAll) {
  const size_t dim = 3;
  StateSpaceModel model = MakeDimModel(dim);
  const size_t slots = 11;  // 3 blocks, last one partial.

  auto build = [&](FilterPool* pool) {
    Rng rng(0xD1CE);
    Matrix p0 = Matrix::ScalarDiagonal(dim, 50.0);
    for (size_t i = 0; i < slots; ++i) {
      Vector x0(dim);
      for (size_t e = 0; e < dim; ++e) x0[e] = rng.Centered();
      int32_t s = pool->Acquire(static_cast<int32_t>(i));
      pool->ResetSlot(s, x0, p0);
    }
    // A hole: freed slot in the middle block.
    pool->Release(5);
  };

  FilterPool whole(model, KalmanFilter::UpdateForm::kJoseph);
  build(&whole);
  ASSERT_EQ(whole.PredictAll(), slots - 1);

  for (size_t split = 0; split <= whole.num_blocks(); ++split) {
    FilterPool chunked(model, KalmanFilter::UpdateForm::kJoseph);
    build(&chunked);
    chunked.BeginSweep();
    size_t advanced = chunked.SweepBlocks(0, split);
    advanced += chunked.SweepBlocks(split, chunked.num_blocks());
    ASSERT_EQ(advanced, slots - 1) << "split " << split;
    for (size_t i = 0; i < slots; ++i) {
      if (i == 5) continue;
      auto s = static_cast<int32_t>(i);
      ASSERT_EQ(whole.SerializeSlot(s), chunked.SerializeSlot(s))
          << "split " << split << " slot " << i;
      ASSERT_EQ(whole.PredictEpochOf(s), chunked.PredictEpochOf(s));
    }
  }
}

}  // namespace
}  // namespace kc
