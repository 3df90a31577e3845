#include "fleet/pool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/sharded_fleet.h"
#include "kalman/kalman_filter.h"
#include "kalman/model.h"
#include "net/message.h"
#include "streams/generators.h"
#include "streams/reading.h"
#include "suppression/policies.h"

namespace kc {
namespace {

// ------------------------------------------------------------------ Helpers

/// A valid model of any state dimension n (observing component 0): lets
/// the equivalence suite literally cover every dim 1..8 rather than only
/// the dims the named factories provide.
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

/// Deterministic reading stream shared by both predictors under test.
class ReadingStream {
 public:
  explicit ReadingStream(size_t dims, uint64_t seed)
      : dims_(dims), state_(seed | 1) {}

  Reading Next() {
    Reading r;
    r.seq = seq_++;
    r.time = static_cast<double>(r.seq);
    r.value = Vector(dims_);
    for (size_t d = 0; d < dims_; ++d) {
      r.value[d] = 2.0 * Uniform() - 1.0 + 0.05 * static_cast<double>(r.seq);
    }
    return r;
  }

 private:
  double Uniform() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<double>(state_ >> 11) * (1.0 / 9007199254740992.0);
  }

  size_t dims_;
  uint64_t state_;
  int64_t seq_ = 0;
};

void ExpectBitEqual(const Vector& a, const Vector& b, const char* what,
                    int tick) {
  ASSERT_EQ(a.size(), b.size()) << what << " @" << tick;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << "[" << i << "] @" << tick;
  }
}

void ExpectBitEqual(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what, int tick) {
  ASSERT_EQ(a.size(), b.size()) << what << " @" << tick;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << "[" << i << "] @" << tick;
  }
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what,
                    int tick) {
  ASSERT_EQ(a.rows(), b.rows()) << what << " @" << tick;
  ASSERT_EQ(a.cols(), b.cols()) << what << " @" << tick;
  for (size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << what << "[" << i << "] @" << tick;
  }
}

/// What the per-object private filter's Q did over an adaptive run, read
/// off its tick-to-tick changes (so the pins below can prove the branches
/// they claim to cover actually ran).
struct AdaptiveTrace {
  int q_changes = 0;        ///< Ticks on which Q moved.
  bool max_clamp = false;   ///< A step scaled by exactly the max clamp.
  bool min_clamp = false;   ///< ... by exactly the min clamp.
  bool floor_hit = false;   ///< A diagonal entry sat on variance_floor.
  /// Fewest private-filter updates (since Init) before a Q change; the
  /// warm-up bound says this is at least `warmup`.
  int min_updates_before_change = 1 << 30;
  int base_q_restores = 0;  ///< Re-Inits that restored the base Q.
};

/// Drives a per-object KalmanPredictor and a pooled equivalent through an
/// identical history — predicts, gated observations (accepts, rejects, and
/// forced-accept runs), corrections, full syncs, and re-Inits — and
/// asserts every externally visible value is bit-identical at every tick.
/// With an adaptive config it also pins the private filter's adapted Q
/// against the pooled private slot's Q every tick, checks the shadows
/// never adapt, and that each re-Init restores the base Q, filling
/// `trace_out` (when given) with what Q did.
void DriveEquivalence(const KalmanPredictor::Config& config, int ticks,
                      uint64_t seed, AdaptiveTrace* trace_out = nullptr) {
  KalmanPredictor object(config);
  FilterPoolSet pools;
  PooledKalmanPredictor pooled(config, &pools);
  size_t m = config.model.obs_dim();
  ReadingStream stream(m, seed);

  Reading first = stream.Next();
  object.Init(first);
  pooled.Init(first);

  const bool adaptive =
      config.adaptive.has_value() &&
      config.sync_mode != KalmanPredictor::SyncMode::kMeasurement;
  const Matrix& base_q = config.model.q;
  AdaptiveTrace local_trace;
  AdaptiveTrace& trace = trace_out != nullptr ? *trace_out : local_trace;
  Matrix prev_q = base_q;
  int updates_since_init = 0;
  int64_t rejects_before = 0;

  for (int t = 1; t <= ticks; ++t) {
    object.Tick();
    pooled.Tick();

    Reading r = stream.Next();
    if (t % 17 == 0 || (t >= 100 && t < 100 + 2 * config.outlier_gate_limit)) {
      // Isolated outliers exercise the reject branch; the sustained run
      // around t=100 exhausts outlier_gate_limit and forces an accept.
      r.value[0] += 50.0;
    }
    object.ObserveLocal(r);
    pooled.ObserveLocal(r);

    ExpectBitEqual(object.Predict(), pooled.Predict(), "Predict", t);
    ExpectBitEqual(object.Target(), pooled.Target(), "Target", t);
    EXPECT_EQ(object.LastNis(), pooled.LastNis()) << "NIS @" << t;
    EXPECT_EQ(object.OutliersRejected(), pooled.OutliersRejected())
        << "rejects @" << t;

    if (adaptive) {
      const Matrix& q = object.private_filter().model().q;
      ExpectBitEqual(q, pooled.pool()->ProcessNoiseOf(pooled.private_slot()),
                     "adapted Q", t);
      if (object.OutliersRejected() == rejects_before) ++updates_since_init;
      rejects_before = object.OutliersRejected();
      if (!(q == prev_q)) {
        ++trace.q_changes;
        trace.min_updates_before_change =
            std::min(trace.min_updates_before_change, updates_since_init);
        const AdaptiveConfig& a = *config.adaptive;
        double step = q(0, 0) / prev_q(0, 0);
        auto near = [](double x, double y) {
          return std::fabs(x - y) <= 1e-9 * y;
        };
        if (near(step, std::exp(a.smoothing *
                                std::log(a.max_scale_per_step)))) {
          trace.max_clamp = true;
        }
        if (near(step, std::exp(a.smoothing *
                                std::log(a.min_scale_per_step)))) {
          trace.min_clamp = true;
        }
      }
      for (size_t i = 0; i < q.rows(); ++i) {
        if (q(i, i) == config.adaptive->variance_floor) trace.floor_hit = true;
      }
      prev_q = q;
    }

    if (t % 7 == 0) {
      std::vector<double> pa = object.EncodeCorrection(r);
      std::vector<double> pb = pooled.EncodeCorrection(r);
      ExpectBitEqual(pa, pb, "EncodeCorrection", t);
      ASSERT_TRUE(object.ApplyCorrection(r.seq, r.time, pa).ok());
      ASSERT_TRUE(pooled.ApplyCorrection(r.seq, r.time, pa).ok());
    }
    if (t % 23 == 0) {
      std::vector<double> fa = object.EncodeFullState();
      std::vector<double> fb = pooled.EncodeFullState();
      ExpectBitEqual(fa, fb, "EncodeFullState", t);
      ASSERT_TRUE(object.ApplyFullState(fa).ok());
      ASSERT_TRUE(pooled.ApplyFullState(fa).ok());
    }
    if (t % 71 == 0) {
      // Re-Init (the agent's re-anchor path): slots are reused in place.
      object.Init(r);
      pooled.Init(r);
      if (adaptive) {
        // A resync restarts adaptation from the base model on both paths.
        bool moved = !(prev_q == base_q);
        ExpectBitEqual(object.private_filter().model().q, base_q, "reset Q",
                       t);
        ExpectBitEqual(pooled.pool()->ProcessNoiseOf(pooled.private_slot()),
                       base_q, "pooled reset Q", t);
        EXPECT_EQ(pooled.pool()->CumulativeQScaleOf(pooled.private_slot()),
                  1.0);
        if (moved) ++trace.base_q_restores;
        prev_q = base_q;
        updates_since_init = 0;
        rejects_before = 0;
      }
    }
  }
  if (config.adaptive.has_value()) {
    // The shadow is the server's view: it never adapts.
    ExpectBitEqual(pooled.pool()->ProcessNoiseOf(pooled.shadow_slot()),
                   config.model.q, "shadow Q", ticks);
  }
  if (config.sync_mode != KalmanPredictor::SyncMode::kMeasurement &&
      config.outlier_gate_prob > 0.0) {
    // The outlier gate protects the state-sync modes only; in measurement
    // sync every reading flows into the filter.
    EXPECT_GT(object.OutliersRejected(), 0) << "gate never fired";
  }
}

KalmanPredictor::Config GatedConfig(StateSpaceModel model) {
  KalmanPredictor::Config config;
  config.model = std::move(model);
  config.outlier_gate_prob = 0.99;
  config.outlier_gate_limit = 3;
  return config;
}

// ------------------------------------------------- Equivalence, dims 1..8

TEST(PoolEquivalenceTest, BitIdenticalAcrossStateDims1To8) {
  for (size_t n = 1; n <= 8; ++n) {
    SCOPED_TRACE(n);
    DriveEquivalence(GatedConfig(MakeDimModel(n)), /*ticks=*/160,
                     /*seed=*/0x9E3779B9u * n);
  }
}

TEST(PoolEquivalenceTest, BitIdenticalAcrossNamedModels) {
  std::vector<StateSpaceModel> models;
  models.push_back(MakeRandomWalkModel(0.1, 0.25));
  models.push_back(MakeConstantVelocityModel(0.1, 0.5, 0.25));
  models.push_back(MakeConstantAccelerationModel(0.1, 0.5, 0.25));
  models.push_back(MakeHarmonicModel(0.8, 0.1, 0.05, 0.25));
  models.push_back(MakeConstantVelocity2DModel(0.1, 0.5, 0.25));
  models.push_back(MakeConstantAcceleration2DModel(0.1, 0.5, 0.25));
  models.push_back(MakeConstantJerk2DModel(0.1, 0.5, 0.25));
  for (size_t i = 0; i < models.size(); ++i) {
    SCOPED_TRACE(i);
    DriveEquivalence(GatedConfig(models[i]), /*ticks=*/160,
                     /*seed=*/0x2545F491u + i);
  }
}

TEST(PoolEquivalenceTest, BitIdenticalAcrossSyncModesAndForms) {
  for (auto mode : {KalmanPredictor::SyncMode::kState,
                    KalmanPredictor::SyncMode::kStateAndCov,
                    KalmanPredictor::SyncMode::kMeasurement}) {
    for (auto form : {KalmanFilter::UpdateForm::kJoseph,
                      KalmanFilter::UpdateForm::kStandard}) {
      SCOPED_TRACE(static_cast<int>(mode) * 10 + static_cast<int>(form));
      KalmanPredictor::Config config = GatedConfig(MakeDimModel(3));
      config.sync_mode = mode;
      config.update_form = form;
      DriveEquivalence(config, /*ticks=*/120, /*seed=*/77);
    }
  }
}

TEST(PoolEquivalenceTest, BatchedSweepMatchesLazyCatchUp) {
  // One pooled predictor is driven purely by PredictSlotUpTo (standalone
  // mode); the other's pool is swept by PredictAll before every tick (the
  // fleet's batched mode). Identical inputs must yield identical state.
  KalmanPredictor::Config config = GatedConfig(MakeDimModel(4));
  FilterPoolSet lazy_pools;
  FilterPoolSet swept_pools;
  PooledKalmanPredictor lazy(config, &lazy_pools);
  PooledKalmanPredictor swept(config, &swept_pools);
  ReadingStream stream(1, 0xABCDEF);
  Reading first = stream.Next();
  lazy.Init(first);
  swept.Init(first);
  for (int t = 1; t <= 100; ++t) {
    swept_pools.PredictAll();  // The shard's batched sweep.
    lazy.Tick();
    swept.Tick();
    Reading r = stream.Next();
    lazy.ObserveLocal(r);
    swept.ObserveLocal(r);
    ExpectBitEqual(lazy.Predict(), swept.Predict(), "Predict", t);
    ExpectBitEqual(lazy.Target(), swept.Target(), "Target", t);
    ExpectBitEqual(lazy.EncodeFullState(), swept.EncodeFullState(), "full", t);
  }
}

// ------------------------------------------- Adaptive equivalence (adapt_q)

/// MakeDimModel(n) with the default adaptive config (window 32, warmup 8).
KalmanPredictor::Config AdaptiveConfigFor(size_t n, bool gated) {
  KalmanPredictor::Config config =
      gated ? GatedConfig(MakeDimModel(n)) : KalmanPredictor::Config{};
  if (!gated) config.model = MakeDimModel(n);
  config.adaptive = AdaptiveConfig{};
  return config;
}

TEST(PoolAdaptiveEquivalenceTest, BitIdenticalAcrossDimsModesFormsAndGate) {
  for (size_t n : {1, 2, 4}) {
    for (auto mode : {KalmanPredictor::SyncMode::kState,
                      KalmanPredictor::SyncMode::kStateAndCov}) {
      for (auto form : {KalmanFilter::UpdateForm::kJoseph,
                        KalmanFilter::UpdateForm::kStandard}) {
        for (bool gated : {true, false}) {
          SCOPED_TRACE(testing::Message()
                       << "dim " << n << " mode " << static_cast<int>(mode)
                       << " form " << static_cast<int>(form) << " gate "
                       << gated);
          KalmanPredictor::Config config = AdaptiveConfigFor(n, gated);
          config.sync_mode = mode;
          config.update_form = form;
          AdaptiveTrace trace;
          DriveEquivalence(config, /*ticks=*/520, /*seed=*/0x51ED + n,
                           &trace);
          // Q really adapted, never before the warm-up count of updates,
          // well past the 32-entry window, and each re-Init restored it.
          EXPECT_GT(trace.q_changes, 50);
          EXPECT_GE(trace.min_updates_before_change,
                    static_cast<int>(config.adaptive->warmup));
          EXPECT_GE(trace.base_q_restores, 5);
        }
      }
    }
  }
}

TEST(PoolAdaptiveEquivalenceTest, ClampsFloorAndRingWrapBitIdentical) {
  for (size_t n : {1, 2, 4}) {
    SCOPED_TRACE(n);
    // Inflation: far noisier readings than Q=0.01 expects, with full-
    // strength steps, so the max clamp binds. An odd short ring wraps
    // every five updates.
    KalmanPredictor::Config inflate = AdaptiveConfigFor(n, /*gated=*/false);
    inflate.adaptive->window = 5;
    inflate.adaptive->warmup = 3;
    inflate.adaptive->smoothing = 1.0;
    inflate.adaptive->max_scale_per_step = 2.0;
    AdaptiveTrace up;
    DriveEquivalence(inflate, 500, 0xC1A + n, &up);
    EXPECT_TRUE(up.max_clamp);
    EXPECT_GE(up.min_updates_before_change, 3);

    // Deflation: Q 100x too large gives a tiny NIS, so the min clamp binds
    // and Q's diagonal sinks onto variance_floor.
    KalmanPredictor::Config deflate = AdaptiveConfigFor(n, /*gated=*/false);
    deflate.model.q = Matrix::ScalarDiagonal(n, 100.0);
    deflate.adaptive->smoothing = 1.0;
    deflate.adaptive->min_scale_per_step = 0.5;
    deflate.adaptive->variance_floor = 1.0;
    AdaptiveTrace down;
    DriveEquivalence(deflate, 500, 0xF100 + n, &down);
    EXPECT_TRUE(down.min_clamp);
    EXPECT_TRUE(down.floor_hit);
  }
}

TEST(PoolAdaptiveEquivalenceTest, ResyncRestoresBaseQAndAdaptsAgain) {
  KalmanPredictor::Config config = AdaptiveConfigFor(2, /*gated=*/false);
  FilterPoolSet pools;
  KalmanPredictor object(config);
  PooledKalmanPredictor pooled(config, &pools);
  ReadingStream stream(1, 0x5E5);
  Reading first = stream.Next();
  object.Init(first);
  pooled.Init(first);
  auto run = [&](int ticks) {
    for (int t = 0; t < ticks; ++t) {
      pools.PredictAll();  // The fleet's batched (lane-Q) sweep.
      object.Tick();
      pooled.Tick();
      Reading r = stream.Next();
      object.ObserveLocal(r);
      pooled.ObserveLocal(r);
      ExpectBitEqual(object.private_filter().model().q,
                     pooled.pool()->ProcessNoiseOf(pooled.private_slot()),
                     "Q", t);
      ExpectBitEqual(object.EncodeCorrection(r), pooled.EncodeCorrection(r),
                     "correction", t);
    }
  };
  run(100);
  const int32_t slot = pooled.private_slot();
  EXPECT_NE(pooled.pool()->CumulativeQScaleOf(slot), 1.0);
  EXPECT_FALSE(pooled.pool()->ProcessNoiseOf(slot) == config.model.q);

  Reading resync = stream.Next();
  object.Init(resync);
  pooled.Init(resync);
  EXPECT_EQ(pooled.private_slot(), slot);  // Reused in place.
  ExpectBitEqual(pooled.pool()->ProcessNoiseOf(slot), config.model.q,
                 "resync Q", 0);
  EXPECT_EQ(pooled.pool()->CumulativeQScaleOf(slot), 1.0);
  run(100);
  EXPECT_NE(pooled.pool()->CumulativeQScaleOf(slot), 1.0);
}

TEST(PoolAdaptiveEquivalenceTest, ManySlotsEachAdaptTheirOwnQ) {
  // Nine adaptive sources share one pool (18 slots over five blocks),
  // each fed readings of a different volatility, so every private slot's
  // Q drifts to its own level. The lane-Q sweep must add each slot its
  // own Q: every source stays bit-identical to its per-object twin.
  constexpr int kSources = 9;
  KalmanPredictor::Config config = AdaptiveConfigFor(2, /*gated=*/false);
  FilterPoolSet pools;
  std::vector<std::unique_ptr<KalmanPredictor>> objects;
  std::vector<std::unique_ptr<PooledKalmanPredictor>> pooled;
  std::vector<ReadingStream> streams;
  for (int i = 0; i < kSources; ++i) {
    objects.push_back(std::make_unique<KalmanPredictor>(config));
    pooled.push_back(std::make_unique<PooledKalmanPredictor>(config, &pools));
    streams.emplace_back(1, 0xAB00 + static_cast<uint64_t>(i));
    Reading first = streams.back().Next();
    objects.back()->Init(first);
    pooled.back()->Init(first);
  }
  for (int t = 1; t <= 300; ++t) {
    pools.PredictAll();
    for (int i = 0; i < kSources; ++i) {
      objects[i]->Tick();
      pooled[i]->Tick();
      Reading r = streams[i].Next();
      r.value[0] *= 0.05 * (1 + i * i);  // Volatility differs per source.
      objects[i]->ObserveLocal(r);
      pooled[i]->ObserveLocal(r);
      ExpectBitEqual(objects[i]->private_filter().model().q,
                     pooled[i]->pool()->ProcessNoiseOf(
                         pooled[i]->private_slot()),
                     "Q", t);
      ExpectBitEqual(objects[i]->EncodeCorrection(r),
                     pooled[i]->EncodeCorrection(r), "correction", t);
      ExpectBitEqual(objects[i]->Predict(), pooled[i]->Predict(), "Predict",
                     t);
    }
  }
  EXPECT_EQ(pools.num_pools(), 1u);
  EXPECT_GE(pools.pool(0)->num_blocks(), 5u);
  EXPECT_NE(pooled[0]->pool()->ProcessNoiseOf(pooled[0]->private_slot()),
            pooled[8]->pool()->ProcessNoiseOf(pooled[8]->private_slot()));
}

// ------------------------------------------------------- Batched kernels

TEST(FilterPoolTest, BatchKernelsMatchPerSlotCalls) {
  StateSpaceModel model = MakeDimModel(3);
  FilterPool a(model, KalmanFilter::UpdateForm::kJoseph);
  FilterPool b(model, KalmanFilter::UpdateForm::kJoseph);
  constexpr int kSlots = 5;
  std::vector<int32_t> slots_a, slots_b;
  ReadingStream stream(1, 42);
  for (int i = 0; i < kSlots; ++i) {
    slots_a.push_back(a.Acquire(i));
    slots_b.push_back(b.Acquire(i));
    Reading r = stream.Next();
    Vector x0 = model.h.Transposed() * r.value;
    Matrix p0 = Matrix::ScalarDiagonal(3, 100.0);
    a.ResetSlot(slots_a.back(), x0, p0);
    b.ResetSlot(slots_b.back(), x0, p0);
  }
  std::vector<Vector> zs;
  for (int i = 0; i < kSlots; ++i) zs.push_back(stream.Next().value);

  EXPECT_EQ(a.PredictAll(), static_cast<size_t>(kSlots));
  for (int32_t s : slots_b) b.PredictSlot(s);

  std::vector<double> nis_a(kSlots), nis_b(kSlots);
  a.GateBatch(slots_a.data(), zs.data(), kSlots, nis_a.data());
  for (int i = 0; i < kSlots; ++i) nis_b[i] = b.GateSlot(slots_b[i], zs[i]);
  for (int i = 0; i < kSlots; ++i) EXPECT_EQ(nis_a[i], nis_b[i]) << i;

  EXPECT_EQ(a.UpdateBatch(slots_a.data(), zs.data(), kSlots),
            static_cast<size_t>(kSlots));
  for (int i = 0; i < kSlots; ++i) {
    ASSERT_TRUE(b.UpdateSlot(slots_b[i], zs[i]).ok());
  }
  for (int i = 0; i < kSlots; ++i) {
    SCOPED_TRACE(i);
    ExpectBitEqual(a.StateOf(slots_a[i]), b.StateOf(slots_b[i]), "x", i);
    ExpectBitEqual(a.SerializeSlot(slots_a[i]), b.SerializeSlot(slots_b[i]),
                   "xP", i);
    EXPECT_EQ(a.LastNisOf(slots_a[i]), b.LastNisOf(slots_b[i]));
  }
}

TEST(FilterPoolTest, PoolMatchesKalmanFilterExactly) {
  // The pool's per-slot kernels against the reference KalmanFilter
  // itself, not just the predictor wrapper.
  StateSpaceModel model = MakeConstantVelocityModel(0.1, 0.5, 0.25);
  for (auto form : {KalmanFilter::UpdateForm::kJoseph,
                    KalmanFilter::UpdateForm::kStandard}) {
    Vector x0({1.0, -0.5});
    Matrix p0 = Matrix::ScalarDiagonal(2, 100.0);
    KalmanFilter filter(model, x0, p0, form);
    FilterPool pool(model, form);
    int32_t slot = pool.Acquire(0);
    pool.ResetSlot(slot, x0, p0);
    ReadingStream stream(1, 7);
    for (int t = 0; t < 100; ++t) {
      filter.Predict();
      pool.PredictSlot(slot);
      if (t % 3 == 0) {
        Vector z = stream.Next().value;
        ASSERT_TRUE(filter.Update(z).ok());
        ASSERT_TRUE(pool.UpdateSlot(slot, z).ok());
        EXPECT_EQ(filter.last_nis(), pool.LastNisOf(slot)) << t;
      }
      ExpectBitEqual(filter.state(), pool.StateOf(slot), "x", t);
      ExpectBitEqual(filter.SerializeState(), pool.SerializeSlot(slot), "xP",
                     t);
    }
  }
}

// ------------------------------------------------------- Slot lifecycle

TEST(FilterPoolTest, ReleaseZeroesSlotForReuse) {
  StateSpaceModel model = MakeDimModel(2);
  FilterPool pool(model, KalmanFilter::UpdateForm::kJoseph);
  int32_t slot = pool.Acquire(/*owner_id=*/11);
  pool.ResetSlot(slot, Vector({3.0, 4.0}), Matrix::ScalarDiagonal(2, 9.0));
  pool.PredictSlot(slot);
  ASSERT_TRUE(pool.UpdateSlot(slot, Vector({2.5})).ok());
  EXPECT_NE(pool.StateOf(slot)[0], 0.0);

  pool.Release(slot);
  EXPECT_EQ(pool.num_active(), 0u);

  // The min-heap free list hands back the lowest-indexed free slot — here
  // the one just released — and it must be fully clean.
  int32_t again = pool.Acquire(/*owner_id=*/12);
  EXPECT_EQ(again, slot);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(pool.StateOf(again)[i], 0.0) << i;
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(pool.CovarianceOf(again)(i, j), 0.0) << i << "," << j;
    }
  }
  EXPECT_EQ(pool.PredictEpochOf(again), 0);
  EXPECT_EQ(pool.LastNisOf(again), 0.0);
  EXPECT_EQ(pool.OwnerOf(again), 12);
}

TEST(FilterPoolTest, PredictAllSkipsFreedSlots) {
  StateSpaceModel model = MakeDimModel(1);
  FilterPool pool(model, KalmanFilter::UpdateForm::kJoseph);
  int32_t s0 = pool.Acquire(0);
  int32_t s1 = pool.Acquire(1);
  int32_t s2 = pool.Acquire(2);
  for (int32_t s : {s0, s1, s2}) {
    pool.ResetSlot(s, Vector({1.0}), Matrix::ScalarDiagonal(1, 4.0));
  }
  pool.Release(s1);
  EXPECT_EQ(pool.PredictAll(), 2u);
  EXPECT_EQ(pool.PredictEpochOf(s0), 1);
  EXPECT_EQ(pool.PredictEpochOf(s2), 1);
  EXPECT_FALSE(pool.IsActive(s1));
}

TEST(FilterPoolTest, FreeListReusesLowestIndexFirst) {
  // The free list is a min-heap, not a LIFO stack: after releasing slots
  // in arbitrary order, Acquire hands them back lowest-index-first so
  // long-lived pools re-densify toward the front of the slabs instead of
  // churning whatever happened to be freed last.
  StateSpaceModel model = MakeDimModel(1);
  FilterPool pool(model, KalmanFilter::UpdateForm::kJoseph);
  for (int32_t i = 0; i < 8; ++i) ASSERT_EQ(pool.Acquire(i), i);
  // Release out of order: 6, 1, 4, 2.
  for (int32_t s : {6, 1, 4, 2}) pool.Release(s);
  EXPECT_EQ(pool.Acquire(100), 1);
  EXPECT_EQ(pool.Acquire(101), 2);
  EXPECT_EQ(pool.Acquire(102), 4);
  EXPECT_EQ(pool.Acquire(103), 6);
  // Heap exhausted: the next Acquire extends the pool.
  EXPECT_EQ(pool.Acquire(104), 8);
}

TEST(FilterPoolTest, FragmentedPoolSweepsBitIdenticalToDense) {
  // The superlinear-falloff fix pin: a pool with 50% of its slots
  // released (every other slot, maximal fragmentation) must sweep its
  // survivors to bit-identical states as a dense pool holding only those
  // survivors. Freed lanes are masked out of the batched kernels, never
  // fed into them — fragmentation may change speed but not one bit of
  // filter state.
  const size_t kDim = 3;
  const size_t kSlots = 22;  // Partial final block in the fragmented pool.
  StateSpaceModel model = MakeDimModel(kDim);
  Matrix p0 = Matrix::ScalarDiagonal(kDim, 25.0);
  auto x0_of = [&](size_t i) {
    Vector x0(kDim);
    for (size_t e = 0; e < kDim; ++e) {
      x0[e] = 0.1 * static_cast<double>(i) + 0.01 * static_cast<double>(e);
    }
    return x0;
  };

  FilterPool fragmented(model, KalmanFilter::UpdateForm::kJoseph);
  for (size_t i = 0; i < kSlots; ++i) {
    int32_t s = fragmented.Acquire(static_cast<int32_t>(i));
    fragmented.ResetSlot(s, x0_of(i), p0);
  }
  for (size_t i = 1; i < kSlots; i += 2) {
    fragmented.Release(static_cast<int32_t>(i));
  }

  FilterPool dense(model, KalmanFilter::UpdateForm::kJoseph);
  std::vector<int32_t> dense_slot(kSlots, FilterPool::kNoSlot);
  for (size_t i = 0; i < kSlots; i += 2) {
    dense_slot[i] = dense.Acquire(static_cast<int32_t>(i));
    dense.ResetSlot(dense_slot[i], x0_of(i), p0);
  }

  const size_t survivors = (kSlots + 1) / 2;
  for (int sweep = 0; sweep < 10; ++sweep) {
    ASSERT_EQ(fragmented.PredictAll(), survivors);
    ASSERT_EQ(dense.PredictAll(), survivors);
    for (size_t i = 0; i < kSlots; i += 2) {
      ExpectBitEqual(fragmented.SerializeSlot(static_cast<int32_t>(i)),
                     dense.SerializeSlot(dense_slot[i]), "xP", sweep);
    }
  }
}

TEST(FilterPoolTest, IdReuseAfterUnregisterSeesNoStaleState) {
  // The PR 1 TickArchive id-reuse regression, now at the pool layer: a
  // source id that is unregistered and re-registered must behave exactly
  // like a never-before-seen source, even though the pool hands its
  // replica the same physical slot.
  constexpr int32_t kId = 7;
  auto run_replica_value = [&](bool reuse_first) -> std::vector<double> {
    ShardedServer server(4);
    size_t shard = server.ShardOf(kId);
    KalmanPredictor::Config config = GatedConfig(MakeDimModel(2));
    if (reuse_first) {
      // First tenancy: init, tick, correct — then unregister, leaving a
      // dirty (now zeroed) slot behind.
      EXPECT_TRUE(server
                      .RegisterSource(
                          kId, std::make_unique<PooledKalmanPredictor>(
                                   config, server.shard_pools(shard)))
                      .ok());
      Message init;
      init.source_id = kId;
      init.type = MessageType::kInit;
      init.seq = 0;
      init.wire_seq = 0;
      init.payload = {0.5, 123.0};  // delta, value.
      EXPECT_TRUE(server.OnMessage(init).ok());
      for (int t = 0; t < 5; ++t) server.Tick();
      EXPECT_TRUE(server.UnregisterSource(kId).ok());
    }
    EXPECT_TRUE(
        server
            .RegisterSource(kId, std::make_unique<PooledKalmanPredictor>(
                                     config, server.shard_pools(shard)))
            .ok());
    Message init;
    init.source_id = kId;
    init.type = MessageType::kInit;
    init.seq = 0;
    init.wire_seq = 0;
    init.payload = {0.5, -4.0};  // delta, value.
    EXPECT_TRUE(server.OnMessage(init).ok());
    for (int t = 0; t < 8; ++t) server.Tick();
    auto answer = server.SourceValue(kId);
    EXPECT_TRUE(answer.ok());
    std::vector<double> out;
    if (answer.ok()) {
      for (size_t i = 0; i < answer->value.size(); ++i) {
        out.push_back(answer->value[i]);
      }
      out.push_back(answer->bound);
    }
    return out;
  };
  std::vector<double> fresh = run_replica_value(/*reuse_first=*/false);
  std::vector<double> reused = run_replica_value(/*reuse_first=*/true);
  ExpectBitEqual(fresh, reused, "replica value after id reuse", 0);
}

// ------------------------------------------------ Faults-on fleet replay

TEST(PoolEquivalenceTest, RecoveryReplayMatchesPerObjectPath) {
  // Lossy channel + loss-tolerant recovery: gaps, quarantines, resync
  // requests, full syncs, and re-INITs all replay through the pooled path
  // bit-identically to the per-object path.
  auto run = [](bool pooling) {
    ShardedFleet::Config config;
    config.seed = 4242;
    config.threads = 2;
    config.num_shards = 4;
    config.pooling = pooling;
    config.channel.loss_prob = 0.25;
    config.channel.latency_ticks = 2;
    config.control_channel.loss_prob = 0.1;
    config.recovery.enabled = true;
    config.recovery.suspect_after_silent_ticks = 12;
    config.agent_base.heartbeat_every = 8;
    ShardedFleet fleet(config);
    for (int i = 0; i < 10; ++i) {
      RandomWalkGenerator::Config walk;
      walk.start = 3.0 * i;
      walk.step_sigma = 0.3;
      fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                      std::make_unique<KalmanPredictor>(
                          GatedConfig(MakeRandomWalkModel(0.1, 0.25))),
                      /*delta=*/0.5);
    }
    EXPECT_TRUE(fleet.Run(400).ok());
    std::vector<double> fingerprint;
    for (int32_t id = 0; id < 10; ++id) {
      auto answer = fleet.server().SourceValue(id);
      fingerprint.push_back(answer.ok() ? answer->value[0] : -1e9);
      fingerprint.push_back(answer.ok() ? answer->bound : -1e9);
      fingerprint.push_back(
          static_cast<double>(fleet.server().IsDesynced(id) ? 1 : 0));
    }
    NetworkStats net = fleet.TotalNetworkStats();
    fingerprint.push_back(static_cast<double>(net.messages_sent));
    fingerprint.push_back(static_cast<double>(net.messages_dropped));
    fingerprint.push_back(static_cast<double>(net.bytes_delivered));
    EXPECT_GT(net.messages_dropped, 0);
    return fingerprint;
  };
  std::vector<double> pooled = run(/*pooling=*/true);
  std::vector<double> object = run(/*pooling=*/false);
  ExpectBitEqual(pooled, object, "recovery replay", 0);
}

// --------------------------------------------------------------- Factory

TEST(PoolFactoryTest, PoolsOnlyEligiblePredictors) {
  FilterPoolSet pools;
  KalmanPredictor plain(GatedConfig(MakeDimModel(2)));
  EXPECT_NE(MakePooledPredictor(plain, &pools), nullptr);

  KalmanPredictor::Config adaptive_config = GatedConfig(MakeDimModel(2));
  adaptive_config.adaptive = AdaptiveConfig{};
  KalmanPredictor adaptive(adaptive_config);
  EXPECT_NE(MakePooledPredictor(adaptive, &pools), nullptr)
      << "adapt_q configs pool with per-slot Q";

  adaptive_config.adaptive->adapt_r = true;
  KalmanPredictor adaptive_r(adaptive_config);
  EXPECT_EQ(MakePooledPredictor(adaptive_r, &pools), nullptr)
      << "adapt_r re-estimates a per-filter R and must stay per-object";

  ValueCachePredictor value_cache;
  EXPECT_EQ(MakePooledPredictor(value_cache, &pools), nullptr)
      << "non-Kalman predictors stay on the virtual path";
}

TEST(PoolFactoryTest, PoolsShareByModelAndForm) {
  FilterPoolSet pools;
  StateSpaceModel m1 = MakeDimModel(2);
  StateSpaceModel m2 = MakeDimModel(3);
  FilterPool* a = pools.PoolFor(m1, KalmanFilter::UpdateForm::kJoseph);
  FilterPool* b = pools.PoolFor(m1, KalmanFilter::UpdateForm::kJoseph);
  FilterPool* c = pools.PoolFor(m1, KalmanFilter::UpdateForm::kStandard);
  FilterPool* d = pools.PoolFor(m2, KalmanFilter::UpdateForm::kJoseph);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(pools.num_pools(), 3u);

  // Adaptive and plain sources never share a pool, nor an interned config.
  FilterPool* e =
      pools.PoolFor(m1, KalmanFilter::UpdateForm::kJoseph, AdaptiveConfig{});
  EXPECT_NE(a, e);
  EXPECT_EQ(e->adaptive(), AdaptiveConfig{});
  EXPECT_EQ(e, pools.PoolFor(m1, KalmanFilter::UpdateForm::kJoseph,
                             AdaptiveConfig{}));
  KalmanPredictor::Config plain = GatedConfig(m1);
  KalmanPredictor::Config adaptive = plain;
  adaptive.adaptive = AdaptiveConfig{};
  EXPECT_NE(pools.InternConfig(plain), pools.InternConfig(adaptive));
  EXPECT_EQ(pools.InternConfig(adaptive), pools.InternConfig(adaptive));
}

}  // namespace
}  // namespace kc
