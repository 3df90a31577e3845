#include "suppression/policies.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace kc {
namespace {

Reading MakeReading(int64_t seq, double time, double value) {
  Reading r;
  r.seq = seq;
  r.time = time;
  r.value = Vector{value};
  return r;
}

TEST(ValueCacheTest, HoldsLastCorrection) {
  ValueCachePredictor p;
  p.Init(MakeReading(0, 0.0, 5.0));
  EXPECT_DOUBLE_EQ(p.Predict()[0], 5.0);
  p.Tick();
  EXPECT_DOUBLE_EQ(p.Predict()[0], 5.0);  // Constant between corrections.
  ASSERT_TRUE(p.ApplyCorrection(1, 1.0, {7.5}).ok());
  EXPECT_DOUBLE_EQ(p.Predict()[0], 7.5);
}

TEST(ValueCacheTest, TargetIsLastMeasurement) {
  ValueCachePredictor p;
  p.Init(MakeReading(0, 0.0, 5.0));
  p.ObserveLocal(MakeReading(1, 1.0, 6.0));
  EXPECT_DOUBLE_EQ(p.Target()[0], 6.0);
}

TEST(ValueCacheTest, RejectsWrongPayloadSize) {
  ValueCachePredictor p;
  p.Init(MakeReading(0, 0.0, 5.0));
  EXPECT_FALSE(p.ApplyCorrection(1, 1.0, {1.0, 2.0}).ok());
}

TEST(LinearPredictorTest, ExtrapolatesThroughTwoCorrections) {
  LinearPredictor p;
  p.Init(MakeReading(0, 0.0, 10.0));
  // Slope is zero until a second point arrives.
  p.Tick();
  EXPECT_DOUBLE_EQ(p.Predict()[0], 10.0);
  // Correction at t=2 with value 14 -> slope 2.
  p.Tick();
  ASSERT_TRUE(p.ApplyCorrection(2, 2.0, {14.0}).ok());
  EXPECT_DOUBLE_EQ(p.Predict()[0], 14.0);
  p.Tick();
  EXPECT_DOUBLE_EQ(p.Predict()[0], 16.0);
  p.Tick();
  EXPECT_DOUBLE_EQ(p.Predict()[0], 18.0);
}

TEST(LinearPredictorTest, SlopeRecomputedOnEachCorrection) {
  LinearPredictor p;
  p.Init(MakeReading(0, 0.0, 0.0));
  p.Tick();
  ASSERT_TRUE(p.ApplyCorrection(1, 1.0, {2.0}).ok());  // Slope 2.
  p.Tick();
  ASSERT_TRUE(p.ApplyCorrection(2, 2.0, {1.0}).ok());  // Slope (1-2)/1 = -1.
  p.Tick();
  EXPECT_DOUBLE_EQ(p.Predict()[0], 0.0);
}

TEST(LinearPredictorTest, ZeroSpanYieldsZeroSlope) {
  LinearPredictor p;
  p.Init(MakeReading(0, 5.0, 1.0));
  ASSERT_TRUE(p.ApplyCorrection(0, 5.0, {3.0}).ok());  // Same timestamp.
  p.Tick();
  EXPECT_DOUBLE_EQ(p.Predict()[0], 3.0);
}

TEST(EwmaTest, PrivateLevelSmoothsMeasurements) {
  EwmaPredictor p(1, 0.5);
  p.Init(MakeReading(0, 0.0, 10.0));
  p.ObserveLocal(MakeReading(1, 1.0, 20.0));
  EXPECT_DOUBLE_EQ(p.Target()[0], 15.0);
  p.ObserveLocal(MakeReading(2, 2.0, 15.0));
  EXPECT_DOUBLE_EQ(p.Target()[0], 15.0);
  // The server-visible prediction is still the Init value until corrected.
  EXPECT_DOUBLE_EQ(p.Predict()[0], 10.0);
}

TEST(EwmaTest, CorrectionShipsPrivateLevel) {
  EwmaPredictor p(1, 0.5);
  p.Init(MakeReading(0, 0.0, 10.0));
  p.ObserveLocal(MakeReading(1, 1.0, 20.0));
  auto payload = p.EncodeCorrection(MakeReading(1, 1.0, 20.0));
  ASSERT_EQ(payload.size(), 1u);
  EXPECT_DOUBLE_EQ(payload[0], 15.0);  // The level, not the raw 20.
  ASSERT_TRUE(p.ApplyCorrection(1, 1.0, payload).ok());
  EXPECT_DOUBLE_EQ(p.Predict()[0], 15.0);
  // Contract: target equals prediction right after a correction.
  EXPECT_DOUBLE_EQ(p.Target()[0], p.Predict()[0]);
}

KalmanPredictor::Config ScalarKalmanConfig(
    KalmanPredictor::SyncMode mode = KalmanPredictor::SyncMode::kState) {
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.1, 0.5);
  config.sync_mode = mode;
  return config;
}

TEST(KalmanPredictorTest, InitLiftsObservationIntoState) {
  KalmanPredictor p(ScalarKalmanConfig());
  p.Init(MakeReading(0, 0.0, 3.5));
  EXPECT_DOUBLE_EQ(p.Predict()[0], 3.5);
  EXPECT_DOUBLE_EQ(p.Target()[0], 3.5);
}

TEST(KalmanPredictorTest, StateSyncContractExactAfterCorrection) {
  KalmanPredictor p(ScalarKalmanConfig(KalmanPredictor::SyncMode::kState));
  p.Init(MakeReading(0, 0.0, 0.0));
  Rng rng(1);
  for (int64_t i = 1; i <= 100; ++i) {
    Reading z = MakeReading(i, static_cast<double>(i), rng.Gaussian(0.0, 3.0));
    p.Tick();
    p.ObserveLocal(z);
    auto payload = p.EncodeCorrection(z);
    ASSERT_EQ(payload.size(), 1u);  // State only, scalar model.
    ASSERT_TRUE(p.ApplyCorrection(i, z.time, payload).ok());
    // Shadow state == private state -> zero contract error.
    ASSERT_NEAR(p.Target()[0], p.Predict()[0], 1e-15);
  }
}

TEST(KalmanPredictorTest, StateAndCovPayloadIncludesCovariance) {
  KalmanPredictor p(ScalarKalmanConfig(KalmanPredictor::SyncMode::kStateAndCov));
  p.Init(MakeReading(0, 0.0, 0.0));
  p.Tick();
  p.ObserveLocal(MakeReading(1, 1.0, 1.0));
  auto payload = p.EncodeCorrection(MakeReading(1, 1.0, 1.0));
  EXPECT_EQ(payload.size(), 2u);  // x (1) + P (1x1).
  ASSERT_TRUE(p.ApplyCorrection(1, 1.0, payload).ok());
  EXPECT_NEAR(p.Target()[0], p.Predict()[0], 1e-15);
}

TEST(KalmanPredictorTest, MeasurementSyncUpdatesShadow) {
  KalmanPredictor p(ScalarKalmanConfig(KalmanPredictor::SyncMode::kMeasurement));
  p.Init(MakeReading(0, 0.0, 0.0));
  p.Tick();
  p.ObserveLocal(MakeReading(1, 1.0, 4.0));
  EXPECT_DOUBLE_EQ(p.Target()[0], 4.0);  // Raw measurement in this mode.
  auto payload = p.EncodeCorrection(MakeReading(1, 1.0, 4.0));
  ASSERT_EQ(payload.size(), 1u);
  double before = p.Predict()[0];
  ASSERT_TRUE(p.ApplyCorrection(1, 1.0, payload).ok());
  double after = p.Predict()[0];
  EXPECT_GT(after, before);  // Moved toward the observation...
  EXPECT_LT(after, 4.0);     // ...but not all the way (gain < 1).
}

TEST(KalmanPredictorTest, TwoReplicasStayInLockstep) {
  // The core protocol requirement: a client-side and a server-side clone,
  // fed the same Init/Tick/ApplyCorrection sequence, predict identically.
  KalmanPredictor client(ScalarKalmanConfig());
  auto server = client.Clone();
  Reading first = MakeReading(0, 0.0, 1.0);
  client.Init(first);
  server->Init(first);
  Rng rng(2);
  for (int64_t i = 1; i <= 500; ++i) {
    Reading z = MakeReading(i, static_cast<double>(i), rng.Gaussian(0.0, 2.0));
    client.Tick();
    server->Tick();
    client.ObserveLocal(z);
    if (i % 7 == 0) {  // Corrections on an arbitrary cadence.
      auto payload = client.EncodeCorrection(z);
      ASSERT_TRUE(client.ApplyCorrection(i, z.time, payload).ok());
      ASSERT_TRUE(server->ApplyCorrection(i, z.time, payload).ok());
    }
    ASSERT_NEAR(client.Predict()[0], server->Predict()[0], 1e-15) << "i=" << i;
  }
}

TEST(KalmanPredictorTest, PlanarModelPredictsBothDimensions) {
  KalmanPredictor::Config config;
  config.model = MakeConstantVelocity2DModel(1.0, 0.1, 0.5);
  KalmanPredictor p(config);
  Reading first;
  first.seq = 0;
  first.time = 0.0;
  first.value = Vector{3.0, -2.0};
  p.Init(first);
  EXPECT_EQ(p.dims(), 2u);
  EXPECT_DOUBLE_EQ(p.Predict()[0], 3.0);
  EXPECT_DOUBLE_EQ(p.Predict()[1], -2.0);
}

TEST(KalmanPredictorTest, FullStateRoundTrip) {
  // EncodeFullState serializes the *shared* (shadow) state: after a
  // correction it equals the private estimate; uncorrected it equals the
  // current prediction.
  KalmanPredictor a(ScalarKalmanConfig());
  a.Init(MakeReading(0, 0.0, 2.0));
  a.Tick();
  a.ObserveLocal(MakeReading(1, 1.0, 2.5));
  ASSERT_TRUE(
      a.ApplyCorrection(1, 1.0, a.EncodeCorrection(MakeReading(1, 1.0, 2.5)))
          .ok());
  auto state = a.EncodeFullState();
  EXPECT_EQ(state.size(), 2u);  // x + P for the scalar model.

  KalmanPredictor b(ScalarKalmanConfig());
  b.Init(MakeReading(0, 0.0, 0.0));
  ASSERT_TRUE(b.ApplyFullState(state).ok());
  EXPECT_NEAR(b.Predict()[0], a.Predict()[0], 1e-15);
  EXPECT_NEAR(b.Predict()[0], a.Target()[0], 1e-15);  // Post-correction.
}

TEST(KalmanPredictorTest, ApplyBeforeInitFails) {
  KalmanPredictor p(ScalarKalmanConfig());
  EXPECT_FALSE(p.ApplyCorrection(0, 0.0, {1.0}).ok());
  EXPECT_FALSE(p.ApplyFullState({1.0, 1.0}).ok());
}

TEST(KalmanPredictorTest, TickBeforeInitIsANoOp) {
  // Before Init there is no slot to advance; the call used to dereference
  // a null pool, guarded only by an assert that release builds drop.
  KalmanPredictor early(ScalarKalmanConfig());
  early.Tick();
  early.Tick();
  KalmanPredictor fresh(ScalarKalmanConfig());
  early.Init(MakeReading(0, 0.0, 2.0));
  fresh.Init(MakeReading(0, 0.0, 2.0));
  EXPECT_EQ(early.EncodeFullState(), fresh.EncodeFullState());
  for (int t = 0; t < 3; ++t) {
    early.Tick();
    fresh.Tick();
  }
  // Same state and covariance: the early ticks advanced nothing.
  EXPECT_EQ(early.EncodeFullState(), fresh.EncodeFullState());
}

TEST(KalmanPredictorTest, PredictAndEncodeBeforeInitAreEmpty) {
  // No slot before Init: both reads used to dereference a null pool,
  // guarded only by asserts that release builds drop.
  KalmanPredictor early(ScalarKalmanConfig());
  early.Tick();
  EXPECT_TRUE(early.Predict().empty());
  EXPECT_TRUE(early.EncodeFullState().empty());
  early.Init(MakeReading(0, 0.0, 2.0));
  EXPECT_EQ(early.Predict().size(), 1u);
  EXPECT_FALSE(early.EncodeFullState().empty());
}

TEST(KalmanPredictorTest, WrongPayloadSizesRejected) {
  KalmanPredictor p(ScalarKalmanConfig(KalmanPredictor::SyncMode::kState));
  p.Init(MakeReading(0, 0.0, 0.0));
  EXPECT_FALSE(p.ApplyCorrection(1, 1.0, {1.0, 2.0, 3.0}).ok());
}

TEST(KalmanPredictorTest, NamesReflectMode) {
  EXPECT_EQ(KalmanPredictor(ScalarKalmanConfig()).name(), "kalman");
  EXPECT_EQ(
      KalmanPredictor(ScalarKalmanConfig(KalmanPredictor::SyncMode::kStateAndCov))
          .name(),
      "kalman_cov");
  EXPECT_EQ(
      KalmanPredictor(ScalarKalmanConfig(KalmanPredictor::SyncMode::kMeasurement))
          .name(),
      "kalman_meas");
}

TEST(KalmanPredictorTest, DefaultFactoryProducesWorkingPredictor) {
  auto p = MakeDefaultKalmanPredictor(0.1, 1.0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "kalman");
  p->Init(MakeReading(0, 0.0, 1.0));
  p->Tick();
  p->ObserveLocal(MakeReading(1, 1.0, 1.2));
  EXPECT_TRUE(std::isfinite(p->Predict()[0]));
}

TEST(KalmanPredictorTest, PrivateFilterSmoothsNoise) {
  // With sensor noise, the private filter's Target should track truth
  // better than the raw measurements do.
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.04, 4.0);  // sigma_w=0.2, sigma_v=2.
  KalmanPredictor p(config);
  p.Init(MakeReading(0, 0.0, 0.0));
  Rng rng(5);
  double truth = 0.0;
  double filter_sse = 0.0, raw_sse = 0.0;
  for (int64_t i = 1; i <= 5000; ++i) {
    truth += rng.Gaussian(0.0, 0.2);
    double z = truth + rng.Gaussian(0.0, 2.0);
    p.Tick();
    p.ObserveLocal(MakeReading(i, static_cast<double>(i), z));
    double est = p.Target()[0];
    filter_sse += (est - truth) * (est - truth);
    raw_sse += (z - truth) * (z - truth);
  }
  EXPECT_LT(filter_sse, 0.4 * raw_sse);
}

}  // namespace
}  // namespace kc
