// Tests for chi-squared innovation gating in KalmanPredictor: sensor
// outliers must neither corrupt the client's estimate nor cost messages,
// while genuine level shifts must still be accepted promptly.

#include <gtest/gtest.h>

#include "fleet/link.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

namespace kc {
namespace {

KalmanPredictor::Config GatedConfig(double gate_prob) {
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.04, 0.25);
  config.outlier_gate_prob = gate_prob;
  return config;
}

Reading MakeReading(int64_t seq, double value) {
  Reading r;
  r.seq = seq;
  r.time = static_cast<double>(seq);
  r.value = Vector{value};
  return r;
}

TEST(GatingTest, RejectsIsolatedOutlier) {
  KalmanPredictor p(GatedConfig(0.999));
  p.Init(MakeReading(0, 0.0));
  // Settle the filter with consistent readings.
  for (int64_t i = 1; i <= 50; ++i) {
    p.Tick();
    p.ObserveLocal(MakeReading(i, 0.0));
  }
  double before = p.Target()[0];
  p.Tick();
  p.ObserveLocal(MakeReading(51, 500.0));  // Wild outlier.
  EXPECT_EQ(p.OutliersRejected(), 1);
  // The estimate must be essentially unmoved.
  EXPECT_NEAR(p.Target()[0], before, 0.01);
}

TEST(GatingTest, AcceptsGenuineJumpAfterLimit) {
  KalmanPredictor::Config config = GatedConfig(0.999);
  config.outlier_gate_limit = 3;
  KalmanPredictor p(config);
  p.Init(MakeReading(0, 0.0));
  for (int64_t i = 1; i <= 50; ++i) {
    p.Tick();
    p.ObserveLocal(MakeReading(i, 0.0));
  }
  // A persistent level shift: first two readings are gated, the third is
  // force-accepted, and the filter starts converging to the new level.
  for (int64_t i = 51; i <= 60; ++i) {
    p.Tick();
    p.ObserveLocal(MakeReading(i, 100.0));
  }
  EXPECT_GT(p.Target()[0], 50.0);
  EXPECT_GE(p.OutliersRejected(), 2);
}

TEST(GatingTest, DisabledGateAcceptsEverything) {
  KalmanPredictor p(GatedConfig(0.0));
  p.Init(MakeReading(0, 0.0));
  for (int64_t i = 1; i <= 20; ++i) {
    p.Tick();
    p.ObserveLocal(MakeReading(i, 0.0));
  }
  p.Tick();
  p.ObserveLocal(MakeReading(21, 500.0));
  EXPECT_EQ(p.OutliersRejected(), 0);
  EXPECT_GT(p.Target()[0], 1.0);  // The outlier moved the estimate.
}

TEST(GatingTest, GateSavesMessagesOnOutlierContaminatedStream) {
  RandomWalkGenerator::Config walk;
  walk.step_sigma = 0.1;
  NoiseConfig noise;
  noise.gaussian_sigma = 0.2;
  noise.outlier_prob = 0.02;
  noise.outlier_scale = 50.0;  // Outliers of magnitude up to 10.

  LinkConfig config;
  config.ticks = 8000;
  config.delta = 1.0;
  config.seed = 7;

  NoisyStream stream_a(std::make_unique<RandomWalkGenerator>(walk), noise);
  KalmanPredictor ungated(GatedConfig(0.0));
  LinkReport r_ungated = RunLink(stream_a, ungated, config);

  NoisyStream stream_b(std::make_unique<RandomWalkGenerator>(walk), noise);
  KalmanPredictor gated(GatedConfig(0.999));
  LinkReport r_gated = RunLink(stream_b, gated, config);

  EXPECT_LT(r_gated.messages, r_ungated.messages)
      << "gated=" << r_gated.messages << " ungated=" << r_ungated.messages;
  // Gating must also keep (or improve) accuracy against the truth.
  EXPECT_LE(r_gated.err_vs_truth.rms(), r_ungated.err_vs_truth.rms() * 1.1);
  // And the precision contract still holds.
  EXPECT_EQ(r_gated.contract_violations, 0);
}

TEST(GatingTest, ReplicasStayInLockstepWithGating) {
  KalmanPredictor client(GatedConfig(0.99));
  auto server = client.Clone();
  Reading first = MakeReading(0, 0.0);
  client.Init(first);
  server->Init(first);
  Rng rng(3);
  double level = 0.0;
  for (int64_t i = 1; i <= 500; ++i) {
    level += rng.Gaussian(0.0, 0.2);
    double z = level + rng.Gaussian(0.0, 0.5) +
               (i % 97 == 0 ? 25.0 : 0.0);  // Periodic outliers.
    Reading reading = MakeReading(i, z);
    client.Tick();
    server->Tick();
    client.ObserveLocal(reading);
    if (i % 11 == 0) {
      auto payload = client.EncodeCorrection(reading);
      ASSERT_TRUE(client.ApplyCorrection(i, reading.time, payload).ok());
      ASSERT_TRUE(server->ApplyCorrection(i, reading.time, payload).ok());
    }
    ASSERT_NEAR(client.Predict()[0], server->Predict()[0], 1e-15);
  }
}

TEST(GatingTest, InitResetsGateCounters) {
  KalmanPredictor p(GatedConfig(0.999));
  p.Init(MakeReading(0, 0.0));
  for (int64_t i = 1; i <= 30; ++i) {
    p.Tick();
    p.ObserveLocal(MakeReading(i, 0.0));
  }
  p.Tick();
  p.ObserveLocal(MakeReading(31, 400.0));
  EXPECT_GT(p.OutliersRejected(), 0);
  p.Init(MakeReading(0, 0.0));
  EXPECT_EQ(p.OutliersRejected(), 0);
}

}  // namespace
}  // namespace kc
