#include "suppression/ekf_policy.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fleet/link.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

namespace kc {
namespace {

Reading PlanarReading(int64_t seq, double x, double y) {
  Reading r;
  r.seq = seq;
  r.time = static_cast<double>(seq);
  r.value = Vector{x, y};
  return r;
}

TEST(EkfPredictorTest, InitPlacesFirstFix) {
  auto p = MakeCoordinatedTurnPredictor(1.0, 1.0);
  p->Init(PlanarReading(0, 3.0, -4.0));
  EXPECT_DOUBLE_EQ(p->Predict()[0], 3.0);
  EXPECT_DOUBLE_EQ(p->Predict()[1], -4.0);
  EXPECT_EQ(p->dims(), 2u);
  EXPECT_EQ(p->name(), "ekf");
}

TEST(EkfPredictorTest, ContractExactAfterCorrection) {
  auto p = MakeCoordinatedTurnPredictor(1.0, 1.0);
  p->Init(PlanarReading(0, 0.0, 0.0));
  Rng rng(1);
  for (int64_t i = 1; i <= 100; ++i) {
    Reading z = PlanarReading(i, 2.0 * static_cast<double>(i) + rng.Gaussian(),
                              rng.Gaussian());
    p->Tick();
    p->ObserveLocal(z);
    auto payload = p->EncodeCorrection(z);
    ASSERT_EQ(payload.size(), 5u + 25u);  // x + P for the 5-state model.
    ASSERT_TRUE(p->ApplyCorrection(i, z.time, payload).ok());
    for (size_t d = 0; d < 2; ++d) {
      ASSERT_NEAR(p->Target()[d], p->Predict()[d], 1e-12);
    }
  }
}

TEST(EkfPredictorTest, ReplicasStayInLockstep) {
  auto client = MakeCoordinatedTurnPredictor(1.0, 9.0);
  auto server = client->Clone();
  Reading first = PlanarReading(0, 0.0, 0.0);
  client->Init(first);
  server->Init(first);
  Rng rng(2);
  double theta = 0.0, px = 0.0, py = 0.0;
  for (int64_t i = 1; i <= 300; ++i) {
    px += 5.0 * std::cos(theta);
    py += 5.0 * std::sin(theta);
    theta += 0.03;
    Reading z = PlanarReading(i, px + rng.Gaussian(0.0, 3.0),
                              py + rng.Gaussian(0.0, 3.0));
    client->Tick();
    server->Tick();
    client->ObserveLocal(z);
    if (i % 5 == 0) {
      auto payload = client->EncodeCorrection(z);
      ASSERT_TRUE(client->ApplyCorrection(i, z.time, payload).ok());
      ASSERT_TRUE(server->ApplyCorrection(i, z.time, payload).ok());
    }
    for (size_t d = 0; d < 2; ++d) {
      ASSERT_NEAR(client->Predict()[d], server->Predict()[d], 1e-12);
    }
  }
}

TEST(EkfPredictorTest, BeatsLinearCvOnTurningVehicle) {
  // A vehicle that turns persistently: the coordinated-turn EKF should
  // out-suppress the linear constant-velocity filter at the same bound.
  Vehicle2DGenerator::Config vehicle;
  vehicle.speed_mean = 10.0;
  vehicle.turn_change_prob = 0.002;  // Long, sustained arcs.
  vehicle.turn_rate_sigma = 0.002;
  vehicle.max_turn_rate = 0.06;
  NoiseConfig gps;
  gps.gaussian_sigma = 2.0;

  LinkConfig config;
  config.ticks = 8000;
  config.delta = 10.0;
  config.seed = 11;

  NoisyStream stream_a(std::make_unique<Vehicle2DGenerator>(vehicle), gps);
  KalmanPredictor::Config cv;
  cv.model = MakeConstantVelocity2DModel(1.0, 0.05, 4.0);
  KalmanPredictor cv_proto(cv);
  LinkReport cv_report = RunLink(stream_a, cv_proto, config);

  NoisyStream stream_b(std::make_unique<Vehicle2DGenerator>(vehicle), gps);
  auto ekf_proto = MakeCoordinatedTurnPredictor(1.0, 4.0);
  LinkReport ekf_report = RunLink(stream_b, *ekf_proto, config);

  EXPECT_LT(ekf_report.messages, cv_report.messages)
      << "ekf=" << ekf_report.messages << " cv=" << cv_report.messages;
  EXPECT_EQ(ekf_report.contract_violations, 0);
}

TEST(EkfPredictorTest, ApplyBeforeInitFails) {
  auto p = MakeCoordinatedTurnPredictor(1.0, 1.0);
  EXPECT_FALSE(p->ApplyCorrection(0, 0.0, std::vector<double>(30, 0.0)).ok());
}

TEST(EkfPredictorTest, WrongPayloadSizeRejected) {
  auto p = MakeCoordinatedTurnPredictor(1.0, 1.0);
  p->Init(PlanarReading(0, 0.0, 0.0));
  EXPECT_FALSE(p->ApplyCorrection(1, 1.0, {1.0, 2.0}).ok());
}

}  // namespace
}  // namespace kc
