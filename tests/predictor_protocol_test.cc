// The protocol contract, uniformly over every Predictor implementation:
// two replicas fed the same Init/Tick/correction sequence predict
// identically, Clone() produces equivalent fresh replicas, and state-sync
// policies are contract-exact immediately after a correction.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "suppression/ekf_policy.h"
#include "suppression/imm_policy.h"
#include "suppression/policies.h"

namespace kc {
namespace {

/// A mildly nonlinear scalar model (tanh-saturated drift) so the EKF
/// policy can join the scalar protocol sweep.
NonlinearModel ScalarNonlinearModel() {
  NonlinearModel m;
  m.name = "saturating_drift";
  m.state_dim = 1;
  m.obs_dim = 1;
  m.f = [](const Vector& x) { return Vector{x[0] + 0.1 * std::tanh(x[0])}; };
  m.f_jacobian = [](const Vector& x) {
    double t = std::tanh(x[0]);
    return Matrix{{1.0 + 0.1 * (1.0 - t * t)}};
  };
  m.h = [](const Vector& x) { return x; };
  m.h_jacobian = [](const Vector&) { return Matrix::Identity(1); };
  m.q = Matrix{{0.1}};
  m.r = Matrix{{0.25}};
  return m;
}

std::unique_ptr<Predictor> MakeByName(const std::string& name) {
  if (name == "value_cache") return std::make_unique<ValueCachePredictor>(1);
  if (name == "linear") return std::make_unique<LinearPredictor>(1);
  if (name == "ewma") return std::make_unique<EwmaPredictor>(1, 0.5);
  if (name == "imm") return MakeTwoModeImmPredictor(0.01, 2.25, 0.25);
  if (name == "ekf") {
    EkfPredictor::Config config;
    config.model = ScalarNonlinearModel();
    config.init_state = [](const Vector& z) { return z; };
    return std::make_unique<EkfPredictor>(std::move(config));
  }
  if (name == "kalman" || name == "kalman_cov" || name == "kalman_meas" ||
      name == "kalman_gated") {
    KalmanPredictor::Config config;
    config.model = MakeRandomWalkModel(0.1, 0.25);
    config.adaptive = AdaptiveConfig{};
    if (name == "kalman_cov") {
      config.sync_mode = KalmanPredictor::SyncMode::kStateAndCov;
    } else if (name == "kalman_meas") {
      config.sync_mode = KalmanPredictor::SyncMode::kMeasurement;
    } else if (name == "kalman_gated") {
      config.outlier_gate_prob = 0.99;
    }
    return std::make_unique<KalmanPredictor>(std::move(config));
  }
  return nullptr;
}

Reading ScalarReading(int64_t seq, double value) {
  Reading r;
  r.seq = seq;
  r.time = static_cast<double>(seq);
  r.value = Vector{value};
  return r;
}

class ProtocolSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ProtocolSweepTest, ReplicasAgreeUnderArbitraryCadence) {
  auto client = MakeByName(GetParam());
  ASSERT_NE(client, nullptr);
  auto server = client->Clone();
  Reading first = ScalarReading(0, 1.0);
  client->Init(first);
  server->Init(first);

  Rng rng(11);
  double level = 1.0;
  for (int64_t i = 1; i <= 600; ++i) {
    level += rng.Gaussian(0.0, 0.5);
    Reading z = ScalarReading(i, level + rng.Gaussian(0.0, 0.3));
    client->Tick();
    server->Tick();
    client->ObserveLocal(z);
    // Irregular correction cadence, including bursts and droughts.
    bool correct = (i % 13 == 0) || (i % 7 == 3) || (i > 300 && i < 310);
    if (correct) {
      auto payload = client->EncodeCorrection(z);
      ASSERT_TRUE(client->ApplyCorrection(i, z.time, payload).ok());
      ASSERT_TRUE(server->ApplyCorrection(i, z.time, payload).ok());
    }
    ASSERT_NEAR(client->Predict()[0], server->Predict()[0], 1e-12)
        << GetParam() << " diverged at i=" << i;
  }
}

TEST_P(ProtocolSweepTest, CloneIsFreshAndEquivalent) {
  auto a = MakeByName(GetParam());
  ASSERT_NE(a, nullptr);
  // Mutate the original...
  a->Init(ScalarReading(0, 5.0));
  a->Tick();
  a->ObserveLocal(ScalarReading(1, 6.0));
  // ...then clone: the clone must behave like a brand-new instance.
  auto b = a->Clone();
  auto c = MakeByName(GetParam());
  Reading first = ScalarReading(0, 2.0);
  b->Init(first);
  c->Init(first);
  Rng rng(13);
  for (int64_t i = 1; i <= 100; ++i) {
    Reading z = ScalarReading(i, rng.Gaussian(2.0, 1.0));
    b->Tick();
    c->Tick();
    b->ObserveLocal(z);
    c->ObserveLocal(z);
    if (i % 9 == 0) {
      auto pb = b->EncodeCorrection(z);
      auto pc = c->EncodeCorrection(z);
      ASSERT_EQ(pb, pc) << GetParam();
      ASSERT_TRUE(b->ApplyCorrection(i, z.time, pb).ok());
      ASSERT_TRUE(c->ApplyCorrection(i, z.time, pc).ok());
    }
    ASSERT_NEAR(b->Predict()[0], c->Predict()[0], 1e-12) << GetParam();
  }
}

TEST_P(ProtocolSweepTest, StateSyncPoliciesAreContractExact) {
  const std::string name = GetParam();
  if (name == "kalman_meas") {
    GTEST_SKIP() << "measurement sync is deliberately inexact";
  }
  auto p = MakeByName(name);
  ASSERT_NE(p, nullptr);
  p->Init(ScalarReading(0, 0.0));
  Rng rng(17);
  for (int64_t i = 1; i <= 200; ++i) {
    Reading z = ScalarReading(i, rng.Gaussian(0.0, 3.0));
    p->Tick();
    p->ObserveLocal(z);
    auto payload = p->EncodeCorrection(z);
    ASSERT_TRUE(p->ApplyCorrection(i, z.time, payload).ok());
    ASSERT_NEAR(p->Target()[0], p->Predict()[0], 1e-9)
        << name << " not exact at i=" << i;
  }
}

TEST_P(ProtocolSweepTest, PredictIsStableWithoutNewInformation) {
  // Without corrections, repeated Predict() calls between ticks must be
  // pure (no hidden mutation from reading the prediction).
  auto p = MakeByName(GetParam());
  ASSERT_NE(p, nullptr);
  p->Init(ScalarReading(0, 4.0));
  p->Tick();
  Vector first = p->Predict();
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(AlmostEqual(p->Predict(), first, 0.0));
  }
}

INSTANTIATE_TEST_SUITE_P(AllScalarPolicies, ProtocolSweepTest,
                         ::testing::Values("value_cache", "linear", "ewma",
                                           "kalman", "kalman_cov",
                                           "kalman_meas", "kalman_gated",
                                           "imm", "ekf"));

}  // namespace
}  // namespace kc
