#include "suppression/imm_policy.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fleet/link.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace kc {
namespace {

Reading MakeReading(int64_t seq, double value) {
  Reading r;
  r.seq = seq;
  r.time = static_cast<double>(seq);
  r.value = Vector{value};
  return r;
}

TEST(ImmPredictorTest, InitAndBasics) {
  auto p = MakeTwoModeImmPredictor(0.01, 4.0, 0.25);
  p->Init(MakeReading(0, 5.0));
  EXPECT_DOUBLE_EQ(p->Predict()[0], 5.0);
  EXPECT_DOUBLE_EQ(p->Target()[0], 5.0);
  EXPECT_EQ(p->name(), "imm");
  EXPECT_EQ(p->dims(), 1u);
}

TEST(ImmPredictorTest, ContractExactAfterCorrection) {
  auto p = MakeTwoModeImmPredictor(0.01, 4.0, 0.25);
  p->Init(MakeReading(0, 0.0));
  Rng rng(1);
  for (int64_t i = 1; i <= 200; ++i) {
    Reading z = MakeReading(i, rng.Gaussian(0.0, 2.0));
    p->Tick();
    p->ObserveLocal(z);
    auto payload = p->EncodeCorrection(z);
    // 2 modes: mu (2) + 2 * (x (1) + P (1)).
    ASSERT_EQ(payload.size(), 2u + 2u * 2u);
    ASSERT_TRUE(p->ApplyCorrection(i, z.time, payload).ok());
    ASSERT_NEAR(p->Target()[0], p->Predict()[0], 1e-12);
  }
}

TEST(ImmPredictorTest, ReplicasStayInLockstep) {
  auto client = MakeTwoModeImmPredictor(0.01, 4.0, 0.25);
  auto server = client->Clone();
  Reading first = MakeReading(0, 0.0);
  client->Init(first);
  server->Init(first);
  Rng rng(2);
  double x = 0.0;
  for (int64_t i = 1; i <= 400; ++i) {
    double sigma = (i / 100) % 2 == 0 ? 0.1 : 2.0;
    x += rng.Gaussian(0.0, sigma);
    Reading z = MakeReading(i, x + rng.Gaussian(0.0, 0.5));
    client->Tick();
    server->Tick();
    client->ObserveLocal(z);
    if (i % 7 == 0) {
      auto payload = client->EncodeCorrection(z);
      ASSERT_TRUE(client->ApplyCorrection(i, z.time, payload).ok());
      ASSERT_TRUE(server->ApplyCorrection(i, z.time, payload).ok());
    }
    ASSERT_NEAR(client->Predict()[0], server->Predict()[0], 1e-12) << i;
  }
}

TEST(ImmPredictorTest, BeatsFixedFiltersOnModeFlippingStream) {
  // Regimes flip every 500 ticks; the IMM should suppress more than a
  // quiet-tuned fixed filter at comparable truth accuracy, and track
  // truth better than value caching at comparable cost.
  RegimeSwitchingGenerator::Config regimes;
  regimes.regimes = {{500, 0.1, 0.0}, {500, 1.5, 0.0}};
  LinkConfig config;
  config.ticks = 6000;
  config.delta = 0.75;
  config.seed = 5;

  RegimeSwitchingGenerator stream_a(regimes);
  auto imm = MakeTwoModeImmPredictor(0.01, 2.25, 0.04);
  LinkReport imm_report = RunLink(stream_a, *imm, config);

  RegimeSwitchingGenerator stream_b(regimes);
  KalmanPredictor::Config loud;
  loud.model = MakeRandomWalkModel(2.25, 0.04);
  KalmanPredictor loud_proto(loud);
  LinkReport loud_report = RunLink(stream_b, loud_proto, config);

  // The IMM should be cheaper than the always-loud filter (it suppresses
  // harder in quiet phases) at comparable accuracy.
  EXPECT_LT(imm_report.messages, loud_report.messages);
  EXPECT_LT(imm_report.err_vs_truth.rms(),
            loud_report.err_vs_truth.rms() * 1.5);
  EXPECT_EQ(imm_report.contract_violations, 0);
}

TEST(ImmPredictorTest, ApplyBeforeInitFails) {
  auto p = MakeTwoModeImmPredictor(0.01, 4.0, 0.25);
  EXPECT_FALSE(p->ApplyCorrection(0, 0.0, {1.0}).ok());
}

TEST(ImmPredictorTest, WrongPayloadSizeRejected) {
  auto p = MakeTwoModeImmPredictor(0.01, 4.0, 0.25);
  p->Init(MakeReading(0, 0.0));
  EXPECT_FALSE(p->ApplyCorrection(1, 1.0, {1.0, 2.0}).ok());
}

TEST(ImmSerializationTest, RoundTripThroughImm) {
  auto a = MakeTwoModeImmPredictor(0.01, 4.0, 0.25);
  a->Init(MakeReading(0, 1.0));
  Rng rng(7);
  for (int64_t i = 1; i <= 30; ++i) {
    a->Tick();
    Reading z = MakeReading(i, rng.Gaussian(0.0, 1.0));
    a->ObserveLocal(z);
    if (i == 30) {
      ASSERT_TRUE(a->ApplyCorrection(i, z.time, a->EncodeCorrection(z)).ok());
    }
  }
  // Post-correction, the shared state equals the private estimate; the
  // full-state payload reproduces it in a fresh replica.
  auto state = a->EncodeFullState();
  auto b = MakeTwoModeImmPredictor(0.01, 4.0, 0.25);
  b->Init(MakeReading(0, 0.0));
  ASSERT_TRUE(b->ApplyFullState(state).ok());
  EXPECT_NEAR(b->Predict()[0], a->Predict()[0], 1e-12);
  EXPECT_NEAR(b->Predict()[0], a->Target()[0], 1e-12);
}

}  // namespace
}  // namespace kc
