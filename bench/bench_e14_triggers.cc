// E14 — Table "trigger quality under bounded uncertainty" (extension):
// how trustworthy the server's three-valued threshold answers are as the
// precision bound grows. A definite YES/NO must (almost) never be wrong —
// the uncertainty shows up as a widening MAYBE band and is never silently
// converted into a confident falsehood. This substantiates the framing
// that approximate answers need quality guarantees, not just smallness.

#include <cmath>
#include <cstdio>
#include <memory>

#include "common.h"
#include "fleet/sharded_fleet.h"
#include "query/parser.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

namespace {

struct TriggerQuality {
  long long yes = 0, maybe = 0, no = 0;
  long long wrong_definite = 0;  // YES while truly under / NO while over.
  long long messages = 0;
};

TriggerQuality RunTrigger(double delta) {
  using namespace kc;
  // A sinusoid oscillating through the threshold, with sensor noise.
  SinusoidGenerator::Config wave;
  wave.offset = 20.0;
  wave.amplitude = 6.0;
  wave.period = 400.0;
  NoiseConfig noise;
  noise.gaussian_sigma = 0.4;
  constexpr double kThreshold = 22.0;

  ShardedFleet::Config config;
  config.seed = 67;
  config.num_shards = 1;
  ShardedFleet fleet(config);
  fleet.AddSource(std::make_unique<NoisyStream>(
                      std::make_unique<SinusoidGenerator>(wave), noise),
                  MakeDefaultKalmanPredictor(0.05, 0.16), delta);
  auto spec = ParseQuery("SELECT VALUE(s0) WHEN > 22");
  (void)fleet.server().AddQuery("hot", *spec);

  TriggerQuality q;
  for (int t = 0; t < 20000; ++t) {
    if (!fleet.Step().ok()) break;
    auto result = fleet.server().Evaluate("hot");
    if (!result.ok()) continue;
    bool truly_over = fleet.TruthOf(0) > kThreshold;
    switch (*result->trigger) {
      case TriggerState::kYes:
        ++q.yes;
        if (!truly_over) ++q.wrong_definite;
        break;
      case TriggerState::kMaybe:
        ++q.maybe;
        break;
      case TriggerState::kNo:
        ++q.no;
        if (truly_over) ++q.wrong_definite;
        break;
    }
  }
  q.messages = fleet.TotalMessages();
  return q;
}

}  // namespace

int main() {
  kc::bench::PrintHeader(
      "E14 | Trigger quality under bounded uncertainty (extension)",
      "sinusoid through threshold 22 (amplitude 6, noise 0.4); 20000 "
      "readings; kalman policy");
  std::printf("%8s %10s %10s %10s %10s %16s %12s\n", "delta", "YES", "MAYBE",
              "NO", "messages", "wrong definite", "wrong rate");
  for (double delta : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    TriggerQuality q = RunTrigger(delta);
    long long total = q.yes + q.maybe + q.no;
    std::printf("%8.2f %10lld %10lld %10lld %10lld %16lld %11.3f%%\n", delta,
                q.yes, q.maybe, q.no, q.messages, q.wrong_definite,
                100.0 * static_cast<double>(q.wrong_definite) /
                    static_cast<double>(total));
  }
  std::printf(
      "\nExpected shape: the MAYBE band widens with delta (honest "
      "uncertainty), the\nmessage count falls, and wrong-definite answers "
      "stay rare at every delta —\nthe residual few live in the gap between "
      "the noisy truth and the filtered\ncontract target near the "
      "threshold. Precision is traded for bandwidth without\never trading "
      "away the guarantee's honesty.\n");
  return 0;
}
