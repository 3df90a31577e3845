#include "speed_probe.h"

#include <cmath>
#include <ctime>

#include "stats.h"

namespace kcbench {

namespace {

constexpr size_t kStates = 256;
/// Timed passes per sample (after one untimed pass that warms L1).
constexpr int kPasses = 32;

double ThreadCpuUs() {
  timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

}  // namespace

SpeedProbe::SpeedProbe() : states_(kStates) {
  for (size_t i = 0; i < kStates; ++i) {
    states_[i] = {{0.0, 0.0}, {1.0, 0.0, 0.0, 1.0}, i * 2654435761u + 1};
  }
}

double SpeedProbe::Sample() {
  double sink = 0.0;
  double t0 = 0.0;
  for (int pass = 0; pass <= kPasses; ++pass) {
    if (pass == 1) t0 = ThreadCpuUs();
    for (State& s : states_) {
      // xorshift64 draw, then a constant-velocity predict and update.
      s.rng ^= s.rng << 13;
      s.rng ^= s.rng >> 7;
      s.rng ^= s.rng << 17;
      double z = static_cast<double>(s.rng >> 11) * 0x1p-53 - 0.5;
      double x0 = s.x[0] + s.x[1];
      double p0 = s.p[0] + s.p[1] + s.p[2] + s.p[3] + 0.01;
      double p1 = s.p[1] + s.p[3];
      double p3 = s.p[3] + 0.01;
      double y = z - x0;
      double k0 = p0 / (p0 + 0.09);
      double k1 = p1 / (p0 + 0.09);
      s.x[0] = x0 + k0 * y;
      s.x[1] += k1 * y;
      s.p[0] = (1.0 - k0) * p0;
      s.p[1] = s.p[2] = (1.0 - k0) * p1;
      s.p[3] = p3 - k1 * p1;
      sink += std::sqrt(std::abs(y));
    }
  }
  double us = ThreadCpuUs() - t0;
  // Keeps the arithmetic from being optimised away.
  [[maybe_unused]] static volatile double keep;
  keep = sink;
  samples_us_.push_back(us);
  return us;
}

double SpeedProbe::Factor() const {
  if (samples_us_.empty()) return 1.0;
  return kReferenceUs / TrimmedMean(samples_us_, 0.01);
}

}  // namespace kcbench
