#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace kcbench {

namespace {

// Nearest-rank position (1-based) of percentile p over n samples. The
// relative slack keeps an exact product such as 99.9% of 10000 = 9990,
// which binary floating point computes as 9990.000000000002, from
// rounding up to the next rank.
size_t Rank(double p, size_t n) {
  double x = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<size_t>(std::ceil(x - x * 1e-12));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t k = Rank(p, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

double TrimmedMean(std::vector<double> samples, double drop_share) {
  auto drop = static_cast<size_t>(drop_share * static_cast<double>(samples.size()));
  size_t keep = samples.size() - std::min(drop, samples.size());
  if (keep == 0) return 0.0;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(keep - 1),
                   samples.end());
  double sum = 0.0;
  for (size_t i = 0; i < keep; ++i) sum += samples[i];
  return sum / static_cast<double>(keep);
}

double TailPercentileLevel(size_t n) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  if (n == 0) return 0.0;
  for (double p : kLadder) {
    if (n - Rank(p, n) >= 10) return p;
  }
  return 0.0;
}

std::string Ratio::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.6g (%.0f/%.0f)", value(), num, den);
  return buf;
}

double PerSourceTick(double total, int64_t sources, int64_t ticks) {
  if (sources <= 0 || ticks <= 0) return 0.0;
  return total / (static_cast<double>(sources) * static_cast<double>(ticks));
}

}  // namespace kcbench
