#ifndef KCBENCH_STATS_H_
#define KCBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kcbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it, i.e. sorted[ceil(p/100 * n) - 1] (sorted[0]
/// for p = 0). `samples` need not be sorted. Returns 0 for no samples.
double Percentile(std::vector<double> samples, double p);

/// Median as the nearest-rank 50th percentile (a sample, never a mean of
/// two).
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// Mean of the samples left after dropping the largest `drop_share` of
/// them (rounded down to whole samples). Returns 0 for no samples.
double TrimmedMean(std::vector<double> samples, double drop_share);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that
/// still has at least 10 of `n` samples strictly beyond its nearest-rank
/// position (n - ceil(p/100 * n) >= 10). Returns 0 when not even the
/// median qualifies (n < 20): such a run reports no tail at all.
double TailPercentileLevel(size_t n);

/// A ratio that carries its base: the numerator and denominator are
/// reported beside the quotient, so "1.0" is never read without knowing
/// whether it is 4/4 or 40000/40000.
struct Ratio {
  double num = 0.0;
  double den = 0.0;

  /// num / den; 0 when the base is 0 (nothing was attempted, so nothing
  /// succeeded — a correctness check on the ratio then fails).
  double value() const { return den != 0.0 ? num / den : 0.0; }
  /// "0.4812 (9624/20000)".
  std::string ToString() const;
};

/// `total` per source per tick: the paper's resource normalisation
/// (messages or bytes per source-tick). 0 when sources or ticks is 0.
double PerSourceTick(double total, int64_t sources, int64_t ticks);

}  // namespace kcbench

#endif  // KCBENCH_STATS_H_
