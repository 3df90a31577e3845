#ifndef KALMANCAST_COMMON_RNG_H_
#define KALMANCAST_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace kc {

/// Deterministic random number generator used throughout kalmancast.
///
/// All stochastic components (stream generators, noise injection, lossy
/// channels) draw from an Rng seeded explicitly, so every experiment in the
/// benchmark suite is exactly reproducible. Wraps std::mt19937_64 and adds
/// the distributions the library needs.
class Rng {
 public:
  /// Creates a generator with the given seed. The same seed always produces
  /// the same sequence of draws (for a fixed call sequence).
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : engine_(seed) {}

  /// Reseeds the generator, restarting its sequence.
  void Seed(uint64_t seed) { engine_.seed(seed); }

  /// Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Normal draw with the given mean and standard deviation (>= 0;
  /// stddev 0 returns `mean`).
  double Gaussian(double mean = 0.0, double stddev = 1.0);

  /// Exponential draw with the given rate (mean = 1/rate).
  double Exponential(double rate);

  /// Pareto draw with scale xm > 0 and shape alpha > 0 (heavy-tailed;
  /// used for bursty network-traffic generators).
  double Pareto(double xm, double alpha);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Vector of n i.i.d. Gaussian draws.
  std::vector<double> GaussianVector(size_t n, double mean = 0.0,
                                     double stddev = 1.0);

  /// Direct access to the underlying engine for std distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace kc

#endif  // KALMANCAST_COMMON_RNG_H_
