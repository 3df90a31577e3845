#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace kc {

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  // Scaling a standard draw is libstdc++'s own final step, so this is
  // bit-identical to normal_distribution(mean, stddev) for stddev > 0 —
  // and, unlike it, defined for stddev == 0 (a point mass at `mean`).
  std::normal_distribution<double> dist(0.0, 1.0);
  return dist(engine_) * stddev + mean;
}

double Rng::Exponential(double rate) {
  std::exponential_distribution<double> dist(rate);
  return dist(engine_);
}

double Rng::Pareto(double xm, double alpha) {
  // Inverse-CDF sampling: X = xm / U^(1/alpha), U ~ Uniform(0, 1].
  double u = 1.0 - Uniform(0.0, 1.0);  // in (0, 1]
  return xm / std::pow(u, 1.0 / alpha);
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::vector<double> Rng::GaussianVector(size_t n, double mean, double stddev) {
  std::vector<double> out(n);
  for (auto& v : out) v = Gaussian(mean, stddev);
  return out;
}

}  // namespace kc
