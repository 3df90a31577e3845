#ifndef KALMANCAST_BENCH_COMMON_H_
#define KALMANCAST_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "fleet/link.h"
#include "streams/generator.h"
#include "suppression/predictor.h"

namespace kc::bench {

/// Named stream families used across the experiment suite. Scalar unless
/// noted. Each family's configuration is fixed so every bench and every
/// rerun sees identical workloads.
///
///   smooth_walk   random walk, sigma=0.5, no sensor noise
///   noisy_walk    random walk sigma=0.3 + Gaussian sensor noise 0.4
///   linear_trend  slope 0.3 ramp with tiny wobble
///   sinusoid      period-200 sine, amplitude 5
///   ar1           mean-reverting AR(1), phi=0.95
///   regime        volatility regime switching (0.1 <-> 1.5)
///   bursty        ON/OFF Pareto traffic (real-world stand-in)
///   temperature   diurnal cycle + weather front + sensor noise (stand-in)
///   vehicle       2-D trajectory + GPS noise (stand-in, dims=2)
std::unique_ptr<StreamGenerator> MakeStream(const std::string& family);

/// All scalar synthetic families (E2 grid).
const std::vector<std::string>& SyntheticFamilies();

/// Real-world stand-in families (E3 grid).
const std::vector<std::string>& RealWorldFamilies();

/// Named suppression policies.
///
///   value_cache      Olston-style approximate caching
///   linear           two-point dead reckoning
///   ewma             client-side exponential smoothing, alpha=0.5
///   kalman           adaptive dual KF, random-walk model (state sync)
///   kalman_cv        adaptive dual KF, constant-velocity model
///   kalman_seasonal  adaptive dual KF, trend+seasonal model (288-tick day)
///   kalman_cov       dual KF shipping state+covariance
///   kalman_meas      dual KF with measurement-sync corrections (ablation)
/// `dims` must be 1 for the scalar policies or 2 to get the planar
/// (constant-velocity 2-D) variants of value_cache/linear/kalman.
std::unique_ptr<Predictor> MakePolicy(const std::string& name,
                                      size_t dims = 1);

/// Default policy column set for the message-count tables.
const std::vector<std::string>& DefaultPolicies();

/// Prints a markdown-style table row separator-free header.
void PrintHeader(const std::string& title, const std::string& subtitle);

/// Runs `policy` over `family` and returns the report (convenience around
/// RunLink with the bench defaults).
LinkReport RunOne(const std::string& family, const std::string& policy,
                  double delta, size_t ticks, uint64_t seed);

}  // namespace kc::bench

#endif  // KALMANCAST_BENCH_COMMON_H_
