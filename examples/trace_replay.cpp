// trace_replay: run any suppression policy over a CSV trace file.
//
// This is the adoption path for real data: export your stream as a CSV
// with columns seq,time,truth_0..,meas_0.. (truth may simply repeat the
// measurement if unknown), then compare policies and precision bounds on
// *your* workload without writing any code.
//
// Usage:
//   trace_replay <trace.csv> [delta] [policy] [resample_dt]
//     policy: kalman (default) | kalman_cv | value_cache | linear | ewma
//     resample_dt: clean non-monotonic timestamps and interpolate the
//                  trace onto a uniform grid with this spacing
//
// With no arguments, generates and replays a demo trace end-to-end.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "fleet/link.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "streams/resample.h"
#include "streams/trace.h"
#include "suppression/policies.h"

namespace {

std::unique_ptr<kc::Predictor> MakePolicy(const std::string& name,
                                          size_t dims) {
  if (name == "value_cache") {
    return std::make_unique<kc::ValueCachePredictor>(dims);
  }
  if (name == "linear") return std::make_unique<kc::LinearPredictor>(dims);
  if (name == "ewma") return std::make_unique<kc::EwmaPredictor>(dims, 0.5);
  kc::KalmanPredictor::Config config;
  if (dims == 2) {
    config.model = kc::MakeConstantVelocity2DModel(1.0, 0.5, 1.0);
  } else if (name == "kalman_cv") {
    config.model = kc::MakeConstantVelocityModel(1.0, 0.05, 0.25);
  } else {
    config.model = kc::MakeRandomWalkModel(0.1, 0.25);
  }
  kc::AdaptiveConfig adaptive;
  adaptive.adapt_q = true;
  adaptive.adapt_r = true;  // Learn the trace's actual noise level.
  config.adaptive = adaptive;
  return std::make_unique<kc::KalmanPredictor>(std::move(config));
}

int Replay(const std::string& path, double delta, const std::string& policy,
           double resample_dt = 0.0) {
  auto trace = kc::LoadTraceCsv(path);
  if (!trace.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 trace.status().ToString().c_str());
    return 1;
  }
  if (resample_dt > 0.0) {
    size_t dropped = 0;
    auto cleaned = kc::DropNonMonotonic(*trace, &dropped);
    auto uniform = kc::ResampleTrace(cleaned, resample_dt);
    if (!uniform.ok()) {
      std::fprintf(stderr, "resample failed: %s\n",
                   uniform.status().ToString().c_str());
      return 1;
    }
    std::printf("resampled to dt=%g (%zu -> %zu samples, %zu dropped)\n",
                resample_dt, trace->size(), uniform->size(), dropped);
    *trace = std::move(*uniform);
  }
  kc::ReplayGenerator replay(*trace, path);
  auto proto = MakePolicy(policy, replay.dims());
  if (proto == nullptr) {
    std::fprintf(stderr, "unknown policy %s\n", policy.c_str());
    return 1;
  }

  kc::LinkConfig config;
  config.ticks = replay.size();
  config.delta = delta;
  kc::LinkReport report = kc::RunLink(replay, *proto, config);
  if (!report.status.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 report.status.ToString().c_str());
    return 1;
  }

  std::printf("trace:        %s (%zu samples, %zu-dim)\n", path.c_str(),
              replay.size(), replay.dims());
  std::printf("policy:       %s   delta: %g\n", report.policy.c_str(), delta);
  std::printf("messages:     %lld (%.2f%% of naive streaming)\n",
              static_cast<long long>(report.messages),
              100.0 * report.messages_per_tick);
  std::printf("bytes:        %lld\n", static_cast<long long>(report.bytes));
  std::printf("err vs meas:  mean %.4g  max %.4g\n",
              report.err_vs_measured.mean(), report.err_vs_measured.max());
  std::printf("err vs truth: rmse %.4g  max %.4g\n",
              report.err_vs_truth.rms(), report.err_vs_truth.max());
  std::printf("contract:     %lld violations against delta=%g\n",
              static_cast<long long>(report.contract_violations), delta);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    double delta = argc >= 3 ? std::atof(argv[2]) : 1.0;
    std::string policy = argc >= 4 ? argv[3] : "kalman";
    double resample_dt = argc >= 5 ? std::atof(argv[4]) : 0.0;
    return Replay(argv[1], delta, policy, resample_dt);
  }

  // Demo mode: build a trace, save it, replay it through two policies.
  std::printf("no trace given; running the self-demo\n");
  std::printf("usage: trace_replay <trace.csv> [delta] [policy]\n\n");
  kc::RandomWalkGenerator::Config walk;
  walk.step_sigma = 0.3;
  kc::NoiseConfig noise;
  noise.gaussian_sigma = 0.6;
  kc::NoisyStream stream(std::make_unique<kc::RandomWalkGenerator>(walk),
                         noise);
  auto trace = kc::Materialize(stream, 5000, 99);
  const std::string path = "/tmp/kalmancast_demo_trace.csv";
  if (!kc::SaveTraceCsv(path, trace).ok()) return 1;
  int rc = Replay(path, 1.0, "value_cache");
  std::printf("\n");
  rc |= Replay(path, 1.0, "kalman");
  std::remove(path.c_str());
  return rc;
}
