// P2 — Kalman filter step latency per bundled model, plus the full
// suppression decision path (tick + observe + contract check). These are
// the per-reading costs a source pays; they bound client-side viability
// on weak hardware.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "kalman/adaptive.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "kalman/ekf.h"
#include "kalman/imm.h"
#include "kalman/kalman_filter.h"
#include "suppression/policies.h"

namespace {

kc::StateSpaceModel ModelFor(int id) {
  switch (id) {
    case 0:
      return kc::MakeRandomWalkModel(0.1, 0.25);
    case 1:
      return kc::MakeConstantVelocityModel(1.0, 0.1, 0.25);
    case 2:
      return kc::MakeConstantAccelerationModel(1.0, 0.05, 0.25);
    case 3:
      return kc::MakeConstantVelocity2DModel(1.0, 0.1, 0.25);
    case 4:
      return kc::MakeConstantAcceleration2DModel(1.0, 0.05, 0.25);
    default:
      return kc::MakeConstantJerk2DModel(1.0, 0.01, 0.25);
  }
}

void BM_PredictUpdate(benchmark::State& state) {
  kc::StateSpaceModel model = ModelFor(static_cast<int>(state.range(0)));
  size_t n = model.state_dim();
  size_t m = model.obs_dim();
  kc::KalmanFilter kf(model, kc::Vector(n), kc::Matrix::ScalarDiagonal(n, 1.0));
  // Observations are drawn ahead of the timed loop: a Gaussian draw costs
  // ~55 ns, which would otherwise swamp the filter step being measured.
  kc::Rng rng(1);
  constexpr size_t kSteps = 1024;  // Power of two so the wrap is a mask.
  std::vector<double> zs(kSteps * m);
  for (double& v : zs) v = rng.Gaussian();
  kc::Vector z(m);
  size_t step = 0;
  for (auto _ : state) {
    const double* src = zs.data() + (step & (kSteps - 1)) * m;
    for (size_t d = 0; d < m; ++d) z[d] = src[d];
    ++step;
    kf.Predict();
    benchmark::DoNotOptimize(kf.Update(z).ok());
  }
  state.SetLabel(model.name);
}
BENCHMARK(BM_PredictUpdate)->DenseRange(0, 5);

/// BM_PredictUpdate plus the exact per-decision telemetry the serving path
/// adds: one trace scope (runtime-disabled, the production default), two
/// counter increments, and one histogram record. The delta against the
/// uninstrumented run is the observability tax; run_benches.sh writes it
/// into BENCH_perf.json as `observability_overhead`.
void BM_PredictUpdateInstrumented(benchmark::State& state) {
  kc::StateSpaceModel model = ModelFor(static_cast<int>(state.range(0)));
  size_t n = model.state_dim();
  size_t m = model.obs_dim();
  kc::KalmanFilter kf(model, kc::Vector(n), kc::Matrix::ScalarDiagonal(n, 1.0));
  kc::Rng rng(1);
  constexpr size_t kSteps = 1024;
  std::vector<double> zs(kSteps * m);
  for (double& v : zs) v = rng.Gaussian();
  kc::obs::MetricRegistry registry;
  kc::obs::Counter* decisions = registry.GetCounter("kc.agent.decisions");
  kc::obs::Counter* suppressed = registry.GetCounter("kc.agent.suppressed");
  kc::obs::Histogram* innovation = registry.GetHistogram(
      "kc.agent.innovation", kc::obs::Buckets::Exponential(1e-3, 4.0, 12));
  kc::Vector z(m);
  size_t step = 0;
  for (auto _ : state) {
    KC_TRACE_SCOPE("bench.predict_update");
    const double* src = zs.data() + (step & (kSteps - 1)) * m;
    for (size_t d = 0; d < m; ++d) z[d] = src[d];
    ++step;
    kf.Predict();
    benchmark::DoNotOptimize(kf.Update(z).ok());
    decisions->Inc();
    suppressed->Inc();
    innovation->Record(z[0]);
  }
  state.SetLabel(model.name);
}
BENCHMARK(BM_PredictUpdateInstrumented)->DenseRange(0, 5);

/// BM_PredictUpdateInstrumented plus this PR's flight-recorder and
/// watchdog feeds: one ring-slot Record and the three SourceHealth
/// On*() calls per decision. The delta against BM_PredictUpdate is the
/// full black-box tax; run_benches.sh writes it into BENCH_perf.json as
/// `recorder_overhead`.
void BM_PredictUpdateRecorded(benchmark::State& state) {
  kc::StateSpaceModel model = ModelFor(static_cast<int>(state.range(0)));
  size_t n = model.state_dim();
  size_t m = model.obs_dim();
  kc::KalmanFilter kf(model, kc::Vector(n), kc::Matrix::ScalarDiagonal(n, 1.0));
  kc::Rng rng(1);
  constexpr size_t kSteps = 1024;
  std::vector<double> zs(kSteps * m);
  for (double& v : zs) v = rng.Gaussian();
  kc::obs::MetricRegistry registry;
  kc::obs::FlightRecorder recorder(kc::obs::FlightRecorder::kDefaultCapacity);
  kc::obs::HealthMonitor health;
  recorder.BindMetrics(&registry);
  health.BindMetrics(&registry);
  health.BindRecorder(&recorder);
  kc::obs::SourceRecorder* ring = recorder.ForSource(0);
  kc::obs::SourceHealth* entry = health.ForSource(0, m);
  kc::Vector z(m);
  size_t step = 0;
  int64_t tick = 0;
  for (auto _ : state) {
    KC_TRACE_SCOPE("bench.predict_update");
    const double* src = zs.data() + (step & (kSteps - 1)) * m;
    for (size_t d = 0; d < m; ++d) z[d] = src[d];
    ++step;
    kf.Predict();
    benchmark::DoNotOptimize(kf.Update(z).ok());
    ++tick;
    ring->Record(tick, kc::obs::RecorderEventKind::kSuppress, tick, z[0]);
    entry->OnTick();
    entry->OnNis(static_cast<double>(m));  // In-band: no transition churn.
    entry->OnDecision(/*suppressed=*/true);
  }
  state.SetLabel(model.name);
}
BENCHMARK(BM_PredictUpdateRecorded)->DenseRange(0, 5);

/// BM_PredictUpdate plus the precision auditor at its default cadence:
/// every iteration pays the tick % sample_every check, and every fourth
/// pays a full Sample() (containment test, utilization + staleness
/// histogram records). The delta against BM_PredictUpdate is the audit
/// tax; run_benches.sh writes it into BENCH_perf.json as
/// `audit_overhead`, and check_bench_regress.sh diffs it.
void BM_PredictUpdateAudited(benchmark::State& state) {
  kc::StateSpaceModel model = ModelFor(static_cast<int>(state.range(0)));
  size_t n = model.state_dim();
  size_t m = model.obs_dim();
  kc::KalmanFilter kf(model, kc::Vector(n), kc::Matrix::ScalarDiagonal(n, 1.0));
  kc::Rng rng(1);
  constexpr size_t kSteps = 1024;
  std::vector<double> zs(kSteps * m);
  for (double& v : zs) v = rng.Gaussian();
  kc::obs::MetricRegistry registry;
  kc::obs::PrecisionAuditor auditor;  // Default: sample_every = 4.
  auditor.BindMetrics(&registry);
  kc::obs::SourceAudit* audit = auditor.ForSource(0);
  kc::Vector z(m);
  size_t step = 0;
  int64_t tick = 0;
  for (auto _ : state) {
    const double* src = zs.data() + (step & (kSteps - 1)) * m;
    for (size_t d = 0; d < m; ++d) z[d] = src[d];
    ++step;
    kf.Predict();
    benchmark::DoNotOptimize(kf.Update(z).ok());
    ++tick;
    if (auditor.ShouldSample(tick)) {
      audit->Sample(tick, std::fabs(z[0]), /*bound=*/4.0,
                    /*staleness_ticks=*/0, /*degraded=*/false);
    }
  }
  state.SetLabel(model.name);
}
BENCHMARK(BM_PredictUpdateAudited)->DenseRange(0, 5);

void BM_PredictOnly(benchmark::State& state) {
  kc::StateSpaceModel model = ModelFor(static_cast<int>(state.range(0)));
  size_t n = model.state_dim();
  kc::KalmanFilter kf(model, kc::Vector(n), kc::Matrix::ScalarDiagonal(n, 1.0));
  for (auto _ : state) {
    kf.Predict();
    benchmark::DoNotOptimize(kf.state().data().data());
  }
  state.SetLabel(model.name);
}
BENCHMARK(BM_PredictOnly)->DenseRange(0, 5);

void BM_AdaptiveOverhead(benchmark::State& state) {
  kc::KalmanFilter kf(kc::MakeRandomWalkModel(0.1, 0.25), kc::Vector{0.0},
                      kc::Matrix{{1.0}});
  kc::AdaptiveNoiseEstimator adaptive;
  kc::Rng rng(2);
  for (auto _ : state) {
    kf.Predict();
    benchmark::DoNotOptimize(kf.Update(kc::Vector{rng.Gaussian()}).ok());
    adaptive.AfterUpdate(kf);
  }
}
BENCHMARK(BM_AdaptiveOverhead);

/// The whole client-side per-reading path of the state-sync policy:
/// shadow tick, private filter step, contract check, (rare) correction.
void BM_SuppressionDecision(benchmark::State& state) {
  kc::KalmanPredictor::Config config;
  config.model = kc::MakeRandomWalkModel(0.1, 0.25);
  config.adaptive = kc::AdaptiveConfig{};
  kc::KalmanPredictor predictor(config);
  kc::Reading first;
  first.value = kc::Vector{0.0};
  predictor.Init(first);
  kc::Rng rng(3);
  double delta = 1.0;
  int64_t seq = 0;
  double level = 0.0;
  for (auto _ : state) {
    ++seq;
    level += rng.Gaussian(0.0, 0.2);
    kc::Reading z;
    z.seq = seq;
    z.time = static_cast<double>(seq);
    z.value = kc::Vector{level + rng.Gaussian(0.0, 0.3)};
    predictor.Tick();
    predictor.ObserveLocal(z);
    double err = std::fabs(predictor.Target()[0] - predictor.Predict()[0]);
    if (err > delta) {
      auto payload = predictor.EncodeCorrection(z);
      benchmark::DoNotOptimize(
          predictor.ApplyCorrection(seq, z.time, payload).ok());
    }
  }
}
BENCHMARK(BM_SuppressionDecision);

void BM_SerializeState(benchmark::State& state) {
  kc::StateSpaceModel model = ModelFor(3);  // Largest bundled model (n=4).
  kc::KalmanFilter kf(model, kc::Vector(4), kc::Matrix::ScalarDiagonal(4, 1.0));
  for (auto _ : state) {
    auto buf = kf.SerializeState();
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_SerializeState);

void BM_EkfPredictUpdate(benchmark::State& state) {
  kc::NonlinearModel model =
      kc::MakeCoordinatedTurnModel(1.0, 0.01, 0.05, 1e-4, 0.25);
  kc::Vector x0(5);
  x0[2] = 5.0;
  kc::ExtendedKalmanFilter ekf(model, x0, kc::Matrix::ScalarDiagonal(5, 1.0));
  kc::Rng rng(4);
  for (auto _ : state) {
    ekf.Predict();
    benchmark::DoNotOptimize(
        ekf.Update(kc::Vector{rng.Gaussian(), rng.Gaussian()}).ok());
  }
}
BENCHMARK(BM_EkfPredictUpdate);

void BM_ImmPredictUpdate(benchmark::State& state) {
  std::vector<kc::KalmanFilter> filters;
  filters.emplace_back(kc::MakeRandomWalkModel(0.01, 0.25), kc::Vector{0.0},
                       kc::Matrix{{1.0}});
  filters.emplace_back(kc::MakeRandomWalkModel(4.0, 0.25), kc::Vector{0.0},
                       kc::Matrix{{1.0}});
  kc::Imm imm(std::move(filters), kc::Matrix{{0.95, 0.05}, {0.05, 0.95}},
              kc::Vector{0.5, 0.5});
  kc::Rng rng(6);
  for (auto _ : state) {
    imm.Predict();
    benchmark::DoNotOptimize(imm.Update(kc::Vector{rng.Gaussian()}).ok());
  }
}
BENCHMARK(BM_ImmPredictUpdate);

}  // namespace
