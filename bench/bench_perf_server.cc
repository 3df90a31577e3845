// P3 — server-path microbenchmarks: message application at a replica,
// full fleet ticks, aggregate query evaluation, and CQL parsing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "fleet/sharded_fleet.h"
#include "query/parser.h"
#include "server/simulation.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace {

void BM_ReplicaApplyCorrection(benchmark::State& state) {
  kc::KalmanPredictor::Config config;
  config.model = kc::MakeRandomWalkModel(0.1, 0.25);
  kc::ServerReplica replica(0, std::make_unique<kc::KalmanPredictor>(config));
  kc::Message init;
  init.source_id = 0;
  init.type = kc::MessageType::kInit;
  init.payload = {1.0, 0.0};
  (void)replica.OnMessage(init);

  kc::Message correction;
  correction.source_id = 0;
  correction.type = kc::MessageType::kCorrection;
  correction.payload = {1.0, 0.5};
  int64_t seq = 0;
  for (auto _ : state) {
    correction.seq = ++seq;
    correction.time = static_cast<double>(seq);
    replica.Tick();
    benchmark::DoNotOptimize(replica.OnMessage(correction).ok());
  }
}
BENCHMARK(BM_ReplicaApplyCorrection);

// The fleet tick on the default adaptive Kalman workload: {sources,
// threads}. At threads=1 this is the sequential tick; at threads=N it
// measures the parallel speedup. Answers are bit-identical across rows
// with the same source count.
void BM_ShardedFleetStep(benchmark::State& state) {
  auto sources = static_cast<int>(state.range(0));
  kc::ShardedFleet::Config config;
  config.threads = static_cast<size_t>(state.range(1));
  kc::ShardedFleet fleet(config);
  for (int i = 0; i < sources; ++i) {
    kc::RandomWalkGenerator::Config walk;
    walk.step_sigma = 0.3;
    fleet.AddSource(std::make_unique<kc::RandomWalkGenerator>(walk),
                    kc::MakeDefaultKalmanPredictor(0.09, 0.01), 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.Step().ok());
  }
  state.SetItemsProcessed(state.iterations() * sources);
}
BENCHMARK(BM_ShardedFleetStep)
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 4})
    ->Args({10000, 4});

// Telemetry-plane tax: the sharded fleet with the full distributed
// telemetry plane on — per-shard metric arenas, plus a snapshot
// encode/decode/self-merge loopback every `telemetry_every` ticks — vs
// the bare step. {sources, telemetry_every}; every=0 is the baseline.
// run_benches.sh pairs the rows into BENCH_perf.json's
// telemetry_overhead table, and check_bench_regress.sh diffs it. The
// amortized per-tick cost at the default cadence (32) is the number the
// docs quote; the every=1 row is the worst case (a snapshot per tick).
void BM_FleetStepTelemetry(benchmark::State& state) {
  const auto sources = static_cast<int>(state.range(0));
  const auto every = static_cast<int64_t>(state.range(1));
  kc::ShardedFleet::Config config;
  config.threads = 1;
  config.num_shards = 4;
  kc::ShardedFleet fleet(config);
  if (every > 0) fleet.EnableTelemetryPlane(every);
  for (int i = 0; i < sources; ++i) {
    kc::RandomWalkGenerator::Config walk;
    walk.step_sigma = 0.3;
    fleet.AddSource(std::make_unique<kc::RandomWalkGenerator>(walk),
                    kc::MakeDefaultKalmanPredictor(0.09, 0.01), 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.Step().ok());
  }
  state.SetItemsProcessed(state.iterations() * sources);
  state.counters["sources"] = static_cast<double>(sources);
  state.counters["telemetry_every"] = static_cast<double>(every);
}
BENCHMARK(BM_FleetStepTelemetry)
    ->Args({1000, 0})
    ->Args({1000, 32})
    ->Args({1000, 1});

// Fleet-scale tick throughput: {sources, pooled, threads, simd, adaptive}.
// The pooled rows run the SoA FilterPool path (per-shard lane-interleaved
// x/P slabs swept by the vectorized batched kernels once per tick);
// pooled=0 forces every source onto the per-object virtual Predictor path
// the pools replaced. The threads axis drives both the shard fan-out and
// the phase-1 pool sweep; the simd axis toggles the AVX2 lane kernels
// against their portable scalar twins. adaptive=1 adds the default
// AdaptiveConfig (the Q adaptation MakeDefaultKalmanPredictor ships),
// which pools with per-slot Q and NIS rings and the lane-Q sweep kernel.
// Answers are bit-identical across the entire matrix (tests/pool_test.cc,
// tests/batch_kernels_test.cc, tests/sharded_fleet_test.cc), so
// items_per_second — sources ticked per second — is the only thing that
// may differ. run_benches.sh folds these rows into BENCH_perf.json's
// fleet_tick_1m table. The per-object baseline stops at 100k sources:
// at ~40 KB per source it is memory-bound long before 1M.
void BM_FleetTick_1M(benchmark::State& state) {
  const auto sources = static_cast<int>(state.range(0));
  const bool pooled = state.range(1) != 0;
  const auto threads = static_cast<size_t>(state.range(2));
  const bool simd = state.range(3) != 0;
  const bool adaptive = state.range(4) != 0;
  kc::ShardedFleet::Config config;
  config.threads = threads;
  config.num_shards = 8;
  config.pooling = pooled;
  config.simd = simd;
  kc::ShardedFleet fleet(config);
  kc::KalmanPredictor::Config kf;
  kf.model = kc::MakeRandomWalkModel(0.1, 0.25);
  if (adaptive) kf.adaptive = kc::AdaptiveConfig{};
  for (int i = 0; i < sources; ++i) {
    kc::RandomWalkGenerator::Config walk;
    walk.step_sigma = 0.3;
    // Wide delta: almost every tick is suppressed, so the rows measure
    // the predict/gate hot loop rather than message serialization.
    fleet.AddSource(std::make_unique<kc::RandomWalkGenerator>(walk),
                    std::make_unique<kc::KalmanPredictor>(kf), 4.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.Step().ok());
  }
  state.SetItemsProcessed(state.iterations() * sources);
  state.counters["sources"] = static_cast<double>(sources);
  state.counters["pooled"] = pooled ? 1.0 : 0.0;
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["simd"] = simd ? 1.0 : 0.0;
  state.counters["adaptive"] = adaptive ? 1.0 : 0.0;
}
void FleetTickMatrix(benchmark::internal::Benchmark* b) {
  b->Args({100000, 0, 1, 1, 0});   // Per-object baseline.
  b->Args({100000, 1, 1, 1, 0});   // Pooled, 1 thread, SIMD.
  b->Args({100000, 0, 1, 1, 1});   // Adaptive Q, per-object estimator.
  b->Args({100000, 1, 1, 1, 1});   // Adaptive Q, pooled per-slot Q.
  b->Args({1000000, 1, 1, 1, 0});  // The headline row.
  b->Args({1000000, 1, 1, 0, 0});  // SIMD off: the scalar-lane cost.
  b->Args({1000000, 1, 4, 1, 0});  // Multi-threaded sweep + shard fan-out.
  const auto hw = static_cast<int64_t>(std::thread::hardware_concurrency());
  if (hw > 1 && hw != 4) b->Args({1000000, 1, hw, 1, 0});
}
BENCHMARK(BM_FleetTick_1M)
    ->Apply(FleetTickMatrix)
    ->Unit(benchmark::kMillisecond);

// Registered live-aggregate evaluation (ShardedServer::Evaluate) over
// {members} ValueCache sources on the default fleet, back to back: the
// warm-cache cost of the member pass alone.
void BM_AggregateEvaluate(benchmark::State& state) {
  auto members = static_cast<int>(state.range(0));
  kc::ShardedFleet fleet;
  for (int i = 0; i < members; ++i) {
    kc::RandomWalkGenerator::Config walk;
    fleet.AddSource(std::make_unique<kc::RandomWalkGenerator>(walk),
                    std::make_unique<kc::ValueCachePredictor>(), 1.0);
  }
  (void)fleet.Run(2);
  kc::QuerySpec spec;
  spec.kind = kc::AggregateKind::kAvg;
  for (int i = 0; i < members; ++i) spec.sources.push_back(i);
  (void)fleet.server().AddQuery("avg", spec);
  for (auto _ : state) {
    auto result = fleet.server().Evaluate("avg");
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * members);
  state.counters["members"] = static_cast<double>(members);
  state.counters["shards"] = static_cast<double>(fleet.server().num_shards());
}
BENCHMARK(BM_AggregateEvaluate)
    ->Arg(4)
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime()
    ->Repetitions(7)
    ->ReportAggregatesOnly(true);

// The same evaluation as kcbench's sensor_queries driver sees it: 2,000
// default adaptive Kalman sources on 8 shards stepped by 2 threads, and
// one untimed fleet Step() before every evaluation, so each member read
// follows a shard worker's write on another core. {members}: the query
// spans the first `members` sources.
void BM_AggregateEvaluateAfterStep(benchmark::State& state) {
  constexpr int kSources = 2000;
  const auto members = static_cast<int>(state.range(0));
  kc::ShardedFleet::Config config;
  config.threads = 2;
  config.num_shards = 8;
  kc::ShardedFleet fleet(config);
  for (int i = 0; i < kSources; ++i) {
    kc::RandomWalkGenerator::Config walk;
    walk.start = 0.01 * i;
    walk.step_sigma = 0.3;
    fleet.AddSource(std::make_unique<kc::RandomWalkGenerator>(walk),
                    kc::MakeDefaultKalmanPredictor(0.09, 0.01), 1.0);
  }
  (void)fleet.Run(20);  // Warm-up: every replica initialized.
  kc::QuerySpec spec;
  spec.kind = kc::AggregateKind::kAvg;
  for (int i = 0; i < members; ++i) spec.sources.push_back(i);
  (void)fleet.server().AddQuery("avg", spec);
  for (auto _ : state) {
    state.PauseTiming();
    (void)fleet.Step();
    state.ResumeTiming();
    auto result = fleet.server().Evaluate("avg");
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * members);
  state.counters["members"] = static_cast<double>(members);
  state.counters["shards"] = static_cast<double>(config.num_shards);
}
BENCHMARK(BM_AggregateEvaluateAfterStep)
    ->Arg(64)
    ->Arg(256)
    ->Arg(2000)
    ->UseRealTime()
    ->Repetitions(7)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

// Deterministic loss-sweep smoke for the recovery protocol: one link,
// fixed seeds, a Gilbert-Elliott channel whose stationary bad-state
// fraction is the benchmark argument (in percent). The counters are the
// recovery-time-to-bound numbers run_benches.sh folds into
// BENCH_perf.json's loss_sweep_recovery table — identical on every run,
// so regressions in the protocol (slower healing, more quarantine time)
// show up as counter diffs, not timing noise.
void BM_LossSweepRecovery(benchmark::State& state) {
  const double bad = static_cast<double>(state.range(0)) / 100.0;
  kc::LinkConfig config;
  config.ticks = 2000;
  config.delta = 0.5;
  config.seed = 7;
  config.agent.heartbeat_every = 4;
  config.channel.seed = 8;
  if (bad > 0.0) {
    // enter/(enter+exit) == bad: the chain spends `bad` of its time in
    // the bursty state, where every send is lost.
    config.channel.faults.burst_exit_prob = 0.25;
    config.channel.faults.burst_enter_prob = 0.25 * bad / (1.0 - bad);
    config.channel.faults.burst_loss_prob = 1.0;
  }
  config.channel.faults.duplicate_prob = 0.05;
  config.recovery.enabled = true;
  config.recovery.suspect_after_silent_ticks = 10;

  kc::KalmanPredictor::Config kf;
  kf.model = kc::MakeRandomWalkModel(0.1, 0.25);
  kc::KalmanPredictor prototype(kf);
  kc::RandomWalkGenerator::Config walk;
  walk.step_sigma = 0.3;

  kc::LinkReport report;
  for (auto _ : state) {
    kc::RandomWalkGenerator generator(walk);
    report = kc::RunLink(generator, prototype, config);
    benchmark::DoNotOptimize(report.contract_violations);
  }
  state.counters["gaps"] = static_cast<double>(report.gaps);
  state.counters["resyncs_served"] = static_cast<double>(report.resyncs_served);
  state.counters["degraded_ticks"] =
      static_cast<double>(report.degraded_ticks);
  state.counters["recovery_ticks_per_resync"] =
      static_cast<double>(report.degraded_ticks) /
      static_cast<double>(std::max<int64_t>(report.resyncs_served, 1));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(config.ticks));
}
BENCHMARK(BM_LossSweepRecovery)->Arg(0)->Arg(5)->Arg(10)->Arg(20);

void BM_ParseQuery(benchmark::State& state) {
  const std::string query =
      "SELECT AVG(s0, s1, s2, s3, s4, s5, s6, s7) WHEN > 42.5 WITHIN 0.25 "
      "EVERY 10";
  for (auto _ : state) {
    auto spec = kc::ParseQuery(query);
    benchmark::DoNotOptimize(spec.ok());
  }
}
BENCHMARK(BM_ParseQuery);

}  // namespace
