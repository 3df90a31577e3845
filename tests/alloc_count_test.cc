// Proves the allocation-free fast path: steady-state Predict/Update on
// every bundled filter performs ZERO heap allocations (the workspace +
// inline-storage contract of docs/PERF.md), and exercises the SmallBuf
// inline/heap boundary directly.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "common/chisq.h"
#include "common/rng.h"
#include "fleet/pool.h"
#include "fleet/sharded_fleet.h"
#include "fleet/sharded_server.h"
#include "fleet/thread_pool.h"
#include "kalman/adaptive.h"
#include "kalman/ekf.h"
#include "kalman/imm.h"
#include "kalman/kalman_filter.h"
#include "kalman/model.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "net/message.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "server/query.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace {

std::atomic<long> g_news{0};
std::atomic<long> g_new_bytes{0};

}  // namespace

// Counting global allocator. Covers the plain, array, sized, and nothrow
// forms so no allocation path escapes the counters. Every form stays out
// of line: inlined, GCC sees std::free paired with an operator new (not
// knowing this operator new is malloc) and raises -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_news;
  g_new_bytes += static_cast<long>(size);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  ++g_news;
  g_new_bytes += static_cast<long>(size);
  return std::malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept {
  ::operator delete(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  ::operator delete(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace kc {
namespace {

long AllocCount() { return g_news.load(); }
/// Bytes requested from operator new so far (frees are not subtracted).
long AllocBytes() { return g_new_bytes.load(); }

/// FleetSourceHeapCost's bound: 4,378 B per source measured when the
/// fleet's links moved to the shard (they were two 3,440 B Channels and
/// their queues per source before), plus 10%.
constexpr double kSourceBytesBound = 4816.0;

// ------------------------------------------------------------ filter loops

/// Runs `steps` Predict/Update cycles and returns the number of heap
/// allocations they performed.
template <typename Filter>
long CountFilterAllocs(Filter& filter, size_t obs_dim, int steps) {
  Rng rng(42);
  Vector z(obs_dim);
  // Warmup: first cycles size the workspace and reserve containers.
  for (int i = 0; i < 5; ++i) {
    for (size_t d = 0; d < obs_dim; ++d) z[d] = rng.Gaussian();
    filter.Predict();
    EXPECT_TRUE(filter.Update(z).ok());
  }
  long before = AllocCount();
  for (int i = 0; i < steps; ++i) {
    for (size_t d = 0; d < obs_dim; ++d) z[d] = rng.Gaussian();
    filter.Predict();
    filter.Update(z).ok();
  }
  return AllocCount() - before;
}

TEST(ZeroAllocTest, KalmanFilterAllBundledModels) {
  StateSpaceModel models[] = {
      MakeRandomWalkModel(0.1, 0.25),
      MakeConstantVelocityModel(1.0, 0.1, 0.25),
      MakeConstantAccelerationModel(1.0, 0.05, 0.25),
      MakeConstantVelocity2DModel(1.0, 0.1, 0.25),
      MakeConstantAcceleration2DModel(1.0, 0.05, 0.25),
      MakeConstantJerk2DModel(1.0, 0.01, 0.25),
  };
  for (const StateSpaceModel& model : models) {
    size_t n = model.state_dim();
    KalmanFilter kf(model, Vector(n), Matrix::ScalarDiagonal(n, 1.0));
    EXPECT_EQ(CountFilterAllocs(kf, model.obs_dim(), 200), 0)
        << "model " << model.name;
  }
}

TEST(ZeroAllocTest, KalmanFilterStandardForm) {
  StateSpaceModel model = MakeConstantVelocityModel(1.0, 0.1, 0.25);
  KalmanFilter kf(model, Vector(2), Matrix::ScalarDiagonal(2, 1.0),
                  KalmanFilter::UpdateForm::kStandard);
  EXPECT_EQ(CountFilterAllocs(kf, 1, 200), 0);
}

TEST(ZeroAllocTest, ExtendedKalmanFilter) {
  NonlinearModel model = MakeCoordinatedTurnModel(1.0, 0.01, 0.05, 1e-4, 0.25);
  Vector x0(5);
  x0[2] = 5.0;
  ExtendedKalmanFilter ekf(model, x0, Matrix::ScalarDiagonal(5, 1.0));
  EXPECT_EQ(CountFilterAllocs(ekf, 2, 200), 0);
}

TEST(ZeroAllocTest, Imm) {
  std::vector<KalmanFilter> filters;
  filters.emplace_back(MakeRandomWalkModel(0.01, 0.25), Vector{0.0},
                       Matrix{{1.0}});
  filters.emplace_back(MakeRandomWalkModel(4.0, 0.25), Vector{0.0},
                       Matrix{{1.0}});
  Imm imm(std::move(filters), Matrix{{0.95, 0.05}, {0.05, 0.95}},
          Vector{0.5, 0.5});
  EXPECT_EQ(CountFilterAllocs(imm, 1, 200), 0);
}

TEST(ZeroAllocTest, KalmanPredictorSuppressedTicks) {
  KalmanPredictor::Config config;
  config.model = MakeConstantVelocityModel(1.0, 0.1, 0.25);
  config.outlier_gate_prob = 0.999;  // Exercise the gate's scratch path.
  KalmanPredictor predictor(std::move(config));
  Reading first;
  first.value = Vector{0.0};
  predictor.Init(first);

  Rng rng(7);
  auto tick = [&](int64_t seq) {
    Reading z;
    z.seq = seq;
    z.time = static_cast<double>(seq);
    z.value = Vector{rng.Gaussian(0.0, 0.3)};
    predictor.Tick();
    predictor.ObserveLocal(z);
    // The per-tick contract check a source performs between corrections.
    Vector err = predictor.Target() - predictor.Predict();
    return err.NormInf();
  };
  for (int64_t s = 1; s <= 5; ++s) tick(s);
  long before = AllocCount();
  double acc = 0.0;
  for (int64_t s = 6; s <= 205; ++s) acc += tick(s);
  EXPECT_EQ(AllocCount() - before, 0) << "accumulated drift " << acc;
}

TEST(ZeroAllocTest, InstrumentedSuppressedTicksStayAllocationFree) {
  // The serving path with telemetry bound: counter Incs, a histogram
  // Record of the innovation, and a (runtime-disabled) trace span per
  // tick. All metric storage is preallocated at registration, so the
  // instrumented steady state must still be zero-alloc.
  obs::MetricRegistry registry;  // Cold path: registration may allocate.
  KalmanPredictor::Config config;
  config.model = MakeConstantVelocityModel(1.0, 0.1, 0.25);
  config.outlier_gate_prob = 0.999;
  KalmanPredictor predictor(std::move(config));
  predictor.BindMetrics(&registry);
  obs::Counter* decisions = registry.GetCounter("kc.agent.decisions");
  obs::Counter* suppressed = registry.GetCounter("kc.agent.suppressed");
  obs::Histogram* innovation = registry.GetHistogram(
      "kc.agent.innovation", obs::Buckets::Exponential(1e-3, 4.0, 12));

  Reading first;
  first.value = Vector{0.0};
  predictor.Init(first);

  Rng rng(7);
  auto tick = [&](int64_t seq) {
    KC_TRACE_SCOPE("alloc_test.tick");  // Default-off: one load + branch.
    Reading z;
    z.seq = seq;
    z.time = static_cast<double>(seq);
    z.value = Vector{rng.Gaussian(0.0, 0.3)};
    predictor.Tick();
    predictor.ObserveLocal(z);
    Vector err = predictor.Target() - predictor.Predict();
    double e = err.NormInf();
    decisions->Inc();
    innovation->Record(e);
    suppressed->Inc();
    return e;
  };
  for (int64_t s = 1; s <= 5; ++s) tick(s);
  long before = AllocCount();
  double acc = 0.0;
  for (int64_t s = 6; s <= 205; ++s) acc += tick(s);
  EXPECT_EQ(AllocCount() - before, 0) << "accumulated drift " << acc;
  EXPECT_EQ(decisions->value(), 205);
  EXPECT_EQ(innovation->count(), 205);
}

TEST(ZeroAllocTest, RecorderAndHealthSuppressedTicksStayAllocationFree) {
  // The full observability stack of this PR bound to the serving path:
  // flight-recorder Record()s plus watchdog feeds per tick, with metrics
  // behind both. Ring slots and chi-square bands are sized on the cold
  // path (ForSource), so the instrumented steady state must be zero-alloc
  // — including the ticks where a NIS window completes and is evaluated.
  obs::MetricRegistry registry;
  obs::FlightRecorder recorder(64);
  obs::HealthMonitor health;  // Default config: nis_window 32.
  recorder.BindMetrics(&registry);
  health.BindMetrics(&registry);
  health.BindRecorder(&recorder);
  obs::SourceRecorder* ring = recorder.ForSource(0);
  obs::SourceHealth* entry = health.ForSource(0, /*obs_dim=*/1);

  KalmanPredictor::Config config;
  config.model = MakeConstantVelocityModel(1.0, 0.1, 0.25);
  config.outlier_gate_prob = 0.999;
  KalmanPredictor predictor(std::move(config));
  Reading first;
  first.value = Vector{0.0};
  predictor.Init(first);

  Rng rng(7);
  auto tick = [&](int64_t seq) {
    Reading z;
    z.seq = seq;
    z.time = static_cast<double>(seq);
    z.value = Vector{rng.Gaussian(0.0, 0.3)};
    predictor.Tick();
    predictor.ObserveLocal(z);
    Vector err = predictor.Target() - predictor.Predict();
    double e = err.NormInf();
    ring->Record(seq, obs::RecorderEventKind::kSuppress, seq, e);
    entry->OnTick();
    // In-band NIS (window sum == dof): the evaluated windows stay clean,
    // so the hot loop also covers the no-transition Recombine path.
    entry->OnNis(1.0);
    entry->OnDecision(/*suppressed=*/true);
    return e;
  };
  for (int64_t s = 1; s <= 5; ++s) tick(s);
  long before = AllocCount();
  double acc = 0.0;
  for (int64_t s = 6; s <= 325; ++s) acc += tick(s);  // 320 ticks: 10 windows.
  EXPECT_EQ(AllocCount() - before, 0) << "accumulated drift " << acc;
  EXPECT_EQ(ring->total_recorded(), 325u);  // Ring wrapped many times over.
  EXPECT_GT(entry->nis_windows(), 5);
  EXPECT_EQ(entry->state(), obs::HealthState::kOk);
  EXPECT_EQ(registry.GetCounter("kc.recorder.events")->value(), 325);
}

TEST(ZeroAllocTest, AuditedSuppressedTicksStayAllocationFree) {
  // The precision auditor's hot path on top of the full observability
  // stack: every tick computes the contract error and feeds Sample(),
  // with metrics, the flight recorder, and the watchdog all bound. The
  // loop spans many SLO window closes (window 16, 320 audited ticks), so
  // the windowed state machine — transitions included — must also be
  // allocation-free.
  obs::MetricRegistry registry;
  obs::FlightRecorder recorder(64);
  obs::HealthMonitor health;
  recorder.BindMetrics(&registry);
  health.BindMetrics(&registry);
  health.ForSource(0, /*obs_dim=*/1);
  obs::AuditConfig audit_config;
  audit_config.sample_every = 1;
  audit_config.slo_window_ticks = 16;
  obs::PrecisionAuditor auditor(audit_config);
  auditor.BindMetrics(&registry);
  auditor.BindRecorder(&recorder);
  auditor.BindHealth(&health);
  obs::SourceAudit* audit = auditor.ForSource(0);  // Cold path.

  KalmanPredictor::Config config;
  config.model = MakeConstantVelocityModel(1.0, 0.1, 0.25);
  config.outlier_gate_prob = 0.999;
  KalmanPredictor predictor(std::move(config));
  Reading first;
  first.value = Vector{0.0};
  predictor.Init(first);

  Rng rng(7);
  auto tick = [&](int64_t seq) {
    Reading z;
    z.seq = seq;
    z.time = static_cast<double>(seq);
    z.value = Vector{rng.Gaussian(0.0, 0.3)};
    predictor.Tick();
    predictor.ObserveLocal(z);
    Vector err = predictor.Target() - predictor.Predict();
    double e = err.NormInf();
    audit->Sample(seq, e, /*bound=*/0.5, /*staleness_ticks=*/0,
                  /*degraded=*/false);
    return e;
  };
  for (int64_t s = 1; s <= 5; ++s) tick(s);
  long before = AllocCount();
  double acc = 0.0;
  for (int64_t s = 6; s <= 325; ++s) acc += tick(s);
  EXPECT_EQ(AllocCount() - before, 0) << "accumulated drift " << acc;
  EXPECT_EQ(audit->samples(), 325);
  EXPECT_GT(audit->windows(), 10);
  EXPECT_EQ(registry.GetCounter("kc.audit.samples")->value(), 325);
}

TEST(ZeroAllocTest, PooledFleetTickSteadyStateIsAllocationFree) {
  // The SoA hot loop at fleet scale in miniature: one pool, many slots,
  // each tick a batched PredictAll sweep plus a gate and an update per
  // slot, the calls a pooled KalmanPredictor makes on every correction.
  // Slabs and the shared workspace are sized at Acquire/first use, so the
  // steady state must be zero-alloc — the property BM_FleetTick_1M's
  // sources/sec rests on.
  StateSpaceModel model = MakeConstantVelocityModel(1.0, 0.1, 0.25);
  FilterPool pool(model, KalmanFilter::UpdateForm::kJoseph);
  constexpr int kSlots = 32;
  std::vector<int32_t> slots;
  std::vector<Vector> zs(kSlots, Vector(1));
  for (int i = 0; i < kSlots; ++i) {
    slots.push_back(pool.Acquire(i));
    pool.ResetSlot(slots.back(), Vector(2), Matrix::ScalarDiagonal(2, 1.0));
  }
  // A gated observation per slot, as a gated KalmanPredictor makes it.
  std::vector<FilterPool::Observation> observations(kSlots);
  for (int i = 0; i < kSlots; ++i) {
    observations[i].slot = slots[i];
    observations[i].z = zs[i].data().data();
    observations[i].gate = ChiSquaredQuantile(0.999, 1);
    observations[i].gate_limit = 3;
  }
  Rng rng(42);
  double nis_total = 0.0;
  auto tick = [&] {
    for (int i = 0; i < kSlots; ++i) zs[i][0] = rng.Gaussian(0.0, 0.3);
    pool.PredictAll();
    for (int i = 0; i < kSlots; ++i) {
      pool.Observe(&observations[i]);
      nis_total += pool.ObservedNisOf(slots[i]);
      (void)pool.UpdateSlot(slots[i], zs[i]);
    }
  };
  for (int t = 0; t < 5; ++t) tick();
  long before = AllocCount();
  for (int t = 0; t < 200; ++t) tick();
  EXPECT_EQ(AllocCount() - before, 0);
  EXPECT_EQ(pool.num_active(), static_cast<size_t>(kSlots));
  EXPECT_GT(nis_total, 0.0);
}

TEST(ZeroAllocTest, ParallelVectorizedSweepSteadyStateIsAllocationFree) {
  // The phase-1 parallel sweep end to end: a sharded server's pools swept
  // through a ThreadPool with the build's lane kernels. Everything the
  // sweep touches is preallocated — the flattened SweepUnit list reuses
  // its capacity, the thread pool recycles its dispatch batches, and the
  // batch kernels run out of registers and stack lanes — so the steady
  // state must be zero-alloc on every thread (the global counting
  // allocator sees worker-thread allocations too).
  ShardedServer server(4);
  KalmanPredictor::Config config;
  config.model = MakeConstantVelocityModel(1.0, 0.1, 0.25);
  for (int32_t id = 0; id < 64; ++id) {
    size_t shard = server.ShardOf(id);
    ASSERT_TRUE(server
                    .RegisterSource(id, MakePooledPredictor(
                                            KalmanPredictor(config),
                                            server.shard_pools(shard)))
                    .ok());
    Message init;
    init.source_id = id;
    init.type = MessageType::kInit;
    init.seq = 0;
    init.wire_seq = 0;
    init.payload = {0.5, static_cast<double>(id)};  // delta, value.
    ASSERT_TRUE(server.OnMessage(init).ok());
  }
  ThreadPool workers(4);
  for (int t = 0; t < 5; ++t) server.SweepPools(&workers);  // Warmup.
  long before = AllocCount();
  for (int t = 0; t < 200; ++t) server.SweepPools(&workers);
  EXPECT_EQ(AllocCount() - before, 0);
}

TEST(ZeroAllocTest, SteppedFleetSteadyStateIsAllocationFree) {
  // A whole fleet tick at the pooled_quiet shape: 2,000 pooled random
  // walks on 8 shards, each tick the sweep, the server ticks, every
  // channel advance and sample, and every source's Offer. The bound is
  // wide enough that no source is due a correction (a send allocates its
  // payload by design), so past the INIT tick the step must allocate
  // nothing, on one thread and on four (the pool's fork/join included),
  // with recovery off (no replica is ticked) and on (every replica is, off
  // the server's per-tick list).
  for (bool recovery : {false, true}) {
  for (size_t threads : {1, 4}) {
    ShardedFleet::Config config;
    config.threads = threads;
    config.num_shards = 8;
    config.recovery.enabled = recovery;
    ShardedFleet fleet(config);
    KalmanPredictor::Config kf;
    kf.model = MakeRandomWalkModel(0.1, 0.25);
    for (int i = 0; i < 2000; ++i) {
      RandomWalkGenerator::Config walk;
      walk.start = 0.01 * i;
      fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                      std::make_unique<KalmanPredictor>(kf),
                      /*delta=*/1e9);
    }
    ASSERT_TRUE(fleet.Run(5).ok());  // INITs, first observations, warm-up.
    long before = AllocCount();
    ASSERT_TRUE(fleet.Run(1000).ok());
    EXPECT_EQ(AllocCount() - before, 0)
        << "threads=" << threads << " recovery=" << recovery;
    EXPECT_EQ(fleet.TotalMessages(), 2000);  // The INITs only.
  }
  }
}

TEST(ZeroAllocTest, FleetSourceHeapCost) {
  // What one source costs: the heap bytes requested to build a fault-free
  // pooled random walk's predictor and add it (AddSource), 2,000 sources
  // on 8 shards (the pooled_quiet shape). The links are the shard's, so a
  // source pays for its agent, predictor pair, replica and slot. The
  // generator (a 2.5 KB mt19937_64 Rng) is the workload harness, reported
  // apart and not bounded.
  constexpr int kSources = 2000;
  ShardedFleet::Config config;
  config.num_shards = 8;
  ShardedFleet fleet(config);
  KalmanPredictor::Config kf;
  kf.model = MakeRandomWalkModel(0.1, 0.25);
  long generator_bytes = 0;
  long source_bytes = 0;
  for (int i = 0; i < kSources; ++i) {
    RandomWalkGenerator::Config walk;
    walk.start = 0.01 * i;
    long t0 = AllocBytes();
    auto generator = std::make_unique<RandomWalkGenerator>(walk);
    long t1 = AllocBytes();
    fleet.AddSource(std::move(generator), std::make_unique<KalmanPredictor>(kf),
                    /*delta=*/1e9);
    generator_bytes += t1 - t0;
    source_bytes += AllocBytes() - t1;
  }
  const double per_source = static_cast<double>(source_bytes) / kSources;
  const double generator = static_cast<double>(generator_bytes) / kSources;
  std::printf("source: %.0f B, generator (harness): %.0f B\n", per_source,
              generator);
  RecordProperty("source_bytes", std::to_string(per_source));
  RecordProperty("generator_bytes", std::to_string(generator));
  EXPECT_LE(per_source, kSourceBytesBound);
  ASSERT_TRUE(fleet.Run(2).ok());
  EXPECT_EQ(fleet.TotalMessages(), kSources);  // The INITs only.
}

/// Heap allocations of one EvaluateDue() over a single AVG query of
/// `members` sources on an 8-shard server with metrics and audit on,
/// measured after a warm-up evaluation.
long CountEvaluateDueAllocs(int32_t members) {
  ShardedServer server(8);
  server.EnableMetrics();
  server.EnableAudit();
  QuerySpec spec;
  spec.kind = AggregateKind::kAvg;
  for (int32_t id = 0; id < members; ++id) {
    EXPECT_TRUE(
        server.RegisterSource(id, std::make_unique<ValueCachePredictor>())
            .ok());
    Message init;
    init.source_id = id;
    init.type = MessageType::kInit;
    init.payload = {0.5, static_cast<double>(id)};  // delta, value.
    EXPECT_TRUE(server.OnMessage(init).ok());
    spec.sources.push_back(id);
  }
  EXPECT_TRUE(server.AddQuery("avg", spec).ok());
  server.Tick();
  EXPECT_EQ(server.EvaluateDue().size(), 1u);  // Warm-up.
  server.Tick();
  long before = AllocCount();
  std::vector<QueryResult> due = server.EvaluateDue();
  long allocs = AllocCount() - before;
  EXPECT_EQ(due.size(), 1u);
  return allocs;
}

TEST(ZeroAllocTest, EvaluateDueAllocationsDoNotGrowWithMembers) {
  // The member plan owns its scratch, so a due evaluation allocates only
  // for its result list, never per member.
  const long small = CountEvaluateDueAllocs(4);
  const long large = CountEvaluateDueAllocs(512);
  EXPECT_EQ(small, large);
  EXPECT_LE(small, 1);
}

TEST(ZeroAllocTest, PooledPredictorSuppressedTicksStayAllocationFree) {
  // The predictor on a shard's swept pool set under the same protocol
  // loop the private-pool KalmanPredictor test above runs: gate,
  // suppressed ticks, contract checks.
  FilterPoolSet pools;
  KalmanPredictor::Config config;
  config.model = MakeConstantVelocityModel(1.0, 0.1, 0.25);
  config.outlier_gate_prob = 0.999;
  KalmanPredictor predictor(pools.InternConfig(config), &pools);
  Reading first;
  first.value = Vector{0.0};
  predictor.Init(first);

  Rng rng(7);
  auto tick = [&](int64_t seq) {
    Reading z;
    z.seq = seq;
    z.time = static_cast<double>(seq);
    z.value = Vector{rng.Gaussian(0.0, 0.3)};
    pools.PredictAll();  // The shard's batched sweep.
    predictor.Tick();
    predictor.ObserveLocal(z);
    Vector err = predictor.Target() - predictor.Predict();
    return err.NormInf();
  };
  for (int64_t s = 1; s <= 5; ++s) tick(s);
  long before = AllocCount();
  double acc = 0.0;
  for (int64_t s = 6; s <= 205; ++s) acc += tick(s);
  EXPECT_EQ(AllocCount() - before, 0) << "accumulated drift " << acc;
}

TEST(ZeroAllocTest, PooledAdaptivePredictorSuppressedTicksStayAllocationFree) {
  // The adaptive configurations pooled: the lane-Q sweep, the gate, the
  // update and the per-slot adaptation step (NIS ring, Q scale and, with
  // adapt_r, the slot's R and innovation ring) all run on slab storage
  // sized at Acquire. 320 ticks wrap the 32-entry rings ten times over.
  for (bool adapt_r : {false, true}) {
    SCOPED_TRACE(adapt_r);
    FilterPoolSet pools;
    KalmanPredictor::Config config;
    config.model = MakeConstantVelocityModel(1.0, 0.1, 0.25);
    config.outlier_gate_prob = 0.999;
    config.adaptive = AdaptiveConfig{};
    config.adaptive->adapt_r = adapt_r;
    KalmanPredictor predictor(pools.InternConfig(config), &pools);
    Reading first;
    first.value = Vector{0.0};
    predictor.Init(first);

    Rng rng(7);
    auto tick = [&](int64_t seq) {
      Reading z;
      z.seq = seq;
      z.time = static_cast<double>(seq);
      z.value = Vector{rng.Gaussian(0.0, 0.3)};
      pools.PredictAll();
      predictor.Tick();
      predictor.ObserveLocal(z);
      Vector err = predictor.Target() - predictor.Predict();
      return err.NormInf();
    };
    for (int64_t s = 1; s <= 5; ++s) tick(s);
    long before = AllocCount();
    double acc = 0.0;
    for (int64_t s = 6; s <= 325; ++s) acc += tick(s);
    EXPECT_EQ(AllocCount() - before, 0) << "accumulated drift " << acc;
    // The adaptation really ran in the measured window.
    const int32_t slot = predictor.private_slot();
    EXPECT_NE(predictor.pool()->CumulativeQScaleOf(slot), 1.0);
    if (adapt_r) {
      EXPECT_FALSE(predictor.pool()->MeasurementNoiseOf(slot) ==
                   config.model.r);
    }
  }
}

TEST(ZeroAllocTest, AdaptiveEstimatorSteadyStateIsAllocationFree) {
  // The reference estimator's history lives in fixed rings sized once
  // (the R ring at the first update), so steady-state updates — Q and R
  // adaptation both,
  // across many ring wraps — never touch the heap. (The deque it replaced
  // allocated a node every few dozen updates.)
  for (bool adapt_r : {false, true}) {
    SCOPED_TRACE(adapt_r);
    AdaptiveConfig config;
    config.adapt_r = adapt_r;
    config.window = 16;
    AdaptiveNoiseEstimator est(config);
    KalmanFilter kf(MakeConstantVelocityModel(1.0, 0.1, 0.25), Vector(2),
                    Matrix::ScalarDiagonal(2, 1.0));
    Rng rng(11);
    auto step = [&] {
      kf.Predict();
      ASSERT_TRUE(kf.Update(Vector{rng.Gaussian(0.0, 2.0)}).ok());
      est.AfterUpdate(kf);
    };
    for (int i = 0; i < 5; ++i) step();
    long before = AllocCount();
    for (int i = 0; i < 400; ++i) step();
    EXPECT_EQ(AllocCount() - before, 0);
    EXPECT_NE(est.cumulative_q_scale(), 1.0);
  }

  // And through the predictor on its private pool, re-Init included: a
  // resync resets the slots' adaptive state in place rather than
  // rebuilding the rings.
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.01, 0.09);
  config.adaptive = AdaptiveConfig{};
  KalmanPredictor predictor(std::move(config));
  Reading first;
  first.value = Vector{0.0};
  predictor.Init(first);
  Rng rng(13);
  auto tick = [&](int64_t seq) {
    Reading z;
    z.seq = seq;
    z.time = static_cast<double>(seq);
    z.value = Vector{rng.Gaussian(0.0, 0.5)};
    predictor.Tick();
    predictor.ObserveLocal(z);
    if (seq == 160) predictor.Init(z);
  };
  for (int64_t s = 1; s <= 5; ++s) tick(s);
  long before = AllocCount();
  for (int64_t s = 6; s <= 325; ++s) tick(s);
  EXPECT_EQ(AllocCount() - before, 0);
}

// ----------------------------------------------------------- SmallBuf edges

TEST(SmallBufTest, VectorInlineUpToCapacityThenSpills) {
  Vector v8(Vector::kInlineCap);
  EXPECT_TRUE(v8.data().is_inline());
  Vector v9(Vector::kInlineCap + 1);
  EXPECT_FALSE(v9.data().is_inline());
}

TEST(SmallBufTest, MatrixInlineUpToCapacityThenSpills) {
  Matrix m8(8, 8);
  EXPECT_TRUE(m8.data().is_inline());
  Matrix m9(9, 9);
  EXPECT_FALSE(m9.data().is_inline());
}

TEST(SmallBufTest, ResizeAcrossBoundaryPreservesNothingButWorks) {
  Vector v(8);
  for (size_t i = 0; i < 8; ++i) v[i] = static_cast<double>(i);
  v.ResizeUninit(9);  // Inline -> heap.
  EXPECT_FALSE(v.data().is_inline());
  EXPECT_EQ(v.size(), 9u);
  for (size_t i = 0; i < 9; ++i) v[i] = static_cast<double>(10 + i);
  v.ResizeUninit(4);  // Heap -> inline.
  EXPECT_TRUE(v.data().is_inline());
  EXPECT_EQ(v.size(), 4u);
}

TEST(SmallBufTest, InlineCopyAndMoveDoNotAllocate) {
  Vector a{1.0, 2.0, 3.0};
  long before = AllocCount();
  Vector copied = a;
  Vector moved = std::move(copied);
  Vector assigned;
  assigned = a;
  EXPECT_EQ(AllocCount() - before, 0);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_DOUBLE_EQ(moved[2], 3.0);
  EXPECT_DOUBLE_EQ(assigned[0], 1.0);
}

TEST(SmallBufTest, HeapMoveStealsStorage) {
  Vector big(12);
  for (size_t i = 0; i < 12; ++i) big[i] = static_cast<double>(i);
  const double* storage = big.data().data();
  long before = AllocCount();
  Vector moved = std::move(big);
  EXPECT_EQ(AllocCount() - before, 0);  // Pointer steal, no copy.
  EXPECT_EQ(moved.data().data(), storage);
  EXPECT_EQ(moved.size(), 12u);
  EXPECT_DOUBLE_EQ(moved[11], 11.0);
}

TEST(SmallBufTest, HeapCopyIsDeep) {
  Vector big(12);
  for (size_t i = 0; i < 12; ++i) big[i] = static_cast<double>(i);
  Vector copied = big;
  EXPECT_NE(copied.data().data(), big.data().data());
  EXPECT_TRUE(copied == big);
  copied[0] = -1.0;
  EXPECT_DOUBLE_EQ(big[0], 0.0);
}

TEST(SmallBufTest, SelfAssignmentIsSafe) {
  Vector inl{1.0, 2.0};
  Vector& inl_ref = inl;
  inl = inl_ref;
  EXPECT_EQ(inl.size(), 2u);
  EXPECT_DOUBLE_EQ(inl[1], 2.0);

  Vector heap(12);
  heap[7] = 7.0;
  Vector& heap_ref = heap;
  heap = heap_ref;
  EXPECT_EQ(heap.size(), 12u);
  EXPECT_DOUBLE_EQ(heap[7], 7.0);
}

TEST(SmallBufTest, MatrixSpillRoundTripsThroughKernels) {
  // 9x9 spills to heap; the kernels must still be correct there (they are
  // only allocation-free inside the inline envelope).
  Matrix a(9, 9);
  for (size_t r = 0; r < 9; ++r) {
    for (size_t c = 0; c < 9; ++c) a(r, c) = static_cast<double>(r * 9 + c);
  }
  Matrix id = Matrix::Identity(9);
  Matrix out = a * id;
  EXPECT_FALSE(out.data().is_inline());
  EXPECT_TRUE(AlmostEqual(out, a));
  EXPECT_TRUE(AlmostEqual(a.Transposed().Transposed(), a));
}

TEST(SmallBufTest, VectorToStdVectorConversion) {
  Vector v{1.0, 2.0, 3.0};
  std::vector<double> buf = v.data();
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_DOUBLE_EQ(buf[1], 2.0);
}

}  // namespace
}  // namespace kc
