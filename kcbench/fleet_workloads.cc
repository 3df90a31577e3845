// pooled_quiet and sensor_queries: a ShardedFleet stepped tick by tick
// (untraced), and in trace mode the same sources driven phase by phase
// by PhaseDriver.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "fleet/sharded_fleet.h"
#include "kcbench.h"
#include "net/codec.h"
#include "obs/export.h"
#include "query/parser.h"
#include "speed_probe.h"
#include "stats.h"
#include "traced_driver.h"
#include "workload_inputs.h"

namespace kcbench {

namespace {

/// Set-ups timed per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Untimed ticks before the timed window (the INIT burst and filter
/// convergence).
constexpr int64_t kWarmupTicks = 200;
/// The count window: message, byte and agent counts are taken over ticks
/// [kWarmupTicks, kWarmupTicks + kCountTicks), so they are exact for a
/// seed whatever the run length. Every run lasts at least this long.
constexpr int64_t kCountTicks = 1000;
/// The benchmark's own answer checks run after every kCheckEvery-th tick
/// (outside the timed ticks).
constexpr int64_t kCheckEvery = 64;
/// The Chrome trace keeps the phase spans of this many final ticks.
constexpr int64_t kTraceKeepTicks = 300;
/// CpuRotation period of the timed window.
constexpr double kRotateSeconds = 0.25;

/// Counts summed over the fleet at one instant.
struct FleetCounts {
  kc::NetworkStats uplink;
  int64_t corrections = 0;
  int64_t full_syncs = 0;
  int64_t heartbeats = 0;
  int64_t suppressed = 0;
};

FleetCounts CountFleet(const kc::ShardedFleet& fleet) {
  FleetCounts c;
  c.uplink = fleet.TotalNetworkStats();
  for (size_t id = 0; id < fleet.num_sources(); ++id) {
    const kc::AgentStats& s = fleet.agent(static_cast<int32_t>(id)).stats();
    c.corrections += s.corrections;
    c.full_syncs += s.full_syncs;
    c.heartbeats += s.heartbeats;
    c.suppressed += s.suppressed;
  }
  return c;
}

/// The untraced run's measurements.
struct UntracedRun {
  std::vector<double> tick_ms;  ///< Step + EvaluateDue, per timed tick.
  int64_t timed_ticks = 0;
  double window_s = 0.0;  ///< Timed window wall minus checks and probes.
  /// SpeedProbe::Factor over the timed window, sampled before each tick.
  double speed_factor = 1.0;
  FleetCounts count_begin;
  FleetCounts count_end;
  Ratio containment;  ///< Benchmark-side audit of every source.
  int64_t failed_ticks = 0;
  // Whole-run totals, for the traced run to reproduce.
  int64_t ticks = 0;
  int64_t messages = 0;
  int64_t bytes = 0;
  int32_t initialized = 0;  ///< Replicas initialized at the end.
};

double ExactAggregate(kc::AggregateKind kind, const std::vector<double>& v) {
  double acc = 0.0;
  switch (kind) {
    case kc::AggregateKind::kValue:
      return v.empty() ? 0.0 : v[0];
    case kc::AggregateKind::kSum:
    case kc::AggregateKind::kAvg:
      for (double x : v) acc += x;
      return kind == kc::AggregateKind::kAvg && !v.empty()
                 ? acc / static_cast<double>(v.size())
                 : acc;
    case kc::AggregateKind::kMin:
      return *std::min_element(v.begin(), v.end());
    case kc::AggregateKind::kMax:
      return *std::max_element(v.begin(), v.end());
  }
  return acc;
}

/// The benchmark's answer checks at one tick: every replica against its
/// agent's contract target (into `containment`), and every query answer
/// of this tick against the exact aggregate of its members' targets.
/// Returns false on any violation.
bool CheckAnswers(const kc::ShardedFleet& fleet, const FleetInputs& inputs,
                  const std::vector<kc::QueryResult>& results,
                  Ratio* containment) {
  bool ok = true;
  std::vector<double> targets(fleet.num_sources(),
                              std::numeric_limits<double>::quiet_NaN());
  for (size_t i = 0; i < fleet.num_sources(); ++i) {
    auto id = static_cast<int32_t>(i);
    const kc::ServerReplica* replica = fleet.server().replica(id);
    const kc::SourceAgent& agent = fleet.agent(id);
    if (replica == nullptr || !replica->initialized() ||
        !agent.initialized()) {
      continue;
    }
    targets[i] = agent.ContractTarget()[0];
    containment->den += 1.0;
    if (AnswerError(*replica, agent) <= replica->bound()) {
      containment->num += 1.0;
    } else {
      ok = false;
    }
  }
  for (const kc::QueryResult& r : results) {
    auto q = std::find_if(inputs.queries.begin(), inputs.queries.end(),
                          [&r](const QueryText& t) { return t.name == r.name; });
    if (q == inputs.queries.end()) return false;
    std::vector<double> members;
    for (int32_t id : q->spec.sources) {
      members.push_back(targets[static_cast<size_t>(id)]);
    }
    double exact = ExactAggregate(q->spec.kind, members);
    // Sums in a different order may differ in the last bits.
    double slack = 1e-9 * (1.0 + std::abs(exact));
    if (!(std::abs(r.value - exact) <= r.bound + slack)) {
      std::fprintf(stderr, "kcbench: %s answered %.9g, exact %.9g, bound %g\n",
                   r.name.c_str(), r.value, exact, r.bound);
      ok = false;
    }
  }
  return ok;
}

/// Steps `fleet` through the warm-up and then for `seconds` (and at least
/// the count window), timing each tick and checking answers.
UntracedRun RunUntraced(kc::ShardedFleet* fleet, const FleetInputs& inputs,
                        double seconds) {
  UntracedRun run;
  std::vector<kc::QueryResult> results;
  auto step = [&]() {
    kc::Status s = fleet->Step();
    results = fleet->server().EvaluateDue();
    return s.ok();
  };
  for (int64_t t = 0; t < kWarmupTicks; ++t) {
    if (!step()) ++run.failed_ticks;
  }
  run.count_begin = CountFleet(*fleet);
  run.tick_ms.reserve(static_cast<size_t>(seconds * 2000.0));
  double untimed_s = 0.0;
  CpuRotation rotation(kRotateSeconds, /*one_cpu=*/false);
  SpeedProbe probe;
  const double start = NowSeconds();
  double now = start;
  while (now - start < seconds || run.timed_ticks < kCountTicks) {
    probe.Sample();
    double t0 = NowSeconds();
    untimed_s += t0 - now;
    bool ok = step();
    now = NowSeconds();
    run.tick_ms.push_back((now - t0) * 1e3);
    ++run.timed_ticks;
    if (rotation.MaybeRotate() || run.timed_ticks == kCountTicks ||
        fleet->ticks() % kCheckEvery == 0) {
      if (run.timed_ticks == kCountTicks) run.count_end = CountFleet(*fleet);
      if (fleet->ticks() % kCheckEvery == 0 &&
          !CheckAnswers(*fleet, inputs, results, &run.containment)) {
        ok = false;
      }
      double after = NowSeconds();
      untimed_s += after - now;
      now = after;
    }
    if (!ok) ++run.failed_ticks;
  }
  run.window_s = now - start - untimed_s;
  run.speed_factor = probe.Factor();
  run.ticks = fleet->ticks();
  run.messages = fleet->TotalMessages();
  run.bytes = fleet->TotalBytes();
  for (int32_t id = 0; id < static_cast<int32_t>(fleet->num_sources()); ++id) {
    const kc::ServerReplica* replica = fleet->server().replica(id);
    if (replica != nullptr && replica->initialized()) ++run.initialized;
  }
  return run;
}

double NsPerTickMs(int64_t ns, int64_t ticks) {
  return ticks > 0 ? static_cast<double>(ns) / static_cast<double>(ticks) * 1e-6
                   : 0.0;
}

/// Trace mode: drives the same sources phase by phase for as many ticks
/// as the untraced run took, checks the totals match, writes the Chrome
/// trace, and reports the per-layer metrics.
void RunTraced(const RunOptions& options, const FleetInputs& inputs,
               const UntracedRun& untraced, Result* result) {
  // query layer: ParseQuery per CQL text (parsed again, timed alone).
  double parse_us = 0.0;
  for (const QueryText& q : inputs.queries) {
    int64_t t0 = kc::obs::TraceNowNs();
    auto spec = kc::ParseQuery(q.cql);
    parse_us += static_cast<double>(kc::obs::TraceNowNs() - t0) * 1e-3;
    if (!spec.ok()) result->Fail("query " + q.name + " no longer parses");
  }
  if (!inputs.queries.empty()) {
    parse_us /= static_cast<double>(inputs.queries.size());
  }

  ResetPeakRss();  // Hands the untraced fleet's freed pages back first.
  double rss_before_kb = CurrentRssKb();
  PhaseDriver driver(inputs);
  double rss_kb_per_source =
      (CurrentRssKb() - rss_before_kb) / static_cast<double>(kSources);

  const int64_t ticks = untraced.ticks;
  CpuRotation rotation(kRotateSeconds, /*one_cpu=*/false);
  for (int64_t t = 0; t < ticks; ++t) {
    rotation.MaybeRotate();
    kc::Status s = driver.Step(/*keep_spans=*/t >= ticks - kTraceKeepTicks);
    if (!s.ok()) {
      result->Fail("traced Step: " + s.ToString());
      break;
    }
  }
  if (driver.TotalMessages() != untraced.messages ||
      driver.TotalBytes() != untraced.bytes) {
    result->Fail("traced run sent " + std::to_string(driver.TotalMessages()) +
                 " msgs / " + std::to_string(driver.TotalBytes()) +
                 " B, untraced " + std::to_string(untraced.messages) + " / " +
                 std::to_string(untraced.bytes));
  }
  const PhaseTotals t = driver.Totals();
  if (t.audit_contained != t.audit_samples) {
    result->Fail("traced audit: " +
                 Ratio{static_cast<double>(t.audit_contained),
                       static_cast<double>(t.audit_samples)}
                     .ToString() +
                 " contained");
  }

  kc::obs::ChromeTraceOptions trace_options;
  trace_options.process_names = {{0, "kcbench " + options.workload}};
  std::string json =
      kc::obs::ExportChromeTrace(driver.TakeSpans(), trace_options);
  std::ofstream(options.trace_out) << json;

  double encode_ns = 0.0;
  double decode_ns = 0.0;
  if (!TimeCodec(driver.CapturedMessages(), &encode_ns, &decode_ns)) {
    result->Fail("codec round trip altered a captured message");
  }

  std::vector<double> sum_ratios = driver.ShardPhaseSumRatios();
  std::printf("kcbench: traced %lld ticks; per-shard phase sum / wall:",
              static_cast<long long>(ticks));
  for (double r : sum_ratios) std::printf(" %.4f", r);
  std::printf("\n");
  if (*std::min_element(sum_ratios.begin(), sum_ratios.end()) < 0.95) {
    result->Fail("a shard's phases cover less than 95% of its wall time");
  }

  const FleetCounts& b = untraced.count_begin;
  const FleetCounts& e = untraced.count_end;
  int64_t decisions = (e.corrections - b.corrections) +
                      (e.full_syncs - b.full_syncs) +
                      (e.suppressed - b.suppressed);
  Ratio suppressed{static_cast<double>(e.suppressed - b.suppressed),
                   static_cast<double>(decisions)};
  double tail = TailPercentileLevel(untraced.tick_ms.size());
  std::printf("kcbench: untraced tick tail p%g supported by %zu samples; "
              "suppressed %s\n",
              tail, untraced.tick_ms.size(), suppressed.ToString().c_str());

  Result& r = *result;
  r.Add("fleet.sweep_ms", NsPerTickMs(t.sweep_ns, ticks), "ms");
  r.Add("fleet.pooled_ratio",
        static_cast<double>(driver.pooled_sources()) / kSources, "ratio");
  r.Add("fleet.rss_kb_per_source", rss_kb_per_source, "KB");
  r.Add("fleet.shard_imbalance", Median(driver.shard_imbalance()), "ratio");
  r.Add("fleet.tick_p99_ms", Percentile(untraced.tick_ms, 99.0), "ms");
  r.Add("streams.next_ms", NsPerTickMs(t.next_ns, ticks), "ms");
  r.Add("suppression.offer_ms", NsPerTickMs(t.offer_ns, ticks), "ms");
  r.Add("suppression.suppressed_ratio", suppressed.value(), "ratio");
  r.Add("suppression.corrections",
        static_cast<double>(e.corrections - b.corrections), "count");
  r.Add("suppression.full_syncs",
        static_cast<double>(e.full_syncs - b.full_syncs), "count");
  r.Add("suppression.heartbeats",
        static_cast<double>(e.heartbeats - b.heartbeats), "count");
  r.Add("server.tick_ms", NsPerTickMs(t.tick_ns, ticks), "ms");
  r.Add("server.apply_us_per_msg",
        t.applied > 0 ? static_cast<double>(t.apply_ns) * 1e-3 /
                            static_cast<double>(t.applied)
                      : 0.0,
        "us");
  r.Add("server.apply_rejected", static_cast<double>(t.apply_rejected),
        "count");
  r.Add("server.query_ms", NsPerTickMs(t.query_ns, ticks), "ms");
  r.Add("server.query_members_per_tick",
        static_cast<double>(t.query_members) / static_cast<double>(ticks),
        "count");
  r.Add("query.parse_us", parse_us, "us");
  r.Add("net.advance_ms", NsPerTickMs(t.advance_ns, ticks), "ms");
  r.Add("net.encode_ns_per_msg", encode_ns, "ns");
  r.Add("net.decode_ns_per_msg", decode_ns, "ns");
  r.Add("net.sent",
        static_cast<double>(e.uplink.messages_sent - b.uplink.messages_sent),
        "count");
  r.Add("net.delivered",
        static_cast<double>(e.uplink.messages_delivered -
                            b.uplink.messages_delivered),
        "count");
  r.Add("net.dropped",
        static_cast<double>(e.uplink.messages_dropped -
                            b.uplink.messages_dropped),
        "count");
  r.Add("net.frames_rejected", 0.0, "count");
  r.Add("net.control_bytes", static_cast<double>(driver.ControlBytes()), "B");
  r.Add("net.initialized_ratio",
        static_cast<double>(untraced.initialized) / kSources, "ratio");
  r.Add("obs.audit_ms", NsPerTickMs(t.audit_ns, ticks), "ms");
  r.Add("obs.audit_samples", static_cast<double>(t.audit_samples), "count");
  r.Add("trace.phase_sum_ratio",
        t.shard_wall_ns > 0 ? static_cast<double>(t.ShardPhaseNs()) /
                                  static_cast<double>(t.shard_wall_ns)
                            : 0.0,
        "ratio");
  r.Add("trace.overhead_ratio",
        Median(driver.tick_ms()) / Median(untraced.tick_ms), "ratio");
}

}  // namespace

bool TimeCodec(const std::vector<kc::Message>& mix, double* encode_ns,
               double* decode_ns) {
  *encode_ns = *decode_ns = 0.0;
  if (mix.empty()) return true;
  const size_t rounds = std::max<size_t>(1, 200000 / mix.size());
  std::vector<std::vector<uint8_t>> frames(mix.size());
  int64_t t0 = kc::obs::TraceNowNs();
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < mix.size(); ++i) {
      frames[i].clear();
      kc::codec::EncodeFrame(mix[i], &frames[i]);
    }
  }
  int64_t t1 = kc::obs::TraceNowNs();
  bool ok = true;
  kc::Message out;
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < mix.size(); ++i) {
      size_t consumed = 0;
      kc::Status s = kc::codec::DecodeFrame(frames[i].data(), frames[i].size(),
                                            &out, &consumed);
      if (r == 0) {
        const kc::Message& in = mix[i];
        ok = ok && s.ok() && consumed == frames[i].size() &&
             out.source_id == in.source_id && out.type == in.type &&
             out.seq == in.seq && out.wire_seq == in.wire_seq &&
             out.time == in.time && out.payload == in.payload;
      }
    }
  }
  int64_t t2 = kc::obs::TraceNowNs();
  double n = static_cast<double>(rounds * mix.size());
  *encode_ns = static_cast<double>(t1 - t0) / n;
  *decode_ns = static_cast<double>(t2 - t1) / n;
  return ok;
}

Result RunFleetWorkload(const RunOptions& options) {
  Result result;
  const bool pooled = options.workload == "pooled_quiet";
  // Set-up: generating the sources and bounds, parsing the queries, and
  // building the fleet, up to its first Step. Timed several times; the
  // last fleet built is the one measured.
  std::vector<double> setup_s;
  FleetInputs inputs;
  std::unique_ptr<kc::ShardedFleet> fleet;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    fleet.reset();
    // peak_rss_mb covers the measured fleet, not the set-ups before it.
    if (r == repeats - 1) ResetPeakRss();
    double t0 = NowSeconds();
    inputs = pooled ? MakePooledQuietInputs(options.seed)
                    : MakeSensorQueriesInputs(options.seed);
    if (ParseQueries(&inputs.queries)) fleet = BuildFleet(inputs);
    setup_s.push_back(NowSeconds() - t0);
    if (fleet == nullptr) {
      result.Fail("set-up failed");
      return result;
    }
  }

  UntracedRun run = RunUntraced(
      fleet.get(), inputs, options.trace ? options.seconds / 2 : options.seconds);
  result.attempted = run.timed_ticks;
  result.failed = run.failed_ticks;
  if (run.failed_ticks > 0) {
    result.Fail(std::to_string(run.failed_ticks) +
                " ticks failed a Step or an answer check");
  }
  if (run.containment.value() != 1.0) {
    result.Fail("containment " + run.containment.ToString());
  }
  // The fleet's own auditor (sensor_queries) must agree.
  for (size_t s = 0; s < fleet->num_shards(); ++s) {
    const kc::obs::PrecisionAuditor* auditor = fleet->server().shard_audit(s);
    if (auditor == nullptr) continue;
    for (int32_t id : auditor->SourceIds()) {
      const kc::obs::SourceAudit* a = auditor->Find(id);
      if (a->violations() > 0) {
        result.Fail("fleet auditor: source " + std::to_string(id) + " has " +
                    std::to_string(a->violations()) + " violations");
      }
    }
  }

  if (options.trace) {
    // One system at a time: the traced run rebuilds the sources.
    fleet.reset();
    RunTraced(options, inputs, run, &result);
    return result;
  }

  const kc::NetworkStats& nb = run.count_begin.uplink;
  const kc::NetworkStats& ne = run.count_end.uplink;
  const int64_t sent = ne.messages_sent - nb.messages_sent;
  Ratio delivered{static_cast<double>(ne.messages_delivered -
                                      nb.messages_delivered),
                  static_cast<double>(sent)};
  const double sources_per_s = static_cast<double>(kSources) *
                               static_cast<double>(run.timed_ticks) /
                               run.window_s;
  const double p50 = Percentile(run.tick_ms, 50.0);
  const double p90 = Percentile(run.tick_ms, 90.0);
  std::printf("kcbench: %lld timed ticks in %.3f s; tick p90 over %zu "
              "samples; containment %s; delivered %s\n",
              static_cast<long long>(run.timed_ticks), run.window_s,
              run.tick_ms.size(), run.containment.ToString().c_str(),
              delivered.ToString().c_str());
  std::printf("kcbench: wall clock: %.6g sources/s, tick p50 %.6g ms, "
              "p90 %.6g ms; speed factor %.4f\n",
              sources_per_s, p50, p90, run.speed_factor);
  // Timings at the probe's reference speed (speed_probe.h).
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("sources_per_s", sources_per_s / run.speed_factor, "1/s");
  result.Add("tick_p50_ms", p50 * run.speed_factor, "ms");
  result.Add("tick_p90_ms", p90 * run.speed_factor, "ms");
  result.Add("msgs_per_source_tick",
             PerSourceTick(static_cast<double>(sent), kSources, kCountTicks),
             "count");
  result.Add("bytes_per_source_tick",
             PerSourceTick(static_cast<double>(ne.bytes_sent - nb.bytes_sent),
                           kSources, kCountTicks),
             "B");
  result.Add("containment_ratio", run.containment.value(), "ratio");
  result.Add("delivered_ratio", delivered.value(), "ratio");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace kcbench
