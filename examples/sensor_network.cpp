// Sensor network: 100 temperature sensors feeding one stream server that
// answers continuous aggregate queries written in the query language.
//
// Demonstrates the multi-source deployment surface: the sharded fleet
// executor (pass --threads=N to spread shards over N worker threads —
// the reported numbers are identical for every N), ShardedServer, the CQL
// parser, per-query error budgets, bound allocation across aggregate
// members, and three-valued threshold triggers.
//
// Pass --metrics-dump[=text|json|prom|all] to print the fleet's merged
// telemetry after the run. Every mode except `all` excludes wall-clock
// timings, so the dump (like the rest of the output) is byte-identical
// for any --threads value.
//
// Pass --faults=... to degrade every sensor's uplink and watch the
// loss-tolerant recovery protocol fight back (heartbeats, resync
// requests over the control downlink, quarantined bounds). Spec is a
// comma list of:
//   loss=P                  independent per-message loss
//   burst=ENTER:EXIT:LOSS   Gilbert-Elliott burst loss
//   dup=P                   duplication
//   reorder=P:MAX           reordering (extra delay 1..MAX ticks)
//   partition=START:LEN[:EVERY]  scheduled blackout window(s)
// e.g. --faults=burst=0.03:0.25:1.0,dup=0.05
// Faults stay deterministic per (seed, sensor), so the simulated numbers
// are still identical for every --threads value.
//
// Observability extras (all deterministic for any --threads):
//   --flight-recorder[=N]  per-sensor black-box ring of N protocol events
//                          (default 128); sensors that end the run in a
//                          non-OK health state get their ring dumped.
//   --health               filter-health watchdog; prints the per-sensor
//                          verdict table after the run.
//   --trace-export=FILE    record trace spans and write a Chrome-trace /
//                          Perfetto JSON file (load via chrome://tracing
//                          or https://ui.perfetto.dev). Causal flow ids
//                          stitch each agent send to its replica apply.
//   --audit[=N]            precision/SLO auditor: every N ticks (default
//                          4) each sensor's replica answer is checked
//                          against the agent's contract target; prints
//                          the containment/budget report after the run.
//   --timeseries[=K]       windowed metric time-series, one capture per K
//                          ticks (default 64); prints the series table
//                          after the run. Implies metrics.
//   --http-port=P          scrapeable telemetry endpoint on
//                          127.0.0.1:P (/metrics /healthz /audit
//                          /timeseries). Implies metrics.
//   --serve-seconds=S      keep the HTTP endpoint up S seconds after the
//                          run (so you can curl the final state).
//
// Split-process deployment (docs/PROTOCOL.md, "Split-process deployment"):
//   --listen=PORT          run the stream-server half over real sockets
//                          (UDP uplink + TCP control on PORT); serves one
//                          client, prints its delivery books, exits.
//   --connect=HOST:PORT    run the sensor-fleet half against a listening
//                          server; prints its send books on exit.
//   --telemetry[=N]        distributed telemetry plane, one snapshot per N
//                          ticks (default 32), split mode only (a
//                          simulated run rejects it). The client ships
//                          metric/trace/send-log snapshots over the
//                          control stream and the server merges them into
//                          kc.remote.client.* rows (plus clock-offset and
//                          one-way wire-latency tracking). Combine with
//                          --http-port on the split server for a
//                          one-scrape view of both processes, and with
//                          --trace-export for a stitched cross-process
//                          trace.
//   --ticks=N              override the run length (default 2880).
//   --net-stats            after a simulated run, print the same
//                          normalized "uplink sent/delivered" book lines
//                          the split halves print — identical strings
//                          mean the socket transport charged exactly the
//                          bytes the simulation predicts (pinned by
//                          scripts/ci_asan.sh).
// Both halves rebuild the identical workload (sensor configs, volatility
// probes, variance-proportional bounds) from the same seeds, so no
// configuration travels out of band.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "fleet/sharded_fleet.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "server/allocation.h"
#include "server/split_deploy.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

namespace {

std::unique_ptr<kc::StreamGenerator> MakeSensor(kc::Rng& rng) {
  kc::DiurnalTemperatureGenerator::Config config;
  config.mean = rng.Uniform(14.0, 24.0);        // Different rooms...
  config.daily_amplitude = rng.Uniform(3.0, 8.0);
  config.weather_sigma = rng.Uniform(0.01, 0.08);
  kc::NoiseConfig noise;
  noise.gaussian_sigma = 0.3;  // Cheap thermistors.
  return std::make_unique<kc::NoisyStream>(
      std::make_unique<kc::DiurnalTemperatureGenerator>(config), noise);
}

// Parses the --faults= spec into the fleet's channel config. Returns
// false (after complaining) on a malformed token.
bool ParseFaults(const char* spec, kc::ShardedFleet::Config* config) {
  std::string s(spec);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    std::string tok = s.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? s.size() : comma + 1;
    kc::FaultConfig& f = config->channel.faults;
    double a = 0.0, b = 0.0, c = 0.0;
    long x = 0, y = 0, z = 0;
    if (std::sscanf(tok.c_str(), "loss=%lf", &a) == 1) {
      config->channel.loss_prob = a;
    } else if (std::sscanf(tok.c_str(), "burst=%lf:%lf:%lf", &a, &b, &c) ==
               3) {
      f.burst_enter_prob = a;
      f.burst_exit_prob = b;
      f.burst_loss_prob = c;
    } else if (std::sscanf(tok.c_str(), "dup=%lf", &a) == 1) {
      f.duplicate_prob = a;
    } else if (std::sscanf(tok.c_str(), "reorder=%lf:%ld", &a, &x) == 2) {
      f.reorder_prob = a;
      f.reorder_max_ticks = x;
    } else if (std::sscanf(tok.c_str(), "partition=%ld:%ld:%ld", &x, &y,
                           &z) == 3) {
      f.partition_start = x;
      f.partition_length = y;
      f.partition_every = z;
    } else if (std::sscanf(tok.c_str(), "partition=%ld:%ld", &x, &y) == 2) {
      f.partition_start = x;
      f.partition_length = y;
    } else {
      std::fprintf(stderr, "unrecognized --faults token: %s\n", tok.c_str());
      return false;
    }
  }
  return true;
}

// The workload both deployment shapes (simulated fleet, split processes)
// reconstruct from seeds alone: the sensor prototypes and the
// variance-proportional precision bounds.
struct Workload {
  std::vector<std::unique_ptr<kc::StreamGenerator>> sensors;
  std::vector<double> deltas;
};

Workload BuildWorkload(int num_sensors, double avg_budget) {
  kc::Rng rng(2026);
  Workload w;
  std::vector<double> volatilities;
  for (int i = 0; i < num_sensors; ++i) {
    auto gen = MakeSensor(rng);
    // Peek one day to estimate per-tick volatility for allocation.
    auto probe = gen->Clone();
    probe->Reset(1000 + static_cast<uint64_t>(i));
    double prev = probe->Next().measured.scalar();
    kc::RunningStats deltas;
    for (int t = 1; t < 288; ++t) {
      double v = probe->Next().measured.scalar();
      deltas.Add(v - prev);
      prev = v;
    }
    volatilities.push_back(deltas.stddev());
    w.sensors.push_back(std::move(gen));
  }
  // Budget: the building-wide average must be accurate to avg_budget
  // degrees; the sum budget splits across members by volatility.
  w.deltas = kc::AllocateBounds(kc::AllocationPolicy::kVarianceProportional,
                                avg_budget * num_sensors, volatilities);
  return w;
}

// One half of the split-process deployment. Runs the server when
// `listen` is set, the client otherwise; either way the workload is
// rebuilt locally so both processes agree by construction.
int RunSplitMode(bool listen, const std::string& host, int port, size_t ticks,
                 int num_sensors, double avg_budget, long telemetry_every,
                 int http_port, long serve_seconds, const char* trace_file) {
  Workload w = BuildWorkload(num_sensors, avg_budget);
  kc::SplitConfig config;
  config.host = host;
  config.port = port;
  config.ticks = ticks;
  config.num_sources = num_sensors;
  config.seed = 1;  // == ShardedFleet::Config default, so streams match.
  config.deltas = w.deltas;
  config.telemetry_every = telemetry_every;
  config.trace = trace_file != nullptr;
  auto make_predictor = [](int32_t) {
    return kc::MakeDefaultKalmanPredictor(0.01, 0.09);
  };

  if (listen) {
    config.http_port = http_port;
    config.serve_seconds = static_cast<int>(serve_seconds);
    config.on_http_ready = [](int bound_port) {
      std::printf("telemetry: http://127.0.0.1:%d/metrics (also /healthz "
                  "/audit /timeseries)\n",
                  bound_port);
      std::fflush(stdout);  // Scrapers watch the pipe while we serve.
    };
    std::printf("split server: listening on %s:%d (UDP uplink + TCP "
                "control), %d sensors, %zu ticks\n",
                host.c_str(), port, num_sensors, ticks);
    auto report = kc::RunSplitServer(config, make_predictor);
    if (!report.ok()) {
      std::fprintf(stderr, "split server: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("split server: %lld tick barriers, %d/%d replicas "
                "initialized, %lld malformed frames, %lld resyncs "
                "requested, mean answer %.3f\n",
                static_cast<long long>(report->ticks), report->initialized,
                num_sensors, static_cast<long long>(report->frames_rejected),
                static_cast<long long>(report->resyncs_requested),
                report->mean_value);
    std::printf("uplink delivered: %s\n",
                report->uplink.DeliveredLine().c_str());
    if (telemetry_every > 0) {
      std::printf("telemetry: %lld snapshots merged, wire latency %lld "
                  "matched / %lld unmatched, clock offset %+.1fus "
                  "(+/-%.1fus), %zu remote black boxes\n",
                  static_cast<long long>(report->snapshots_merged),
                  static_cast<long long>(report->latency_matched),
                  static_cast<long long>(report->latency_unmatched),
                  static_cast<double>(report->clock_offset_ns) / 1000.0,
                  report->clock_uncertainty_ns < 0
                      ? -1.0
                      : static_cast<double>(report->clock_uncertainty_ns) /
                            1000.0,
                  report->remote_black_boxes.size());
      for (const std::string& dump : report->remote_black_boxes) {
        std::printf("-- remote black box --\n%s", dump.c_str());
      }
    }
    if (trace_file != nullptr && !report->trace_json.empty()) {
      FILE* f = std::fopen(trace_file, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", trace_file);
        return 1;
      }
      std::fwrite(report->trace_json.data(), 1, report->trace_json.size(), f);
      std::fclose(f);
      std::printf("trace: stitched cross-process trace -> %s "
                  "(chrome://tracing or ui.perfetto.dev)\n",
                  trace_file);
    }
    return 0;
  }

  auto make_generator = [&w](int32_t id) {
    return w.sensors[static_cast<size_t>(id)]->Clone();
  };
  std::printf("split client: connecting to %s:%d, %d sensors, %zu ticks\n",
              host.c_str(), port, num_sensors, ticks);
  auto report = kc::RunSplitClient(config, make_generator, make_predictor);
  if (!report.ok()) {
    std::fprintf(stderr, "split client: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("split client: %lld ticks, %lld corrections, %lld suppressed "
              "(%.4f suppression), %lld resyncs served\n",
              static_cast<long long>(report->ticks),
              static_cast<long long>(report->corrections),
              static_cast<long long>(report->suppressed),
              report->suppression_ratio,
              static_cast<long long>(report->resyncs_served));
  std::printf("uplink sent: %s\n", report->uplink.SentLine().c_str());
  if (telemetry_every > 0) {
    std::printf("telemetry: %lld snapshots sent, %lld clock samples, offset "
                "%+.1fus (+/-%.1fus), %lld black-box dumps served\n",
                static_cast<long long>(report->snapshots_sent),
                static_cast<long long>(report->clock_samples),
                static_cast<double>(report->clock_offset_ns) / 1000.0,
                report->clock_uncertainty_ns < 0
                    ? -1.0
                    : static_cast<double>(report->clock_uncertainty_ns) /
                          1000.0,
                static_cast<long long>(report->blackbox_dumps_served));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kSensors = 100;
  size_t ticks = 2880;  // 10 days of 5-minute samples.
  constexpr double kAvgBudget = 0.25;

  kc::ShardedFleet::Config fleet_config;
  bool metrics_dump = false;
  size_t flight_recorder_capacity = 0;
  bool health_enabled = false;
  const char* trace_file = nullptr;
  long audit_every = 0;       // 0 = auditing off.
  long timeseries_every = 0;  // 0 = time-series off.
  long telemetry_every = 0;   // 0 = distributed telemetry plane off.
  int http_port = -1;         // -1 = endpoint off (0 = ephemeral port).
  long serve_seconds = 0;
  int listen_port = -1;          // >= 0 = split-server role.
  std::string connect_spec;      // non-empty = split-client role.
  bool net_stats = false;
  kc::obs::ExportOptions dump_options;
  dump_options.include_wall_clock = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      long v = std::atol(argv[i] + 10);
      if (v > 0) fleet_config.threads = static_cast<size_t>(v);
    } else if (std::strncmp(argv[i], "--metrics-dump", 14) == 0) {
      metrics_dump = true;
      const char* mode = argv[i][14] == '=' ? argv[i] + 15 : "text";
      if (std::strcmp(mode, "json") == 0) {
        dump_options.format = kc::obs::ExportFormat::kJsonLines;
      } else if (std::strcmp(mode, "prom") == 0) {
        dump_options.format = kc::obs::ExportFormat::kPrometheus;
      } else if (std::strcmp(mode, "all") == 0) {
        dump_options.include_wall_clock = true;  // Run-dependent timings.
      }
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      if (!ParseFaults(argv[i] + 9, &fleet_config)) return 1;
    } else if (std::strncmp(argv[i], "--flight-recorder", 17) == 0) {
      flight_recorder_capacity = kc::obs::FlightRecorder::kDefaultCapacity;
      if (argv[i][17] == '=') {
        long v = std::atol(argv[i] + 18);
        if (v > 0) flight_recorder_capacity = static_cast<size_t>(v);
      }
    } else if (std::strcmp(argv[i], "--health") == 0) {
      health_enabled = true;
    } else if (std::strncmp(argv[i], "--trace-export=", 15) == 0) {
      trace_file = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--audit", 7) == 0) {
      audit_every = 4;
      if (argv[i][7] == '=') {
        long v = std::atol(argv[i] + 8);
        if (v > 0) audit_every = v;
      }
    } else if (std::strncmp(argv[i], "--timeseries", 12) == 0) {
      timeseries_every = 64;
      if (argv[i][12] == '=') {
        long v = std::atol(argv[i] + 13);
        if (v > 0) timeseries_every = v;
      }
    } else if (std::strncmp(argv[i], "--telemetry", 11) == 0) {
      telemetry_every = 32;
      if (argv[i][11] == '=') {
        long v = std::atol(argv[i] + 12);
        if (v > 0) telemetry_every = v;
      }
    } else if (std::strncmp(argv[i], "--http-port=", 12) == 0) {
      http_port = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--serve-seconds=", 16) == 0) {
      serve_seconds = std::atol(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--listen=", 9) == 0) {
      listen_port = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      connect_spec = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--ticks=", 8) == 0) {
      long v = std::atol(argv[i] + 8);
      if (v > 0) ticks = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--net-stats") == 0) {
      net_stats = true;
    }
  }
  if (listen_port >= 0) {
    return RunSplitMode(/*listen=*/true, "127.0.0.1", listen_port, ticks,
                        kSensors, kAvgBudget, telemetry_every, http_port,
                        serve_seconds, trace_file);
  }
  if (!connect_spec.empty()) {
    std::string host = "127.0.0.1";
    int port;
    size_t colon = connect_spec.rfind(':');
    if (colon != std::string::npos) {
      host = connect_spec.substr(0, colon);
      port = std::atoi(connect_spec.c_str() + colon + 1);
    } else {
      port = std::atoi(connect_spec.c_str());  // Bare port: localhost.
    }
    if (port <= 0) {
      std::fprintf(stderr, "--connect wants HOST:PORT, got %s\n",
                   connect_spec.c_str());
      return 1;
    }
    return RunSplitMode(/*listen=*/false, host, port, ticks, kSensors,
                        kAvgBudget, telemetry_every, /*http_port=*/-1,
                        /*serve_seconds=*/0, trace_file);
  }
  if (telemetry_every > 0) {
    // The plane ships snapshots between two processes; a simulated run has
    // one, and its /metrics already shows every row.
    std::fprintf(stderr, "--telemetry needs --listen or --connect\n");
    return 1;
  }
  const bool faulty = fleet_config.channel.faults.any_enabled() ||
                      fleet_config.channel.loss_prob > 0.0;
  if (faulty) {
    // A lossy uplink needs the recovery protocol: heartbeats so silence
    // is distinguishable from loss, and resync-on-desync so replica
    // bounds stay honest instead of silently wrong.
    fleet_config.agent_base.heartbeat_every = 4;
    fleet_config.recovery.enabled = true;
    fleet_config.recovery.suspect_after_silent_ticks = 12;
  }
  kc::ShardedFleet fleet(fleet_config);
  if (metrics_dump) fleet.EnableMetrics();
  if (flight_recorder_capacity > 0) {
    fleet.EnableFlightRecorder(flight_recorder_capacity);
  }
  if (health_enabled) fleet.EnableHealth();
  if (audit_every > 0) {
    kc::obs::AuditConfig audit_config;
    audit_config.sample_every = audit_every;
    fleet.EnableAudit(audit_config);
  }
  if (timeseries_every > 0) fleet.EnableTimeseries(timeseries_every);
  if (http_port >= 0) {
    kc::Status s = fleet.EnableHttpTelemetry(http_port);
    if (!s.ok()) {
      std::fprintf(stderr, "telemetry endpoint: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("telemetry: http://127.0.0.1:%d/metrics (also /healthz "
                "/audit /timeseries)\n",
                fleet.http()->port());
    std::fflush(stdout);  // Scrapers watch the pipe while we serve.
  }
  if (trace_file != nullptr) kc::obs::SetTracingEnabled(true);

  // Every sensor runs the adaptive dual-Kalman predictor. The AVG query's
  // error budget is split across members with the variance-proportional
  // policy after watching each stream for a probe day (BuildWorkload —
  // shared with the split-process halves so every deployment shape runs
  // the identical fleet).
  Workload workload = BuildWorkload(kSensors, kAvgBudget);
  for (int i = 0; i < kSensors; ++i) {
    fleet.AddSource(std::move(workload.sensors[static_cast<size_t>(i)]),
                    kc::MakeDefaultKalmanPredictor(0.01, 0.09),
                    /*delta=*/0.5);
  }
  for (int i = 0; i < kSensors; ++i) {
    fleet.SetDelta(i, workload.deltas[static_cast<size_t>(i)]);
  }

  // Register queries through the query language.
  std::vector<int32_t> all;
  std::string all_list;
  for (int i = 0; i < kSensors; ++i) {
    all.push_back(i);
    all_list += (i ? "," : "") + std::string("s") + std::to_string(i);
  }
  auto avg_spec =
      kc::ParseQuery("SELECT AVG(" + all_list + ") WITHIN 0.25 EVERY 12");
  auto max_spec =
      kc::ParseQuery("SELECT MAX(s0,s1,s2,s3,s4) WHEN > 26 WITHIN 1.0");
  if (!avg_spec.ok() || !max_spec.ok()) {
    std::fprintf(stderr, "query parse error: %s / %s\n",
                 avg_spec.status().ToString().c_str(),
                 max_spec.status().ToString().c_str());
    return 1;
  }
  if (!fleet.server().AddQuery("building_avg", *avg_spec).ok() ||
      !fleet.server().AddQuery("hot_zone", *max_spec).ok()) {
    std::fprintf(stderr, "query registration failed\n");
    return 1;
  }

  std::printf("sensor_network: %d diurnal sensors, %zu ticks, AVG budget "
              "+/-%.2fC (variance-proportional split), %zu shards / %zu "
              "threads\n\n",
              kSensors, ticks, kAvgBudget, fleet.num_shards(),
              fleet.threads());
  std::printf("%8s %14s %10s %22s %16s\n", "tick", "building_avg", "bound",
              "true_avg (err)", "hot_zone trigger");

  kc::RunningStats avg_err;
  for (size_t t = 0; t < ticks; ++t) {
    if (!fleet.Step().ok()) {
      std::fprintf(stderr, "simulation error at tick %zu\n", t);
      return 1;
    }
    if ((t + 1) % 288 != 0) continue;  // Report once per simulated day.

    auto avg = fleet.server().Evaluate("building_avg");
    auto hot = fleet.server().Evaluate("hot_zone");
    if (!avg.ok() || !hot.ok()) continue;
    double true_avg = 0.0;
    for (int i = 0; i < kSensors; ++i) true_avg += fleet.TruthOf(i);
    true_avg /= kSensors;
    double err = avg->value - true_avg;
    avg_err.Add(err);
    std::printf("%8zu %14.3f %10.3f %14.3f (%+.3f) %16s\n", t + 1, avg->value,
                avg->bound, true_avg, err,
                kc::TriggerStateName(*hot->trigger));
  }

  long long messages = fleet.TotalMessages();
  double per_sensor_rate = static_cast<double>(messages) /
                           (static_cast<double>(kSensors) * static_cast<double>(ticks));
  std::printf("\ntotal messages: %lld (%.4f per sensor-tick; naive streaming "
              "would be 1.0)\nworst daily AVG error: %.3fC against a "
              "guaranteed bound of %.3fC\n",
              messages, per_sensor_rate,
              std::max(std::fabs(avg_err.min()), std::fabs(avg_err.max())),
              kAvgBudget);

  if (net_stats) {
    // The same normalized book lines the split-process halves print:
    // byte-for-byte identical output here and there means the socket
    // transport and the simulated channel charge identical books for the
    // identical workload (the parity contract in docs/PROTOCOL.md).
    kc::NetworkStats net = fleet.TotalNetworkStats();
    std::printf("\nuplink sent: %s\nuplink delivered: %s\n",
                net.SentLine().c_str(), net.DeliveredLine().c_str());
  }

  if (faulty) {
    kc::NetworkStats net = fleet.TotalNetworkStats();
    kc::NetworkStats control = fleet.TotalControlNetworkStats();
    std::printf("\nfault injection: %lld dropped (%lld burst, %lld "
                "partition), %lld duplicated, %lld reordered; %lld control "
                "msgs (resync requests + bound pushes)\n",
                static_cast<long long>(net.messages_dropped),
                static_cast<long long>(net.burst_drops),
                static_cast<long long>(net.partition_drops),
                static_cast<long long>(net.messages_duplicated),
                static_cast<long long>(net.messages_reordered),
                static_cast<long long>(control.messages_sent));
  }

  if (health_enabled) {
    int suspect = 0;
    int diverged = 0;
    for (int i = 0; i < kSensors; ++i) {
      kc::obs::HealthState s = fleet.HealthOf(i);
      if (s == kc::obs::HealthState::kSuspect) ++suspect;
      if (s == kc::obs::HealthState::kDiverged) ++diverged;
    }
    std::printf("\n-- filter health: %d OK, %d SUSPECT, %d DIVERGED --\n%s",
                kSensors - suspect - diverged, suspect, diverged,
                fleet.HealthSummaryText().c_str());
    if (flight_recorder_capacity > 0 && suspect + diverged > 0) {
      // The black box earns its keep: dump the ring of every sensor the
      // watchdog flagged, so the operator sees the decisions that led
      // there without re-running anything.
      std::printf("\n-- black boxes of flagged sensors --\n");
      for (int32_t i = 0; i < kSensors; ++i) {
        if (fleet.HealthOf(i) == kc::obs::HealthState::kOk) continue;
        const kc::obs::FlightRecorder* recorder =
            fleet.server().shard_recorder(fleet.server().ShardOf(i));
        std::printf("%s", recorder->DumpText(i).c_str());
      }
    }
  }

  if (audit_every > 0) {
    std::printf("\n-- precision audit (every %ld ticks) --\n%s", audit_every,
                fleet.AuditReportText().c_str());
  }

  if (timeseries_every > 0) {
    std::printf("\n-- time-series (1 capture / %ld ticks) --\n%s",
                timeseries_every, fleet.timeseries()->ExportText().c_str());
  }

  if (metrics_dump) {
    kc::obs::MetricRegistry merged;
    fleet.MergeMetricsInto(&merged);
    std::printf("\n-- metrics --\n%s",
                kc::obs::ExportMetrics(merged, dump_options).c_str());
  }

  if (http_port >= 0 && serve_seconds > 0) {
    std::printf("\nserving telemetry for %lds on http://127.0.0.1:%d ...\n",
                serve_seconds, fleet.http()->port());
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
  }

  if (trace_file != nullptr) {
    std::vector<kc::obs::TraceEvent> events = kc::obs::CollectTraceEvents();
    std::string json = kc::obs::ExportChromeTrace(events);
    FILE* f = std::fopen(trace_file, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_file);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\ntrace: %zu spans -> %s (chrome://tracing or "
                "ui.perfetto.dev)\n",
                events.size(), trace_file);
  }
  return 0;
}
