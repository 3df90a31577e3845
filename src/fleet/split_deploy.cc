#include "server/split_deploy.h"

#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "fleet/pool.h"
#include "fleet/sharded_server.h"
#include "fleet/sharded_fleet.h"
#include "net/transport.h"
#include "obs/export.h"
#include "obs/http_exporter.h"
#include "obs/recorder.h"
#include "obs/remote.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace kc {

StatusOr<SplitClientReport> RunSplitClient(
    const SplitConfig& config, const GeneratorFactory& make_generator,
    const PredictorFactory& make_predictor) {
  if (config.num_sources <= 0) {
    return Status::InvalidArgument("split client needs at least one source");
  }
  if (config.deltas.size() != static_cast<size_t>(config.num_sources)) {
    return Status::InvalidArgument("one delta per source required");
  }

  auto uplink_or = SocketChannel::UdpConnect(config.host, config.port);
  if (!uplink_or.ok()) return uplink_or.status();
  std::unique_ptr<SocketChannel> uplink_owned = std::move(uplink_or).value();
  auto control_or = SocketChannel::TcpConnect(config.host, config.port);
  if (!control_or.ok()) return control_or.status();
  std::unique_ptr<SocketChannel> control_owned = std::move(control_or).value();
  SocketChannel* uplink = uplink_owned.get();
  SocketChannel* control = control_owned.get();
  // Flow control: the server echoes each tick barrier once it has
  // processed the tick, and this loop runs at most one unacknowledged
  // tick. That bounds what is in flight to one tick's datagrams, but not
  // below the server's SO_RCVBUF: the server reads UDP only at the
  // barrier, and the tick-0 INIT burst of every source overflows the
  // default buffer, so about half the uplink is lost on loopback
  // (ROADMAP item 6 bounds a tick's burst by credit).
  int64_t acked = -1;
  control->SetTickSink([&acked](int64_t tick) { acked = tick; });

  // --- Telemetry plane (client half) ---
  const bool telemetry = config.telemetry_every > 0;
  obs::MetricRegistry registry;
  obs::FlightRecorder recorder;
  obs::ClockOffsetEstimator estimator;
  obs::Gauge* offset_gauge = nullptr;
  obs::Gauge* uncertainty_gauge = nullptr;
  int64_t snapshots_sent = 0;
  int64_t dumps_served = 0;
  std::map<std::string, obs::MetricRow> sent_rows;
  SourceFleet::ShardObs obs;  // What every agent binds to.
  if (telemetry) {
    uplink->BindMetrics(&registry);
    control->BindMetrics(&registry);
    recorder.BindMetrics(&registry);
    obs.metrics = &registry;
    obs.recorder = &recorder;
    // Wall-clock instruments: real-time measurements, excluded from
    // deterministic exports by flag.
    offset_gauge =
        registry.GetGauge("kc.net.clock_offset_us", /*wall_clock=*/true);
    uncertainty_gauge = registry.GetGauge("kc.net.clock_offset_uncertainty_us",
                                          /*wall_clock=*/true);
    uplink->EnableSendTimestampLog();
    control->SetClockPongSink([&](int64_t t0_ns, int64_t peer_ns) {
      estimator.AddSample(t0_ns, obs::TraceNowNs(), peer_ns);
      if (estimator.has_estimate()) {
        offset_gauge->Set(static_cast<double>(estimator.offset_ns()) * 1e-3);
        uncertainty_gauge->Set(
            static_cast<double>(estimator.uncertainty_ns()) * 1e-3);
      }
    });
    // Remote black-box pull: the server names a source, this half answers
    // with its flight-recorder ring — the client-side decision history the
    // server cannot see.
    control->SetBlackboxRequestSink([&](int64_t source_id) {
      std::string dump = recorder.DumpText(static_cast<int32_t>(source_id));
      Status s = control->SendBlackboxDump(source_id, dump);
      (void)s;  // A torn link surfaces via last_error in the tick loop.
      ++dumps_served;
    });
    if (config.trace) obs::SetTracingEnabled(true);
  }
  // The fleet's source half as one shard whose links are the sockets: the
  // agents share the uplink socket as a simulated shard's sources share
  // its link, and keep private filter pools (no sweep runs here).
  // Declared after everything the sockets' sinks and the agents refer to,
  // so it closes the sockets first.
  SourceFleet::Config fleet_config;
  fleet_config.seed = config.seed;
  fleet_config.agent_base = config.agent_base;
  SourceFleet fleet(std::move(fleet_config), /*num_shards=*/1);
  fleet.AdoptLinks(0, std::move(uplink_owned), std::move(control_owned));
  for (int32_t id = 0; id < config.num_sources; ++id) {
    fleet.AddSource(0, make_generator(id), make_predictor(id),
                    config.deltas[static_cast<size_t>(id)], obs,
                    /*uplink_receiver=*/nullptr);
  }
  // Encodes and ships one snapshot: changed metric rows, the clock
  // estimate, drained send timestamps, and (when tracing) the retained
  // trace spans.
  auto send_snapshot = [&](int64_t tick) -> Status {
    obs::TelemetrySnapshot snapshot;
    snapshot.tick = tick;
    if (estimator.has_estimate()) {
      snapshot.clock_offset_ns = estimator.offset_ns();
      snapshot.clock_uncertainty_ns = estimator.uncertainty_ns();
    }
    snapshot.health_summary = StrFormat(
        "client: ticks=%lld sources=%d", static_cast<long long>(tick),
        config.num_sources);
    for (obs::MetricRow& row : registry.Rows()) {
      // The merger is latest-wins per name, so resending an unchanged row
      // is pure overhead.
      auto it = sent_rows.find(row.name);
      if (it != sent_rows.end() && it->second == row) continue;
      sent_rows[row.name] = row;
      snapshot.rows.push_back(std::move(row));
    }
    uplink->DrainSendTimestamps(&snapshot.send_log);
    if (config.trace) {
      for (const obs::TraceEvent& e : obs::CollectTraceEvents()) {
        snapshot.trace_events.push_back(
            {e.name != nullptr ? e.name : "?", e.start_ns, e.duration_ns,
             e.flow_id, e.depth, e.thread_index});
      }
    }
    std::vector<uint8_t> encoded;
    obs::EncodeSnapshot(snapshot, &encoded);
    Status s = control->SendTelemetrySnapshot(encoded.data(), encoded.size());
    if (s.ok()) ++snapshots_sent;
    return s;
  };

  for (size_t t = 0; t < config.ticks; ++t) {
    // Links advance before this tick's offers, so a resync request is
    // answered by this tick's uplink message.
    fleet.StepShard(0);
    if (!control->last_error().ok()) return control->last_error();
    KC_RETURN_IF_ERROR(fleet.status());
    if (telemetry) {
      // Clock probe adjacent to the barrier: the server answers inside
      // its transport, so the ack wait below collects the pong within
      // this tick — one offset sample per tick, each bounded by a
      // loopback-tight RTT.
      Status ps = control->SendClockPing(obs::TraceNowNs());
      if (!ps.ok()) return ps;
    }
    // The barrier publishes "tick t's datagrams are all in flight".
    Status s = control->SendTickBarrier(static_cast<int64_t>(t));
    if (!s.ok()) return s;
    while (acked < static_cast<int64_t>(t)) {
      control->Poll(/*timeout_ms=*/50);
      if (!control->last_error().ok()) return control->last_error();
      if (control->peer_closed()) {
        return Status::DataLoss("server closed the control link mid-run");
      }
    }
    if (telemetry &&
        (t + 1) % static_cast<size_t>(config.telemetry_every) == 0) {
      Status ss = send_snapshot(static_cast<int64_t>(t) + 1);
      if (!ss.ok()) return ss;
    }
  }
  if (telemetry) {
    // Final snapshot: the last partial window's rows, send log, and
    // trace spans, so the server's merged view covers the whole run.
    Status s = send_snapshot(static_cast<int64_t>(config.ticks));
    if (!s.ok()) return s;
    // Serve any in-flight black-box pulls racing the shutdown before the
    // FIN ends the run.
    control->Poll(/*timeout_ms=*/20);
  }

  SplitClientReport report;
  report.uplink = fleet.TotalNetworkStats();
  report.control = fleet.TotalControlNetworkStats();
  report.ticks = static_cast<int64_t>(config.ticks);
  AgentStats agents = fleet.TotalAgentStats();
  report.corrections = agents.corrections;
  report.suppressed = agents.suppressed;
  report.resyncs_served = agents.resyncs_served;
  int64_t decisions = report.uplink.messages_sent + report.suppressed;
  report.suppression_ratio =
      decisions > 0
          ? static_cast<double>(report.suppressed) / static_cast<double>(decisions)
          : 0.0;
  report.snapshots_sent = snapshots_sent;
  report.clock_samples = static_cast<int64_t>(estimator.samples());
  if (estimator.has_estimate()) {
    report.clock_offset_ns = estimator.offset_ns();
    report.clock_uncertainty_ns = estimator.uncertainty_ns();
  }
  report.blackbox_dumps_served = dumps_served;
  if (telemetry && config.trace) obs::SetTracingEnabled(false);
  // Destructors close both sockets; the TCP FIN is the end-of-run signal
  // the server waits for.
  return report;
}

StatusOr<SplitServerReport> RunSplitServer(
    const SplitConfig& config, const PredictorFactory& make_predictor,
    const std::function<void(int64_t tick)>& progress) {
  if (config.num_sources <= 0) {
    return Status::InvalidArgument("split server needs at least one source");
  }

  // Bind the uplink before accepting control, so the client's first
  // datagram (sent right after its TCP connect succeeds) has a socket to
  // land in.
  auto uplink_or = SocketChannel::UdpBind(config.host, config.port);
  if (!uplink_or.ok()) return uplink_or.status();
  std::unique_ptr<SocketChannel> uplink = std::move(uplink_or).value();
  auto listener_or = TcpListener::Listen(config.host, config.port);
  if (!listener_or.ok()) return listener_or.status();
  auto control_or = (*listener_or)->Accept(config.accept_timeout_ms);
  if (!control_or.ok()) return control_or.status();
  std::unique_ptr<SocketChannel> control = std::move(control_or).value();

  // One shard: the whole server half runs on this thread, ticked per
  // barrier. Answers are bit-identical for any shard count.
  ShardedServer server;
  if (config.recovery.enabled) server.SetRecovery(config.recovery);
  server.SetControlSink(
      [&control](const Message& msg) { return control->Send(msg); });
  // --- Telemetry plane (server half) ---
  const bool telemetry = config.telemetry_every > 0;
  obs::RemoteTelemetryMerger::Options merger_options;
  merger_options.type_name = [](uint8_t type) {
    return std::string(MessageTypeName(static_cast<MessageType>(type)));
  };
  obs::RemoteTelemetryMerger merger(std::move(merger_options));
  std::unique_ptr<obs::TelemetryHttpServer> http;
  if (telemetry) {
    // Before the first source, so every replica binds to its shard arena
    // and the shard exports the same kc.server.* rows as in-process.
    KC_RETURN_IF_ERROR(server.EnableMetrics());
    uplink->BindMetrics(server.driver_metrics());
    control->BindMetrics(server.driver_metrics());
    merger.BindMetrics(server.driver_metrics());
    if (config.trace) obs::SetTracingEnabled(true);
  }
  // Kalman replicas move onto their shard's filter pools, as in-process
  // (ShardedFleet::AddSource), so the pool sweep advances them each tick.
  for (int32_t id = 0; id < config.num_sources; ++id) {
    std::unique_ptr<Predictor> predictor = make_predictor(id);
    if (auto pooled = MakePooledPredictor(
            *predictor, server.shard_pools(server.ShardOf(id)))) {
      predictor = std::move(pooled);
    }
    KC_RETURN_IF_ERROR(server.RegisterSource(id, std::move(predictor)));
  }
  if (telemetry && config.http_port >= 0) {
    obs::TelemetryHttpServer::Config http_config;
    http_config.port = config.http_port;
    http = std::make_unique<obs::TelemetryHttpServer>(http_config);
    Status s = http->Start();
    if (!s.ok()) return s;
    if (config.on_http_ready) config.on_http_ready(http->port());
  }
  // Republishes every HTTP snapshot from the current merged view — one
  // scrape covers both processes.
  auto publish = [&] {
    if (http == nullptr) return;
    obs::MetricRegistry local;
    server.MergeMetricsInto(&local);
    http->PublishMetrics(merger.MergedRows(local.Rows()));
    std::string body = StrFormat(
        "server: snapshots=%lld offset_us=%lld\n",
        static_cast<long long>(merger.snapshots_absorbed()),
        static_cast<long long>(merger.clock_offset_ns() / 1000));
    if (!merger.health_summary().empty()) {
      body += merger.health_summary() + "\n";
    }
    http->PublishHealthz(true, std::move(body));
  };
  if (telemetry) {
    control->SetSnapshotSink([&](const uint8_t* data, size_t size) {
      obs::TelemetrySnapshot snapshot;
      Status s = obs::DecodeSnapshot(data, size, &snapshot);
      if (!s.ok()) return;  // A garbage snapshot never crashes the merge.
      merger.Absorb(snapshot);
      publish();
    });
  }
  std::vector<std::string> black_boxes;
  if (telemetry) {
    control->SetBlackboxDumpSink([&black_boxes](int64_t source_id,
                                                std::string dump) {
      black_boxes.push_back(
          StrFormat("source %lld:\n", static_cast<long long>(source_id)) +
          dump);
    });
  }
  // Black-box pull trigger: a replica asking for a resync means the
  // protocol saw loss or divergence — exactly when the client-side
  // decision history is worth having. One pull per observed increase.
  std::vector<int64_t> resyncs_seen(static_cast<size_t>(config.num_sources),
                                    0);

  // Delivered frames wait here until the next barrier's Tick(), so every
  // replica ticks into a tick before it applies that tick's messages, as
  // in-process. The loop below drains the socket between barriers, and
  // once the client has the previous ack it may already be sending the
  // next tick's datagrams: applied on arrival, a correction would be
  // predicted one tick too far.
  std::vector<Message> arrived;
  auto apply_arrived = [&] {
    for (const Message& msg : arrived) {
      // Unknown source ids come back NotFound and are dropped;
      // CORRECTION-before-INIT is expected under real loss.
      (void)server.OnMessage(msg);
    }
    arrived.clear();
  };
  uplink->SetReceiver([&](const Message& msg) {
    // Arrival time on the local steady clock, at delivery — the join key
    // for the client's send log (one-way latency = arrival - rebased
    // send).
    if (telemetry && msg.flow_id != 0) {
      merger.RecordArrival(msg.flow_id, static_cast<uint8_t>(msg.type),
                           obs::TraceNowNs());
    }
    arrived.push_back(msg);
  });

  control->SetTickSink([&](int64_t tick) {
    // Barrier semantics: every datagram of `tick` was sent before the
    // barrier. Tick the replica clocks into `tick`, then apply what the
    // wire has delivered; stragglers apply next barrier (the wire_seq
    // guard keeps ordering honest). The echoed barrier acknowledges the
    // tick — the client's flow-control window.
    server.Tick();
    uplink->Poll(/*timeout_ms=*/1);
    apply_arrived();
    Status s = control->SendTickBarrier(tick);
    (void)s;  // A torn link surfaces via peer_closed below.
    if (telemetry) {
      for (int32_t id = 0; id < config.num_sources; ++id) {
        int64_t resyncs = server.replica(id)->resyncs_requested();
        int64_t& seen = resyncs_seen[static_cast<size_t>(id)];
        if (resyncs > seen) {
          seen = resyncs;
          Status rs = control->SendBlackboxRequest(id);
          (void)rs;
        }
      }
    }
    if (progress) progress(tick);
  });

  while (!control->peer_closed()) {
    control->Poll(/*timeout_ms=*/50);
    uplink->AdvanceTick();
  }
  if (!control->last_error().ok()) return control->last_error();
  // Grace drain: the client's last datagrams may still be in flight.
  for (int i = 0; i < 20; ++i) uplink->Poll(/*timeout_ms=*/10);
  apply_arrived();

  SplitServerReport report;
  report.uplink = uplink->stats();
  report.control = control->stats();
  report.ticks = server.ticks();
  report.frames_rejected = uplink->frames_rejected();
  double sum = 0.0;
  int32_t valued = 0;
  for (int32_t id = 0; id < config.num_sources; ++id) {
    const ServerReplica* replica = server.replica(id);
    if (!replica->initialized()) continue;
    ++report.initialized;
    report.resyncs_requested += replica->resyncs_requested();
    Vector v = replica->Value();
    if (!v.empty()) {
      sum += v[0];
      ++valued;
    }
  }
  report.mean_value = valued > 0 ? sum / valued : 0.0;

  if (telemetry) {
    report.snapshots_merged = merger.snapshots_absorbed();
    report.latency_matched = merger.latency_matched();
    report.latency_unmatched = merger.latency_unmatched();
    report.clock_offset_ns = merger.clock_offset_ns();
    report.clock_uncertainty_ns = merger.clock_uncertainty_ns();
    report.remote_black_boxes = std::move(black_boxes);
    if (config.trace) {
      obs::SetTracingEnabled(false);
      // Stitch: local spans keep pid 0; the client's spans arrive rebased
      // onto this clock (snapshot offset) as pid 1. Flow ids are
      // CausalFlowId(source, wire_seq) on BOTH ends, so an agent.send
      // span and the replica.apply span of the same message connect
      // across the pid boundary in the exported flow events.
      std::vector<obs::TraceEvent> events = obs::CollectTraceEvents();
      std::vector<obs::TraceEvent> remote = merger.RemoteTraceEvents();
      events.insert(events.end(), remote.begin(), remote.end());
      obs::ChromeTraceOptions trace_options;
      trace_options.process_names = {{0, "stream-server"},
                                     {1, "fleet-client"}};
      report.trace_json = obs::ExportChromeTrace(events, trace_options);
    }
    publish();  // Final merged state, covering the grace-drain arrivals.
    if (http != nullptr) {
      report.http_port = http->port();
      // Hold the endpoint open so post-run scrapes (the CI smoke, a
      // human) see the final merged state before the process exits.
      for (int i = 0; i < config.serve_seconds * 10; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
  }
  return report;
}

}  // namespace kc
