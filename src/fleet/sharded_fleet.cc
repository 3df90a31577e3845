#include "fleet/sharded_fleet.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.h"
#include "obs/trace.h"

namespace kc {

namespace {

size_t ResolveShards(const ShardedFleet::Config& config) {
  if (config.num_shards > 0) return config.num_shards;
  return std::max<size_t>(std::max<size_t>(config.threads, 1), 8);
}

}  // namespace

ShardedFleet::ShardedFleet() : ShardedFleet(Config()) {}

ShardedFleet::ShardedFleet(Config config)
    : config_(config),
      server_(ResolveShards(config)),
      shards_(ResolveShards(config)),
      pool_(std::max<size_t>(config.threads, 1)) {
  // Control downlink: route SET_BOUND pushes to the addressed source's
  // control channel. Driver thread only (PushBound between Steps).
  server_.SetControlSink([this](const Message& msg) -> Status {
    auto idx = static_cast<size_t>(msg.source_id);
    if (idx >= by_id_.size()) {
      return Status::NotFound("control message for unknown source");
    }
    return by_id_[idx]->control_channel->Send(msg);
  });
  if (config_.recovery.enabled) server_.SetRecovery(config_.recovery);
  if (!config_.simd) server_.SetSimdEnabled(false);
}

int32_t ShardedFleet::AddSource(std::unique_ptr<StreamGenerator> generator,
                                std::unique_ptr<Predictor> predictor,
                                double delta) {
  auto id = static_cast<int32_t>(by_id_.size());
  size_t shard_index = server_.ShardOf(id);
  auto slot = std::make_unique<SourceSlot>();
  slot->id = id;

  // Poolable Kalman sources swap onto the shard's SoA filter pool; the
  // replica clone below inherits the same pool set, so both ends of the
  // protocol live in the owning shard's slabs. Bit-identical to the
  // per-object predictor, so the substitution is invisible to the
  // protocol, reports, and determinism contract.
  if (config_.pooling) {
    if (auto pooled =
            MakePooledPredictor(*predictor, server_.shard_pools(shard_index))) {
      predictor = std::move(pooled);
    }
  }

  // Seeds are a pure function of (fleet seed, id), never of shard or
  // thread count.
  slot->generator = std::move(generator);
  slot->generator->Reset(SourceGeneratorSeed(config_.seed, id));

  Channel::Config channel_config = config_.channel;
  channel_config.seed = SourceUplinkSeed(config_.seed, id);
  slot->channel = config_.uplink_factory
                      ? config_.uplink_factory(id, channel_config)
                      : std::make_unique<Channel>(channel_config);
  // The uplink delivers straight into the owning shard's StreamServer, so
  // a shard worker's sends never cross shard boundaries.
  StreamServer* shard_server = &server_.shard(shard_index);
  const bool recovering = config_.recovery.enabled;
  slot->channel->SetReceiver([shard_server, recovering](const Message& msg) {
    Status s = shard_server->OnMessage(msg);
    // With recovery on, a CORRECTION outliving its lost INIT is rejected
    // here and healed later by re-INIT — not a programming error.
    assert(s.ok() || recovering);
    (void)s;
  });

  Status reg = server_.RegisterSource(id, predictor->Clone());
  assert(reg.ok());
  (void)reg;

  AgentConfig agent_config = config_.agent_base;
  agent_config.delta = delta;
  slot->agent = std::make_unique<SourceAgent>(id, std::move(predictor),
                                              agent_config,
                                              slot->channel.get());

  Channel::Config control_config = config_.control_channel;
  control_config.seed = SourceControlSeed(config_.seed, id);
  slot->control_channel = config_.control_factory
                              ? config_.control_factory(id, control_config)
                              : std::make_unique<Channel>(control_config);
  SourceAgent* agent = slot->agent.get();
  slot->control_channel->SetReceiver([agent](const Message& msg) {
    Status s = agent->OnControl(msg);
    assert(s.ok());
    (void)s;
  });

  if (server_.metrics_enabled()) BindSlotMetrics(slot.get(), shard_index);
  BindSlotObservability(slot.get(), shard_index);
  BindSlotAudit(slot.get(), shard_index);

  by_id_.push_back(slot.get());
  shards_[shard_index].sources.push_back(std::move(slot));
  return id;
}

void ShardedFleet::BindSlotMetrics(SourceSlot* slot, size_t shard_index) {
  obs::MetricRegistry* arena = server_.shard_metrics(shard_index);
  slot->channel->BindMetrics(arena);
  slot->control_channel->BindMetrics(arena);
  slot->agent->BindMetrics(arena);
}

void ShardedFleet::BindSlotObservability(SourceSlot* slot,
                                         size_t shard_index) {
  obs::FlightRecorder* recorder = server_.shard_recorder(shard_index);
  obs::HealthMonitor* health = server_.shard_health(shard_index);
  if (recorder == nullptr && health == nullptr) return;
  // Agent and replica share the same per-source ring and watchdog entry:
  // the source lives on exactly one shard, and that shard's worker is the
  // single writer for both ends within a tick.
  slot->agent->BindObservability(
      recorder == nullptr ? nullptr : recorder->ForSource(slot->id),
      health == nullptr
          ? nullptr
          : health->ForSource(slot->id, slot->agent->predictor().dims()));
}

void ShardedFleet::EnableFlightRecorder(size_t capacity_per_source) {
  if (server_.flight_recorder_enabled()) return;
  server_.EnableFlightRecorder(capacity_per_source);
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (auto& slot : shards_[s].sources) BindSlotObservability(slot.get(), s);
  }
}

void ShardedFleet::EnableHealth(const obs::HealthConfig& config) {
  if (server_.health_enabled()) return;
  server_.EnableHealth(config);
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (auto& slot : shards_[s].sources) BindSlotObservability(slot.get(), s);
    // Audit enabled first: its per-source entries resolved against an
    // absent watchdog, so re-bind now that the entries above exist.
    if (server_.audit_enabled()) {
      server_.shard_audit(s)->BindHealth(server_.shard_health(s));
    }
  }
}

void ShardedFleet::EnableAudit(const obs::AuditConfig& config) {
  if (server_.audit_enabled()) return;
  server_.EnableAudit(config);
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (auto& slot : shards_[s].sources) BindSlotAudit(slot.get(), s);
  }
}

void ShardedFleet::BindSlotAudit(SourceSlot* slot, size_t shard_index) {
  obs::PrecisionAuditor* auditor = server_.shard_audit(shard_index);
  if (auditor != nullptr) slot->audit = auditor->ForSource(slot->id);
}

void ShardedFleet::EnableTimeseries(int64_t every_n_ticks,
                                    obs::TimeSeriesConfig config) {
  if (timeseries_ != nullptr) return;
  EnableMetrics();
  timeseries_ = std::make_unique<obs::TimeSeriesStore>(config);
  timeseries_->BindMetrics(server_.driver_metrics());
  timeseries_every_ = std::max<int64_t>(every_n_ticks, 1);
  if (http_ != nullptr) http_->SetTimeseriesSource(timeseries_.get());
}

Status ShardedFleet::EnableHttpTelemetry(int port,
                                         int64_t publish_every_n_ticks) {
  if (http_ != nullptr) return Status::Ok();
  EnableMetrics();
  obs::TelemetryHttpServer::Config http_config;
  http_config.port = port;
  http_ = std::make_unique<obs::TelemetryHttpServer>(http_config);
  Status s = http_->Start();
  if (!s.ok()) {
    http_.reset();
    return s;
  }
  publish_every_ = std::max<int64_t>(publish_every_n_ticks, 1);
  // /timeseries renders from the live store per request (with ?prefix=
  // support); the store is self-locking and outlives the server (member
  // order: timeseries_ before http_, so http_ is destroyed first).
  if (timeseries_ != nullptr) http_->SetTimeseriesSource(timeseries_.get());
  // Scrapes before the first publish see the startup state, not 404s.
  PublishTelemetry();
  return Status::Ok();
}

void ShardedFleet::PublishTelemetry() {
  if (http_ == nullptr) return;
  obs::MetricRegistry merged;
  server_.MergeMetricsInto(&merged);
  if (telemetry_merger_ != nullptr) {
    // One scrape covers both "processes": the merger's namespaced remote
    // rows join the local ones, exactly as on a split deployment's
    // server.
    http_->PublishMetrics(telemetry_merger_->MergedRows(merged.Rows()));
  } else {
    http_->PublishMetrics(merged.Rows());
  }
  std::string body = StrFormat("ticks=%lld sources=%lld\n",
                               static_cast<long long>(ticks_),
                               static_cast<long long>(by_id_.size()));
  bool healthy = true;
  if (server_.audit_enabled()) {
    body += server_.AuditSummaryLine();
    healthy = server_.AuditExhaustedSources() == 0;
    // The structured doc enables ?prefix=source.<id> / ?prefix=query.
    // scoped /audit scrapes.
    http_->PublishAuditDoc(server_.AuditReportDoc());
  }
  http_->PublishHealthz(healthy, std::move(body));
}

void ShardedFleet::EnableTelemetryPlane(int64_t every_n_ticks) {
  if (telemetry_merger_ != nullptr) return;
  EnableMetrics();
  telemetry_merger_ =
      std::make_unique<obs::RemoteTelemetryMerger>(obs::RemoteTelemetryMerger::Options());
  telemetry_merger_->BindMetrics(server_.driver_metrics());
  telemetry_snapshots_ =
      server_.driver_metrics()->GetCounter("kc.telemetry.snapshots");
  telemetry_snapshot_bytes_ = server_.driver_metrics()->GetCounter(
      "kc.telemetry.snapshot_bytes", /*wall_clock=*/true);
  telemetry_every_ = std::max<int64_t>(every_n_ticks, 1);
}

void ShardedFleet::EnableMetrics() {
  if (server_.metrics_enabled()) return;
  server_.EnableMetrics();
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (auto& slot : shards_[s].sources) BindSlotMetrics(slot.get(), s);
  }
  step_latency_us_ = server_.driver_metrics()->GetHistogram(
      "kc.fleet.step_latency_us", obs::Buckets::Exponential(1.0, 2.0, 16),
      /*wall_clock=*/true);
}

void ShardedFleet::StepShard(size_t index) {
  KC_TRACE_SCOPE("fleet.step_shard");
  server_.TickShard(index, /*run_pool_sweep=*/false);
  Shard& shard = shards_[index];
  for (auto& slot : shard.sources) {
    slot->channel->AdvanceTick();
    // Control downlink advances with the uplink so delayed SET_BOUND /
    // RESYNC_REQUEST traffic reaches the agent before this tick's Offer.
    slot->control_channel->AdvanceTick();
    slot->last_sample = slot->generator->Next();
    Status s = slot->agent->Offer(slot->last_sample.measured);
    if (!s.ok() && shard.status.ok()) shard.status = s;
  }
  // Audit pass: after Offer, a zero-latency channel has delivered this
  // tick's traffic, so replica and agent are in lockstep and the paper's
  // guarantee must hold exactly. The shard's tick is the audit clock
  // (identical across shards), so every shard samples the same ticks.
  obs::PrecisionAuditor* auditor = server_.shard_audit(index);
  if (auditor != nullptr) {
    int64_t tick = server_.shard(index).ticks();
    if (auditor->ShouldSample(tick)) AuditShard(index, tick);
  }
}

void ShardedFleet::AuditShard(size_t index, int64_t tick) {
  const StreamServer& shard_server = server_.shard(index);
  for (auto& slot : shards_[index].sources) {
    const ServerReplica* replica = shard_server.replica(slot->id);
    if (replica == nullptr || !replica->initialized() ||
        !slot->agent->initialized()) {
      continue;
    }
    // L-inf distance between the replica's cached answer and the contract
    // target the agent is suppressing against — the exact quantity the
    // protocol bounds.
    Vector predicted = replica->Value();
    Vector target = slot->agent->ContractTarget();
    double err = 0.0;
    size_t dims = std::min(predicted.size(), target.size());
    for (size_t d = 0; d < dims; ++d) {
      err = std::max(err, std::abs(predicted[d] - target[d]));
    }
    slot->audit->Sample(tick, err, replica->bound(), replica->TicksSinceHeard(),
                        replica->desynced());
  }
}

Status ShardedFleet::Step() {
  KC_TRACE_SCOPE("fleet.step");
  int64_t t0 = step_latency_us_ != nullptr ? obs::TraceNowNs() : 0;
  // Phase 1: the batched filter sweep, every shard's pools flattened into
  // one block list and chunked across the worker pool — one big shard no
  // longer serializes its million slots on a single worker. Phase 2 (the
  // shard fan-out below) then runs with run_pool_sweep=false. The split
  // is state-identical to sweeping inside TickShard: a shard's tick only
  // reads and writes its own pools, and slots are mutually independent.
  server_.SweepPools(&pool_);
  pool_.ParallelFor(shards_.size(), [this](size_t s) { StepShard(s); });
  // Barrier passed: every shard has ticked once and drained its messages;
  // the merged view is consistent.
  ++ticks_;
  if (step_latency_us_ != nullptr) {
    step_latency_us_->Record(static_cast<double>(obs::TraceNowNs() - t0) *
                             1e-3);
  }
  for (const Shard& shard : shards_) {
    if (!shard.status.ok()) return shard.status;
  }
  if (telemetry_every_ > 0 && ticks_ % telemetry_every_ == 0) {
    // Self-merge round trip: encode the merged registry through the
    // snapshot codec and absorb it, the exact path a split deployment's
    // server runs on its client's snapshots. Rows already under the
    // merger's namespace are excluded — re-snapshotting them would grow
    // "kc.remote.client.remote.client.*" names without bound.
    obs::MetricRegistry merged;
    server_.MergeMetricsInto(&merged);
    obs::TelemetrySnapshot snapshot;
    snapshot.tick = ticks_;
    for (obs::MetricRow& row : merged.Rows()) {
      if (row.name.compare(0, 10, "kc.remote.") == 0) continue;
      if (row.name.compare(0, 13, "kc.telemetry.") == 0) continue;
      snapshot.rows.push_back(std::move(row));
    }
    std::vector<uint8_t> encoded;
    obs::EncodeSnapshot(snapshot, &encoded);
    telemetry_snapshots_->Inc();
    telemetry_snapshot_bytes_->Inc(static_cast<int64_t>(encoded.size()));
    obs::TelemetrySnapshot decoded;
    KC_RETURN_IF_ERROR(
        obs::DecodeSnapshot(encoded.data(), encoded.size(), &decoded));
    telemetry_merger_->Absorb(decoded);
  }
  if (timeseries_every_ > 0 && ticks_ % timeseries_every_ == 0) {
    // Same post-barrier merge discipline: each capture snapshots the
    // merged registry, so the rings are deterministic across threads.
    obs::MetricRegistry merged;
    server_.MergeMetricsInto(&merged);
    timeseries_->Capture(merged, ticks_);
  }
  if (publish_every_ > 0 && ticks_ % publish_every_ == 0) PublishTelemetry();
  return Status::Ok();
}

Status ShardedFleet::Run(size_t ticks) {
  for (size_t i = 0; i < ticks; ++i) {
    KC_RETURN_IF_ERROR(Step());
  }
  return Status::Ok();
}

int64_t ShardedFleet::MessagesOf(int32_t id) const {
  const SourceSlot* slot = by_id_[id];
  return slot->channel->stats().messages_sent -
         slot->agent->stats().heartbeats;
}

int64_t ShardedFleet::TotalMessages() const {
  int64_t total = 0;
  for (const SourceSlot* slot : by_id_) {
    total += slot->channel->stats().messages_sent;
  }
  return total;
}

int64_t ShardedFleet::TotalBytes() const {
  int64_t total = 0;
  for (const SourceSlot* slot : by_id_) {
    total += slot->channel->stats().bytes_sent;
  }
  return total;
}

int64_t ShardedFleet::TotalControlMessages() const {
  int64_t total = 0;
  for (const SourceSlot* slot : by_id_) {
    total += slot->control_channel->stats().messages_sent;
  }
  return total;
}

NetworkStats ShardedFleet::TotalNetworkStats() const {
  NetworkStats merged;
  // Merge shard by shard, id order within each shard: deterministic, and
  // int64 sums are order-independent anyway.
  for (const Shard& shard : shards_) {
    for (const auto& slot : shard.sources) {
      merged.Merge(slot->channel->stats());
    }
  }
  return merged;
}

}  // namespace kc
