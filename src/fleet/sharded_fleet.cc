#include "fleet/sharded_fleet.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/strings.h"
#include "fleet/pool.h"
#include "obs/trace.h"
#include "server/simulation.h"

namespace kc {

namespace {

size_t ResolveShards(const ShardedFleet::Config& config) {
  if (config.num_shards > 0) return config.num_shards;
  return std::max<size_t>(std::max<size_t>(config.threads, 1), 8);
}

}  // namespace

SourceFleet::SourceFleet(Config config, size_t num_shards)
    : config_(std::move(config)), shards_(num_shards) {}

void SourceFleet::AdoptLinks(size_t shard, std::unique_ptr<Channel> uplink,
                             std::unique_ptr<Channel> control) {
  Shard& s = shards_[shard];
  assert(s.sources.empty() && !config_.uplink_factory &&
         !config_.control_factory);
  control->SetReceiver([this](const Message& msg) { OnControl(msg); });
  s.uplinks.push_back(std::move(uplink));
  s.controls.push_back(std::move(control));
}

int32_t SourceFleet::AddSource(size_t shard,
                               std::unique_ptr<StreamGenerator> generator,
                               std::unique_ptr<Predictor> predictor,
                               double delta, const ShardObs& obs,
                               Channel::Receiver uplink_receiver) {
  auto id = static_cast<int32_t>(by_id_.size());
  Shard& s = shards_[shard];
  auto source = std::make_unique<Source>();
  source->id = id;

  // Seeds are a pure function of (fleet seed, id), never of shard or
  // thread count.
  source->generator = std::move(generator);
  source->generator->Reset(SourceGeneratorSeed(config_.seed, id));

  Channel* uplink = AttachLink(&Shard::uplinks, config_.uplink_factory,
                               config_.channel,
                               SourceUplinkSeed(config_.seed, id), id, s,
                               obs.metrics, std::move(uplink_receiver));
  AgentConfig agent_config = config_.agent_base;
  agent_config.delta = delta;
  source->agent = std::make_unique<SourceAgent>(id, std::move(predictor),
                                                agent_config, uplink);
  source->control = AttachLink(
      &Shard::controls, config_.control_factory, config_.control_channel,
      SourceControlSeed(config_.seed, id), id, s, obs.metrics,
      [this](const Message& msg) { OnControl(msg); });

  if (obs.metrics != nullptr) source->agent->BindMetrics(obs.metrics);
  if (obs.recorder != nullptr || obs.health != nullptr) {
    // In-process the agent shares its replica's per-source ring and
    // watchdog entry: the source lives on exactly one shard, and that
    // shard's worker is the single writer for both ends within a tick.
    source->agent->BindObservability(
        obs.recorder == nullptr ? nullptr : obs.recorder->ForSource(id),
        obs.health == nullptr
            ? nullptr
            : obs.health->ForSource(id, source->agent->predictor().dims()));
  }
  // The caller registers the replica first, so the audit entry resolves
  // against its watchdog entry.
  if (obs.audit != nullptr) source->audit = obs.audit->ForSource(id);

  by_id_.push_back(source.get());
  s.sources.push_back(std::move(source));
  return id;
}

Channel* SourceFleet::AttachLink(Links Shard::*links,
                                 const Config::ChannelFactory& factory,
                                 const Channel::Config& config, uint64_t seed,
                                 int32_t id, Shard& shard,
                                 obs::MetricRegistry* arena,
                                 Channel::Receiver receiver) {
  Links& owned = shard.*links;
  if (factory || owned.empty()) {
    Channel::Config own = config;
    own.seed = seed;
    owned.push_back(factory ? factory(id, own)
                            : std::make_unique<Channel>(config));
    owned.back()->SetReceiver(std::move(receiver));
    if (arena != nullptr) owned.back()->BindMetrics(arena);
  }
  // A factory-made link is the source's own, drawing from its own seed.
  if (!factory) owned[0]->AddSource(id, seed);
  return owned.back().get();
}

void SourceFleet::OnControl(const Message& msg) {
  // Not ours: dropped. A refused message is counted in the agent's
  // control_rejected.
  auto idx = static_cast<size_t>(msg.source_id);
  if (idx < by_id_.size()) by_id_[idx]->agent->OnControl(msg);
}

Status SourceFleet::SendControl(const Message& msg) {
  auto idx = static_cast<size_t>(msg.source_id);
  if (idx >= by_id_.size()) {
    return Status::NotFound("control message for unknown source");
  }
  return by_id_[idx]->control->Send(msg);
}

void SourceFleet::StepShard(size_t index) {
  Shard& shard = shards_[index];
  for (auto& link : shard.uplinks) link->AdvanceTick();
  for (auto& link : shard.controls) link->AdvanceTick();
  for (auto& source : shard.sources) {
    source->last_sample = source->generator->Next();
    Status s = source->agent->Offer(source->last_sample.measured);
    if (!s.ok() && shard.status.ok()) shard.status = s;
  }
}

Status SourceFleet::status() const {
  for (const Shard& shard : shards_) {
    if (!shard.status.ok()) return shard.status;
  }
  return Status::Ok();
}

NetworkStats SourceFleet::Merged(Links Shard::*links) const {
  NetworkStats merged;
  // Shard order, link order within a shard: deterministic, and int64
  // sums are order-independent anyway.
  for (const Shard& shard : shards_) {
    for (const auto& link : shard.*links) merged.Merge(link->stats());
  }
  return merged;
}

AgentStats SourceFleet::TotalAgentStats() const {
  AgentStats total;
  for (const Source* source : by_id_) {
    const AgentStats& s = source->agent->stats();
    total.ticks += s.ticks;
    total.corrections += s.corrections;
    total.full_syncs += s.full_syncs;
    total.heartbeats += s.heartbeats;
    total.suppressed += s.suppressed;
    total.resyncs_served += s.resyncs_served;
    total.control_rejected += s.control_rejected;
  }
  return total;
}

ShardedFleet::ShardedFleet() : ShardedFleet(Config()) {}

ShardedFleet::ShardedFleet(Config config)
    : config_(config),
      server_(ResolveShards(config)),
      source_(config, ResolveShards(config)),
      pool_(std::max<size_t>(config.threads, 1)) {
  // Control downlink: route SET_BOUND pushes (driver thread, between
  // Steps) and replica RESYNC_REQUESTs (the owning shard's worker) to the
  // addressed source's control link.
  server_.SetControlSink(
      [this](const Message& msg) { return source_.SendControl(msg); });
  if (config_.recovery.enabled) server_.SetRecovery(config_.recovery);
}

int32_t ShardedFleet::AddSource(std::unique_ptr<StreamGenerator> generator,
                                std::unique_ptr<Predictor> predictor,
                                double delta) {
  auto id = static_cast<int32_t>(source_.num_sources());
  size_t shard_index = server_.ShardOf(id);

  // Kalman sources move onto the shard's SoA filter pools; the replica
  // clone below inherits the same pool set, so both ends of the protocol
  // live in the owning shard's slabs. Bit-identical to a private pool,
  // so the move is invisible to the protocol, reports, and determinism
  // contract.
  if (config_.pooling) {
    if (auto pooled =
            MakePooledPredictor(*predictor, server_.shard_pools(shard_index))) {
      predictor = std::move(pooled);
    }
  }

  Status reg = server_.RegisterSource(id, predictor->Clone());
  assert(reg.ok());
  (void)reg;

  // Both ends bind to the same shard bundle, and the uplink delivers
  // straight into the owning shard's StreamServer, so a shard worker's
  // sends never cross shard boundaries.
  SourceFleet::ShardObs obs{
      server_.shard_metrics(shard_index), server_.shard_recorder(shard_index),
      server_.shard_health(shard_index), server_.shard_audit(shard_index)};
  StreamServer* shard_server = &server_.shard(shard_index);
  return source_.AddSource(
      shard_index, std::move(generator), std::move(predictor), delta, obs,
      [shard_server](const Message& msg) {
        // A lossy link can lose the INIT, so the replica legitimately
        // rejects the CORRECTIONs that outlive it (healed by re-INIT when
        // recovery is on) — not a programming error.
        (void)shard_server->OnMessage(msg);
      });
}

Status ShardedFleet::EnableMetrics() {
  KC_RETURN_IF_ERROR(server_.EnableMetrics());
  step_latency_us_ = server_.driver_metrics()->GetHistogram(
      "kc.fleet.step_latency_us", obs::Buckets::Exponential(1.0, 2.0, 16),
      /*wall_clock=*/true);
  return Status::Ok();
}

Status ShardedFleet::EnableTimeseries(int64_t every_n_ticks,
                                      obs::TimeSeriesConfig config) {
  KC_RETURN_IF_ERROR(EnableMetrics());
  if (timeseries_ != nullptr) return Status::Ok();
  timeseries_ = std::make_unique<obs::TimeSeriesStore>(config);
  timeseries_->BindMetrics(server_.driver_metrics());
  timeseries_every_ = std::max<int64_t>(every_n_ticks, 1);
  if (http_ != nullptr) http_->SetTimeseriesSource(timeseries_.get());
  return Status::Ok();
}

Status ShardedFleet::EnableHttpTelemetry(int port,
                                         int64_t publish_every_n_ticks) {
  KC_RETURN_IF_ERROR(EnableMetrics());
  if (http_ != nullptr) return Status::Ok();
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
  obs::MetricRegistry merged;
  server_.MergeMetricsInto(&merged);
  PublishTelemetry(merged);
  return Status::Ok();
}

void ShardedFleet::PublishTelemetry(const obs::MetricRegistry& merged) {
  http_->PublishMetrics(merged.Rows());
  std::string body = StrFormat("ticks=%lld sources=%lld\n",
                               static_cast<long long>(ticks_),
                               static_cast<long long>(num_sources()));
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

void ShardedFleet::StepShard(size_t index) {
  KC_TRACE_SCOPE("fleet.step_shard");
  server_.TickShard(index, /*run_pool_sweep=*/false);
  source_.StepShard(index);
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
  for (const auto& source : source_.sources(index)) {
    const ServerReplica* replica = shard_server.replica(source->id);
    if (replica == nullptr || !replica->initialized() ||
        !source->agent->initialized()) {
      continue;
    }
    // L-inf distance between the replica's cached answer and the contract
    // target the agent is suppressing against — the exact quantity the
    // protocol bounds.
    double err =
        MaxAbsDiff(replica->Value(), source->agent->ContractTarget());
    source->audit->Sample(tick, err, replica->bound(),
                          replica->TicksSinceHeard(), replica->desynced());
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
  pool_.ParallelFor(num_shards(), [this](size_t s) { StepShard(s); });
  // Barrier passed: every shard has ticked once and drained its messages;
  // the merged view is consistent.
  ++ticks_;
  if (step_latency_us_ != nullptr) {
    step_latency_us_->Record(static_cast<double>(obs::TraceNowNs() - t0) *
                             1e-3);
  }
  KC_RETURN_IF_ERROR(source_.status());
  const bool capture =
      timeseries_every_ > 0 && ticks_ % timeseries_every_ == 0;
  const bool publish = publish_every_ > 0 && ticks_ % publish_every_ == 0;
  if (capture || publish) {
    // One post-barrier merge feeds both consumers, so a tick's capture and
    // its scrape see the same view, deterministic across threads. The
    // scrape's kc.ts.* rows therefore predate this tick's capture.
    obs::MetricRegistry merged;
    server_.MergeMetricsInto(&merged);
    if (capture) timeseries_->Capture(merged, ticks_);
    if (publish) PublishTelemetry(merged);
  }
  return Status::Ok();
}

Status ShardedFleet::Run(size_t ticks) {
  for (size_t i = 0; i < ticks; ++i) {
    KC_RETURN_IF_ERROR(Step());
  }
  return Status::Ok();
}

}  // namespace kc
