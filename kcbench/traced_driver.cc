#include "traced_driver.h"

#include <algorithm>
#include <cmath>

#include "fleet/pool.h"
#include "server/simulation.h"

namespace kcbench {

namespace {

/// Messages kept per shard for the codec timing.
constexpr size_t kCapturePerShard = 256;

}  // namespace

double AnswerError(const kc::ServerReplica& replica,
                   const kc::SourceAgent& agent) {
  kc::Vector predicted = replica.Value();
  kc::Vector target = agent.ContractTarget();
  double err = 0.0;
  for (size_t d = 0; d < std::min(predicted.size(), target.size()); ++d) {
    err = std::max(err, std::abs(predicted[d] - target[d]));
  }
  return err;
}

PhaseDriver::PhaseDriver(const FleetInputs& inputs)
    : server_(inputs.config.num_shards),
      shards_(inputs.config.num_shards),
      pool_(std::max<size_t>(inputs.config.threads, 1)) {
  const kc::ShardedFleet::Config& config = inputs.config;
  if (inputs.metrics) server_.EnableMetrics();
  if (inputs.audit_every > 0) {
    kc::obs::AuditConfig audit;
    audit.sample_every = inputs.audit_every;
    server_.EnableAudit(audit);
  }
  server_.SetControlSink([this](const kc::Message& msg) -> kc::Status {
    return slots_[static_cast<size_t>(msg.source_id)]->control->Send(msg);
  });
  for (size_t i = 0; i < inputs.generators.size(); ++i) {
    // The same wiring, seeds and pooling ShardedFleet::AddSource applies.
    auto id = static_cast<int32_t>(i);
    size_t s = server_.ShardOf(id);
    Shard& shard = shards_[s];
    auto slot = std::make_unique<Slot>();
    slot->id = id;
    std::unique_ptr<kc::Predictor> predictor = inputs.predictor->Clone();
    if (config.pooling) {
      if (auto pooled =
              kc::MakePooledPredictor(*predictor, server_.shard_pools(s))) {
        predictor = std::move(pooled);
        ++pooled_;
      }
    }
    slot->generator = inputs.generators[i]->Clone();
    slot->generator->Reset(kc::SourceGeneratorSeed(config.seed, id));

    kc::Channel::Config uplink = config.channel;
    uplink.seed = kc::SourceUplinkSeed(config.seed, id);
    slot->channel = std::make_unique<kc::Channel>(uplink);
    kc::StreamServer* shard_server = &server_.shard(s);
    // Benchmark-owned receiver: times each apply. It runs nested inside
    // Offer (zero-latency delivery), and Offer's self time excludes it.
    slot->channel->SetReceiver([shard_server, &shard](const kc::Message& msg) {
      int64_t t0 = kc::obs::TraceNowNs();
      kc::Status st = shard_server->OnMessage(msg);
      shard.totals.apply_ns += kc::obs::TraceNowNs() - t0;
      ++shard.totals.applied;
      if (!st.ok()) ++shard.totals.apply_rejected;
      if (shard.captured.size() < kCapturePerShard) {
        shard.captured.push_back(msg);
      }
    });
    kc::Status reg = server_.RegisterSource(id, predictor->Clone());
    if (!reg.ok()) shard.status = reg;

    kc::AgentConfig agent_config = config.agent_base;
    agent_config.delta = inputs.deltas[i];
    slot->agent = std::make_unique<kc::SourceAgent>(
        id, std::move(predictor), agent_config, slot->channel.get());

    kc::Channel::Config control = config.control_channel;
    control.seed = kc::SourceControlSeed(config.seed, id);
    slot->control = std::make_unique<kc::Channel>(control);
    kc::SourceAgent* agent = slot->agent.get();
    slot->control->SetReceiver([agent, &shard](const kc::Message& msg) {
      kc::Status st = agent->OnControl(msg);
      if (!st.ok() && shard.status.ok()) shard.status = st;
    });

    if (inputs.metrics) {
      kc::obs::MetricRegistry* arena = server_.shard_metrics(s);
      slot->channel->BindMetrics(arena);
      slot->control->BindMetrics(arena);
      slot->agent->BindMetrics(arena);
    }
    if (kc::obs::PrecisionAuditor* auditor = server_.shard_audit(s)) {
      slot->audit = auditor->ForSource(id);
    }
    shard.slots.push_back(slot.get());
    slots_.push_back(std::move(slot));
  }
  for (const QueryText& q : inputs.queries) {
    kc::Status st = server_.AddQuery(q.name, q.spec);
    if (!st.ok() && shards_[0].status.ok()) shards_[0].status = st;
    query_members_[q.name] = static_cast<int64_t>(q.spec.sources.size());
  }
}

void PhaseDriver::StepShard(size_t index, bool keep_spans) {
  Shard& shard = shards_[index];
  PhaseTotals& t = shard.totals;
  const auto track = static_cast<uint32_t>(index + 1);
  int64_t marks[6];
  marks[0] = kc::obs::TraceNowNs();

  server_.TickShard(index, /*run_pool_sweep=*/false);
  marks[1] = kc::obs::TraceNowNs();

  for (Slot* slot : shard.slots) {
    slot->channel->AdvanceTick();
    slot->control->AdvanceTick();
  }
  marks[2] = kc::obs::TraceNowNs();

  for (Slot* slot : shard.slots) slot->sample = slot->generator->Next();
  marks[3] = kc::obs::TraceNowNs();

  const int64_t apply_before = t.apply_ns;
  for (Slot* slot : shard.slots) {
    kc::Status st = slot->agent->Offer(slot->sample.measured);
    if (!st.ok() && shard.status.ok()) shard.status = st;
  }
  marks[4] = kc::obs::TraceNowNs();

  // The fleet's audit pass: replica answer against the agent's contract
  // target, on the ticks the shard auditor samples.
  kc::obs::PrecisionAuditor* auditor = server_.shard_audit(index);
  const kc::StreamServer& shard_server = server_.shard(index);
  int64_t tick = shard_server.ticks();
  if (auditor != nullptr && auditor->ShouldSample(tick)) {
    for (Slot* slot : shard.slots) {
      const kc::ServerReplica* replica = shard_server.replica(slot->id);
      if (replica == nullptr || !replica->initialized() ||
          !slot->agent->initialized()) {
        continue;
      }
      double err = AnswerError(*replica, *slot->agent);
      slot->audit->Sample(tick, err, replica->bound(),
                          replica->TicksSinceHeard(), replica->desynced());
      ++t.audit_samples;
      if (err <= replica->bound()) ++t.audit_contained;
    }
  }
  marks[5] = kc::obs::TraceNowNs();

  const int64_t applied_ns = t.apply_ns - apply_before;
  t.tick_ns += marks[1] - marks[0];
  t.advance_ns += marks[2] - marks[1];
  t.next_ns += marks[3] - marks[2];
  t.offer_ns += marks[4] - marks[3] - applied_ns;
  t.audit_ns += marks[5] - marks[4];
  if (keep_spans) {
    static constexpr const char* kNames[5] = {
        "server.tick", "net.advance", "streams.next", "suppression.offer",
        "obs.audit"};
    for (int p = 0; p < 5; ++p) {
      kc::obs::TraceEvent e;
      e.name = kNames[p];
      e.start_ns = marks[p];
      e.duration_ns = marks[p + 1] - marks[p];
      e.thread_index = track;
      shard.spans.push_back(e);
    }
  }
  // Worker wall runs to here, so span bookkeeping shows up as the gap
  // between the phase sum and the wall.
  shard.last_wall_ns = kc::obs::TraceNowNs() - marks[0];
  t.shard_wall_ns += shard.last_wall_ns;
}

kc::Status PhaseDriver::Step(bool keep_spans) {
  int64_t t0 = kc::obs::TraceNowNs();
  server_.SweepPools(&pool_);
  int64_t t1 = kc::obs::TraceNowNs();
  pool_.ParallelFor(shards_.size(),
                    [this, keep_spans](size_t s) { StepShard(s, keep_spans); });
  int64_t t2 = kc::obs::TraceNowNs();
  std::vector<kc::QueryResult> results = server_.EvaluateDue();
  int64_t t3 = kc::obs::TraceNowNs();

  driver_.sweep_ns += t1 - t0;
  driver_.query_ns += t3 - t2;
  for (const kc::QueryResult& r : results) {
    auto it = query_members_.find(r.name);
    if (it != query_members_.end()) driver_.query_members += it->second;
  }
  tick_ms_.push_back(static_cast<double>(t3 - t0) * 1e-6);
  double max_wall = 0.0;
  double sum_wall = 0.0;
  for (const Shard& shard : shards_) {
    auto wall = static_cast<double>(shard.last_wall_ns);
    max_wall = std::max(max_wall, wall);
    sum_wall += wall;
  }
  imbalance_.push_back(
      sum_wall > 0.0 ? max_wall * static_cast<double>(shards_.size()) / sum_wall
                     : 1.0);
  if (keep_spans) {
    kc::obs::TraceEvent sweep;
    sweep.name = "fleet.sweep";
    sweep.start_ns = t0;
    sweep.duration_ns = t1 - t0;
    spans_.push_back(sweep);
    kc::obs::TraceEvent query;
    query.name = "server.query";
    query.start_ns = t2;
    query.duration_ns = t3 - t2;
    spans_.push_back(query);
  }
  for (const Shard& shard : shards_) {
    if (!shard.status.ok()) return shard.status;
  }
  return kc::Status::Ok();
}

PhaseTotals PhaseDriver::Totals() const {
  PhaseTotals sum = driver_;
  for (const Shard& shard : shards_) {
    const PhaseTotals& t = shard.totals;
    sum.tick_ns += t.tick_ns;
    sum.advance_ns += t.advance_ns;
    sum.next_ns += t.next_ns;
    sum.offer_ns += t.offer_ns;
    sum.apply_ns += t.apply_ns;
    sum.audit_ns += t.audit_ns;
    sum.shard_wall_ns += t.shard_wall_ns;
    sum.applied += t.applied;
    sum.apply_rejected += t.apply_rejected;
    sum.audit_samples += t.audit_samples;
    sum.audit_contained += t.audit_contained;
  }
  return sum;
}

std::vector<double> PhaseDriver::ShardPhaseSumRatios() const {
  std::vector<double> ratios;
  for (const Shard& shard : shards_) {
    const PhaseTotals& t = shard.totals;
    ratios.push_back(t.shard_wall_ns > 0
                         ? static_cast<double>(t.ShardPhaseNs()) /
                               static_cast<double>(t.shard_wall_ns)
                         : 0.0);
  }
  return ratios;
}

int64_t PhaseDriver::TotalMessages() const {
  int64_t total = 0;
  for (const auto& slot : slots_) total += slot->channel->stats().messages_sent;
  return total;
}

int64_t PhaseDriver::TotalBytes() const {
  int64_t total = 0;
  for (const auto& slot : slots_) total += slot->channel->stats().bytes_sent;
  return total;
}

int64_t PhaseDriver::ControlBytes() const {
  int64_t total = 0;
  for (const auto& slot : slots_) total += slot->control->stats().bytes_sent;
  return total;
}

std::vector<kc::Message> PhaseDriver::CapturedMessages() const {
  std::vector<kc::Message> all;
  for (const Shard& shard : shards_) {
    all.insert(all.end(), shard.captured.begin(), shard.captured.end());
  }
  return all;
}

std::vector<kc::obs::TraceEvent> PhaseDriver::TakeSpans() {
  std::vector<kc::obs::TraceEvent> all = std::move(spans_);
  for (Shard& shard : shards_) {
    all.insert(all.end(), shard.spans.begin(), shard.spans.end());
    shard.spans.clear();
  }
  spans_.clear();
  return all;
}

}  // namespace kcbench
