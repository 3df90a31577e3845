#include "server/server.h"

#include "common/strings.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace kc {

void StreamServer::BindMetrics(obs::MetricRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    metrics_ = Metrics();
  } else {
    metrics_.ticks = registry->GetCounter("kc.server.ticks");
    metrics_.messages_in = registry->GetCounter("kc.server.messages_in");
    metrics_.control_out = registry->GetCounter("kc.server.control_out");
    metrics_.queries_served = registry->GetCounter("kc.server.queries_served");
    metrics_.queries_failed = registry->GetCounter("kc.server.queries_failed");
    metrics_.queries_stale = registry->GetCounter("kc.server.queries_stale");
    metrics_.sources = registry->GetGauge("kc.server.sources");
    // Tick latency is run-dependent by nature; flag it wall-clock so
    // deterministic exports can exclude it. 1us..32ms in octaves.
    metrics_.tick_latency_us = registry->GetHistogram(
        "kc.server.tick_latency_us", obs::Buckets::Exponential(1.0, 2.0, 16),
        /*wall_clock=*/true);
    // Precision bounds span tight contracts to wide budget-relaxed ones.
    metrics_.bound_width = registry->GetHistogram(
        "kc.server.bound_width", obs::Buckets::Exponential(0.01, 4.0, 12));
    metrics_.sources->Set(static_cast<double>(replicas_.size()));
  }
  for (auto& [id, replica] : replicas_) replica->BindMetrics(registry);
}

void StreamServer::RecordQueryOutcome(bool ok, bool stale) const {
  if (metrics_.queries_served == nullptr) return;
  if (!ok) {
    metrics_.queries_failed->Inc();
    return;
  }
  metrics_.queries_served->Inc();
  if (stale) metrics_.queries_stale->Inc();
}

void StreamServer::RecordQueryAudit(const std::string& name,
                                    const QueryResult* result) const {
  if (auditor_ == nullptr) return;
  if (result == nullptr) {
    auditor_->OnQuery(name, /*ok=*/false, false, false, false);
    return;
  }
  auditor_->OnQuery(name, /*ok=*/true, result->stale, result->degraded,
                    result->health != obs::HealthState::kOk);
}

Status StreamServer::RegisterSource(int32_t source_id,
                                    std::unique_ptr<Predictor> predictor) {
  if (predictor == nullptr) {
    return Status::InvalidArgument("null predictor");
  }
  if (replicas_.count(source_id) > 0) {
    return Status::AlreadyExists(StrFormat("source %d already registered",
                                           source_id));
  }
  auto replica = std::make_unique<ServerReplica>(source_id, std::move(predictor));
  if (registry_ != nullptr) replica->BindMetrics(registry_);
  if (recovery_.enabled) replica->SetRecovery(recovery_);
  replica->SetStalenessLimit(staleness_limit_);
  InstallControlSender(replica.get());
  BindReplicaObservability(replica.get());
  replicas_[source_id] = std::move(replica);
  ++registration_epoch_;
  if (metrics_.sources != nullptr) {
    metrics_.sources->Set(static_cast<double>(replicas_.size()));
  }
  return Status::Ok();
}

Status StreamServer::UnregisterSource(int32_t source_id) {
  if (replicas_.erase(source_id) == 0) {
    return Status::NotFound(StrFormat("unknown source %d", source_id));
  }
  ++registration_epoch_;
  // Drop the archive with the replica: a re-registered id must not resume
  // the dead source's history.
  archives_.erase(source_id);
  if (metrics_.sources != nullptr) {
    metrics_.sources->Set(static_cast<double>(replicas_.size()));
  }
  return Status::Ok();
}

void StreamServer::Tick() {
  KC_TRACE_SCOPE("server.tick");
  const bool bound = metrics_.ticks != nullptr;
  int64_t t0 = bound ? obs::TraceNowNs() : 0;
  for (auto& [id, replica] : replicas_) replica->Tick();
  ++ticks_;
  if (archive_capacity_ > 0) {
    for (auto& [id, replica] : replicas_) {
      if (!replica->initialized() || replica->predictor().dims() != 1) {
        continue;
      }
      auto it = archives_.find(id);
      if (it == archives_.end()) {
        it = archives_.emplace(id, TickArchive(archive_capacity_)).first;
      }
      it->second.Record(static_cast<double>(ticks_), replica->Value()[0],
                        replica->bound());
    }
  }
  if (bound) {
    metrics_.ticks->Inc();
    for (auto& [id, replica] : replicas_) {
      if (replica->initialized()) {
        metrics_.bound_width->Record(replica->bound());
      }
    }
    metrics_.tick_latency_us->Record(
        static_cast<double>(obs::TraceNowNs() - t0) * 1e-3);
  }
}

Status StreamServer::OnMessage(const Message& msg) {
  auto it = replicas_.find(msg.source_id);
  if (it == replicas_.end()) {
    return Status::NotFound(StrFormat("message from unknown source %d",
                                      msg.source_id));
  }
  ++messages_processed_;
  if (metrics_.messages_in != nullptr) metrics_.messages_in->Inc();
  return it->second->OnMessage(msg);
}

StatusOr<BoundedAnswer> StreamServer::SourceValue(int32_t source_id) const {
  auto it = replicas_.find(source_id);
  if (it == replicas_.end()) {
    return Status::NotFound(StrFormat("unknown source %d", source_id));
  }
  const ServerReplica& r = *it->second;
  if (!r.initialized()) {
    return Status::FailedPrecondition(
        StrFormat("source %d has not reported yet", source_id));
  }
  BoundedAnswer answer;
  answer.value = r.Value();
  answer.bound = r.bound();
  answer.last_heard_seq = r.last_heard_seq();
  answer.degraded = r.desynced();
  return answer;
}

Status StreamServer::AddQuery(const std::string& name, QuerySpec spec) {
  return queries_.Add(*this, name, std::move(spec));
}

Status StreamServer::RemoveQuery(const std::string& name) {
  return queries_.Remove(name);
}

StatusOr<QueryResult> StreamServer::Evaluate(const std::string& name) const {
  KC_TRACE_SCOPE("server.evaluate");
  StatusOr<QueryResult> result = queries_.Evaluate(*this, name);
  RecordQueryOutcome(result.ok(), result.ok() && result->stale);
  RecordQueryAudit(name, result.ok() ? &*result : nullptr);
  return result;
}

StatusOr<QueryResult> StreamServer::EvaluateSpec(const QuerySpec& spec,
                                                 const std::string& name) const {
  StatusOr<QueryResult> result = EvaluateSpecOn(*this, spec, name);
  RecordQueryOutcome(result.ok(), result.ok() && result->stale);
  RecordQueryAudit(name, result.ok() ? &*result : nullptr);
  return result;
}

std::vector<QueryResult> StreamServer::EvaluateAll() const {
  KC_TRACE_SCOPE("server.evaluate_all");
  std::vector<QueryResult> results = queries_.EvaluateAll(*this);
  for (const QueryResult& r : results) {
    RecordQueryOutcome(true, r.stale);
    RecordQueryAudit(r.name, &r);
  }
  return results;
}

std::vector<QueryResult> StreamServer::EvaluateDue() {
  KC_TRACE_SCOPE("server.evaluate_due");
  std::vector<QueryResult> results = queries_.EvaluateDue(*this);
  for (const QueryResult& r : results) {
    RecordQueryOutcome(true, r.stale);
    RecordQueryAudit(r.name, &r);
  }
  return results;
}

Status StreamServer::PushBound(int32_t source_id, double delta) {
  if (!control_sink_) {
    return Status::FailedPrecondition("no control sink installed");
  }
  if (replicas_.count(source_id) == 0) {
    return Status::NotFound(StrFormat("unknown source %d", source_id));
  }
  if (delta <= 0.0) {
    return Status::InvalidArgument("bound must be positive");
  }
  Message msg;
  msg.source_id = source_id;
  msg.type = MessageType::kSetBound;
  msg.seq = 0;
  msg.time = static_cast<double>(ticks_);
  msg.payload = {delta};
  Status s = control_sink_(msg);
  if (s.ok() && metrics_.control_out != nullptr) metrics_.control_out->Inc();
  return s;
}

void StreamServer::EnableArchiving(size_t capacity) {
  archive_capacity_ = std::max<size_t>(capacity, 1);
}

StatusOr<const TickArchive*> StreamServer::Archive(int32_t source_id) const {
  if (archive_capacity_ == 0) {
    return Status::FailedPrecondition("archiving not enabled");
  }
  auto it = archives_.find(source_id);
  if (it == archives_.end()) {
    return Status::NotFound(
        StrFormat("no archive for source %d (unknown, non-scalar, or no "
                  "ticks recorded yet)",
                  source_id));
  }
  return &it->second;
}

StatusOr<QueryResult> StreamServer::HistoricalAggregate(int32_t source_id,
                                                        AggregateKind kind,
                                                        double t0,
                                                        double t1) const {
  auto archive = Archive(source_id);
  if (!archive.ok()) return archive.status();
  return (*archive)->Aggregate(kind, t0, t1);
}

void StreamServer::SetRecovery(const ReplicaRecoveryConfig& config) {
  recovery_ = config;
  for (auto& [id, replica] : replicas_) replica->SetRecovery(recovery_);
}

bool StreamServer::IsDesynced(int32_t source_id) const {
  auto it = replicas_.find(source_id);
  return it != replicas_.end() && it->second->desynced();
}

void StreamServer::InstallControlSender(ServerReplica* replica) {
  // Consults control_sink_ at send time, so the hookup survives any
  // SetControlSink order relative to RegisterSource. A failed (or absent)
  // downlink is swallowed: the replica's backoff simply retries.
  replica->SetControlSender([this](const Message& msg) {
    if (!control_sink_) return;
    Status s = control_sink_(msg);
    if (s.ok() && metrics_.control_out != nullptr) metrics_.control_out->Inc();
  });
}

void StreamServer::BindFlightRecorder(obs::FlightRecorder* recorder) {
  recorder_ = recorder;
  for (auto& [id, replica] : replicas_) BindReplicaObservability(replica.get());
}

void StreamServer::BindHealth(obs::HealthMonitor* health) {
  health_ = health;
  for (auto& [id, replica] : replicas_) BindReplicaObservability(replica.get());
}

void StreamServer::BindReplicaObservability(ServerReplica* replica) {
  obs::SourceRecorder* ring =
      recorder_ == nullptr ? nullptr : recorder_->ForSource(replica->source_id());
  obs::SourceHealth* entry =
      health_ == nullptr
          ? nullptr
          : health_->ForSource(replica->source_id(),
                               replica->predictor().dims());
  replica->BindObservability(ring, entry);
}

obs::HealthState StreamServer::HealthOf(int32_t source_id) const {
  return health_ == nullptr ? obs::HealthState::kOk
                            : health_->StateOf(source_id);
}

void StreamServer::SetStalenessLimit(int64_t max_silent_ticks) {
  staleness_limit_ = max_silent_ticks;
  for (auto& [id, replica] : replicas_) {
    replica->SetStalenessLimit(max_silent_ticks);
  }
}

bool StreamServer::IsStale(int32_t source_id) const {
  auto it = replicas_.find(source_id);
  return it != replicas_.end() && it->second->stale();
}

const ServerReplica* StreamServer::replica(int32_t source_id) const {
  auto it = replicas_.find(source_id);
  return it == replicas_.end() ? nullptr : it->second.get();
}

std::vector<std::string> StreamServer::QueryNames() const {
  return queries_.Names();
}

std::vector<int32_t> StreamServer::SourceIds() const {
  std::vector<int32_t> ids;
  ids.reserve(replicas_.size());
  for (const auto& [id, replica] : replicas_) ids.push_back(id);
  return ids;
}

}  // namespace kc
