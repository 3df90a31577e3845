#include "server/server.h"

#include <cassert>

#include "common/strings.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace kc {

void StreamServer::BindObservability(obs::MetricRegistry* registry,
                                     obs::FlightRecorder* recorder,
                                     obs::HealthMonitor* health) {
  // Sources are bound once, at registration; nothing re-binds them.
  assert(registration_epoch_ == 0);
  registry_ = registry;
  recorder_ = recorder;
  health_ = health;
  metrics_ = Metrics();
  if (registry == nullptr) return;
  metrics_.ticks = registry->GetCounter("kc.server.ticks");
  metrics_.messages_in = registry->GetCounter("kc.server.messages_in");
  metrics_.control_out = registry->GetCounter("kc.server.control_out");
  metrics_.sources = registry->GetGauge("kc.server.sources");
  // Tick latency is run-dependent by nature; flag it wall-clock so
  // deterministic exports can exclude it. 1us..32ms in octaves.
  metrics_.tick_latency_us = registry->GetHistogram(
      "kc.server.tick_latency_us", obs::Buckets::Exponential(1.0, 2.0, 16),
      /*wall_clock=*/true);
  // Precision bounds span tight contracts to wide budget-relaxed ones.
  metrics_.bound_width = registry->GetHistogram(
      "kc.server.bound_width", obs::Buckets::Exponential(0.01, 4.0, 12));
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
  replica->BindObservability(
      recorder_ == nullptr ? nullptr : recorder_->ForSource(source_id),
      health_ == nullptr
          ? nullptr
          : health_->ForSource(source_id, replica->predictor().dims()));
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

Status StreamServer::PushBound(int32_t source_id, double delta) {
  if (!control_sink_) {
    return Status::FailedPrecondition("no control sink installed");
  }
  if (replicas_.count(source_id) == 0) {
    return Status::NotFound(StrFormat("unknown source %d", source_id));
  }
  if (!IsValidPushedBound(delta)) {
    return Status::InvalidArgument("bound must be finite and positive");
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

std::vector<int32_t> StreamServer::SourceIds() const {
  std::vector<int32_t> ids;
  ids.reserve(replicas_.size());
  for (const auto& [id, replica] : replicas_) ids.push_back(id);
  return ids;
}

}  // namespace kc
