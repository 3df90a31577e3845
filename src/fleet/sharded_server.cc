#include "fleet/sharded_server.h"

#include <algorithm>

namespace kc {

ShardedServer::ShardedServer(size_t num_shards) {
  size_t n = std::max<size_t>(num_shards, 1);
  pool_sets_.reserve(n);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pool_sets_.push_back(std::make_unique<FilterPoolSet>());
    shards_.push_back(std::make_unique<StreamServer>());
  }
}

size_t ShardedServer::ShardOf(int32_t source_id) const {
  // Fixed-width multiplicative hash (splitmix-style): platform-independent
  // and independent of registration order, so a source's owning shard is a
  // pure function of (id, num_shards).
  uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(source_id)) *
               0x9E3779B97F4A7C15ULL;
  return static_cast<size_t>((h >> 32) % shards_.size());
}

Status ShardedServer::RegisterSource(int32_t source_id,
                                     std::unique_ptr<Predictor> predictor) {
  return shards_[ShardOf(source_id)]->RegisterSource(source_id,
                                                     std::move(predictor));
}

Status ShardedServer::UnregisterSource(int32_t source_id) {
  return shards_[ShardOf(source_id)]->UnregisterSource(source_id);
}

void ShardedServer::Tick() {
  for (size_t i = 0; i < shards_.size(); ++i) TickShard(i);
}

void ShardedServer::TickShard(size_t index, bool run_pool_sweep) {
  // Batched sweep first: every pooled filter on the shard gets its one
  // time update for this tick in a contiguous slab pass. Predictor Tick()
  // calls inside the replicas then see an already-advanced slot (their
  // PredictSlotUpTo is a no-op). Slots are mutually independent, so this
  // hoist is state-identical to per-replica predicts — see docs/PERF.md.
  // Skipped when the driver already ran SweepPools this tick.
  if (run_pool_sweep) pool_sets_[index]->PredictAll();
  shards_[index]->Tick();
}

void ShardedServer::SweepPools(ThreadPool* pool) {
  // Flatten every pool of every shard into one block list, so one big
  // shard's pool is chunked across threads instead of pinning its whole
  // sweep to one worker (the shard fan-out parallelizes *across* shards;
  // this parallelizes *within* them).
  sweep_units_.clear();
  size_t total_blocks = 0;
  for (auto& set : pool_sets_) {
    for (size_t i = 0; i < set->num_pools(); ++i) {
      FilterPool* p = set->pool(i);
      p->BeginSweep();
      if (p->num_blocks() == 0) continue;
      sweep_units_.push_back({p, total_blocks});
      total_blocks += p->num_blocks();
    }
  }
  if (total_blocks == 0) return;
  auto sweep_range = [this](size_t begin, size_t end) {
    // Locate the first unit containing `begin` (units are sorted by
    // first_block), then walk forward translating the global range into
    // per-pool block ranges.
    size_t lo = 0;
    size_t hi = sweep_units_.size();
    while (lo + 1 < hi) {
      size_t mid = (lo + hi) / 2;
      if (sweep_units_[mid].first_block <= begin) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    for (size_t u = lo;
         u < sweep_units_.size() && sweep_units_[u].first_block < end; ++u) {
      const SweepUnit& unit = sweep_units_[u];
      size_t unit_end = unit.first_block + unit.pool->num_blocks();
      size_t b = std::max(begin, unit.first_block);
      size_t e = std::min(end, unit_end);
      if (b < e) {
        unit.pool->SweepBlocks(b - unit.first_block, e - unit.first_block);
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelForRanges(total_blocks, sweep_range);
  } else {
    sweep_range(0, total_blocks);
  }
}

void ShardedServer::SetSimdEnabled(bool on) {
  for (auto& set : pool_sets_) set->set_simd(on);
}

Status ShardedServer::OnMessage(const Message& msg) {
  return shards_[ShardOf(msg.source_id)]->OnMessage(msg);
}

StatusOr<BoundedAnswer> ShardedServer::SourceValue(int32_t source_id) const {
  return shards_[ShardOf(source_id)]->SourceValue(source_id);
}

const ServerReplica* ShardedServer::replica(int32_t source_id) const {
  return shards_[ShardOf(source_id)]->replica(source_id);
}

bool ShardedServer::IsStale(int32_t source_id) const {
  return shards_[ShardOf(source_id)]->IsStale(source_id);
}

bool ShardedServer::IsDesynced(int32_t source_id) const {
  return shards_[ShardOf(source_id)]->IsDesynced(source_id);
}

StatusOr<const TickArchive*> ShardedServer::Archive(int32_t source_id) const {
  return shards_[ShardOf(source_id)]->Archive(source_id);
}

int64_t ShardedServer::ticks() const { return shards_.front()->ticks(); }

uint64_t ShardedServer::registration_epoch() const {
  uint64_t epoch = 0;
  for (const auto& shard : shards_) epoch += shard->registration_epoch();
  return epoch;
}

StatusOr<QueryResult> ShardedServer::HistoricalAggregate(int32_t source_id,
                                                         AggregateKind kind,
                                                         double t0,
                                                         double t1) const {
  return shards_[ShardOf(source_id)]->HistoricalAggregate(source_id, kind, t0,
                                                          t1);
}

size_t ShardedServer::num_sources() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_sources();
  return total;
}

int64_t ShardedServer::messages_processed() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->messages_processed();
  return total;
}

std::vector<int32_t> ShardedServer::SourceIds() const {
  std::vector<int32_t> ids;
  for (const auto& shard : shards_) {
    std::vector<int32_t> shard_ids = shard->SourceIds();
    ids.insert(ids.end(), shard_ids.begin(), shard_ids.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ShardedServer::SetStalenessLimit(int64_t max_silent_ticks) {
  for (auto& shard : shards_) shard->SetStalenessLimit(max_silent_ticks);
}

int64_t ShardedServer::staleness_limit() const {
  return shards_.front()->staleness_limit();
}

void ShardedServer::EnableArchiving(size_t capacity) {
  for (auto& shard : shards_) shard->EnableArchiving(capacity);
}

void ShardedServer::SetRecovery(const ReplicaRecoveryConfig& config) {
  for (auto& shard : shards_) shard->SetRecovery(config);
}

void ShardedServer::SetControlSink(StreamServer::ControlSink sink) {
  for (auto& shard : shards_) shard->SetControlSink(sink);
}

Status ShardedServer::PushBound(int32_t source_id, double delta) {
  return shards_[ShardOf(source_id)]->PushBound(source_id, delta);
}

Status ShardedServer::AddQuery(const std::string& name, QuerySpec spec) {
  return queries_.Add(*this, name, std::move(spec));
}

Status ShardedServer::RemoveQuery(const std::string& name) {
  return queries_.Remove(name);
}

void ShardedServer::EnableMetrics() {
  if (metrics_enabled()) return;
  shard_metrics_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    shard_metrics_.push_back(std::make_unique<obs::MetricRegistry>());
    shards_[i]->BindMetrics(shard_metrics_[i].get());
    // Recorder/watchdog/auditor enabled first: late-bind them to the new
    // arenas.
    if (!shard_recorders_.empty()) {
      shard_recorders_[i]->BindMetrics(shard_metrics_[i].get());
    }
    if (!shard_health_.empty()) {
      shard_health_[i]->BindMetrics(shard_metrics_[i].get());
    }
    if (!shard_audits_.empty()) {
      shard_audits_[i]->BindMetrics(shard_metrics_[i].get());
    }
  }
  driver_metrics_ = std::make_unique<obs::MetricRegistry>();
  queries_served_ = driver_metrics_->GetCounter("kc.fleet.queries_served");
  queries_failed_ = driver_metrics_->GetCounter("kc.fleet.queries_failed");
  queries_stale_ = driver_metrics_->GetCounter("kc.fleet.queries_stale");
}

void ShardedServer::EnableFlightRecorder(size_t capacity_per_source) {
  if (flight_recorder_enabled()) return;
  shard_recorders_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    shard_recorders_.push_back(
        std::make_unique<obs::FlightRecorder>(capacity_per_source));
    if (!shard_metrics_.empty()) {
      shard_recorders_[i]->BindMetrics(shard_metrics_[i].get());
    }
    if (!shard_health_.empty()) {
      shard_health_[i]->BindRecorder(shard_recorders_[i].get());
    }
    if (!shard_audits_.empty()) {
      shard_audits_[i]->BindRecorder(shard_recorders_[i].get());
    }
    shards_[i]->BindFlightRecorder(shard_recorders_[i].get());
  }
}

void ShardedServer::EnableHealth(const obs::HealthConfig& config) {
  if (health_enabled()) return;
  shard_health_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    shard_health_.push_back(std::make_unique<obs::HealthMonitor>(config));
    if (!shard_metrics_.empty()) {
      shard_health_[i]->BindMetrics(shard_metrics_[i].get());
    }
    if (!shard_recorders_.empty()) {
      shard_health_[i]->BindRecorder(shard_recorders_[i].get());
    }
    shards_[i]->BindHealth(shard_health_[i].get());
    // Audit enabled first: its sources can now feed the new watchdog.
    if (!shard_audits_.empty()) {
      shard_audits_[i]->BindHealth(shard_health_[i].get());
    }
  }
}

void ShardedServer::EnableAudit(const obs::AuditConfig& config) {
  if (audit_enabled()) return;
  shard_audits_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    shard_audits_.push_back(std::make_unique<obs::PrecisionAuditor>(config));
    if (!shard_metrics_.empty()) {
      shard_audits_[i]->BindMetrics(shard_metrics_[i].get());
    }
    if (!shard_recorders_.empty()) {
      shard_audits_[i]->BindRecorder(shard_recorders_[i].get());
    }
    if (!shard_health_.empty()) {
      shard_audits_[i]->BindHealth(shard_health_[i].get());
    }
    // Shard-local query evaluations land in the shard's own ledger;
    // merged reports re-merge them by name.
    shards_[i]->BindAudit(shard_audits_[i].get());
  }
  // The driver auditor holds only the cross-shard query ledger (its
  // kc.audit.* metrics live in the driver arena, where the all-zero
  // source gauges merge harmlessly).
  driver_audit_ = std::make_unique<obs::PrecisionAuditor>(config);
  if (driver_metrics_ != nullptr) {
    driver_audit_->BindMetrics(driver_metrics_.get());
  }
}

obs::AuditMergeView ShardedServer::AuditView() const {
  obs::AuditMergeView view;
  if (shard_audits_.empty()) return view;
  view.config = &shard_audits_.front()->config();
  view.arenas.reserve(shard_audits_.size() + 1);
  for (const auto& arena : shard_audits_) view.arenas.push_back(arena.get());
  view.arenas.push_back(driver_audit_.get());
  view.ids = SourceIds();
  view.arena_of = [this](int32_t id) -> const obs::PrecisionAuditor* {
    return shard_audits_[ShardOf(id)].get();
  };
  return view;
}

std::string ShardedServer::AuditReportText() const {
  if (shard_audits_.empty()) return std::string();
  return obs::MergedAuditReportText(AuditView());
}

std::string ShardedServer::AuditReportJson() const {
  if (shard_audits_.empty()) return "{}";
  return obs::MergedAuditReportJson(AuditView());
}

obs::AuditDoc ShardedServer::AuditReportDoc() const {
  if (shard_audits_.empty()) {
    obs::AuditDoc doc;
    doc.full = "{}";
    return doc;
  }
  return obs::MergedAuditReportDoc(AuditView());
}

std::string ShardedServer::AuditSummaryLine() const {
  if (shard_audits_.empty()) return std::string();
  return obs::MergedAuditSummaryLine(AuditView());
}

int64_t ShardedServer::AuditExhaustedSources() const {
  if (shard_audits_.empty()) return 0;
  int64_t exhausted = 0;
  for (int32_t id : SourceIds()) {
    const obs::SourceAudit* a = shard_audits_[ShardOf(id)]->Find(id);
    if (a != nullptr && a->slo_state() == obs::SloState::kExhausted) {
      ++exhausted;
    }
  }
  return exhausted;
}

obs::HealthState ShardedServer::HealthOf(int32_t source_id) const {
  if (shard_health_.empty()) return obs::HealthState::kOk;
  return shard_health_[ShardOf(source_id)]->StateOf(source_id);
}

std::string ShardedServer::DumpFlightRecorderText() const {
  if (shard_recorders_.empty()) return std::string();
  // A source lives on exactly one shard, so walking the merged sorted id
  // list gives the same dump for any worker-thread count.
  std::string out;
  for (int32_t id : SourceIds()) {
    out += shard_recorders_[ShardOf(id)]->DumpText(id);
  }
  return out;
}

std::string ShardedServer::DumpFlightRecorderJson() const {
  if (shard_recorders_.empty()) return "[]";
  std::string out = "[";
  bool first = true;
  for (int32_t id : SourceIds()) {
    if (shard_recorders_[ShardOf(id)]->Find(id) == nullptr) continue;
    if (!first) out += ",";
    first = false;
    out += shard_recorders_[ShardOf(id)]->DumpJson(id);
  }
  out += "]";
  return out;
}

std::string ShardedServer::HealthSummaryText() const {
  if (shard_health_.empty()) return std::string();
  // Same global ascending-id walk as the recorder dump.
  std::string out;
  for (int32_t id : SourceIds()) {
    out += shard_health_[ShardOf(id)]->SummaryLine(id);
  }
  return out;
}

void ShardedServer::MergeMetricsInto(obs::MetricRegistry* out) const {
  for (const auto& arena : shard_metrics_) out->MergeFrom(*arena);
  if (driver_metrics_ != nullptr) out->MergeFrom(*driver_metrics_);
}

void ShardedServer::RecordQueryOutcome(bool ok, bool stale) const {
  if (queries_served_ == nullptr) return;
  if (!ok) {
    queries_failed_->Inc();
    return;
  }
  queries_served_->Inc();
  if (stale) queries_stale_->Inc();
}

void ShardedServer::RecordQueryAudit(const std::string& name,
                                     const QueryResult* result) const {
  if (driver_audit_ == nullptr) return;
  if (result == nullptr) {
    driver_audit_->OnQuery(name, /*ok=*/false, false, false, false);
    return;
  }
  driver_audit_->OnQuery(name, /*ok=*/true, result->stale, result->degraded,
                         result->health != obs::HealthState::kOk);
}

StatusOr<QueryResult> ShardedServer::Evaluate(const std::string& name) const {
  StatusOr<QueryResult> result = queries_.Evaluate(*this, name);
  RecordQueryOutcome(result.ok(), result.ok() && result->stale);
  RecordQueryAudit(name, result.ok() ? &*result : nullptr);
  return result;
}

StatusOr<QueryResult> ShardedServer::EvaluateSpec(
    const QuerySpec& spec, const std::string& name) const {
  StatusOr<QueryResult> result = EvaluateSpecOn(*this, spec, name);
  RecordQueryOutcome(result.ok(), result.ok() && result->stale);
  RecordQueryAudit(name, result.ok() ? &*result : nullptr);
  return result;
}

std::vector<QueryResult> ShardedServer::EvaluateAll() const {
  std::vector<QueryResult> results = queries_.EvaluateAll(*this);
  for (const QueryResult& r : results) {
    RecordQueryOutcome(true, r.stale);
    RecordQueryAudit(r.name, &r);
  }
  return results;
}

std::vector<QueryResult> ShardedServer::EvaluateDue() {
  std::vector<QueryResult> results = queries_.EvaluateDue(*this);
  for (const QueryResult& r : results) {
    RecordQueryOutcome(true, r.stale);
    RecordQueryAudit(r.name, &r);
  }
  return results;
}

std::vector<std::string> ShardedServer::QueryNames() const {
  return queries_.Names();
}

}  // namespace kc
