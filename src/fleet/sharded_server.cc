#include "fleet/sharded_server.h"

#include <algorithm>
#include <sstream>

#include "common/strings.h"

namespace kc {

ShardedServer::ShardedServer(size_t num_shards) {
  size_t n = std::max<size_t>(num_shards, 1);
  pool_sets_.reserve(n);
  shards_.reserve(n);
  bundles_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // TickShard and SweepPools advance every pool of the set on every
    // tick, so the shard need not tick the replicas drawing from it.
    pool_sets_.push_back(std::make_unique<FilterPoolSet>());
    shards_.push_back(std::make_unique<StreamServer>(pool_sets_.back().get()));
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
  // time update for this tick in a contiguous slab pass, so the shard's
  // Tick() skips the replicas on these pools (unless recovery gives them
  // work of their own). Slots are mutually independent, so this hoist is
  // state-identical to per-replica predicts — see docs/PERF.md. Skipped
  // when the driver already ran SweepPools this tick.
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

Status ShardedServer::CheckNoSources(const char* what) const {
  if (registration_epoch() == 0) return Status::Ok();
  return Status::FailedPrecondition(
      StrFormat("%s must come before the first source", what));
}

void ShardedServer::WireShard(size_t index) {
  ObsBundle& b = bundles_[index];
  if (b.recorder != nullptr) b.recorder->BindMetrics(b.metrics.get());
  if (b.health != nullptr) {
    b.health->BindMetrics(b.metrics.get());
    b.health->BindRecorder(b.recorder.get());
  }
  if (b.audit != nullptr) {
    b.audit->BindMetrics(b.metrics.get());
    b.audit->BindRecorder(b.recorder.get());
    b.audit->BindHealth(b.health.get());
  }
  shards_[index]->BindObservability(b.metrics.get(), b.recorder.get(),
                                    b.health.get());
}

void ShardedServer::Wire() {
  for (size_t i = 0; i < shards_.size(); ++i) WireShard(i);
  // The driver auditor holds only the cross-shard query ledger; its
  // kc.audit.* metrics live in the driver arena, where the all-zero source
  // gauges merge harmlessly.
  if (driver_audit_ != nullptr) {
    driver_audit_->BindMetrics(driver_metrics_.get());
  }
}

Status ShardedServer::EnableMetrics() {
  KC_RETURN_IF_ERROR(CheckNoSources("EnableMetrics"));
  if (metrics_enabled()) return Status::Ok();
  for (ObsBundle& b : bundles_) {
    b.metrics = std::make_unique<obs::MetricRegistry>();
  }
  driver_metrics_ = std::make_unique<obs::MetricRegistry>();
  queries_served_ = driver_metrics_->GetCounter("kc.fleet.queries_served");
  queries_failed_ = driver_metrics_->GetCounter("kc.fleet.queries_failed");
  queries_stale_ = driver_metrics_->GetCounter("kc.fleet.queries_stale");
  Wire();
  return Status::Ok();
}

Status ShardedServer::EnableFlightRecorder(size_t capacity_per_source) {
  KC_RETURN_IF_ERROR(CheckNoSources("EnableFlightRecorder"));
  if (flight_recorder_enabled()) return Status::Ok();
  for (ObsBundle& b : bundles_) {
    b.recorder = std::make_unique<obs::FlightRecorder>(capacity_per_source);
  }
  Wire();
  return Status::Ok();
}

Status ShardedServer::EnableHealth(const obs::HealthConfig& config) {
  KC_RETURN_IF_ERROR(CheckNoSources("EnableHealth"));
  if (health_enabled()) return Status::Ok();
  for (ObsBundle& b : bundles_) {
    b.health = std::make_unique<obs::HealthMonitor>(config);
  }
  Wire();
  return Status::Ok();
}

Status ShardedServer::EnableAudit(const obs::AuditConfig& config) {
  KC_RETURN_IF_ERROR(CheckNoSources("EnableAudit"));
  if (audit_enabled()) return Status::Ok();
  for (ObsBundle& b : bundles_) {
    b.audit = std::make_unique<obs::PrecisionAuditor>(config);
  }
  driver_audit_ = std::make_unique<obs::PrecisionAuditor>(config);
  Wire();
  return Status::Ok();
}

obs::AuditMergeView ShardedServer::AuditView() const {
  obs::AuditMergeView view;
  if (!audit_enabled()) return view;
  view.config = &driver_audit_->config();
  view.arenas.reserve(bundles_.size() + 1);
  for (const ObsBundle& b : bundles_) view.arenas.push_back(b.audit.get());
  view.arenas.push_back(driver_audit_.get());
  view.ids = SourceIds();
  view.arena_of = [this](int32_t id) -> const obs::PrecisionAuditor* {
    return bundles_[ShardOf(id)].audit.get();
  };
  return view;
}

std::string ShardedServer::AuditReportText() const {
  if (!audit_enabled()) return std::string();
  return obs::MergedAuditReportText(AuditView());
}

std::string ShardedServer::AuditReportJson() const {
  if (!audit_enabled()) return "{}";
  return obs::MergedAuditReportJson(AuditView());
}

obs::AuditDoc ShardedServer::AuditReportDoc() const {
  if (!audit_enabled()) {
    obs::AuditDoc doc;
    doc.full = "{}";
    return doc;
  }
  return obs::MergedAuditReportDoc(AuditView());
}

std::string ShardedServer::AuditSummaryLine() const {
  if (!audit_enabled()) return std::string();
  return obs::MergedAuditSummaryLine(AuditView());
}

int64_t ShardedServer::AuditExhaustedSources() const {
  if (!audit_enabled()) return 0;
  int64_t exhausted = 0;
  for (int32_t id : SourceIds()) {
    const obs::SourceAudit* a = bundles_[ShardOf(id)].audit->Find(id);
    if (a != nullptr && a->slo_state() == obs::SloState::kExhausted) {
      ++exhausted;
    }
  }
  return exhausted;
}

obs::HealthState ShardedServer::HealthOf(int32_t source_id) const {
  if (!health_enabled()) return obs::HealthState::kOk;
  return bundles_[ShardOf(source_id)].health->StateOf(source_id);
}

std::string ShardedServer::DumpFlightRecorderText() const {
  if (!flight_recorder_enabled()) return std::string();
  // A source lives on exactly one shard, so walking the merged sorted id
  // list gives the same dump for any worker-thread count.
  std::string out;
  for (int32_t id : SourceIds()) {
    out += bundles_[ShardOf(id)].recorder->DumpText(id);
  }
  return out;
}

std::string ShardedServer::DumpFlightRecorderJson() const {
  if (!flight_recorder_enabled()) return "[]";
  std::string out = "[";
  bool first = true;
  for (int32_t id : SourceIds()) {
    if (bundles_[ShardOf(id)].recorder->Find(id) == nullptr) continue;
    if (!first) out += ",";
    first = false;
    out += bundles_[ShardOf(id)].recorder->DumpJson(id);
  }
  out += "]";
  return out;
}

std::string ShardedServer::HealthSummaryText() const {
  if (!health_enabled()) return std::string();
  // Same global ascending-id walk as the recorder dump.
  std::string out;
  for (int32_t id : SourceIds()) {
    out += bundles_[ShardOf(id)].health->SummaryLine(id);
  }
  return out;
}

void ShardedServer::MergeMetricsInto(obs::MetricRegistry* out) const {
  if (!metrics_enabled()) return;
  for (const ObsBundle& b : bundles_) out->MergeFrom(*b.metrics);
  out->MergeFrom(*driver_metrics_);
}

void ShardedServer::RecordQuery(const std::string& name,
                                const QueryResult* result) const {
  if (queries_served_ != nullptr) {
    if (result == nullptr) {
      queries_failed_->Inc();
    } else {
      queries_served_->Inc();
      if (result->stale) queries_stale_->Inc();
    }
  }
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
  RecordQuery(name, result.ok() ? &*result : nullptr);
  return result;
}

StatusOr<QueryResult> ShardedServer::EvaluateSpec(
    const QuerySpec& spec, const std::string& name) const {
  StatusOr<QueryResult> result = EvaluateSpecOn(*this, spec, name);
  RecordQuery(name, result.ok() ? &*result : nullptr);
  return result;
}

std::vector<QueryResult> ShardedServer::EvaluateAll() const {
  std::vector<QueryResult> results = queries_.EvaluateAll(*this);
  for (const QueryResult& r : results) {
    RecordQuery(r.name, &r);
  }
  return results;
}

std::vector<QueryResult> ShardedServer::EvaluateDue() {
  std::vector<QueryResult> results = queries_.EvaluateDue(*this);
  for (const QueryResult& r : results) {
    RecordQuery(r.name, &r);
  }
  return results;
}

std::vector<std::string> ShardedServer::QueryNames() const {
  return queries_.Names();
}

std::string DescribeServer(const ShardedServer& server) {
  std::ostringstream os;
  os << "server @ tick " << server.ticks() << ": "
     << server.num_sources() << " sources, " << server.num_queries()
     << " queries, " << server.messages_processed()
     << " messages processed\n";
  if (server.staleness_limit() > 0) {
    os << "staleness limit: " << server.staleness_limit() << " ticks\n";
  }

  os << "sources:\n";
  for (int32_t id : server.SourceIds()) {
    const ServerReplica* replica = server.replica(id);
    if (replica == nullptr) continue;
    os << "  s" << id << " [" << replica->predictor().name() << "] ";
    if (!replica->initialized()) {
      os << "(not initialized)\n";
      continue;
    }
    Vector value = replica->Value();
    os << "value=";
    if (value.size() == 1) {
      os << StrFormat("%.6g", value[0]);
    } else {
      os << value.ToString();
    }
    os << " +/-" << StrFormat("%.4g", replica->bound()) << " last_seq="
       << replica->last_heard_seq() << " msgs="
       << replica->messages_applied();
    if (server.IsStale(id)) os << " STALE";
    auto archive = server.Archive(id);
    if (archive.ok()) {
      os << " archive=" << (*archive)->size() << "pts";
    }
    os << "\n";
  }

  if (server.num_queries() > 0) {
    os << "queries:\n";
    for (const QueryResult& result : server.EvaluateAll()) {
      os << "  " << result.ToString() << "\n";
    }
  }
  return os.str();
}

}  // namespace kc
