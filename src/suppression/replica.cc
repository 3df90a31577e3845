#include "suppression/replica.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace kc {

namespace {

/// The codec passes any double, so a data frame (INIT, CORRECTION,
/// FULL_SYNC) whose time or payload holds NaN or +/-inf, or whose bound
/// (payload[0]) is negative, is rejected here before it can poison the
/// replica's answer. A bound of 0 is legal.
Status ValidateDataFrame(const Message& msg) {
  if (msg.type != MessageType::kInit &&
      msg.type != MessageType::kCorrection &&
      msg.type != MessageType::kFullSync) {
    return Status::Ok();
  }
  if (!std::isfinite(msg.time)) {
    return Status::InvalidArgument("data frame time is not finite");
  }
  for (double v : msg.payload) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("data frame payload is not finite");
    }
  }
  if (!msg.payload.empty() && msg.payload[0] < 0.0) {
    return Status::InvalidArgument("data frame bound is negative");
  }
  return Status::Ok();
}

}  // namespace

ServerReplica::ServerReplica(int32_t source_id,
                             std::unique_ptr<Predictor> predictor,
                             const int64_t* clock)
    : source_id_(source_id),
      predictor_(std::move(predictor)),
      clock_(clock),
      registered_tick_(Now()) {
  assert(predictor_ != nullptr);
}

void ServerReplica::SetRecovery(const ReplicaRecoveryConfig& config) {
  recovery_ = config;
  recovery_.max_gap_events = std::max<int64_t>(recovery_.max_gap_events, 1);
  recovery_.backoff_initial_ticks =
      std::max<int64_t>(recovery_.backoff_initial_ticks, 1);
  recovery_.backoff_max_ticks = std::max<int64_t>(
      recovery_.backoff_max_ticks, recovery_.backoff_initial_ticks);
  recovery_.quarantine_bound_factor =
      std::max(recovery_.quarantine_bound_factor, 1.0);
  backoff_ = recovery_.backoff_initial_ticks;
}

void ServerReplica::Tick() {
  if (clock_ == nullptr) {
    // No owner clock: moving both origins back one tick is advancing it.
    --registered_tick_;
    if (initialized_) --init_tick_;
  }
  if (initialized_) predictor_->Tick();
  if (!recovery_.enabled) return;
  if (!desynced_ && recovery_.suspect_after_silent_ticks > 0 &&
      lifetime_ticks() - lifetime_tick_at_heard_ >
          recovery_.suspect_after_silent_ticks) {
    MarkDesynced();
  }
  if (desynced_ && lifetime_ticks() >= next_resync_tick_) {
    SendResyncRequest();
  }
}

void ServerReplica::MarkDesynced() {
  if (desynced_) return;
  desynced_ = true;
  backoff_ = recovery_.backoff_initial_ticks;
  // Ask on the replica's next Tick (requests always flow from the tick
  // path, never from mid-delivery, which keeps control traffic ordered
  // deterministically within the tick).
  next_resync_tick_ = lifetime_ticks();
  if (recorder_ != nullptr) {
    recorder_->Record(lifetime_ticks(),
                      obs::RecorderEventKind::kQuarantineEnter, last_wire_seq_);
  }
}

void ServerReplica::ClearDesync() {
  // ClearDesync also runs on every INIT/FULL_SYNC while healthy; only an
  // actual quarantine exit is a recordable transition.
  if (desynced_ && recorder_ != nullptr) {
    recorder_->Record(lifetime_ticks(), obs::RecorderEventKind::kQuarantineExit,
                      last_wire_seq_);
  }
  desynced_ = false;
  gap_events_since_sync_ = 0;
  backoff_ = recovery_.backoff_initial_ticks;
}

void ServerReplica::SendResyncRequest() {
  Message req;
  req.source_id = source_id_;
  req.type = MessageType::kResyncRequest;
  req.seq = last_heard_seq_;
  req.time = static_cast<double>(lifetime_ticks());
  req.payload = {initialized_ ? 1.0 : 0.0};
  if (control_sender_) control_sender_(req);
  ++resyncs_requested_;
  if (metrics_.resyncs_requested != nullptr) metrics_.resyncs_requested->Inc();
  if (recorder_ != nullptr) {
    recorder_->Record(lifetime_ticks(), obs::RecorderEventKind::kResyncRequest,
                      last_wire_seq_, initialized_ ? 1.0 : 0.0);
  }
  if (health_ != nullptr) health_->OnResync();
  next_resync_tick_ = lifetime_ticks() + backoff_;
  backoff_ = std::min(backoff_ * 2, recovery_.backoff_max_ticks);
}

void ServerReplica::BindMetrics(obs::MetricRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics();
    predictor_->BindMetrics(nullptr);
    return;
  }
  metrics_.applied = registry->GetCounter("kc.replica.messages_applied");
  metrics_.ignored = registry->GetCounter("kc.replica.messages_ignored");
  metrics_.full_syncs = registry->GetCounter("kc.replica.full_syncs");
  metrics_.gaps = registry->GetCounter("kc.replica.gaps");
  metrics_.resyncs_requested =
      registry->GetCounter("kc.replica.resyncs_requested");
  predictor_->BindMetrics(registry);
}

void ServerReplica::BindObservability(obs::SourceRecorder* recorder,
                                      obs::SourceHealth* health) {
  recorder_ = recorder;
  health_ = health;
}

obs::HealthState ServerReplica::health() const {
  return health_ == nullptr ? obs::HealthState::kOk : health_->state();
}

Status ServerReplica::OnMessage(const Message& msg) {
  if (msg.source_id != source_id_) {
    return Status::InvalidArgument("message routed to wrong replica");
  }
  KC_RETURN_IF_ERROR(ValidateDataFrame(msg));
  // The sender stamped its decision span with the same flow id, so this
  // apply span stitches into it in the exported trace.
  KC_TRACE_SCOPE_FLOW("replica.apply", msg.flow_id);
  // Any correctly-routed message proves the link is alive, even one the
  // sequencing guard is about to discard (recovery escalation only).
  lifetime_tick_at_heard_ = lifetime_ticks();
  // Sequencing guard: a duplicate or reordered datagram must not roll the
  // replica backwards — nor be applied twice. An exact duplicate
  // (seq == last_heard_seq_) used to slip through on `<` and re-apply a
  // CORRECTION, double-updating the filter.
  if (initialized_ && msg.type != MessageType::kInit &&
      msg.seq <= last_heard_seq_) {
    ++messages_ignored_;
    if (metrics_.ignored != nullptr) metrics_.ignored->Inc();
    if (recorder_ != nullptr) {
      recorder_->Record(lifetime_ticks(), obs::RecorderEventKind::kIgnore,
                        msg.wire_seq, static_cast<double>(msg.type));
    }
    return Status::Ok();
  }
  // Wire-sequence gap detection: wire_seq is dense over the agent's sends,
  // so a skip means an uplink message was lost (or is straggling behind a
  // reordering window — a resync is safe either way).
  if (recovery_.enabled && msg.type != MessageType::kInit &&
      last_wire_seq_ >= 0 && msg.wire_seq > last_wire_seq_ + 1) {
    ++gaps_;
    ++gap_events_since_sync_;
    if (metrics_.gaps != nullptr) metrics_.gaps->Inc();
    if (recorder_ != nullptr) {
      // value = how many uplink messages went missing in this gap.
      recorder_->Record(
          lifetime_ticks(), obs::RecorderEventKind::kWireGap, msg.wire_seq,
          static_cast<double>(msg.wire_seq - last_wire_seq_ - 1));
    }
    if (gap_events_since_sync_ >= recovery_.max_gap_events) MarkDesynced();
  }
  // Non-INIT traffic before any INIT means the INIT itself was lost; no
  // wire-seq baseline exists yet, so gap detection can't see it. Only a
  // fresh INIT helps — the resync request advertises uninitialized state
  // and the agent answers with one.
  if (recovery_.enabled && !initialized_ && msg.type != MessageType::kInit) {
    MarkDesynced();
  }
  switch (msg.type) {
    case MessageType::kInit: {
      if (msg.payload.size() < 2) {
        return Status::InvalidArgument("INIT payload too small");
      }
      delta_ = msg.payload[0];
      Reading first;
      first.seq = msg.seq;
      first.time = msg.time;
      first.value = Vector(
          std::vector<double>(msg.payload.begin() + 1, msg.payload.end()));
      if (first.value.size() != predictor_->dims()) {
        return Status::InvalidArgument("INIT dimension mismatch");
      }
      predictor_->Init(first);
      if (!initialized_) init_tick_ = Now();
      initialized_ = true;
      ClearDesync();  // A (re-)INIT anchors the replica completely.
      break;
    }
    case MessageType::kCorrection: {
      if (!initialized_) {
        return Status::FailedPrecondition("CORRECTION before INIT");
      }
      if (msg.payload.empty()) {
        return Status::InvalidArgument("empty CORRECTION payload");
      }
      delta_ = msg.payload[0];
      std::vector<double> body(msg.payload.begin() + 1, msg.payload.end());
      KC_RETURN_IF_ERROR(predictor_->ApplyCorrection(msg.seq, msg.time, body));
      break;
    }
    case MessageType::kFullSync: {
      if (!initialized_) {
        return Status::FailedPrecondition("FULL_SYNC before INIT");
      }
      if (msg.payload.empty()) {
        return Status::InvalidArgument("empty FULL_SYNC payload");
      }
      delta_ = msg.payload[0];
      std::vector<double> body(msg.payload.begin() + 1, msg.payload.end());
      KC_RETURN_IF_ERROR(predictor_->ApplyFullState(body));
      if (metrics_.full_syncs != nullptr) metrics_.full_syncs->Inc();
      ClearDesync();  // Complete state received: quarantine lifts.
      break;
    }
    case MessageType::kHeartbeat:
      break;  // Liveness only.
    case MessageType::kSetBound:
    case MessageType::kResyncRequest:
      // Downlink-only control; a replica must never receive these.
      return Status::InvalidArgument("control message is not an uplink message");
  }
  last_heard_seq_ = msg.seq;
  last_wire_seq_ = std::max(last_wire_seq_, msg.wire_seq);
  tick_at_last_heard_ = ticks();
  ++messages_applied_;
  if (metrics_.applied != nullptr) metrics_.applied->Inc();
  // Heartbeats are liveness noise; the agent side already records the
  // send, so only state-bearing applies earn a black-box entry.
  if (recorder_ != nullptr && msg.type != MessageType::kHeartbeat) {
    recorder_->Record(lifetime_ticks(), obs::RecorderEventKind::kApply,
                      msg.wire_seq, static_cast<double>(msg.type));
  }
  return Status::Ok();
}

}  // namespace kc
