#include "suppression/agent.h"

#include <cassert>
#include <cmath>

#include "common/strings.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace kc {

SourceAgent::SourceAgent(int32_t source_id, std::unique_ptr<Predictor> predictor,
                         AgentConfig config, Channel* channel)
    : source_id_(source_id),
      predictor_(std::move(predictor)),
      config_(config),
      channel_(channel) {
  assert(predictor_ != nullptr && channel_ != nullptr);
}

void SourceAgent::BindMetrics(obs::MetricRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics();
    predictor_->BindMetrics(nullptr);
    return;
  }
  metrics_.decisions = registry->GetCounter("kc.agent.decisions");
  metrics_.suppressed = registry->GetCounter("kc.agent.suppressed");
  metrics_.corrections = registry->GetCounter("kc.agent.corrections");
  metrics_.full_syncs = registry->GetCounter("kc.agent.full_syncs");
  metrics_.heartbeats = registry->GetCounter("kc.agent.heartbeats");
  metrics_.resyncs_served = registry->GetCounter("kc.agent.resyncs_served");
  // Innovation magnitudes span noise-floor jitter to mode-change jumps;
  // geometric buckets cover that range with constant relative resolution.
  metrics_.innovation = registry->GetHistogram(
      "kc.agent.innovation", obs::Buckets::Exponential(1e-3, 4.0, 12));
  predictor_->BindMetrics(registry);
}

void SourceAgent::BindObservability(obs::SourceRecorder* recorder,
                                    obs::SourceHealth* health) {
  recorder_ = recorder;
  health_ = health;
  seen_outliers_ = predictor_->OutliersRejected();
}

Status SourceAgent::Offer(const Reading& measured) {
  KC_TRACE_SCOPE("agent.offer");
  if (measured.value.size() != predictor_->dims()) {
    return Status::InvalidArgument("reading dimension mismatch");
  }
  // A NaN/Inf reading (sensor fault, corrupt trace) must not poison the
  // replicated procedures — once inside a filter it never washes out.
  for (size_t d = 0; d < measured.value.size(); ++d) {
    if (!std::isfinite(measured.value[d])) {
      return Status::InvalidArgument("non-finite reading rejected");
    }
  }
  ++stats_.ticks;

  if (!initialized_) {
    KC_RETURN_IF_ERROR(SendInit(measured));
    predictor_->Init(measured);
    initialized_ = true;
    // INIT anchors the replica completely; any queued resync is moot.
    resync_pending_ = false;
    reinit_pending_ = false;
    return Status::Ok();
  }

  if (reinit_pending_) {
    // The replica reported it never saw INIT (lost on the wire): restart
    // both predictors from this measurement so the pair re-enters
    // lockstep from a shared anchor.
    reinit_pending_ = false;
    resync_pending_ = false;
    KC_RETURN_IF_ERROR(SendInit(measured));
    predictor_->Init(measured);
    ++stats_.resyncs_served;
    if (metrics_.resyncs_served != nullptr) metrics_.resyncs_served->Inc();
    if (recorder_ != nullptr) {
      recorder_->Record(stats_.ticks, obs::RecorderEventKind::kResyncServed,
                        next_wire_seq_ - 1);
    }
    silent_ticks_ = 0;
    return Status::Ok();
  }

  predictor_->Tick();
  double err = 0.0;
  Status observed = predictor_->ObserveWithDistance(measured, &err);
  if (!observed.ok()) {
    return Status(observed.code(), StrFormat("source %d: %s", source_id_,
                                             observed.message().c_str()));
  }
  if (metrics_.decisions != nullptr) {
    metrics_.decisions->Inc();
    metrics_.innovation->Record(err);
  }
  if (health_ != nullptr) {
    health_->OnTick();
    health_->OnNis(predictor_->LastNis());
  }
  if (recorder_ != nullptr) {
    int64_t outliers = predictor_->OutliersRejected();
    if (outliers != seen_outliers_) {
      seen_outliers_ = outliers;
      recorder_->Record(stats_.ticks, obs::RecorderEventKind::kGateOutlier,
                        measured.seq, predictor_->LastNis());
    }
  }
  if (resync_pending_) {
    resync_pending_ = false;
    KC_RETURN_IF_ERROR(ServeResync(measured));
    if (health_ != nullptr) health_->OnDecision(/*suppressed=*/false);
    if (recorder_ != nullptr) {
      recorder_->Record(stats_.ticks, obs::RecorderEventKind::kResyncServed,
                        next_wire_seq_ - 1, err);
    }
    silent_ticks_ = 0;
    return Status::Ok();
  }
  if (err > config_.delta) {
    bool full = config_.always_full_state ||
                (config_.full_sync_every > 0 &&
                 (stats_.corrections + stats_.full_syncs + 1) %
                         config_.full_sync_every ==
                     0);
    KC_RETURN_IF_ERROR(SendCorrection(measured, full));
    if (health_ != nullptr) health_->OnDecision(/*suppressed=*/false);
    if (recorder_ != nullptr) {
      recorder_->Record(stats_.ticks,
                        full ? obs::RecorderEventKind::kFullSync
                             : obs::RecorderEventKind::kCorrection,
                        next_wire_seq_ - 1, err);
    }
    silent_ticks_ = 0;
    return Status::Ok();
  }

  ++stats_.suppressed;
  if (metrics_.suppressed != nullptr) metrics_.suppressed->Inc();
  if (health_ != nullptr) health_->OnDecision(/*suppressed=*/true);
  if (recorder_ != nullptr) {
    recorder_->Record(stats_.ticks, obs::RecorderEventKind::kSuppress,
                      measured.seq, err);
  }
  ++silent_ticks_;
  if (config_.heartbeat_every > 0 && silent_ticks_ >= config_.heartbeat_every) {
    Message hb;
    hb.source_id = source_id_;
    hb.type = MessageType::kHeartbeat;
    hb.seq = measured.seq;
    hb.time = measured.time;
    hb.wire_seq = next_wire_seq_++;
    hb.flow_id = CausalFlowId(source_id_, hb.wire_seq);
    KC_TRACE_SCOPE_FLOW("agent.send", hb.flow_id);
    KC_RETURN_IF_ERROR(channel_->Send(hb));
    ++stats_.heartbeats;
    if (metrics_.heartbeats != nullptr) metrics_.heartbeats->Inc();
    if (recorder_ != nullptr) {
      recorder_->Record(stats_.ticks, obs::RecorderEventKind::kHeartbeat,
                        hb.wire_seq);
    }
    silent_ticks_ = 0;
  }
  return Status::Ok();
}

Status SourceAgent::OnControl(const Message& msg) {
  auto reject = [this](const char* why) {
    ++stats_.control_rejected;
    return Status::InvalidArgument(why);
  };
  if (msg.source_id != source_id_) {
    return reject("control message routed to wrong agent");
  }
  switch (msg.type) {
    case MessageType::kSetBound: {
      if (msg.payload.empty() || !IsValidPushedBound(msg.payload[0])) {
        return reject("SET_BOUND needs a finite positive bound");
      }
      config_.delta = msg.payload[0];
      return Status::Ok();
    }
    case MessageType::kResyncRequest: {
      // payload[0] == 0.0 means the replica never saw INIT (it was lost);
      // only a fresh INIT can help it. Anything else gets a FULL_SYNC.
      if (!msg.payload.empty() && msg.payload[0] == 0.0) {
        reinit_pending_ = true;
      } else {
        resync_pending_ = true;
      }
      return Status::Ok();
    }
    default:
      return reject("unexpected control message type");
  }
}

Status SourceAgent::SendInit(const Reading& measured) {
  Message msg;
  msg.source_id = source_id_;
  msg.type = MessageType::kInit;
  msg.seq = measured.seq;
  msg.time = measured.time;
  msg.payload.reserve(1 + measured.value.size());
  msg.payload.push_back(config_.delta);
  msg.payload.insert(msg.payload.end(), measured.value.data().begin(),
                     measured.value.data().end());
  msg.wire_seq = next_wire_seq_++;
  msg.flow_id = CausalFlowId(source_id_, msg.wire_seq);
  if (recorder_ != nullptr) {
    recorder_->Record(stats_.ticks, obs::RecorderEventKind::kInit,
                      msg.wire_seq, config_.delta);
  }
  KC_TRACE_SCOPE_FLOW("agent.send", msg.flow_id);
  return channel_->Send(msg);
}

Status SourceAgent::ServeResync(const Reading& measured) {
  // Probe full-state support *before* SendCorrection: the full-sync path
  // folds the measurement into the predictor before it would discover the
  // encoding is unsupported, and a fallback retry would then apply the
  // correction twice.
  bool full = !predictor_->EncodeFullState().empty();
  KC_RETURN_IF_ERROR(SendCorrection(measured, full));
  ++stats_.resyncs_served;
  if (metrics_.resyncs_served != nullptr) metrics_.resyncs_served->Inc();
  return Status::Ok();
}

Status SourceAgent::SendCorrection(const Reading& measured, bool full_state) {
  Message msg;
  msg.source_id = source_id_;
  msg.seq = measured.seq;
  msg.time = measured.time;
  msg.payload.push_back(config_.delta);

  if (full_state) {
    // Fold the measurement in locally first, then ship the resulting
    // complete predictor state; the server overwrites its replica with it.
    KC_RETURN_IF_ERROR(predictor_->ApplyCorrection(
        measured.seq, measured.time, predictor_->EncodeCorrection(measured)));
    std::vector<double> state = predictor_->EncodeFullState();
    if (state.empty()) {
      return Status::Unimplemented("predictor does not support full sync");
    }
    msg.type = MessageType::kFullSync;
    msg.payload.insert(msg.payload.end(), state.begin(), state.end());
    msg.wire_seq = next_wire_seq_++;
    msg.flow_id = CausalFlowId(source_id_, msg.wire_seq);
    KC_TRACE_SCOPE_FLOW("agent.send", msg.flow_id);
    KC_RETURN_IF_ERROR(channel_->Send(msg));
    ++stats_.full_syncs;
    if (metrics_.full_syncs != nullptr) metrics_.full_syncs->Inc();
    return Status::Ok();
  }

  std::vector<double> correction = predictor_->EncodeCorrection(measured);
  msg.type = MessageType::kCorrection;
  msg.payload.insert(msg.payload.end(), correction.begin(), correction.end());
  // Apply locally exactly as the server will; replicas stay in lockstep.
  KC_RETURN_IF_ERROR(
      predictor_->ApplyCorrection(measured.seq, measured.time, correction));
  msg.wire_seq = next_wire_seq_++;
  msg.flow_id = CausalFlowId(source_id_, msg.wire_seq);
  KC_TRACE_SCOPE_FLOW("agent.send", msg.flow_id);
  KC_RETURN_IF_ERROR(channel_->Send(msg));
  ++stats_.corrections;
  if (metrics_.corrections != nullptr) metrics_.corrections->Inc();
  return Status::Ok();
}

}  // namespace kc
