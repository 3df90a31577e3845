#include "server/simulation.h"

#include <cmath>
#include <sstream>

#include "common/strings.h"

namespace kc {

namespace {

constexpr double kContractSlack = 1e-9;

double MaxAbsDiff(const Vector& a, const Vector& b) {
  double m = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

LinkReport RunLinkImpl(StreamGenerator& generator, const Predictor& prototype,
                       const LinkConfig& config,
                       std::vector<TrajectoryPoint>* trajectory) {
  generator.Reset(config.seed);

  Channel channel(config.channel);
  ServerReplica replica(/*source_id=*/0, prototype.Clone());
  channel.SetReceiver([&replica, &config](const Message& msg) {
    Status s = replica.OnMessage(msg);
    // Under a lossy channel a CORRECTION can outlive its lost INIT and be
    // rejected; the recovery protocol heals that via re-INIT, so rejects
    // are only fatal on the lossless configuration.
    assert(s.ok() || config.recovery.enabled);
    (void)s;
  });

  AgentConfig agent_config = config.agent;
  agent_config.delta = config.delta;
  SourceAgent agent(/*source_id=*/0, prototype.Clone(), agent_config, &channel);

  // Control downlink: replica-emitted RESYNC_REQUESTs reach the agent
  // through their own (possibly lossy) channel, so recovery traffic is
  // byte-accounted and fault-injected like everything else.
  Channel control_channel(config.control_channel);
  control_channel.SetReceiver([&agent](const Message& msg) {
    Status s = agent.OnControl(msg);
    assert(s.ok());
    (void)s;
  });
  if (config.recovery.enabled) {
    replica.SetRecovery(config.recovery);
    replica.SetControlSender([&control_channel](const Message& msg) {
      // A failed request is just a lost request; backoff retries it.
      Status s = control_channel.Send(msg);
      (void)s;
    });
  }

  // Optional black box + watchdog, shared by both ends of the link (the
  // whole link runs on this one thread, so the single-writer contract
  // holds trivially).
  std::optional<obs::FlightRecorder> recorder;
  std::optional<obs::HealthMonitor> health;
  obs::SourceRecorder* ring = nullptr;
  obs::SourceHealth* health_entry = nullptr;
  if (config.flight_recorder_capacity > 0) {
    recorder.emplace(config.flight_recorder_capacity);
    ring = recorder->ForSource(0);
  }
  if (config.health) {
    health.emplace(config.health_config);
    if (recorder.has_value()) health->BindRecorder(&*recorder);
    health_entry = health->ForSource(0, prototype.dims());
  }
  if (ring != nullptr || health_entry != nullptr) {
    agent.BindObservability(ring, health_entry);
    replica.BindObservability(ring, health_entry);
  }

  std::optional<BudgetController> budget;
  if (config.budget.has_value()) budget.emplace(*config.budget);

  LinkReport report;
  report.policy = prototype.name();
  report.stream = generator.name();
  report.delta = config.delta;
  report.ticks = static_cast<int64_t>(config.ticks);

  for (size_t i = 0; i < config.ticks; ++i) {
    Sample sample = generator.Next();
    int64_t messages_before =
        channel.stats().messages_sent - agent.stats().heartbeats;

    // Server first (its replica advances on the tick boundary), in-flight
    // deliveries next (latency mode), then the source decides; with zero
    // latency, delivery is synchronous inside Offer, mirroring the
    // paper's lockstep protocol.
    replica.Tick();
    channel.AdvanceTick();
    control_channel.AdvanceTick();
    Status s = agent.Offer(sample.measured);
    assert(s.ok());
    (void)s;
    if (replica.desynced()) ++report.degraded_ticks;

    double in_force_delta = agent.delta();
    if (replica.initialized()) {
      Vector view = replica.Value();
      double target_err = MaxAbsDiff(view, agent.ContractTarget());
      double measured_err = MaxAbsDiff(view, sample.measured.value);
      double truth_err = MaxAbsDiff(view, sample.truth.value);
      report.err_vs_target.Add(target_err);
      report.err_vs_measured.Add(measured_err);
      report.err_vs_truth.Add(truth_err);
      if (target_err > in_force_delta + kContractSlack) {
        ++report.contract_violations;
      }
      if (trajectory != nullptr) {
        TrajectoryPoint p;
        p.time = sample.truth.time;
        p.truth = sample.truth.scalar();
        p.measured = sample.measured.scalar();
        p.server_view = view.empty() ? 0.0 : view[0];
        p.delta = in_force_delta;
        int64_t messages_now =
            channel.stats().messages_sent - agent.stats().heartbeats;
        p.message_sent = messages_now > messages_before;
        p.cumulative_messages = messages_now;
        trajectory->push_back(p);
      }
    }

    if (budget.has_value()) budget->OnTick(&agent);
  }

  report.agent = agent.stats();
  report.net = channel.stats();
  report.control_net = control_channel.stats();
  report.gaps = replica.gaps();
  report.resyncs_requested = replica.resyncs_requested();
  report.resyncs_served = agent.stats().resyncs_served;
  report.messages = channel.stats().messages_sent - agent.stats().heartbeats;
  report.bytes = channel.stats().bytes_sent;
  report.messages_per_tick =
      static_cast<double>(report.messages) / static_cast<double>(config.ticks);
  report.final_delta = agent.delta();
  if (health.has_value()) {
    report.health = health->StateOf(0);
    report.health_summary = health->SummaryText();
  }
  if (recorder.has_value()) report.black_box = recorder->DumpText(0);
  return report;
}

}  // namespace

std::string LinkReport::ToString() const {
  std::ostringstream os;
  os << policy << " on " << stream << " delta=" << delta << ": "
     << messages << " msgs (" << StrFormat("%.4f", messages_per_tick)
     << "/tick), " << bytes << " B, err(target) mean="
     << StrFormat("%.4g", err_vs_target.mean())
     << " max=" << StrFormat("%.4g", err_vs_target.max())
     << ", violations=" << contract_violations;
  if (gaps > 0 || resyncs_requested > 0) {
    os << ", gaps=" << gaps << " resyncs=" << resyncs_requested << "/"
       << resyncs_served << " degraded_ticks=" << degraded_ticks;
  }
  if (health != obs::HealthState::kOk) {
    os << ", health=" << obs::HealthStateName(health);
  }
  return os.str();
}

LinkReport RunLink(StreamGenerator& generator, const Predictor& prototype,
                   const LinkConfig& config) {
  return RunLinkImpl(generator, prototype, config, nullptr);
}

LinkReport RunLinkTraced(StreamGenerator& generator, const Predictor& prototype,
                         const LinkConfig& config,
                         std::vector<TrajectoryPoint>* trajectory) {
  return RunLinkImpl(generator, prototype, config, trajectory);
}

}  // namespace kc
