#include "fleet/link.h"

#include <memory>
#include <sstream>

#include "common/strings.h"
#include "fleet/sharded_fleet.h"

namespace kc {

namespace {

constexpr double kContractSlack = 1e-9;

/// A channel factory that ignores the fleet-derived per-source config and
/// builds from `config` as given: a link's channel seeds are its own.
ShardedFleet::Config::ChannelFactory FixedChannel(
    const Channel::Config& config) {
  return [config](int32_t, const Channel::Config&) {
    return std::make_unique<Channel>(config);
  };
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

LinkReport RunLink(const StreamGenerator& generator,
                   const Predictor& prototype, const LinkConfig& config,
                   std::vector<TrajectoryPoint>* trajectory) {
  ShardedFleet::Config fleet_config;
  // The fleet resets source 0's generator with SourceGeneratorSeed(seed, 0),
  // which is the seed itself.
  fleet_config.seed = config.seed;
  fleet_config.agent_base = config.agent;
  fleet_config.recovery = config.recovery;
  fleet_config.num_shards = 1;
  fleet_config.uplink_factory = FixedChannel(config.channel);
  fleet_config.control_factory = FixedChannel(config.control_channel);
  ShardedFleet fleet(fleet_config);
  // A fresh fleet has no source yet, so neither Enable can fail.
  if (config.flight_recorder_capacity > 0) {
    (void)fleet.EnableFlightRecorder(config.flight_recorder_capacity);
  }
  if (config.health) (void)fleet.EnableHealth(config.health_config);
  const int32_t id =
      fleet.AddSource(generator.Clone(), prototype.Clone(), config.delta);
  const ServerReplica& replica = *fleet.server().replica(id);
  const SourceAgent& agent = fleet.agent(id);
  const Sample& sample = fleet.LastSampleOf(id);

  std::optional<BudgetController> budget;
  if (config.budget.has_value()) budget.emplace(*config.budget);

  LinkReport report;
  report.policy = prototype.name();
  report.stream = generator.name();
  report.delta = config.delta;
  report.ticks = static_cast<int64_t>(config.ticks);

  for (size_t i = 0; i < config.ticks; ++i) {
    int64_t messages_before = fleet.MessagesOf(id);
    // Server tick, in-flight deliveries, then the source's decision; with
    // zero latency, delivery is synchronous inside the agent's Offer,
    // mirroring the paper's lockstep protocol.
    report.status = fleet.Step();
    if (!report.status.ok()) break;
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
        p.cumulative_messages = fleet.MessagesOf(id);
        p.message_sent = p.cumulative_messages > messages_before;
        trajectory->push_back(p);
      }
    }

    if (budget.has_value()) {
      if (std::optional<double> next = budget->OnTick(agent)) {
        fleet.SetDelta(id, *next);
      }
    }
  }

  report.agent = agent.stats();
  report.net = fleet.TotalNetworkStats();
  report.control_net = fleet.TotalControlNetworkStats();
  report.gaps = replica.gaps();
  report.resyncs_requested = replica.resyncs_requested();
  report.resyncs_served = agent.stats().resyncs_served;
  report.messages = fleet.MessagesOf(id);
  report.bytes = report.net.bytes_sent;
  report.messages_per_tick =
      static_cast<double>(report.messages) / static_cast<double>(config.ticks);
  report.final_delta = agent.delta();
  report.health = fleet.HealthOf(id);
  report.health_summary = fleet.HealthSummaryText();
  report.black_box = fleet.DumpFlightRecorderText();
  return report;
}

}  // namespace kc
