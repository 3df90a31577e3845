// cql_shell: an interactive shell over a live simulated deployment.
//
// Four sources stream into a sharded fleet's server; you drive time and
// issue continuous-query-language statements against the cached
// predictors. Works interactively or piped:
//
//   echo "run 500
//   query SELECT AVG(s0,s1) WITHIN 1
//   sources
//   quit" | ./cql_shell
//
// Commands:
//   run N              advance the whole system N ticks
//   query <CQL>        evaluate an ad-hoc query now
//   add NAME <CQL>     register a named continuous query
//   eval NAME          evaluate a registered query
//   due                evaluate all queries whose EVERY cadence elapsed
//   sources            list sources: value +/- bound, messages, staleness
//   stats              network totals
//   help               this text
//   quit / exit        leave

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/strings.h"
#include "fleet/sharded_fleet.h"
#include "query/parser.h"
#include "server/report.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/imm_policy.h"
#include "suppression/policies.h"

namespace {

std::unique_ptr<kc::ShardedFleet> BuildFleet() {
  kc::ShardedFleet::Config config;
  config.agent_base.heartbeat_every = 50;
  auto fleet = std::make_unique<kc::ShardedFleet>(config);
  fleet->server().EnableArchiving(100000);
  fleet->server().SetStalenessLimit(100);

  // s0: office temperature (noisy diurnal, adaptive KF).
  kc::DiurnalTemperatureGenerator::Config temp;
  kc::NoiseConfig thermistor;
  thermistor.gaussian_sigma = 0.3;
  fleet->AddSource(
      std::make_unique<kc::NoisyStream>(
          std::make_unique<kc::DiurnalTemperatureGenerator>(temp), thermistor),
      kc::MakeDefaultKalmanPredictor(0.01, 0.09), 0.5);

  // s1: server load (regime switching, IMM).
  kc::RegimeSwitchingGenerator::Config load;
  load.start = 30.0;
  load.regimes = {{400, 0.2, 0.0}, {400, 2.0, 0.0}};
  fleet->AddSource(std::make_unique<kc::RegimeSwitchingGenerator>(load),
                   kc::MakeTwoModeImmPredictor(0.04, 4.0, 0.04), 1.0);

  // s2: stock-like random walk (value cache, for contrast).
  kc::RandomWalkGenerator::Config stock;
  stock.start = 100.0;
  stock.step_sigma = 0.4;
  fleet->AddSource(std::make_unique<kc::RandomWalkGenerator>(stock),
                   std::make_unique<kc::ValueCachePredictor>(), 0.5);

  // s3: growing metric (trend, CV-model KF).
  kc::LinearDriftGenerator::Config trend;
  trend.slope = 0.05;
  trend.wobble_sigma = 0.1;
  kc::KalmanPredictor::Config cv;
  cv.model = kc::MakeConstantVelocityModel(1.0, 0.01, 0.04);
  fleet->AddSource(std::make_unique<kc::LinearDriftGenerator>(trend),
                   std::make_unique<kc::KalmanPredictor>(cv), 0.5);
  return fleet;
}

void PrintResult(const kc::QueryResult& r) {
  std::printf("  %s\n", r.ToString().c_str());
}

void PrintSources(kc::ShardedFleet& fleet) {
  for (size_t id = 0; id < fleet.num_sources(); ++id) {
    auto answer = fleet.server().SourceValue(static_cast<int32_t>(id));
    if (!answer.ok()) {
      std::printf("  s%zu: (no data yet)\n", id);
      continue;
    }
    std::printf("  s%zu: %.3f +/- %.3f  (policy %s, msgs %lld%s)\n", id,
                answer->value[0], answer->bound,
                fleet.agent(static_cast<int32_t>(id)).predictor().name().c_str(),
                static_cast<long long>(
                    fleet.MessagesOf(static_cast<int32_t>(id))),
                fleet.server().IsStale(static_cast<int32_t>(id)) ? ", STALE"
                                                                 : "");
  }
}

void Help() {
  std::printf(
      "commands: run N | query <CQL> | add NAME <CQL> | eval NAME | due |\n"
      "          sources | report | stats | help | quit\n"
      "CQL:      SELECT VALUE|SUM|AVG|MIN|MAX(s0[,s1...])\n"
      "          [FROM a TO b | LAST n] [WHEN >|< x] [WITHIN d] [EVERY n]\n");
}

}  // namespace

int main() {
  auto fleet = BuildFleet();
  std::printf("kalmancast CQL shell — 4 sources (s0 temp, s1 load, s2 stock, "
              "s3 growth). 'help' for commands.\n");

  std::string line;
  while (true) {
    std::printf("> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = kc::Trim(line);
    if (trimmed.empty()) continue;

    std::istringstream iss{std::string(trimmed)};
    std::string command;
    iss >> command;

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      Help();
    } else if (command == "run") {
      long n = 0;
      iss >> n;
      if (n <= 0) {
        std::printf("  usage: run N\n");
        continue;
      }
      if (!fleet->Run(static_cast<size_t>(n)).ok()) {
        std::printf("  simulation error\n");
        break;
      }
      std::printf("  advanced %ld ticks (now at %lld); %lld total messages\n",
                  n, static_cast<long long>(fleet->ticks()),
                  static_cast<long long>(fleet->TotalMessages()));
    } else if (command == "query") {
      std::string rest;
      std::getline(iss, rest);
      auto spec = kc::ParseQuery(rest);
      if (!spec.ok()) {
        std::printf("  parse error: %s\n", spec.status().ToString().c_str());
        continue;
      }
      auto result = fleet->server().EvaluateSpec(*spec, "adhoc");
      if (!result.ok()) {
        std::printf("  error: %s\n", result.status().ToString().c_str());
        continue;
      }
      PrintResult(*result);
    } else if (command == "add") {
      std::string name, rest;
      iss >> name;
      std::getline(iss, rest);
      auto spec = kc::ParseQuery(rest);
      if (!spec.ok()) {
        std::printf("  parse error: %s\n", spec.status().ToString().c_str());
        continue;
      }
      kc::Status added = fleet->server().AddQuery(name, *spec);
      std::printf("  %s\n", added.ok() ? ("registered " + name).c_str()
                                       : added.ToString().c_str());
    } else if (command == "eval") {
      std::string name;
      iss >> name;
      auto result = fleet->server().Evaluate(name);
      if (!result.ok()) {
        std::printf("  error: %s\n", result.status().ToString().c_str());
        continue;
      }
      PrintResult(*result);
    } else if (command == "due") {
      auto results = fleet->server().EvaluateDue();
      if (results.empty()) std::printf("  (nothing due)\n");
      for (const auto& r : results) PrintResult(r);
    } else if (command == "sources") {
      PrintSources(*fleet);
    } else if (command == "report") {
      std::printf("%s", kc::DescribeServer(fleet->server()).c_str());
    } else if (command == "stats") {
      std::printf("  ticks=%lld messages=%lld bytes=%lld (naive would be "
                  "%lld messages)\n",
                  static_cast<long long>(fleet->ticks()),
                  static_cast<long long>(fleet->TotalMessages()),
                  static_cast<long long>(fleet->TotalBytes()),
                  static_cast<long long>(fleet->ticks() * 4));
    } else {
      std::printf("  unknown command '%s'; try 'help'\n", command.c_str());
    }
  }
  std::printf("bye\n");
  return 0;
}
