#include "workload_inputs.h"

#include <cstdio>

#include "common/rng.h"
#include "common/stats.h"
#include "kalman/model.h"
#include "kcbench.h"
#include "query/parser.h"
#include "server/allocation.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

namespace kcbench {

namespace {

// "s<first>,s<first+1>,...,s<first+count-1>".
std::string SourceList(int32_t first, int32_t count) {
  std::string list;
  for (int32_t i = first; i < first + count; ++i) {
    if (i > first) list += ',';
    list += 's' + std::to_string(i);
  }
  return list;
}

}  // namespace

FleetInputs MakePooledQuietInputs(uint64_t seed) {
  FleetInputs in;
  in.config.seed = seed;
  in.config.threads = 1;
  in.config.num_shards = 8;
  kc::Rng rng(seed);
  for (int32_t i = 0; i < kSources; ++i) {
    kc::RandomWalkGenerator::Config walk;
    walk.start = rng.Uniform(-50.0, 50.0);
    walk.step_sigma = 0.3;
    in.generators.push_back(std::make_unique<kc::RandomWalkGenerator>(walk));
  }
  // Non-adaptive, so MakePooledPredictor pools every source; the wide
  // bound suppresses almost every reading.
  kc::KalmanPredictor::Config kf;
  kf.model = kc::MakeRandomWalkModel(0.1, 0.25);
  in.predictor = std::make_unique<kc::KalmanPredictor>(kf);
  in.deltas.assign(kSources, 4.0);
  return in;
}

SensorSet MakeSensors(uint64_t seed) {
  kc::Rng rng(seed);
  SensorSet set;
  std::vector<double> volatilities;
  for (int32_t i = 0; i < kSources; ++i) {
    kc::DiurnalTemperatureGenerator::Config config;
    config.mean = rng.Uniform(14.0, 24.0);
    config.daily_amplitude = rng.Uniform(3.0, 8.0);
    config.weather_sigma = rng.Uniform(0.01, 0.08);
    kc::NoiseConfig noise;
    noise.gaussian_sigma = 0.3;
    auto sensor = std::make_unique<kc::NoisyStream>(
        std::make_unique<kc::DiurnalTemperatureGenerator>(config), noise);
    // Probe one simulated day to estimate per-tick volatility.
    auto probe = sensor->Clone();
    probe->Reset(seed * 7919 + static_cast<uint64_t>(i));
    double prev = probe->Next().measured.scalar();
    kc::RunningStats steps;
    for (int t = 1; t < 288; ++t) {
      double v = probe->Next().measured.scalar();
      steps.Add(v - prev);
      prev = v;
    }
    volatilities.push_back(steps.stddev());
    set.generators.push_back(std::move(sensor));
  }
  set.deltas = kc::AllocateBounds(kc::AllocationPolicy::kVarianceProportional,
                                  0.25 * kSources, volatilities);
  return set;
}

std::unique_ptr<kc::Predictor> MakeSensorPredictor() {
  return kc::MakeDefaultKalmanPredictor(0.01, 0.09);
}

FleetInputs MakeSensorQueriesInputs(uint64_t seed) {
  FleetInputs in;
  in.config.seed = seed;
  in.config.threads = 2;
  in.config.num_shards = 8;
  SensorSet sensors = MakeSensors(seed);
  in.generators = std::move(sensors.generators);
  in.deltas = std::move(sensors.deltas);
  in.predictor = MakeSensorPredictor();
  in.metrics = true;
  in.audit_every = 4;
  // 20 room averages of 100 sensors each, every tick, plus hot and cold
  // alarms over 10-sensor zones every 6 ticks.
  for (int32_t g = 0; g < 20; ++g) {
    in.queries.push_back({"avg_" + std::to_string(g),
                          "SELECT AVG(" + SourceList(g * 100, 100) +
                              ") WITHIN 1.0",
                          {}});
  }
  for (int32_t z = 0; z < 4; ++z) {
    in.queries.push_back({"hot_" + std::to_string(z),
                          "SELECT MAX(" + SourceList(z * 500, 10) +
                              ") WHEN > 26 WITHIN 1.0 EVERY 6",
                          {}});
    in.queries.push_back({"cold_" + std::to_string(z),
                          "SELECT MIN(" + SourceList(z * 500 + 250, 10) +
                              ") WHEN < 12 WITHIN 1.0 EVERY 6",
                          {}});
  }
  return in;
}

bool ParseQueries(std::vector<QueryText>* queries) {
  for (QueryText& q : *queries) {
    auto spec = kc::ParseQuery(q.cql);
    if (!spec.ok()) {
      std::fprintf(stderr, "kcbench: query %s: %s\n", q.name.c_str(),
                   spec.status().ToString().c_str());
      return false;
    }
    q.spec = *std::move(spec);
  }
  return true;
}

std::unique_ptr<kc::ShardedFleet> BuildFleet(const FleetInputs& inputs) {
  auto fleet = std::make_unique<kc::ShardedFleet>(inputs.config);
  if (inputs.metrics) fleet->EnableMetrics();
  if (inputs.audit_every > 0) {
    kc::obs::AuditConfig audit;
    audit.sample_every = inputs.audit_every;
    fleet->EnableAudit(audit);
  }
  for (size_t i = 0; i < inputs.generators.size(); ++i) {
    fleet->AddSource(inputs.generators[i]->Clone(), inputs.predictor->Clone(),
                     inputs.deltas[i]);
  }
  for (const QueryText& q : inputs.queries) {
    kc::Status s = fleet->server().AddQuery(q.name, q.spec);
    if (!s.ok()) {
      std::fprintf(stderr, "kcbench: AddQuery %s: %s\n", q.name.c_str(),
                   s.ToString().c_str());
      return nullptr;
    }
  }
  return fleet;
}

}  // namespace kcbench
