// split_loopback: RunSplitServer and RunSplitClient on two threads of this
// process over 127.0.0.1 (UDP uplink, TCP control), in back-to-back
// episodes of a fixed tick count.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "fleet/sharded_fleet.h"
#include "kcbench.h"
#include "obs/trace.h"
#include "server/split_deploy.h"
#include "speed_probe.h"
#include "stats.h"
#include "workload_inputs.h"

namespace kcbench {

namespace {

/// Ticks per episode (about four simulated days of 288 ticks). Every
/// episode replays the same seed, so the client's send books must equal
/// the simulated reference's each time. The tick cost follows each
/// seed's weather; one day's profile differs so much between seeds that
/// 300-tick episodes spread the tick p90 by ~15% from seed to seed.
constexpr int64_t kEpisodeTicks = 1200;
/// Barrier gaps at the start of each episode left out of the tick times.
constexpr size_t kSkipGaps = 10;
/// Episodes run at least this often, so setup_s is a median of several.
constexpr int kMinEpisodes = 3;
/// CpuRotation period.
constexpr double kRotateSeconds = 0.25;
/// Messages the reference run captures for the codec timing.
constexpr size_t kCaptureMessages = 2048;

/// Binds a free loopback port for both TCP and UDP, then releases it for
/// the split server to bind. Returns 0 on failure.
int FindFreePort() {
  for (int attempt = 0; attempt < 64; ++attempt) {
    int tcp = ::socket(AF_INET, SOCK_STREAM, 0);
    int udp = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    int port = 0;
    if (tcp >= 0 && udp >= 0 &&
        ::bind(tcp, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(tcp, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
        ::bind(udp, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      port = ntohs(addr.sin_port);
    }
    if (tcp >= 0) ::close(tcp);
    if (udp >= 0) ::close(udp);
    if (port != 0) return port;
  }
  return 0;
}

/// A simulated uplink that keeps a copy of the first messages it sends.
class CapturingChannel : public kc::Channel {
 public:
  CapturingChannel(const Config& config, std::vector<kc::Message>* sink)
      : kc::Channel(config), sink_(sink) {}

  kc::Status Send(const kc::Message& msg) override {
    if (sink_->size() < kCaptureMessages) sink_->push_back(msg);
    return kc::Channel::Send(msg);
  }

 private:
  std::vector<kc::Message>* sink_;
};

/// The send books a simulated fleet of the same sensors and seed charges
/// over one episode, and the messages it sent first.
struct Reference {
  kc::NetworkStats uplink;
  std::vector<kc::Message> mix;
  bool ok = true;
};

Reference RunReference(uint64_t seed) {
  Reference ref;
  SensorSet sensors = MakeSensors(seed);
  kc::ShardedFleet::Config config;
  config.seed = seed;
  config.uplink_factory = [&ref](int32_t, const kc::Channel::Config& c) {
    return std::make_unique<CapturingChannel>(c, &ref.mix);
  };
  kc::ShardedFleet fleet(config);
  for (int32_t id = 0; id < kSources; ++id) {
    fleet.AddSource(std::move(sensors.generators[static_cast<size_t>(id)]),
                    MakeSensorPredictor(),
                    sensors.deltas[static_cast<size_t>(id)]);
  }
  ref.ok = fleet.Run(kEpisodeTicks).ok();
  ref.uplink = fleet.TotalNetworkStats();
  return ref;
}

struct Episode {
  kc::StatusOr<kc::SplitServerReport> server = kc::Status::Internal("not run");
  kc::StatusOr<kc::SplitClientReport> client = kc::Status::Internal("not run");
  double setup_s = 0.0;
  /// Server barrier-to-barrier gaps, less the speed probe run in each.
  std::vector<double> gap_ms;
};

Episode RunEpisode(uint64_t seed, CpuRotation* rotation, SpeedProbe* probe) {
  Episode ep;
  const int64_t t0_ns = kc::obs::TraceNowNs();
  SensorSet sensors = MakeSensors(seed);
  kc::SplitConfig config;
  config.host = "127.0.0.1";
  config.port = FindFreePort();
  config.ticks = kEpisodeTicks;
  config.num_sources = kSources;
  config.seed = seed;
  config.deltas = sensors.deltas;
  config.accept_timeout_ms = 10000;
  auto make_predictor = [](int32_t) { return MakeSensorPredictor(); };
  auto make_generator = [&sensors](int32_t id) {
    return sensors.generators[static_cast<size_t>(id)]->Clone();
  };
  std::vector<int64_t> barrier_ns;
  std::vector<double> probe_us;
  barrier_ns.reserve(kEpisodeTicks);
  probe_us.reserve(kEpisodeTicks);
  std::thread server([&] {
    ep.server = kc::RunSplitServer(config, make_predictor, [&](int64_t) {
      barrier_ns.push_back(kc::obs::TraceNowNs());
      // Both halves share one CPU, so the probe's CPU time adds to the
      // next gap whichever half runs meanwhile; it is taken off below.
      probe_us.push_back(probe->Sample());
      rotation->MaybeRotate();
    });
  });
  // The server needs a moment to listen; a refused connect sends nothing,
  // so only that failure is retried.
  for (int attempt = 0; attempt < 2000; ++attempt) {
    ep.client = kc::RunSplitClient(config, make_generator, make_predictor);
    if (ep.client.ok() ||
        ep.client.status().ToString().find("connect(tcp)") ==
            std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.join();
  if (!barrier_ns.empty()) {
    ep.setup_s = static_cast<double>(barrier_ns[0] - t0_ns) * 1e-9;
  }
  for (size_t i = kSkipGaps + 1; i < barrier_ns.size(); ++i) {
    ep.gap_ms.push_back(
        static_cast<double>(barrier_ns[i] - barrier_ns[i - 1]) * 1e-6 -
        probe_us[i - 1] * 1e-3);
  }
  return ep;
}

}  // namespace

Result RunSplitWorkload(const RunOptions& options) {
  Result result;
  std::vector<Episode> episodes;
  // Peak resident set of each episode, the high-water mark restarted
  // before it: the process-wide peak depended on how many episodes left
  // their freed heap behind (125 or 152 MB).
  std::vector<double> peak_rss_mb;
  // The halves take turns (the server reads only at a barrier, the client
  // waits for each echo), so they share one CPU, rotated over all of
  // them: on a shared host, cross-vCPU wake-ups twice a tick swung the
  // tick p50 by 20-35% between runs.
  CpuRotation rotation(kRotateSeconds, /*one_cpu=*/true);
  SpeedProbe probe;
  const double start = NowSeconds();
  while (static_cast<int>(episodes.size()) < kMinEpisodes ||
         NowSeconds() - start < options.seconds) {
    ResetPeakRss();
    episodes.push_back(RunEpisode(options.seed, &rotation, &probe));
    peak_rss_mb.push_back(PeakRssMb());
    if (!episodes.back().client.ok() || !episodes.back().server.ok()) break;
  }

  Reference ref = RunReference(options.seed);
  if (!ref.ok) result.Fail("simulated reference run failed");
  std::vector<double> setup_s;
  std::vector<double> gaps;
  kc::NetworkStats sent;
  kc::NetworkStats delivered;
  int64_t frames_rejected = 0;
  int64_t initialized = 0;
  int64_t control_bytes = 0;
  int64_t corrections = 0;
  int64_t suppressed = 0;
  for (size_t i = 0; i < episodes.size(); ++i) {
    const Episode& ep = episodes[i];
    result.attempted += kEpisodeTicks;
    if (!ep.client.ok() || !ep.server.ok()) {
      result.failed += kEpisodeTicks;
      result.Fail("episode " + std::to_string(i) + ": client " +
                  ep.client.status().ToString() + ", server " +
                  ep.server.status().ToString());
      continue;
    }
    const kc::SplitServerReport& server = *ep.server;
    const kc::SplitClientReport& client = *ep.client;
    if (server.ticks < kEpisodeTicks) {
      result.failed += kEpisodeTicks - server.ticks;
      result.Fail("episode " + std::to_string(i) + ": server saw " +
                  std::to_string(server.ticks) + " barriers");
    }
    if (server.frames_rejected > 0) {
      result.Fail("episode " + std::to_string(i) + ": " +
                  std::to_string(server.frames_rejected) + " frames rejected");
    }
    if (client.uplink.SentLine() != ref.uplink.SentLine()) {
      result.Fail("episode " + std::to_string(i) + ": client sent " +
                  client.uplink.SentLine() + ", expected " +
                  ref.uplink.SentLine());
    }
    setup_s.push_back(ep.setup_s);
    gaps.insert(gaps.end(), ep.gap_ms.begin(), ep.gap_ms.end());
    sent.Merge(client.uplink);
    delivered.Merge(server.uplink);
    frames_rejected += server.frames_rejected;
    initialized += server.initialized;
    control_bytes += server.control.bytes_sent;
    corrections += client.corrections;
    suppressed += client.suppressed;
  }
  if (gaps.empty()) {
    result.Fail("no tick completed");
    return result;
  }
  const auto n = static_cast<double>(episodes.size());
  Ratio delivered_ratio{static_cast<double>(delivered.messages_delivered),
                        static_cast<double>(sent.messages_sent)};
  Ratio initialized_ratio{static_cast<double>(initialized),
                          n * static_cast<double>(kSources)};
  double gap_sum = 0.0;
  for (double g : gaps) gap_sum += g;
  std::printf("kcbench: %zu episodes of %lld ticks; tick p90 over %zu gaps; "
              "delivered %s; replicas initialized %s\n",
              episodes.size(), static_cast<long long>(kEpisodeTicks),
              gaps.size(), delivered_ratio.ToString().c_str(),
              initialized_ratio.ToString().c_str());

  if (options.trace) {
    double encode_ns = 0.0;
    double decode_ns = 0.0;
    if (!TimeCodec(ref.mix, &encode_ns, &decode_ns)) {
      result.Fail("codec round trip altered a captured message");
    }
    Ratio suppressed_ratio{static_cast<double>(suppressed),
                           static_cast<double>(suppressed + corrections)};
    // Layers the split halves do not expose read 0 here (README.md).
    result.Add("fleet.sweep_ms", 0.0, "ms");
    result.Add("fleet.pooled_ratio", 0.0, "ratio");
    result.Add("fleet.rss_kb_per_source", 0.0, "KB");
    result.Add("fleet.shard_imbalance", 0.0, "ratio");
    result.Add("fleet.tick_p99_ms", Percentile(gaps, 99.0), "ms");
    result.Add("streams.next_ms", 0.0, "ms");
    result.Add("suppression.offer_ms", 0.0, "ms");
    result.Add("suppression.suppressed_ratio", suppressed_ratio.value(),
               "ratio");
    result.Add("suppression.corrections", static_cast<double>(corrections),
               "count");
    result.Add("suppression.full_syncs", 0.0, "count");
    result.Add("suppression.heartbeats", 0.0, "count");
    result.Add("server.tick_ms", 0.0, "ms");
    result.Add("server.apply_us_per_msg", 0.0, "us");
    result.Add("server.apply_rejected", 0.0, "count");
    result.Add("server.query_ms", 0.0, "ms");
    result.Add("server.query_members_per_tick", 0.0, "count");
    result.Add("query.parse_us", 0.0, "us");
    result.Add("net.advance_ms", 0.0, "ms");
    result.Add("net.encode_ns_per_msg", encode_ns, "ns");
    result.Add("net.decode_ns_per_msg", decode_ns, "ns");
    result.Add("net.sent", static_cast<double>(sent.messages_sent), "count");
    result.Add("net.delivered", static_cast<double>(delivered.messages_delivered),
               "count");
    result.Add("net.dropped",
               static_cast<double>(sent.messages_sent -
                                   delivered.messages_delivered),
               "count");
    result.Add("net.frames_rejected", static_cast<double>(frames_rejected),
               "count");
    result.Add("net.control_bytes", static_cast<double>(control_bytes), "B");
    result.Add("net.initialized_ratio", initialized_ratio.value(), "ratio");
    result.Add("obs.audit_ms", 0.0, "ms");
    result.Add("obs.audit_samples", 0.0, "count");
    result.Add("trace.phase_sum_ratio", 0.0, "ratio");
    result.Add("trace.overhead_ratio", 0.0, "ratio");
    return result;
  }

  const kc::SplitClientReport& first = *episodes.front().client;
  const double sources_per_s = static_cast<double>(kSources) *
                               static_cast<double>(gaps.size()) /
                               (gap_sum * 1e-3);
  const double p50 = Percentile(gaps, 50.0);
  const double p90 = Percentile(gaps, 90.0);
  const double factor = probe.Factor();
  std::printf("kcbench: wall clock: %.6g sources/s, tick p50 %.6g ms, "
              "p90 %.6g ms; speed factor %.4f\n",
              sources_per_s, p50, p90, factor);
  // Timings at the probe's reference speed (speed_probe.h).
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("sources_per_s", sources_per_s / factor, "1/s");
  result.Add("tick_p50_ms", p50 * factor, "ms");
  result.Add("tick_p90_ms", p90 * factor, "ms");
  result.Add("msgs_per_source_tick",
             PerSourceTick(static_cast<double>(first.uplink.messages_sent),
                           kSources, kEpisodeTicks),
             "count");
  result.Add("bytes_per_source_tick",
             PerSourceTick(static_cast<double>(first.uplink.bytes_sent),
                           kSources, kEpisodeTicks),
             "B");
  result.Add("containment_ratio", initialized_ratio.value(), "ratio");
  result.Add("delivered_ratio", delivered_ratio.value(), "ratio");
  result.Add("peak_rss_mb", Median(peak_rss_mb), "MB");
  return result;
}

}  // namespace kcbench
