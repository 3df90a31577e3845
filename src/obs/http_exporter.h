#ifndef KALMANCAST_OBS_HTTP_EXPORTER_H_
#define KALMANCAST_OBS_HTTP_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace kc {
namespace obs {

/// Minimal blocking HTTP/1.1 telemetry endpoint (docs/OBSERVABILITY.md,
/// "HTTP endpoint") — the repo's first real socket code, and a deliberate
/// stepping stone toward the wire transport on the roadmap. One
/// background thread accepts loopback connections and serves GET
/// requests, one connection at a time (Connection: close); a scrape
/// every few seconds is far below the point where that matters.
///
/// Routes:
///   /metrics      Prometheus text exposition of the published metric
///                 rows. `?prefix=kc.audit.` scopes to a name prefix.
///   /healthz      text/plain health summary; 200 when healthy, 503
///                 otherwise (so probes need no body parsing).
///   /audit        the published precision-audit report (JSON).
///                 `?prefix=source.` / `?prefix=query.` scopes the
///                 sources/queries arrays.
///   /timeseries   the attached windowed time-series store (JSON),
///                 rendered per request. `?prefix=kc.agent.` scopes to a
///                 series-name prefix.
///
/// Publish-snapshot model: the simulation's driver thread — after its
/// tick barrier, where the merged view is consistent — *publishes*
/// rendered state into the server (Publish*). The serving thread only
/// ever reads those snapshots under a mutex and never touches live
/// registries, so scrapes cannot race shard workers and cost the hot
/// path nothing. Deterministic by the same token: a scrape returns
/// exactly the published (deterministic) bytes.
class TelemetryHttpServer {
 public:
  struct Config {
    /// Port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral
    /// port (see port()). Telemetry is unauthenticated, so the listener
    /// is loopback-only by design.
    int port = 0;
    int backlog = 16;
  };

  TelemetryHttpServer() : TelemetryHttpServer(Config()) {}
  explicit TelemetryHttpServer(Config config);
  ~TelemetryHttpServer();
  TelemetryHttpServer(const TelemetryHttpServer&) = delete;
  TelemetryHttpServer& operator=(const TelemetryHttpServer&) = delete;

  /// Binds, listens, and starts the serving thread. Fails (without a
  /// thread) if the socket cannot be bound.
  Status Start();
  /// Stops the serving thread and closes the listener. Idempotent; also
  /// run by the destructor.
  void Stop();
  bool running() const { return running_; }
  /// The bound port (the kernel's pick when config.port == 0); 0 before
  /// Start().
  int port() const { return port_; }

  // --- Publishing (driver thread, after the barrier) ---

  /// Replaces the /metrics snapshot (a MetricRegistry::Rows() result;
  /// typically the merged fleet registry).
  void PublishMetrics(std::vector<MetricRow> rows);
  /// Replaces the /healthz snapshot. `healthy` selects 200 vs 503.
  void PublishHealthz(bool healthy, std::string body);
  /// Replaces the /audit snapshot with a structured doc, enabling
  /// `?prefix=source.<id>` / `?prefix=query.<name>` scoped scrapes.
  void PublishAuditDoc(AuditDoc doc);

  /// Attaches a live TimeSeriesStore as the /timeseries backend, enabling
  /// per-request `?prefix=` scoping. The store is internally locked and
  /// documented for endpoint reads between captures; it must outlive this
  /// server (or be detached with nullptr first).
  void SetTimeseriesSource(const TimeSeriesStore* store);

  /// Requests answered so far (any status).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Response {
    int status = 200;
    std::string content_type;
    std::string body;
  };

  /// Pure request -> response mapping over the published snapshots.
  Response Handle(std::string_view method, std::string_view target) const;
  /// The accept/serve loop (serving thread).
  void Serve();
  /// Reads one request's header block and answers it.
  void ServeConnection(int fd);

  Config config_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::thread thread_;
  std::atomic<int64_t> requests_served_{0};

  mutable std::mutex mu_;  ///< Guards the published snapshots.
  std::vector<MetricRow> metric_rows_;
  bool healthy_ = true;
  std::string healthz_body_;
  AuditDoc audit_doc_;
  const TimeSeriesStore* timeseries_source_ = nullptr;
};

}  // namespace obs
}  // namespace kc

#endif  // KALMANCAST_OBS_HTTP_EXPORTER_H_
