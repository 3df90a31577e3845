// The HTTP telemetry endpoint, scraped over a real loopback socket: route
// behavior, the Prometheus exposition contract on /metrics (promtool-style
// line validation), the publish-snapshot model, and the end-to-end fleet
// wiring behind EnableHttpTelemetry.

#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/sharded_fleet.h"
#include "obs/metrics.h"
#include "streams/generators.h"
#include "suppression/policies.h"

namespace kc {
namespace obs {
namespace {

struct HttpResponse {
  int status = 0;
  std::string headers;  ///< Raw header block, status line included.
  std::string body;
};

/// Sends one raw request over a fresh loopback connection and reads the
/// response to EOF (the server always answers Connection: close).
void DoRawRequest(int port, const std::string& request, HttpResponse* out) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0)
      << strerror(errno);
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    ASSERT_GT(n, 0) << strerror(errno);
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t split = raw.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos) << raw;
  out->headers = raw.substr(0, split);
  out->body = raw.substr(split + 4);
  ASSERT_EQ(out->headers.compare(0, 9, "HTTP/1.1 "), 0) << raw;
  out->status = std::stoi(out->headers.substr(9, 3));
}

HttpResponse RawRequest(int port, const std::string& request) {
  HttpResponse out;
  DoRawRequest(port, request, &out);
  return out;
}

HttpResponse Get(int port, const std::string& target,
                 const std::string& method = "GET") {
  return RawRequest(port, method + " " + target +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n");
}

/// Promtool-style exposition check: every line is a HELP/TYPE comment or
/// a `name[{labels}] value` sample with a legal metric name.
void ExpectValidPrometheus(const std::string& body) {
  static const std::regex sample(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+(Inf)?$)");
  static const std::regex comment(
      R"(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$)");
  std::istringstream lines(body);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    bool ok = std::regex_match(line, comment) ||
              (std::regex_match(line, sample) && ++samples);
    EXPECT_TRUE(ok) << "bad exposition line: " << line;
  }
  EXPECT_GT(samples, 0) << body;
}

TEST(HttpExporterTest, StartsOnAnEphemeralLoopbackPort) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // Idempotent.
}

TEST(HttpExporterTest, MetricsRouteServesPublishedRowsAsPrometheus) {
  MetricRegistry registry;
  registry.GetCounter("kc.a.messages")->Inc(7);
  registry.GetGauge("kc.b.level")->Set(2.5);
  registry.GetHistogram("kc.a.lat", Buckets::Linear(1.0, 1.0, 2))
      ->Record(1.5);
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start().ok());
  server.PublishMetrics(registry.Rows());

  HttpResponse res = Get(server.port(), "/metrics");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.headers.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  ExpectValidPrometheus(res.body);
  EXPECT_NE(res.body.find("kc_a_messages_total 7"), std::string::npos);
  EXPECT_NE(res.body.find("kc_b_level 2.5"), std::string::npos);
  EXPECT_NE(res.body.find("kc_a_lat_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(res.body.find("kc_a_lat_count 1"), std::string::npos);

  // ?prefix= scopes by the ORIGINAL (dotted) metric name.
  HttpResponse scoped = Get(server.port(), "/metrics?prefix=kc.a");
  EXPECT_EQ(scoped.status, 200);
  ExpectValidPrometheus(scoped.body);
  EXPECT_NE(scoped.body.find("kc_a_messages_total"), std::string::npos);
  EXPECT_EQ(scoped.body.find("kc_b_level"), std::string::npos);

  // Republishing replaces the snapshot wholesale.
  registry.GetCounter("kc.a.messages")->Inc(1);
  server.PublishMetrics(registry.Rows());
  EXPECT_NE(Get(server.port(), "/metrics").body.find("kc_a_messages_total 8"),
            std::string::npos);
  EXPECT_EQ(server.requests_served(), 3);
}

TEST(HttpExporterTest, HealthzReflectsThePublishedVerdict) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start().ok());
  HttpResponse res = Get(server.port(), "/healthz");
  EXPECT_EQ(res.status, 200);  // Healthy until told otherwise.
  EXPECT_EQ(res.body, "ok\n");

  server.PublishHealthz(false, "audit: exhausted=3\n");
  res = Get(server.port(), "/healthz");
  EXPECT_EQ(res.status, 503);
  EXPECT_EQ(res.body, "audit: exhausted=3\n");

  server.PublishHealthz(true, "all clear\n");
  res = Get(server.port(), "/healthz");
  EXPECT_EQ(res.status, 200);
  EXPECT_EQ(res.body, "all clear\n");
}

TEST(HttpExporterTest, AuditAndTimeseriesRoutesServePublishedJson) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start().ok());
  // Empty documents before the first publish, never malformed JSON.
  EXPECT_EQ(Get(server.port(), "/audit").body, "{}");
  EXPECT_EQ(Get(server.port(), "/timeseries").body, "{}");

  AuditDoc doc;
  doc.full = "{\"totals\":{\"samples\":10}}";
  server.PublishAuditDoc(doc);
  TimeSeriesStore store;
  server.SetTimeseriesSource(&store);
  HttpResponse audit = Get(server.port(), "/audit");
  EXPECT_EQ(audit.status, 200);
  EXPECT_NE(audit.headers.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_EQ(audit.body, "{\"totals\":{\"samples\":10}}");
  EXPECT_EQ(Get(server.port(), "/timeseries").body, store.ExportJson());
}

TEST(HttpExporterTest, AuditPrefixScopesSourcesAndQueries) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start().ok());
  AuditDoc doc;
  doc.full =
      "{\"config\":{},\"totals\":{\"samples\":9},"
      "\"sources\":[{\"id\":0},{\"id\":1}],"
      "\"queries\":[{\"name\":\"avg\"}]}";
  doc.head = "{\"config\":{},\"totals\":{\"samples\":9}";
  doc.sources = {{"source.0", "{\"id\":0}"}, {"source.1", "{\"id\":1}"}};
  doc.queries = {{"query.avg", "{\"name\":\"avg\"}"}};
  server.PublishAuditDoc(doc);

  // Unscoped: the full document, byte for byte.
  EXPECT_EQ(Get(server.port(), "/audit").body, doc.full);
  // Scoped to one source: the head (totals stay fleet-wide) plus only
  // the matching source entry; the queries array empties.
  EXPECT_EQ(Get(server.port(), "/audit?prefix=source.1").body,
            "{\"config\":{},\"totals\":{\"samples\":9},"
            "\"sources\":[{\"id\":1}],\"queries\":[]}");
  // Scoped to the query family: all sources drop out.
  EXPECT_EQ(Get(server.port(), "/audit?prefix=query.").body,
            "{\"config\":{},\"totals\":{\"samples\":9},"
            "\"sources\":[],\"queries\":[{\"name\":\"avg\"}]}");
  // A prefix matching nothing still renders a valid, empty-detail doc.
  EXPECT_EQ(Get(server.port(), "/audit?prefix=source.9").body,
            "{\"config\":{},\"totals\":{\"samples\":9},"
            "\"sources\":[],\"queries\":[]}");
}

TEST(HttpExporterTest, TimeseriesPrefixScopesLiveStore) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start().ok());
  MetricRegistry registry;
  registry.GetCounter("kc.agent.sent")->Inc(3);
  registry.GetCounter("kc.server.ticks")->Inc(1);
  TimeSeriesStore store;
  store.Capture(registry, /*tick=*/1);
  registry.GetCounter("kc.agent.sent")->Inc(2);
  registry.GetCounter("kc.server.ticks")->Inc(1);
  store.Capture(registry, /*tick=*/2);
  server.SetTimeseriesSource(&store);

  // The live source renders per request — no Publish step.
  HttpResponse all = Get(server.port(), "/timeseries");
  EXPECT_EQ(all.status, 200);
  EXPECT_NE(all.body.find("kc.agent.sent"), std::string::npos);
  EXPECT_NE(all.body.find("kc.server.ticks"), std::string::npos);
  // ?prefix= narrows to one family, exactly as ExportJson would.
  HttpResponse scoped = Get(server.port(), "/timeseries?prefix=kc.agent.");
  EXPECT_EQ(scoped.status, 200);
  EXPECT_NE(scoped.body.find("kc.agent.sent"), std::string::npos);
  EXPECT_EQ(scoped.body.find("kc.server.ticks"), std::string::npos);
  EXPECT_EQ(scoped.body, store.ExportJson("kc.agent."));
}

TEST(HttpExporterTest, RejectsUnknownRoutesMethodsAndGarbage) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(Get(server.port(), "/nope").status, 404);
  EXPECT_EQ(Get(server.port(), "/metrics", "POST").status, 405);
  EXPECT_EQ(RawRequest(server.port(), "garbage\r\n\r\n").status, 400);
  EXPECT_EQ(server.requests_served(), 3);
}

TEST(HttpExporterTest, HeadReturnsHeadersWithoutABody) {
  TelemetryHttpServer server;
  ASSERT_TRUE(server.Start().ok());
  HttpResponse res = Get(server.port(), "/healthz", "HEAD");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.headers.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(res.body, "");
}

TEST(HttpExporterTest, FixedPortAndBindFailure) {
  TelemetryHttpServer first;
  ASSERT_TRUE(first.Start().ok());
  // Binding the same port again must fail cleanly, without a thread.
  TelemetryHttpServer::Config config;
  config.port = first.port();
  TelemetryHttpServer second(config);
  EXPECT_FALSE(second.Start().ok());
  EXPECT_FALSE(second.running());
  // The first server is unaffected.
  EXPECT_EQ(Get(first.port(), "/healthz").status, 200);
}

// ---------------------------------------------------- fleet integration

KalmanPredictor::Config ScalarKalman() {
  KalmanPredictor::Config config;
  config.model = MakeRandomWalkModel(0.1, 0.25);
  return config;
}

TEST(HttpExporterTest, FleetEndToEndScrape) {
  // The full wiring: EnableHttpTelemetry republishes the merged metric
  // rows, the audit report, the health verdict, and the time-series JSON
  // after the tick barrier; a real scrape sees all four.
  ShardedFleet::Config config;
  config.seed = 321;
  config.threads = 2;
  config.num_shards = 4;
  ShardedFleet fleet(config);
  obs::AuditConfig audit;
  audit.sample_every = 1;
  fleet.EnableAudit(audit);
  fleet.EnableTimeseries(/*every_n_ticks=*/10);
  ASSERT_TRUE(fleet.EnableHttpTelemetry(/*port=*/0,
                                        /*publish_every_n_ticks=*/10)
                  .ok());
  ASSERT_NE(fleet.http(), nullptr);
  int port = fleet.http()->port();
  ASSERT_GT(port, 0);
  for (int i = 0; i < 6; ++i) {
    RandomWalkGenerator::Config walk;
    walk.start = 3.0 * i;
    walk.step_sigma = 0.25;
    fleet.AddSource(std::make_unique<RandomWalkGenerator>(walk),
                    std::make_unique<KalmanPredictor>(ScalarKalman()),
                    /*delta=*/0.5);
  }
  ASSERT_TRUE(fleet.Run(50).ok());

  HttpResponse metrics = Get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  ExpectValidPrometheus(metrics.body);
  EXPECT_NE(metrics.body.find("kc_agent_decisions_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("kc_audit_samples_total"), std::string::npos);

  // Lossless run: the audited fleet is healthy with full containment.
  HttpResponse healthz = Get(port, "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("containment=100%"), std::string::npos)
      << healthz.body;

  HttpResponse audit_res = Get(port, "/audit");
  EXPECT_EQ(audit_res.status, 200);
  EXPECT_NE(audit_res.body.find("\"totals\":"), std::string::npos);
  EXPECT_NE(audit_res.body.find("\"violations\":0"), std::string::npos);

  HttpResponse ts = Get(port, "/timeseries");
  EXPECT_EQ(ts.status, 200);
  EXPECT_NE(ts.body.find("kc.server.ticks.delta"), std::string::npos);

  // A scoped scrape of just the audit family stays valid exposition.
  HttpResponse scoped = Get(port, "/metrics?prefix=kc.audit");
  ExpectValidPrometheus(scoped.body);
  EXPECT_EQ(scoped.body.find("kc_agent"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace kc
