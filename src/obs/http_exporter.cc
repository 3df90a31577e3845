#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/logging.h"

namespace kc {
namespace obs {

namespace {

/// Header-block cap: telemetry GETs are a few hundred bytes; anything
/// bigger is garbage we refuse to buffer.
constexpr size_t kMaxRequestBytes = 8192;

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
  }
  return "OK";
}

/// Extracts one query parameter's value from a raw query string
/// ("a=1&prefix=kc.audit."). No percent-decoding: metric-name prefixes
/// use only URL-safe characters.
std::string QueryParam(std::string_view query, std::string_view key) {
  size_t at = 0;
  while (at < query.size()) {
    size_t end = query.find('&', at);
    if (end == std::string_view::npos) end = query.size();
    std::string_view pair = query.substr(at, end - at);
    size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    at = end + 1;
  }
  return std::string();
}

/// Writes the whole buffer, tolerating partial sends. MSG_NOSIGNAL: a
/// scraper hanging up mid-response must not SIGPIPE the process.
bool SendAll(int fd, const char* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

TelemetryHttpServer::TelemetryHttpServer(Config config) : config_(config) {}

TelemetryHttpServer::~TelemetryHttpServer() { Stop(); }

Status TelemetryHttpServer::Start() {
  if (running_) return Status::FailedPrecondition("server already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd_, config_.backlog) < 0) {
    Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Serve(); });
  running_ = true;
  KC_LOG(Info) << "telemetry endpoint listening on 127.0.0.1:" << port_;
  return Status::Ok();
}

void TelemetryHttpServer::Stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_relaxed);
  // Unblock the accept loop: shut the listener down, then (belt and
  // braces, for platforms where a shutdown on a listening socket is a
  // no-op) poke it with a throwaway loopback connection.
  ::shutdown(listen_fd_, SHUT_RDWR);
  int poke = ::socket(AF_INET, SOCK_STREAM, 0);
  if (poke >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    ::connect(poke, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::close(poke);
  }
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  running_ = false;
}

void TelemetryHttpServer::PublishMetrics(std::vector<MetricRow> rows) {
  std::lock_guard<std::mutex> lock(mu_);
  metric_rows_ = std::move(rows);
}

void TelemetryHttpServer::PublishHealthz(bool healthy, std::string body) {
  std::lock_guard<std::mutex> lock(mu_);
  healthy_ = healthy;
  healthz_body_ = std::move(body);
}

void TelemetryHttpServer::PublishAuditDoc(AuditDoc doc) {
  std::lock_guard<std::mutex> lock(mu_);
  audit_doc_ = std::move(doc);
}

void TelemetryHttpServer::SetTimeseriesSource(const TimeSeriesStore* store) {
  std::lock_guard<std::mutex> lock(mu_);
  timeseries_source_ = store;
}

TelemetryHttpServer::Response TelemetryHttpServer::Handle(
    std::string_view method, std::string_view target) const {
  Response r;
  if (method != "GET" && method != "HEAD") {
    r.status = 405;
    r.content_type = "text/plain; charset=utf-8";
    r.body = "method not allowed\n";
    return r;
  }
  std::string_view path = target;
  std::string_view query;
  size_t q = target.find('?');
  if (q != std::string_view::npos) {
    path = target.substr(0, q);
    query = target.substr(q + 1);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (path == "/metrics") {
    ExportOptions options;
    options.format = ExportFormat::kPrometheus;
    options.include_wall_clock = true;  // Publisher decides what's in rows.
    options.prefix = QueryParam(query, "prefix");
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = ExportRows(metric_rows_, options);
  } else if (path == "/healthz") {
    r.status = healthy_ ? 200 : 503;
    r.content_type = "text/plain; charset=utf-8";
    r.body = healthz_body_.empty() ? (healthy_ ? "ok\n" : "unhealthy\n")
                                   : healthz_body_;
  } else if (path == "/audit") {
    r.content_type = "application/json";
    std::string prefix = QueryParam(query, "prefix");
    if (prefix.empty() || audit_doc_.full.empty()) {
      r.body = audit_doc_.full.empty() ? "{}" : audit_doc_.full;
    } else {
      // Reassemble a scoped document from the published pieces: the head
      // fragment plus only the "source.<id>" / "query.<name>" entries
      // matching the prefix. Totals stay fleet-wide by design — the
      // scope narrows the detail arrays, not the accounting.
      std::ostringstream os;
      os << audit_doc_.head << ",\"sources\":[";
      bool first = true;
      for (const auto& [name, obj] : audit_doc_.sources) {
        if (name.compare(0, prefix.size(), prefix) != 0) continue;
        if (!first) os << ",";
        first = false;
        os << obj;
      }
      os << "],\"queries\":[";
      first = true;
      for (const auto& [name, obj] : audit_doc_.queries) {
        if (name.compare(0, prefix.size(), prefix) != 0) continue;
        if (!first) os << ",";
        first = false;
        os << obj;
      }
      os << "]}";
      r.body = os.str();
    }
  } else if (path == "/timeseries") {
    r.content_type = "application/json";
    // Render per request, honoring ?prefix=. ExportJson takes the
    // store's own mutex; the store is documented readable by endpoints
    // between captures.
    r.body = timeseries_source_ == nullptr
                 ? "{}"
                 : timeseries_source_->ExportJson(QueryParam(query, "prefix"));
  } else {
    r.status = 404;
    r.content_type = "text/plain; charset=utf-8";
    r.body = "not found\n";
  }
  return r;
}

void TelemetryHttpServer::ServeConnection(int fd) {
  std::string request;
  char buf[1024];
  // Read until the end of the header block; telemetry GETs have no body.
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) line_end = request.size();
  std::string_view line(request.data(), line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : line.find(' ', sp1 + 1);
  Response r;
  std::string_view method;
  if (sp2 == std::string_view::npos) {
    r.status = 400;
    r.content_type = "text/plain; charset=utf-8";
    r.body = "bad request\n";
  } else {
    method = line.substr(0, sp1);
    r = Handle(method, line.substr(sp1 + 1, sp2 - sp1 - 1));
  }
  std::ostringstream os;
  os << "HTTP/1.1 " << r.status << " " << StatusText(r.status) << "\r\n"
     << "Content-Type: " << r.content_type << "\r\n"
     << "Content-Length: " << r.body.size() << "\r\n"
     << "Connection: close\r\n\r\n";
  std::string head = os.str();
  if (SendAll(fd, head.data(), head.size()) && method != "HEAD") {
    SendAll(fd, r.body.data(), r.body.size());
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryHttpServer::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stop_.load(std::memory_order_relaxed)) break;
      // Listener broken outside Stop(): nothing sane to serve anymore.
      KC_LOG(Warning) << "telemetry accept failed: " << std::strerror(errno);
      break;
    }
    if (stop_.load(std::memory_order_relaxed)) {
      ::close(fd);  // The Stop() poke, or a scrape racing shutdown.
      break;
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

}  // namespace obs
}  // namespace kc
