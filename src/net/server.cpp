#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace oda::net {

namespace {

constexpr const char* kRequestsHelp =
    "Observability HTTP requests by normalized path and status code";

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// Per-connection state machine. Confined to the reactor loop thread: the
/// only cross-thread reference is the Responder's conn id, resolved back
/// to a Conn under loop-thread context in complete_request().
struct HttpServer::Conn {
  explicit Conn(HttpParser::Limits limits) : parser(limits) {}

  std::uint64_t id = 0;
  int fd = -1;
  HttpParser parser;
  std::string out;           ///< serialized responses awaiting the socket
  std::size_t out_off = 0;   ///< bytes of `out` already written
  bool handling = false;     ///< a dispatched request awaits its response
  bool close_after_write = false;
  bool peer_closed = false;
  bool req_keep_alive = false;
  double last_activity_s = 0.0;
  std::uint64_t request_start_us = 0;
  std::string active_path;   ///< normalized metrics label for the request
};

HttpServer::HttpServer(HttpServerOptions opts)
    : opts_(std::move(opts)),
      request_seconds_(obs::MetricsRegistry::global().histogram(
          "oda_http_request_seconds",
          "Observability HTTP request latency, dispatch to response-queued")),
      connections_active_gauge_(obs::MetricsRegistry::global().gauge(
          "oda_http_connections_active",
          "Open observability HTTP connections")),
      connections_counter_(obs::MetricsRegistry::global().counter(
          "oda_http_connections_total",
          "Accepted observability HTTP connections")),
      shed_counter_(obs::MetricsRegistry::global().counter(
          "oda_http_shed_total",
          "Connections shed with 503 at the max_connections cap")),
      idle_closed_counter_(obs::MetricsRegistry::global().counter(
          "oda_http_idle_closed_total",
          "Connections evicted by the idle timeout")) {
  // Eager zero series so the family exports before the first request.
  obs::MetricsRegistry::global().counter(
      "oda_http_requests_total", kRequestsHelp,
      {{"path", "other"}, {"code", "200"}});
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::set_handler(Handler handler) { handler_ = std::move(handler); }

void HttpServer::set_path_normalizer(PathNormalizer fn) {
  normalizer_ = std::move(fn);
}

HttpServer::Stats HttpServer::stats() const noexcept {
  // relaxed (all): independent statistics counters.
  Stats s;
  s.accepted = accepted_total_.load(std::memory_order_relaxed);
  s.requests = requests_total_.load(std::memory_order_relaxed);
  s.shed = shed_total_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_total_.load(std::memory_order_relaxed);
  s.active = active_conns_.load(std::memory_order_relaxed);
  return s;
}

void HttpServer::count_request(const std::string& path_label, int code) {
  obs::MetricsRegistry::global()
      .counter("oda_http_requests_total", kRequestsHelp,
               {{"path", path_label}, {"code", std::to_string(code)}})
      .inc();
}

void Responder::send(HttpResponse resp) const {
  if (server_ != nullptr) server_->respond(conn_id_, std::move(resp));
}

void HttpServer::respond(std::uint64_t id, HttpResponse resp) {
  if (reactor_.on_loop_thread()) {
    // Inline handler path: the surrounding service() loop resumes pumping
    // (pipelined requests, flush) when the handler returns.
    complete_request(id, std::move(resp));
    return;
  }
  // Deferred path (e.g. /profile worker): marshal onto the loop thread.
  reactor_.post([this, id, r = std::move(resp)]() mutable {
    complete_request(id, std::move(r));
    service(id);
  });
}

void HttpServer::signal_drained() {
  MutexLock lock(drain_mu_);
  drained_ = true;
  drain_cv_.notify_all();
}

bool HttpServer::start() {
  if (running_.load(std::memory_order_relaxed)) return false;
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    ODA_LOG_ERROR << "net: socket: " << std::strerror(errno);
    return false;
  }
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ODA_LOG_ERROR << "net: bad bind address " << opts_.bind_address;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    ODA_LOG_ERROR << "net: bind/listen on " << opts_.bind_address << ":"
                  << opts_.port << ": " << std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  draining_ = false;
  {
    MutexLock lock(drain_mu_);
    drained_ = false;
  }
  // Pre-start registrations run before the loop thread exists, which
  // satisfies the reactor's loop-thread-only contract.
  if (!reactor_.add_fd(listen_fd_, kEventRead,
                       [this](std::uint32_t) { on_accept(); })) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  const double sweep_s = std::clamp(opts_.idle_timeout_s / 4.0, 0.05, 1.0);
  reactor_.schedule(sweep_s, [this] { sweep_idle(); });
  if (!reactor_.start("net.reactor")) {
    reactor_.del_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  running_.store(true, std::memory_order_relaxed);
  return true;
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  reactor_.post([this] { begin_drain(); });
  {
    // Bounded in practice: begin_drain() either signals immediately or
    // arms the drain_timeout_s force-close timer, which always signals.
    MutexLock lock(drain_mu_);
    while (!drained_) drain_cv_.wait(drain_mu_);
  }
  reactor_.stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Normally empty by now; safety net for the force-close path.
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  active_conns_.store(0, std::memory_order_relaxed);
  running_.store(false, std::memory_order_relaxed);
}

void HttpServer::on_accept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        ODA_LOG_WARN << "net: accept: " << std::strerror(errno);
      }
      return;
    }
    if (draining_) {
      ::close(fd);
      continue;
    }
    if (conns_.size() >= opts_.max_connections) {
      shed_connection(fd);
      continue;
    }
    accepted_total_.fetch_add(1, std::memory_order_relaxed);
    connections_counter_.inc();
    auto conn = std::make_unique<Conn>(
        HttpParser::Limits{opts_.max_header_bytes, opts_.max_body_bytes});
    Conn* c = conn.get();
    c->id = next_conn_id_++;
    c->fd = fd;
    c->last_activity_s = steady_now_s();
    const std::uint64_t id = c->id;
    conns_.emplace(id, std::move(conn));
    active_conns_.store(conns_.size(), std::memory_order_relaxed);
    connections_active_gauge_.add(1.0);
    if (!reactor_.add_fd(fd, kEventRead | kEventWrite,
                         [this, id](std::uint32_t ev) {
                           on_conn_event(id, ev);
                         })) {
      close_conn(c);
      continue;
    }
    // Edge-triggered: the socket may already hold a full request.
    service(id);
  }
}

void HttpServer::shed_connection(int fd) {
  shed_total_.fetch_add(1, std::memory_order_relaxed);
  shed_counter_.inc();
  HttpResponse resp;
  resp.code = 503;
  resp.body = "connection limit reached, retry later\n";
  const std::string wire = serialize_response(resp, /*keep_alive=*/false);
  // Best-effort single write: the response fits any socket buffer, and a
  // shed connection is not worth a state machine.
  const ssize_t rc = ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  (void)rc;
  ::close(fd);
}

void HttpServer::on_conn_event(std::uint64_t id, std::uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  if (events & kEventError) {
    close_conn(c);
    return;
  }
  c->last_activity_s = steady_now_s();
  service(id);
}

void HttpServer::service(std::uint64_t id) {
  for (;;) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn* c = it->second.get();
    if (c->handling) return;       // awaiting a deferred response
    if (!flush_out(c)) return;     // write error closed the connection
    if (c->out_off < c->out.size()) return;  // kernel send buffer full
    if (c->close_after_write) {
      close_conn(c);
      return;
    }
    const ParseStatus st = c->parser.status();
    if (st == ParseStatus::kComplete) {
      begin_request(c);
      continue;  // inline handlers finish here; pump pipelined requests
    }
    if (st == ParseStatus::kError) {
      queue_error_response(c);
      continue;  // flush, then close_after_write tears it down
    }
    const int got = fill_from_socket(c);
    if (got < 0) return;  // read error closed the connection
    if (got == 0) {
      if (c->peer_closed) close_conn(c);
      return;  // EAGAIN — wait for the next readable edge
    }
  }
}

bool HttpServer::flush_out(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<std::size_t>(n);
      c->last_activity_s = steady_now_s();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    close_conn(c);
    return false;
  }
  if (!c->out.empty()) {
    c->out.clear();
    c->out_off = 0;
  }
  return true;
}

int HttpServer::fill_from_socket(Conn* c) {
  bool progress = false;
  char buf[4096];
  while (c->parser.status() == ParseStatus::kNeedMore) {
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c->last_activity_s = steady_now_s();
      c->parser.feed(buf, static_cast<std::size_t>(n));
      progress = true;
      continue;
    }
    if (n == 0) {
      c->peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(c);
    return -1;
  }
  return progress ? 1 : 0;
}

void HttpServer::begin_request(Conn* c) {
  c->handling = true;
  c->request_start_us = steady_now_us();
  const HttpRequest& req = c->parser.request();
  c->req_keep_alive = req.keep_alive;
  c->active_path = normalizer_ ? normalizer_(req) : req.path;
  const std::uint64_t id = c->id;
  // The span covers handler + inline completion, so the latency histogram
  // observe in complete_request() runs under an active trace context and
  // the exported exemplar links back to this request's trace.
  ODA_TRACE_SPAN_CAT("http.request", "net");
  if (!handler_) {
    HttpResponse resp;
    resp.code = 404;
    resp.body = "no handler installed\n";
    complete_request(id, std::move(resp));
    return;
  }
  handler_(req, Responder(this, id));
}

void HttpServer::complete_request(std::uint64_t id, HttpResponse resp) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;  // connection closed while handling
  Conn* c = it->second.get();
  if (!c->handling) return;  // duplicate send for this request
  const double latency_s =
      static_cast<double>(steady_now_us() - c->request_start_us) / 1e6;
  request_seconds_.observe(latency_s);
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  count_request(c->active_path, resp.code);
  const bool keep = c->req_keep_alive && !draining_;
  c->out += serialize_response(resp, keep);
  if (!keep) c->close_after_write = true;
  c->handling = false;
  c->parser.next();
  c->last_activity_s = steady_now_s();
}

void HttpServer::queue_error_response(Conn* c) {
  HttpResponse resp;
  resp.code = c->parser.error_code();
  resp.body = c->parser.error_reason() + "\n";
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  count_request("error", resp.code);
  c->out += serialize_response(resp, /*keep_alive=*/false);
  c->close_after_write = true;
}

void HttpServer::close_conn(Conn* c) {
  reactor_.del_fd(c->fd);
  ::close(c->fd);
  conns_.erase(c->id);  // destroys *c
  active_conns_.store(conns_.size(), std::memory_order_relaxed);
  connections_active_gauge_.add(-1.0);
  if (draining_ && conns_.empty()) signal_drained();
}

void HttpServer::sweep_idle() {
  const double now = steady_now_s();
  std::vector<std::uint64_t> evict;
  for (const auto& [id, conn] : conns_) {
    if (!conn->handling &&
        now - conn->last_activity_s > opts_.idle_timeout_s) {
      evict.push_back(id);
    }
  }
  for (const std::uint64_t id : evict) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    idle_closed_total_.fetch_add(1, std::memory_order_relaxed);
    idle_closed_counter_.inc();
    close_conn(it->second.get());
  }
  if (!draining_) {
    const double sweep_s = std::clamp(opts_.idle_timeout_s / 4.0, 0.05, 1.0);
    reactor_.schedule(sweep_s, [this] { sweep_idle(); });
  }
}

void HttpServer::begin_drain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    reactor_.del_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::uint64_t> idle;
  std::vector<std::uint64_t> busy;
  for (const auto& [id, conn] : conns_) {
    // A parsed-but-undispatched request still gets serviced; only truly
    // quiet connections close immediately.
    if (!conn->handling && conn->out_off >= conn->out.size() &&
        conn->parser.status() == ParseStatus::kNeedMore) {
      idle.push_back(id);
    } else {
      conn->close_after_write = true;
      busy.push_back(id);
    }
  }
  for (const std::uint64_t id : idle) {
    auto it = conns_.find(id);
    if (it != conns_.end()) close_conn(it->second.get());
  }
  for (const std::uint64_t id : busy) service(id);
  if (conns_.empty()) {
    signal_drained();
    return;
  }
  reactor_.schedule(opts_.drain_timeout_s, [this] { force_close_all(); });
}

void HttpServer::force_close_all() {
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it != conns_.end()) close_conn(it->second.get());
  }
  if (draining_ && conns_.empty()) signal_drained();
}

}  // namespace oda::net
