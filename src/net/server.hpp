// Asynchronous HTTP/1.1 server on net/reactor.hpp: one listening socket
// and per-connection state machines (incremental HttpParser, bounded
// buffers, keep-alive + pipelining) driven entirely on the reactor's loop
// thread — connection state needs no locks. Overload is handled by policy,
// not collapse: beyond max_connections new sockets are shed with 503 +
// Connection: close, idle connections (slow-loris included) are evicted
// after idle_timeout_s, and stop() quiesces gracefully — stop accepting,
// drain in-flight responses (bounded by drain_timeout_s), then join.
//
// The server instruments itself into MetricsRegistry::global():
//   oda_http_requests_total{path,code}   (path via the normalizer below)
//   oda_http_request_seconds             (histogram, trace exemplars)
//   oda_http_connections_active / oda_http_connections_total
//   oda_http_shed_total / oda_http_idle_closed_total
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/sync.hpp"
#include "net/http.hpp"
#include "net/reactor.hpp"
#include "obs/metrics.hpp"

namespace oda::net {

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see HttpServer::port()
  std::size_t max_connections = 64;
  std::size_t max_header_bytes = 8 * 1024;
  std::size_t max_body_bytes = 0;
  double idle_timeout_s = 30.0;
  /// stop() waits at most this long for in-flight responses to flush.
  double drain_timeout_s = 5.0;
};

class HttpServer;

/// Completion token for one request. Handlers either call send() inline
/// (the common case) or copy the Responder into a worker and send later —
/// send() is safe from any thread and is a no-op if the connection has
/// meanwhile closed. Exactly one send() per request; extras are ignored.
class Responder {
 public:
  void send(HttpResponse resp) const;

 private:
  friend class HttpServer;
  Responder(HttpServer* server, std::uint64_t conn_id)
      : server_(server), conn_id_(conn_id) {}
  HttpServer* server_ = nullptr;
  std::uint64_t conn_id_ = 0;
};

class HttpServer {
 public:
  /// The request reference is valid only for the duration of the call;
  /// deferred handlers copy what they need before returning.
  using Handler = std::function<void(const HttpRequest&, const Responder&)>;
  /// Maps a request to the `path` label of oda_http_requests_total. Routers
  /// install one that collapses unknown paths to "other" so an attacker
  /// cannot mint unbounded label cardinality.
  using PathNormalizer = std::function<std::string(const HttpRequest&)>;

  explicit HttpServer(HttpServerOptions opts = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  void set_handler(Handler handler);             ///< before start()
  void set_path_normalizer(PathNormalizer fn);   ///< before start()

  /// Binds, listens, and spawns the reactor thread. False when already
  /// running or the socket setup failed.
  bool start();
  /// Graceful quiesce: stop accepting, drain in-flight responses (bounded
  /// by drain_timeout_s), then join the reactor. Idempotent.
  void stop();
  bool running() const noexcept {
    // relaxed: liveness flag, no data published through it.
    return running_.load(std::memory_order_relaxed);
  }
  /// Bound port (the ephemeral choice when options.port == 0). Valid after
  /// a successful start().
  std::uint16_t port() const noexcept { return port_; }

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t requests = 0;
    std::uint64_t shed = 0;
    std::uint64_t idle_closed = 0;
    std::size_t active = 0;
  };
  Stats stats() const noexcept;

 private:
  friend class Responder;
  struct Conn;

  // All on the reactor loop thread:
  void on_accept();
  void on_conn_event(std::uint64_t id, std::uint32_t events);
  void service(std::uint64_t id);
  void begin_request(Conn* conn);
  void complete_request(std::uint64_t id, HttpResponse resp);
  void queue_error_response(Conn* conn);
  bool flush_out(Conn* conn);  ///< false = connection was closed
  int fill_from_socket(Conn* conn);
  void close_conn(Conn* conn);
  void shed_connection(int fd);
  void sweep_idle();
  void begin_drain();
  void force_close_all();
  void count_request(const std::string& path_label, int code);

  // Any thread:
  void respond(std::uint64_t id, HttpResponse resp);
  void signal_drained() ODA_EXCLUDES(drain_mu_);

  HttpServerOptions opts_;
  Reactor reactor_;
  Handler handler_;
  PathNormalizer normalizer_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  // Loop-thread-confined connection table.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  bool draining_ = false;  // loop thread only

  /// Leaf lock (unranked): only the stop() handshake below; never nests.
  mutable Mutex drain_mu_;
  CondVar drain_cv_;
  bool drained_ ODA_GUARDED_BY(drain_mu_) = false;

  std::atomic<std::uint64_t> accepted_total_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> shed_total_{0};
  std::atomic<std::uint64_t> idle_closed_total_{0};
  std::atomic<std::size_t> active_conns_{0};

  obs::Histogram& request_seconds_;
  obs::Gauge& connections_active_gauge_;
  obs::Counter& connections_counter_;
  obs::Counter& shed_counter_;
  obs::Counter& idle_closed_counter_;
};

}  // namespace oda::net
