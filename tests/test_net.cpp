// The live introspection plane, end to end: the incremental HTTP/1.1
// parser (always compiled, exercised byte-by-byte / pipelined / malformed),
// the epoll HttpServer's connection policies (keep-alive, pipelining,
// oversized-header rejection, slow-loris idle eviction, connection-cap
// shedding, graceful stop), the ObsServer's endpoint routing, and the
// SelfScrape loop feeding the registry back into a TimeSeriesStore.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "net/obs_server.hpp"
#include "net/reactor.hpp"
#include "net/self_scrape.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "telemetry/store.hpp"

namespace oda::net {
namespace {

using ParseStatus = oda::net::ParseStatus;

// ----------------------------------------------------------- test client

/// Blocking loopback client for the socket tests: connect, send raw bytes,
/// read one Content-Length-framed response (or everything until EOF).
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Appends received bytes to `out` until `done(out)` says the message is
/// complete, the peer closes, or `timeout_s` elapses. Returns false only on
/// timeout/error — EOF with a satisfied predicate is success.
template <typename DonePredicate>
bool recv_until(int fd, std::string& out, DonePredicate done,
                double timeout_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  char buf[4096];
  while (!done(out)) {
    const auto remaining = deadline - std::chrono::steady_clock::now();
    const int remaining_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count());
    if (remaining_ms <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, remaining_ms);
    if (pr <= 0) return false;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) return false;
    if (n == 0) return done(out);  // EOF: fine iff the message is complete
    out.append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

/// True once `text` holds at least one full Content-Length-framed response.
bool has_full_response(const std::string& text) {
  const std::size_t header_end = text.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  const std::size_t cl = text.find("Content-Length: ");
  if (cl == std::string::npos || cl > header_end) return false;
  const std::size_t len = static_cast<std::size_t>(
      std::strtoul(text.c_str() + cl + 16, nullptr, 10));
  return text.size() >= header_end + 4 + len;
}

/// Sends one request and reads one framed response.
std::string round_trip(int fd, const std::string& request,
                       double timeout_s = 5.0) {
  if (!send_all(fd, request)) return "";
  std::string out;
  if (!recv_until(fd, out, has_full_response, timeout_s)) return "";
  return out;
}

int response_code(const std::string& response) {
  if (response.size() < 12 || response.compare(0, 9, "HTTP/1.1 ") != 0) {
    return -1;
  }
  return std::atoi(response.c_str() + 9);
}

// ------------------------------------------------------ parser: happy path

TEST(HttpParser, SimpleGetParsesEveryField) {
  HttpParser p;
  const std::string req =
      "GET /profile?seconds=2&raw HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Accept: text/plain\r\n"
      "\r\n";
  ASSERT_EQ(p.feed(req.data(), req.size()), ParseStatus::kComplete);
  const HttpRequest& r = p.request();
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.target, "/profile?seconds=2&raw");
  EXPECT_EQ(r.path, "/profile");
  EXPECT_EQ(r.query, "seconds=2&raw");
  EXPECT_EQ(r.version_minor, 1);
  EXPECT_TRUE(r.keep_alive);
  ASSERT_NE(r.header("host"), nullptr);
  EXPECT_EQ(*r.header("host"), "localhost");
  EXPECT_EQ(r.header("x-missing"), nullptr);
  EXPECT_EQ(r.query_param("seconds"), "2");
  EXPECT_EQ(r.query_param("raw"), "");
  EXPECT_EQ(r.query_param("absent"), "");
}

TEST(HttpParser, ByteByByteFeedCompletesOnce) {
  HttpParser p;
  const std::string req = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  for (std::size_t i = 0; i + 1 < req.size(); ++i) {
    ASSERT_EQ(p.feed(&req[i], 1), ParseStatus::kNeedMore)
        << "completed early at byte " << i;
  }
  ASSERT_EQ(p.feed(&req[req.size() - 1], 1), ParseStatus::kComplete);
  EXPECT_EQ(p.request().path, "/metrics");
}

TEST(HttpParser, PipelinedRequestsComeOutInOrder) {
  HttpParser p;
  const std::string two =
      "GET /first HTTP/1.1\r\n\r\n"
      "GET /second HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(p.feed(two.data(), two.size()), ParseStatus::kComplete);
  EXPECT_EQ(p.request().path, "/first");
  EXPECT_GT(p.buffered(), p.request().target.size());
  ASSERT_EQ(p.next(), ParseStatus::kComplete);
  EXPECT_EQ(p.request().path, "/second");
  EXPECT_FALSE(p.request().keep_alive);
  EXPECT_EQ(p.next(), ParseStatus::kNeedMore);
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(HttpParser, BodyWithinLimitIsRetained) {
  HttpParser::Limits limits;
  limits.max_body_bytes = 64;
  HttpParser p(limits);
  const std::string req =
      "PUT /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  ASSERT_EQ(p.feed(req.data(), req.size()), ParseStatus::kComplete);
  EXPECT_EQ(p.request().body, "hello");
}

// --------------------------------------------------- parser: error paths

TEST(HttpParser, MalformedRequestLineIs400) {
  HttpParser p;
  const std::string req = "NOT-A-REQUEST\r\n\r\n";
  ASSERT_EQ(p.feed(req.data(), req.size()), ParseStatus::kError);
  EXPECT_EQ(p.error_code(), 400);
}

TEST(HttpParser, LowercaseMethodTokenIs400) {
  HttpParser p;
  const std::string req = "get / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(p.feed(req.data(), req.size()), ParseStatus::kError);
  EXPECT_EQ(p.error_code(), 400);
}

TEST(HttpParser, OversizedHeadersAre431) {
  HttpParser::Limits limits;
  limits.max_header_bytes = 64;
  HttpParser p(limits);
  std::string req = "GET / HTTP/1.1\r\nX-Pad: ";
  req.append(128, 'a');
  req += "\r\n\r\n";
  ASSERT_EQ(p.feed(req.data(), req.size()), ParseStatus::kError);
  EXPECT_EQ(p.error_code(), 431);
}

TEST(HttpParser, OversizedHeadersDetectedBeforeTerminator) {
  // The parser must refuse an unbounded header section without waiting for
  // the (never-arriving) blank line — that is the memory-bound guarantee.
  HttpParser::Limits limits;
  limits.max_header_bytes = 64;
  HttpParser p(limits);
  std::string flood(1024, 'a');
  flood.insert(0, "GET / HTTP/1.1\r\nX-Pad: ");
  ASSERT_EQ(p.feed(flood.data(), flood.size()), ParseStatus::kError);
  EXPECT_EQ(p.error_code(), 431);
}

TEST(HttpParser, DefaultLimitsRefuseAnyBodyWith413) {
  HttpParser p;
  const std::string req =
      "POST /metrics HTTP/1.1\r\nContent-Length: 10\r\n\r\n";
  ASSERT_EQ(p.feed(req.data(), req.size()), ParseStatus::kError);
  EXPECT_EQ(p.error_code(), 413);
}

TEST(HttpParser, UnsupportedVersionIs505) {
  HttpParser p;
  const std::string req = "GET / HTTP/2.0\r\n\r\n";
  ASSERT_EQ(p.feed(req.data(), req.size()), ParseStatus::kError);
  EXPECT_EQ(p.error_code(), 505);
}

TEST(HttpParser, ChunkedTransferIs501) {
  HttpParser p;
  const std::string req =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  ASSERT_EQ(p.feed(req.data(), req.size()), ParseStatus::kError);
  EXPECT_EQ(p.error_code(), 501);
}

// ------------------------------------------------ parser: keep-alive rules

TEST(HttpParser, KeepAliveResolution) {
  struct Case {
    const char* request;
    bool expect_keep_alive;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n", true},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: foo, close\r\n\r\n", false},
  };
  for (const Case& c : cases) {
    HttpParser p;
    ASSERT_EQ(p.feed(c.request, std::strlen(c.request)),
              ParseStatus::kComplete)
        << c.request;
    EXPECT_EQ(p.request().keep_alive, c.expect_keep_alive) << c.request;
  }
}

// ------------------------------------------------------- response writer

TEST(HttpResponseWriter, SerializeFramesAndConnectionHeader) {
  HttpResponse resp;
  resp.code = 200;
  resp.body = "hello";
  const std::string keep = serialize_response(resp, /*keep_alive=*/true);
  EXPECT_NE(keep.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(keep.substr(keep.size() - 5), "hello");

  resp.code = 503;
  const std::string close = serialize_response(resp, /*keep_alive=*/false);
  EXPECT_NE(close.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(close.find("Connection: close\r\n"), std::string::npos);
}

TEST(HttpResponseWriter, ReasonPhrases) {
  EXPECT_STREQ(reason_phrase(200), "OK");
  EXPECT_STREQ(reason_phrase(404), "Not Found");
  EXPECT_STREQ(reason_phrase(431), "Request Header Fields Too Large");
  EXPECT_STREQ(reason_phrase(299), "Unknown");
}

// --------------------------------------------------- server: socket tests

HttpServerOptions quick_server_options() {
  HttpServerOptions opts;
  opts.port = 0;  // ephemeral
  opts.drain_timeout_s = 2.0;
  return opts;
}

TEST(HttpServerSocket, ServesKeepAliveRequestsOnOneConnection) {
  HttpServer server(quick_server_options());
  server.set_handler([](const HttpRequest& req, const Responder& r) {
    HttpResponse resp;
    resp.body = "echo:" + req.path;
    r.send(std::move(resp));
  });
  ASSERT_TRUE(server.start());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  const std::string first = round_trip(fd, "GET /a HTTP/1.1\r\n\r\n");
  EXPECT_EQ(response_code(first), 200);
  EXPECT_NE(first.find("echo:/a"), std::string::npos);

  // Same connection, second request: keep-alive actually kept it alive.
  const std::string second = round_trip(fd, "GET /b HTTP/1.1\r\n\r\n");
  EXPECT_EQ(response_code(second), 200);
  EXPECT_NE(second.find("echo:/b"), std::string::npos);

  ::close(fd);
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_GE(server.stats().requests, 2u);
}

TEST(HttpServerSocket, PipelinedRequestsGetBothResponsesInOrder) {
  HttpServer server(quick_server_options());
  server.set_handler([](const HttpRequest& req, const Responder& r) {
    HttpResponse resp;
    resp.body = "echo:" + req.path;
    r.send(std::move(resp));
  });
  ASSERT_TRUE(server.start());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(send_all(fd,
                       "GET /one HTTP/1.1\r\n\r\n"
                       "GET /two HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string out;
  ASSERT_TRUE(recv_until(fd, out, [](const std::string& text) {
    return text.find("echo:/one") != std::string::npos &&
           text.find("echo:/two") != std::string::npos;
  }));
  EXPECT_LT(out.find("echo:/one"), out.find("echo:/two"));
  ::close(fd);
  server.stop();
}

TEST(HttpServerSocket, MalformedRequestDraws400AndClose) {
  HttpServer server(quick_server_options());
  server.set_handler([](const HttpRequest&, const Responder& r) {
    r.send(HttpResponse{});
  });
  ASSERT_TRUE(server.start());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string resp = round_trip(fd, "BOGUS\r\n\r\n");
  EXPECT_EQ(response_code(resp), 400);
  EXPECT_NE(resp.find("Connection: close"), std::string::npos);
  // The server closes after an error response: the next read is EOF.
  std::string rest;
  EXPECT_TRUE(recv_until(
      fd, rest, [](const std::string&) { return false; }, 2.0) == false ||
              rest.empty());
  ::close(fd);
  server.stop();
}

TEST(HttpServerSocket, OversizedHeadersDraw431) {
  HttpServerOptions opts = quick_server_options();
  opts.max_header_bytes = 256;
  HttpServer server(opts);
  server.set_handler([](const HttpRequest&, const Responder& r) {
    r.send(HttpResponse{});
  });
  ASSERT_TRUE(server.start());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  std::string req = "GET / HTTP/1.1\r\nX-Pad: ";
  req.append(1024, 'a');
  req += "\r\n\r\n";
  const std::string resp = round_trip(fd, req);
  EXPECT_EQ(response_code(resp), 431);
  ::close(fd);
  server.stop();
}

TEST(HttpServerSocket, SlowLorisConnectionsAreEvicted) {
  HttpServerOptions opts = quick_server_options();
  opts.idle_timeout_s = 0.2;
  HttpServer server(opts);
  server.set_handler([](const HttpRequest&, const Responder& r) {
    r.send(HttpResponse{});
  });
  ASSERT_TRUE(server.start());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // A slow-loris client: part of a request, then silence. The idle sweeper
  // must cut the connection — observed here as EOF on the client side.
  ASSERT_TRUE(send_all(fd, "GET /slow HTTP/1.1\r\nX-Dri"));
  std::string out;
  const bool got_eof = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    char buf[256];
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 200) <= 0) continue;
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return true;  // evicted
      if (n < 0) return true;   // reset also counts as eviction
    }
    return false;
  }();
  EXPECT_TRUE(got_eof) << "idle connection was not evicted";
  EXPECT_GE(server.stats().idle_closed, 1u);
  ::close(fd);
  server.stop();
}

TEST(HttpServerSocket, ConnectionCapShedsWith503) {
  HttpServerOptions opts = quick_server_options();
  opts.max_connections = 2;
  HttpServer server(opts);
  server.set_handler([](const HttpRequest&, const Responder& r) {
    r.send(HttpResponse{});
  });
  ASSERT_TRUE(server.start());

  // Fill the cap with two live connections (a round trip each guarantees
  // the server has registered them before the third arrives).
  const int fd1 = connect_loopback(server.port());
  const int fd2 = connect_loopback(server.port());
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  EXPECT_EQ(response_code(round_trip(fd1, "GET / HTTP/1.1\r\n\r\n")), 200);
  EXPECT_EQ(response_code(round_trip(fd2, "GET / HTTP/1.1\r\n\r\n")), 200);

  const int fd3 = connect_loopback(server.port());
  ASSERT_GE(fd3, 0);
  std::string shed;
  ASSERT_TRUE(recv_until(fd3, shed, has_full_response));
  EXPECT_EQ(response_code(shed), 503);
  EXPECT_NE(shed.find("Connection: close"), std::string::npos);
  EXPECT_GE(server.stats().shed, 1u);

  ::close(fd1);
  ::close(fd2);
  ::close(fd3);
  server.stop();
}

TEST(HttpServerSocket, StopWithIdleConnectionReturnsPromptly) {
  HttpServer server(quick_server_options());
  server.set_handler([](const HttpRequest&, const Responder& r) {
    r.send(HttpResponse{});
  });
  ASSERT_TRUE(server.start());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  EXPECT_EQ(response_code(round_trip(fd, "GET / HTTP/1.1\r\n\r\n")), 200);

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();  // must not wait out drain_timeout_s on an idle conn
  const double stop_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(stop_s, 1.5);
  ::close(fd);
}

// ----------------------------------------------------------- obs server

TEST(ObsServerSocket, SelfScrapeRendersNonFiniteValuesAsJsonNull) {
  telemetry::TimeSeriesStore store(1 << 10);
  store.insert("oda/oda_test_obs_nan_gauge",
               {3, std::numeric_limits<double>::quiet_NaN()});
  HttpServerOptions opts;
  opts.port = 0;
  ObsServer obs_http(opts);
  obs_http.set_store(&store);
  ASSERT_TRUE(obs_http.start());
  const int fd = connect_loopback(obs_http.port());
  ASSERT_GE(fd, 0);
  const std::string resp =
      round_trip(fd, "GET /selfscrape HTTP/1.1\r\n\r\n");
  ::close(fd);
  obs_http.stop();
  EXPECT_EQ(response_code(resp), 200);
  EXPECT_NE(resp.find("\"path\": \"oda/oda_test_obs_nan_gauge\", "
                      "\"samples\": 1, \"last_time\": 3, "
                      "\"last_value\": null}"),
            std::string::npos)
      << resp;
}

TEST(ObsServerSocket, EndpointsAnswerWithExpectedCodes) {
  // Touch a metric so /metrics has at least one family.
  obs::MetricsRegistry::global()
      .counter("oda_test_net_touch_total", "test marker")
      .inc();

  telemetry::TimeSeriesStore store(1 << 10);
  SelfScrape scraper(store);
  ASSERT_GT(scraper.scrape_once(7), 0u);

  HttpServerOptions opts;
  opts.port = 0;
  ObsServer obs_http(opts);
  obs_http.set_store(&store);
  ASSERT_TRUE(obs_http.start());
  const std::uint16_t port = obs_http.port();

  struct Probe {
    const char* target;
    int expect_code;
    const char* expect_substring;
  };
  const Probe probes[] = {
      {"/metrics", 200, "oda_http_requests_total"},
      {"/metrics.json", 200, "\"families\""},
      {"/trace", 200, nullptr},
      {"/flight", 200, "traceEvents"},
      {"/varz", 200, "\"uptime_seconds\""},
      {"/selfscrape", 200, "oda/"},
      {"/", 200, "/metrics"},
      {"/unknown", 404, nullptr},
  };
  for (const Probe& probe : probes) {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0) << probe.target;
    const std::string resp = round_trip(
        fd, std::string("GET ") + probe.target + " HTTP/1.1\r\n\r\n");
    EXPECT_EQ(response_code(resp), probe.expect_code) << probe.target;
    if (probe.expect_substring != nullptr) {
      EXPECT_NE(resp.find(probe.expect_substring), std::string::npos)
          << probe.target << " body lacks " << probe.expect_substring;
    }
    ::close(fd);
  }

  // /healthz renders the report with either verdict code.
  {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    const std::string resp =
        round_trip(fd, "GET /healthz HTTP/1.1\r\n\r\n");
    const int code = response_code(resp);
    EXPECT_TRUE(code == 200 || code == 503) << resp;
    ::close(fd);
  }

  // Non-GET methods are refused with 405 + Allow.
  {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    const std::string resp =
        round_trip(fd, "DELETE /metrics HTTP/1.1\r\n\r\n");
    EXPECT_EQ(response_code(resp), 405);
    EXPECT_NE(resp.find("Allow: GET"), std::string::npos);
    ::close(fd);
  }

  // /profile rejects garbage before touching the profiler.
  {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    const std::string resp =
        round_trip(fd, "GET /profile?seconds=bogus HTTP/1.1\r\n\r\n");
    EXPECT_EQ(response_code(resp), 400);
    ::close(fd);
  }

  obs_http.stop();
  EXPECT_FALSE(obs_http.running());
}

// ----------------------------------------------------------- self-scrape

TEST(SelfScrape, IngestsRegistryIntoStoreUnderPrefix) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& marker =
      registry.counter("oda_test_selfscrape_marker_total", "test marker");
  marker.inc(3);

  telemetry::TimeSeriesStore store(1 << 10);
  SelfScrape scraper(store);
  const std::size_t first = scraper.scrape_once(100);
  ASSERT_GT(first, 0u);
  EXPECT_EQ(scraper.passes(), 1u);
  EXPECT_EQ(scraper.samples_ingested(), first);

  const std::vector<std::string> series = store.match("oda/*");
  ASSERT_FALSE(series.empty());
  const std::string marker_path = "oda/oda_test_selfscrape_marker_total";
  EXPECT_EQ(store.query_all(marker_path).size(), 1u);
  {
    const telemetry::SeriesSlice slice = store.query_all(marker_path);
    ASSERT_EQ(slice.times.size(), 1u);
    EXPECT_EQ(slice.times.back(), 100);
    EXPECT_GE(slice.values.back(), 3.0);
  }

  // A second pass appends, monotonically in time.
  marker.inc();
  const std::size_t second = scraper.scrape_once(200);
  EXPECT_GE(second, first);
  const telemetry::SeriesSlice slice = store.query_all(marker_path);
  ASSERT_EQ(slice.times.size(), 2u);
  EXPECT_EQ(slice.times.back(), 200);
  EXPECT_GT(slice.values.back(), slice.values.front());
}

TEST(SelfScrape, HistogramsIngestSumAndCount) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry
      .histogram("oda_test_selfscrape_hist_seconds", "test histogram",
                 {{"k", "v"}})
      .observe(0.5);

  telemetry::TimeSeriesStore store(1 << 10);
  SelfScrape scraper(store);
  ASSERT_GT(scraper.scrape_once(1), 0u);
  EXPECT_EQ(
      store.query_all("oda/oda_test_selfscrape_hist_seconds_sum{k=v}").size(),
      1u);
  EXPECT_EQ(
      store.query_all("oda/oda_test_selfscrape_hist_seconds_count{k=v}").size(),
      1u);
}

}  // namespace
}  // namespace oda::net
