// Live-introspection plane benchmark: what does a scrape cost, and how
// fast can the epoll server turn requests around?
//
//   * scrape latency: sequential GET /metrics round trips against a real
//     ObsServer whose registry carries a representative family count —
//     reported as p50/p99 microseconds (http_scrape_p99_us is the CI-gated
//     number: a regression here is a scraper stalling the reactor).
//   * request throughput: keep-alive GET round trips against a minimal
//     handler (http_reqs_per_sec) — the server machinery itself, with the
//     exposition cost factored out.
//
// Plain BenchReport executable: `--json <path>` writes the machine-readable
// record scripts/check_bench.py gates; `--quick` shortens the runs to CI
// smoke pace.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/obs_server.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"

namespace {

using oda::net::HttpResponse;

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

bool send_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t sent = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (sent <= 0) return false;
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

/// Reads one Content-Length-framed response off a keep-alive connection.
bool recv_response(int fd, std::string& scratch) {
  scratch.clear();
  char buf[65536];
  std::size_t body_needed = 0;
  std::size_t header_end = std::string::npos;
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = scratch.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::size_t cl = scratch.find("Content-Length: ");
        if (cl == std::string::npos || cl > header_end) return false;
        body_needed = static_cast<std::size_t>(
            std::strtoul(scratch.c_str() + cl + 16, nullptr, 10));
      }
    }
    if (header_end != std::string::npos &&
        scratch.size() >= header_end + 4 + body_needed) {
      return true;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    scratch.append(buf, static_cast<std::size_t>(n));
  }
}

/// `reps` sequential round trips on one keep-alive connection; returns the
/// per-request latencies in microseconds (empty on any failure).
std::vector<double> time_round_trips(std::uint16_t port,
                                     const std::string& request, int reps) {
  std::vector<double> latencies_us;
  const int fd = connect_loopback(port);
  if (fd < 0) return latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(reps));
  std::string scratch;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!send_all(fd, request.data(), request.size()) ||
        !recv_response(fd, scratch)) {
      latencies_us.clear();
      break;
    }
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  ::close(fd);
  return latencies_us;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// A registry payload comparable to the real pipeline's (~50 families with
/// labeled series and histograms), so /metrics renders realistic bytes.
void populate_registry() {
  oda::obs::MetricsRegistry& registry = oda::obs::MetricsRegistry::global();
  char name[64];
  for (int i = 0; i < 40; ++i) {
    std::snprintf(name, sizeof(name), "oda_bench_net_family_%02d_total", i);
    registry.counter(name, "bench filler counter", {{"shard", "0"}}).inc(i);
    registry.counter(name, "bench filler counter", {{"shard", "1"}}).inc(i);
  }
  for (int i = 0; i < 8; ++i) {
    std::snprintf(name, sizeof(name), "oda_bench_net_hist_%02d_seconds", i);
    oda::obs::Histogram& hist =
        registry.histogram(name, "bench filler histogram");
    for (int k = 0; k < 32; ++k) {
      hist.observe(0.0005 * static_cast<double>(k));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  oda::bench::BenchReport report("bench_net", argc, argv);
  populate_registry();

  // ----------------------------------------------------- scrape latency
  const int scrape_reps = quick ? 300 : 3000;
  {
    oda::net::HttpServerOptions opts;
    opts.port = 0;
    oda::net::ObsServer server(opts);
    if (!server.start()) {
      std::fprintf(stderr, "bench_net: ObsServer failed to start\n");
      return 1;
    }
    const std::string request = "GET /metrics HTTP/1.1\r\n\r\n";
    // Warm up connection setup + first-snapshot allocations off the clock.
    time_round_trips(server.port(), request, 16);
    const std::vector<double> lat =
        time_round_trips(server.port(), request, scrape_reps);
    server.stop();
    if (lat.empty()) {
      std::fprintf(stderr, "bench_net: scrape round trips failed\n");
      return 1;
    }
    const double p50 = percentile(lat, 0.50);
    const double p99 = percentile(lat, 0.99);
    std::printf("GET /metrics scrape latency over %zu keep-alive round "
                "trips:\n  p50 %8.1f us\n  p99 %8.1f us\n",
                lat.size(), p50, p99);
    report.add("http_scrape_p50_us", p50, "us");
    report.add("http_scrape_p99_us", p99, "us");
  }

  // ------------------------------------------------- request throughput
  const int tput_reps = quick ? 2000 : 20000;
  {
    oda::net::HttpServerOptions opts;
    opts.port = 0;
    oda::net::HttpServer server(opts);
    server.set_handler(
        [](const oda::net::HttpRequest&, const oda::net::Responder& r) {
          HttpResponse resp;
          resp.body = "ok";
          r.send(std::move(resp));
        });
    if (!server.start()) {
      std::fprintf(stderr, "bench_net: HttpServer failed to start\n");
      return 1;
    }
    const std::string request = "GET /ok HTTP/1.1\r\n\r\n";
    time_round_trips(server.port(), request, 64);  // warm-up
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<double> lat =
        time_round_trips(server.port(), request, tput_reps);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    server.stop();
    if (lat.empty() || wall_s <= 0.0) {
      std::fprintf(stderr, "bench_net: throughput round trips failed\n");
      return 1;
    }
    const double rps = static_cast<double>(lat.size()) / wall_s;
    std::printf("minimal-handler throughput: %zu keep-alive round trips in "
                "%.3f s -> %.0f req/s\n",
                lat.size(), wall_s, rps);
    report.add("http_reqs_per_sec", rps, "req/s");
  }
  return 0;
}
