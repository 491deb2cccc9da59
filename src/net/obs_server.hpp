// The live introspection plane: an HttpServer wired to the existing
// observability exporters, so everything self_monitor writes to files is
// also scrapeable from the running process (docs/OBSERVABILITY.md "Live
// introspection" has the endpoint table):
//
//   GET /metrics          Prometheus text exposition (with exemplars)
//   GET /metrics.json     JSON metrics snapshot
//   GET /healthz          200/503 + rendered assess_pipeline_health report
//   GET /trace            Chrome trace JSON (?clear=1 drains the tracer)
//   GET /profile?seconds= sampling-profiler run -> folded stacks (deferred)
//   GET /flight           FlightRecorder snapshot (Chrome trace JSON)
//   GET /varz             pid, uptime, thread registry, http stats
//   GET /selfscrape       self-scraped oda/* series in the attached store
//                         (kSelfScrapePrefix, net/self_scrape.hpp)
//
// /profile clamps its ?seconds= to 30 s, which also bounds stop() latency:
// stop() joins an in-flight profile worker.
//
// Unknown paths collapse to the "other" label of oda_http_requests_total
// so scanners cannot mint label cardinality.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/sync.hpp"
#include "net/server.hpp"

namespace oda::telemetry {
class TimeSeriesStore;
}  // namespace oda::telemetry

namespace oda::net {

class ObsServer {
 public:
  explicit ObsServer(HttpServerOptions opts = {});
  ~ObsServer();
  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Store queried by /selfscrape (usually the one SelfScrape feeds).
  /// Must outlive the server; call before start().
  void set_store(const telemetry::TimeSeriesStore* store);

  bool start();
  /// Joins any in-flight /profile worker, then quiesces the HttpServer.
  void stop();
  bool running() const noexcept { return http_.running(); }
  std::uint16_t port() const noexcept { return http_.port(); }

 private:
  void handle(const HttpRequest& req, const Responder& responder);
  HttpResponse route(const HttpRequest& req);
  bool handle_profile(const HttpRequest& req, const Responder& responder);
  HttpResponse varz() const;
  HttpResponse selfscrape_dump() const;
  void join_profile_worker() ODA_EXCLUDES(profile_mu_);

  HttpServer http_;
  const telemetry::TimeSeriesStore* store_ = nullptr;
  std::chrono::steady_clock::time_point start_time_{};

  /// Leaf lock (unranked): guards only the worker thread handle.
  Mutex profile_mu_;
  std::thread profile_worker_ ODA_GUARDED_BY(profile_mu_);
  /// One profile run at a time (the SamplingProfiler is process-global).
  std::atomic<bool> profile_busy_{false};
};

}  // namespace oda::net
