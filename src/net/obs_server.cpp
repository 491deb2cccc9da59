#include "net/obs_server.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "common/thread_watch.hpp"
#include "net/self_scrape.hpp"
#include "obs/exposition.hpp"
#include "obs/health.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "telemetry/store.hpp"

namespace oda::net {

namespace {

constexpr const char* kContentTypeProm =
    "text/plain; version=0.0.4; charset=utf-8";
constexpr const char* kContentTypeJson = "application/json";
/// Upper clamp on /profile?seconds=N (see the header).
constexpr double kMaxProfileSeconds = 30.0;

/// Routes that get their own oda_http_requests_total{path=} label; every
/// other request is counted as "other".
const char* const kKnownPaths[] = {
    "/",      "/metrics", "/metrics.json", "/healthz",    "/trace",
    "/flight", "/profile", "/varz",        "/selfscrape",
};

}  // namespace

ObsServer::ObsServer(HttpServerOptions opts) : http_(std::move(opts)) {}

ObsServer::~ObsServer() { stop(); }

void ObsServer::set_store(const telemetry::TimeSeriesStore* store) {
  store_ = store;
}

bool ObsServer::start() {
  http_.set_path_normalizer([](const HttpRequest& req) -> std::string {
    for (const char* known : kKnownPaths) {
      if (req.path == known) return req.path;
    }
    return "other";
  });
  http_.set_handler([this](const HttpRequest& req, const Responder& r) {
    handle(req, r);
  });
  start_time_ = std::chrono::steady_clock::now();
  return http_.start();
}

void ObsServer::stop() {
  // Worker first: it may still hold a Responder into http_, and send() to
  // a drained connection is a no-op but send() into a destroyed server is
  // not — the join makes http_.stop() safe to follow.
  join_profile_worker();
  http_.stop();
}

void ObsServer::join_profile_worker() {
  MutexLock lock(profile_mu_);
  if (profile_worker_.joinable()) profile_worker_.join();
}

void ObsServer::handle(const HttpRequest& req, const Responder& responder) {
  if (req.method != "GET") {
    HttpResponse resp;
    resp.code = 405;
    resp.body = "observability endpoints are GET-only\n";
    resp.extra_headers.emplace_back("Allow", "GET");
    responder.send(std::move(resp));
    return;
  }
  if (req.path == "/profile") {
    handle_profile(req, responder);
    return;
  }
  responder.send(route(req));
}

HttpResponse ObsServer::route(const HttpRequest& req) {
  HttpResponse resp;
  if (req.path == "/metrics") {
    resp.content_type = kContentTypeProm;
    resp.body = obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
  } else if (req.path == "/metrics.json") {
    resp.content_type = kContentTypeJson;
    resp.body = obs::to_json(obs::MetricsRegistry::global().snapshot());
  } else if (req.path == "/healthz") {
    const obs::PipelineHealthReport report = obs::assess_pipeline_health(
        obs::MetricsRegistry::global().snapshot());
    resp.code = report.healthy() ? 200 : 503;
    resp.body = report.render();
  } else if (req.path == "/trace") {
    obs::Tracer& tracer = obs::Tracer::global();
    resp.content_type = kContentTypeJson;
    resp.body = tracer.to_chrome_json();
    // Drain semantics for scrapers that archive trace windows. Events
    // recorded between snapshot and clear are lost; the scrape cadence
    // bounds the loss, and the alternative (a lock around both) would
    // stall every instrumented thread.
    if (req.query_param("clear") == "1") tracer.clear();
  } else if (req.path == "/flight") {
    resp.content_type = kContentTypeJson;
    resp.body = obs::FlightRecorder::global().to_chrome_json();
  } else if (req.path == "/varz") {
    resp = varz();
  } else if (req.path == "/selfscrape") {
    resp = selfscrape_dump();
  } else if (req.path == "/") {
    resp.body =
        "oda observability endpoints:\n"
        "  /metrics /metrics.json /healthz /trace /profile?seconds=N\n"
        "  /flight /varz /selfscrape\n";
  } else {
    resp.code = 404;
    resp.body = "unknown endpoint: " + req.path + "\n";
  }
  return resp;
}

bool ObsServer::handle_profile(const HttpRequest& req,
                               const Responder& responder) {
  double seconds = 1.0;
  const std::string param = req.query_param("seconds");
  if (!param.empty()) {
    char* end = nullptr;
    const double parsed = std::strtod(param.c_str(), &end);
    if (end == nullptr || *end != '\0' || !(parsed > 0.0)) {
      HttpResponse resp;
      resp.code = 400;
      resp.body = "seconds must be a positive number\n";
      responder.send(std::move(resp));
      return true;
    }
    seconds = parsed;
  }
  seconds = std::clamp(seconds, 0.05, kMaxProfileSeconds);
  // acq_rel: the winner of the exchange owns the (process-global) profiler
  // until it stores false; losers answer 409 without touching it.
  if (profile_busy_.exchange(true, std::memory_order_acq_rel)) {
    HttpResponse resp;
    resp.code = 409;
    resp.body = "a profile run is already in progress\n";
    responder.send(std::move(resp));
    return true;
  }
  MutexLock lock(profile_mu_);
  if (profile_worker_.joinable()) profile_worker_.join();  // reap previous
  Responder deferred = responder;
  profile_worker_ = std::thread([this, seconds, deferred] {
    obs::SamplingProfiler& profiler = obs::SamplingProfiler::global();
    HttpResponse resp;
    // Piggyback when the process already profiles itself (self_monitor
    // starts the global profiler for its whole run): folded() is a safe
    // seqlock snapshot while running, so the window just waits and reads
    // the accumulated stacks instead of fighting over start()/stop().
    const bool piggyback = profiler.running();
    if (!piggyback && !profiler.start(obs::ProfilerOptions{})) {
      resp.code = 503;
      resp.body = "profiler unavailable: another profiler instance is active\n";
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      if (!piggyback) profiler.stop();
      resp.body = profiler.folded();
      if (resp.body.empty()) resp.body = "(no samples)\n";
    }
    deferred.send(std::move(resp));
    profile_busy_.store(false, std::memory_order_release);
  });
  return true;
}

HttpResponse ObsServer::varz() const {
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  std::map<std::string, int> roles;
  ThreadWatchRegistry::global().for_each(
      [&roles](WatchedThread& t) { roles[t.role] += 1; });
  const HttpServer::Stats stats = http_.stats();

  std::string body = "{\n";
  body += "  \"pid\": " + std::to_string(::getpid()) + ",\n";
  body += "  \"uptime_seconds\": " + obs::json_number(uptime_s) + ",\n";
  body += "  \"threads\": {\"watched\": " +
          std::to_string(ThreadWatchRegistry::global().size()) +
          ", \"roles\": {";
  bool first = true;
  for (const auto& [role, count] : roles) {
    if (!first) body += ", ";
    first = false;
    // Appended piecewise: GCC 12 at -O3 flags `"\"" + json_escape(role)`
    // with a false -Werror=restrict.
    body += '"';
    body += obs::json_escape(role);
    body += "\": ";
    body += std::to_string(count);
  }
  body += "}},\n";
  body += "  \"http\": {\"accepted\": " + std::to_string(stats.accepted) +
          ", \"requests\": " + std::to_string(stats.requests) +
          ", \"shed\": " + std::to_string(stats.shed) +
          ", \"idle_closed\": " + std::to_string(stats.idle_closed) +
          ", \"active_connections\": " + std::to_string(stats.active) + "}\n";
  body += "}\n";

  HttpResponse resp;
  resp.content_type = kContentTypeJson;
  resp.body = std::move(body);
  return resp;
}

HttpResponse ObsServer::selfscrape_dump() const {
  HttpResponse resp;
  if (store_ == nullptr) {
    resp.code = 404;
    resp.body = "no store attached (self-scrape not running)\n";
    return resp;
  }
  const std::vector<std::string> paths =
      store_->match(std::string(kSelfScrapePrefix) + "*");
  constexpr std::size_t kMaxListed = 10000;
  std::string body = "{\n  \"series_count\": " +
                     std::to_string(paths.size()) + ",\n  \"series\": [\n";
  const std::size_t listed = std::min(paths.size(), kMaxListed);
  for (std::size_t i = 0; i < listed; ++i) {
    const std::string& path = paths[i];
    const telemetry::SeriesSlice slice = store_->query_all(path);
    body += "    {\"path\": \"" + obs::json_escape(path) + "\", \"samples\": " +
            std::to_string(slice.size());
    if (!slice.empty()) {
      body += ", \"last_time\": " + std::to_string(slice.times.back()) +
              ", \"last_value\": " + obs::json_number(slice.values.back());
    }
    body += i + 1 < listed ? "},\n" : "}\n";
  }
  body += "  ]\n}\n";
  resp.content_type = kContentTypeJson;
  resp.body = std::move(body);
  return resp;
}

}  // namespace oda::net
