// Self-monitoring: the ODA stack observing itself. Runs the full pipeline
// (sim -> collector -> bus/store -> analytics -> control) with span tracing
// enabled, exercises one capability per framework grid cell, and then
// reports the stack's own operational metrics:
//   * PIPELINE HEALTH checks (drops, slow subscribers, rejected tasks),
//   * the full metrics table,
//   * the 4x4 "cost per grid cell" view (runs @ mean ms),
// and exports the evidence in machine-readable form, under fixed names in
// the dump directory:
//   * self_monitor.prom — Prometheus text exposition (validated by
//     scripts/check_prom.py),
//   * metrics.json — a JSON metrics snapshot,
//   * trace.json — a Chrome trace_event JSON loadable in chrome://tracing /
//     Perfetto,
//   * flight.json — the flight recorder's ring dump,
//   * profile.folded — folded stacks from the sampling profiler
//     (flamegraph.pl input, validated by scripts/check_folded.py),
//   * critical_path.txt — the critical-path report over the traced window.
//
//   ./self_monitor [--hours N] [--dump-dir DIR] [--wal-dir DIR]
//                  [--http-port PORT]
//
// Defaults: 8 simulated hours, the current directory, no WAL, no HTTP. An
// unknown flag or a missing value prints the usage and exits 2.
//
// With --wal-dir, ingest is write-ahead logged: a prior run's segments are
// replayed into the store before collection starts and every batch is
// group-committed to disk (telemetry/wal.hpp); a WAL directory that cannot
// be created ends the run with exit code 3. SIGTERM requests a graceful
// shutdown: the HTTP plane quiesces first (stop accepting, drain in-flight
// responses), then the run loop's WAL is flushed and fsynced (an orderly
// stop leaves no tail for recovery to truncate), final metrics are
// exported, and the process exits 0.
//
// With --http-port (0 = ephemeral), the live introspection plane comes up:
// an ObsServer answers /metrics, /healthz, /trace, /profile, /flight, /varz
// and /selfscrape while the pipeline runs, and a SelfScrape pass per
// simulated step feeds the process's own oda_* series back into the same
// store — queryable live at /selfscrape. The bound port is announced on
// stdout ("obs server listening on ...") so harnesses
// (scripts/scrape_smoke.py) can attach to an ephemeral port.
//
// The always-on flight recorder's dump path (flight.json) is also installed
// as the automatic postmortem destination used by assess_pipeline_health on
// a healthy -> unhealthy edge.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "analytics/descriptive/kpi.hpp"
#include "analytics/diagnostic/anomaly.hpp"
#include "analytics/diagnostic/software.hpp"
#include "analytics/diagnostic/stress_test.hpp"
#include "analytics/predictive/failure.hpp"
#include "analytics/predictive/jobs.hpp"
#include "analytics/predictive/spectral.hpp"
#include "analytics/predictive/workload_forecast.hpp"
#include "analytics/prescriptive/controller.hpp"
#include "analytics/prescriptive/cooling.hpp"
#include "analytics/prescriptive/dvfs.hpp"
#include "analytics/prescriptive/placement.hpp"
#include "analytics/prescriptive/recommend.hpp"
#include "core/bindings.hpp"
#include "obs/critical_path.hpp"
#include "obs/exposition.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "net/obs_server.hpp"
#include "net/self_scrape.hpp"
#include "sim/cluster.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/store.hpp"
#include "telemetry/wal.hpp"

namespace {

/// SIGTERM latch: the handler only stores a lock-free atomic flag (async-
/// signal-safe); the run loop polls it once per simulated step.
std::atomic<bool> g_sigterm{false};

void handle_sigterm(int) {
  // relaxed: the loop re-reads the flag every iteration; no other memory
  // is published through it.
  g_sigterm.store(true, std::memory_order_relaxed);
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

struct Args {
  oda::Duration hours = 8;
  std::string dump_dir = ".";
  std::string wal_dir;    ///< empty: no WAL
  std::string http_port;  ///< empty: no HTTP plane
};

/// Parses `--flag value` pairs; nullopt on an unknown flag or a flag
/// without its value.
std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--hours") {
      a.hours = std::atoll(val);
    } else if (flag == "--dump-dir") {
      a.dump_dir = val;
    } else if (flag == "--wal-dir") {
      a.wal_dir = val;
    } else if (flag == "--http-port") {
      a.http_port = val;
    } else {
      return std::nullopt;
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oda;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr, "usage: self_monitor [--hours N] [--dump-dir DIR] "
                         "[--wal-dir DIR] [--http-port PORT]\n");
    return 2;
  }
  const auto& [hours, dump_dir, wal_dir, http_port] = *args;
  std::error_code mkdir_error;  // a failed mkdir surfaces as a failed export
  std::filesystem::create_directories(dump_dir, mkdir_error);
  const auto dump_path = [&dump_dir](const char* name) {
    return (std::filesystem::path(dump_dir) / name).string();
  };
  const std::string prom_out = dump_path("self_monitor.prom");
  const std::string trace_out = dump_path("trace.json");
  const std::string json_out = dump_path("metrics.json");
  const std::string flight_out = dump_path("flight.json");
  const std::string profile_out = dump_path("profile.folded");
  const std::string cp_out = dump_path("critical_path.txt");

  std::signal(SIGTERM, handle_sigterm);

  // Spans from every layer (sim, collector, bus, analytics) are recorded —
  // but only over the final simulated hour, so the bounded trace buffer
  // holds the whole window and drops nothing.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_capacity(1 << 18);
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.set_dump_path(flight_out);

  // The stack profiles itself too: sample every watched thread (the pool
  // workers plus this main thread) for the whole run.
  WatchedThreadScope main_scope("main");
  obs::SamplingProfiler& profiler = obs::SamplingProfiler::global();
  const bool profiling = profiler.start();

  // 1. Simulated facility + full monitoring plane: collector -> store+bus,
  //    with a thread pool for parallel sensor reads.
  sim::ClusterParams params;
  params.seed = 42;
  params.workload.peak_arrival_rate_per_hour = 40.0;
  sim::ClusterSimulation cluster(params);
  cluster.scheduler().set_placement(analytics::make_thermal_placement(cluster));

  telemetry::TimeSeriesStore store(1 << 15);

  // Durable tier: replay any previous run's segments BEFORE attaching the
  // WAL (an attached store would re-log its own replay), then log every
  // batch from here on. Inert when no dir is given; a directory that cannot
  // be created ends the run, since it could not be durable.
  std::optional<telemetry::Wal> wal;
  if (!wal_dir.empty()) {
    wal.emplace(telemetry::WalOptions{.dir = wal_dir});
    const auto recovered = wal->recover_into(store);
    if (!wal->start()) {
      std::fprintf(stderr, "wal: directory %s unusable\n", wal_dir.c_str());
      if (profiling) profiler.stop();
      return 3;
    }
    store.set_wal(&*wal);
    std::printf("wal: replayed %llu samples from %llu segment(s)%s\n",
                static_cast<unsigned long long>(recovered.samples_replayed),
                static_cast<unsigned long long>(recovered.segments_scanned),
                recovered.tail_truncated ? " (tail truncated)" : "");
  }

  // Live introspection plane: HTTP endpoints over the running process plus
  // the reflexive scrape loop feeding oda_* metrics back into `store`.
  // Inert when no port is given.
  net::SelfScrape selfscrape(store);
  std::optional<net::ObsServer> obs_server;
  if (!http_port.empty()) {
    net::HttpServerOptions obs_opts;
    obs_opts.port =
        static_cast<std::uint16_t>(std::atoi(http_port.c_str()));
    obs_server.emplace(obs_opts);
    obs_server->set_store(&store);
    if (obs_server->start()) {
      std::printf("obs server listening on 127.0.0.1:%u\n",
                  static_cast<unsigned>(obs_server->port()));
      std::fflush(stdout);
    } else {
      std::fprintf(stderr, "obs server failed to start on port %s\n",
                   http_port.c_str());
      obs_server.reset();
    }
  }

  telemetry::MessageBus bus;
  ThreadPool pool(2);
  telemetry::Collector collector(cluster, &store, &bus, &pool);
  collector.add_group({"facility", "facility/*", 60});
  collector.add_group({"cluster", "cluster/*", 60});
  collector.add_group({"weather", "weather/*", 300});
  collector.add_group({"nodes", "rack*/node*/*", 60});

  // A downstream consumer on the bus (the alerting role): count facility
  // readings so the bus delivers real traffic worth timing.
  std::uint64_t facility_readings = 0;
  bus.subscribe("facility/*", [&facility_readings](const telemetry::Reading&) {
    ++facility_readings;
  });

  // Pull-model instrumentation of the shared primitives.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto pool_handles = obs::register_thread_pool(registry, pool, "collector");
  const auto tracer_handles = obs::register_tracer(registry);
  const auto recorder_handles = obs::register_flight_recorder(registry);
  const auto lock_handles = obs::register_lock_contention(registry);
  const auto profiler_handles =
      obs::register_profiler(registry, profiler, "global");

  // 2. Prescriptive control plane (building-infrastructure + hardware cells).
  analytics::ControlLoop control(cluster, store);
  control.add(std::make_shared<analytics::CoolingSetpointOptimizer>());
  control.add(std::make_shared<analytics::DvfsGovernor>());

  // 3. Run the pipeline; arm the tracer for the final hour.
  const TimePoint end = hours * kHour;
  const TimePoint trace_from = end > kHour ? end - kHour : 0;
  while (cluster.now() < end &&
         !g_sigterm.load(std::memory_order_relaxed)) {
    if (!tracer.enabled() && cluster.now() >= trace_from) {
      tracer.set_enabled(true);
    }
    cluster.step();
    collector.collect();
    control.tick();
    if (obs_server.has_value()) selfscrape.scrape_once(cluster.now());
  }
  const bool interrupted = g_sigterm.load(std::memory_order_relaxed);

  // Quiesce the HTTP plane FIRST: stop accepting, drain in-flight
  // responses, join the reactor. Ordering matters on SIGTERM — a scraper
  // mid-request during shutdown still gets a complete response (the drain
  // phase services parsed requests), and nothing touches the store while
  // the WAL below detaches and flushes.
  if (obs_server.has_value()) {
    obs_server->stop();
    std::printf("obs server quiesced; self-scrape: %llu passes, %llu samples "
                "ingested\n",
                static_cast<unsigned long long>(selfscrape.passes()),
                static_cast<unsigned long long>(selfscrape.samples_ingested()));
  }

  // Graceful shutdown of the durable tier: detach from the store first so
  // nothing logs after the flush, then flush+fsync and join the writer. An
  // orderly stop leaves segments ending on a record boundary — the next
  // recovery replays them with nothing to truncate.
  if (wal.has_value()) {
    store.set_wal(nullptr);
    const bool flushed = wal->flush();
    wal->stop();
    std::printf("wal: %s, %llu samples committed, %llu lost%s\n",
                flushed ? "flushed and fsynced" : "flush failed (degraded)",
                static_cast<unsigned long long>(wal->committed_samples()),
                static_cast<unsigned long long>(wal->lost_samples()),
                wal->degraded() ? " [degraded]" : "");
  }
  if (interrupted) {
    std::printf("SIGTERM received: graceful shutdown after %lld simulated "
                "seconds\n",
                static_cast<long long>(cluster.now()));
  }
  std::printf("ran %lld simulated hours: %llu samples, %llu bus deliveries, "
              "%llu facility readings consumed\n",
              static_cast<long long>(hours),
              static_cast<unsigned long long>(collector.samples_collected()),
              static_cast<unsigned long long>(bus.delivered_count()),
              static_cast<unsigned long long>(facility_readings));

  // 4. Exercise one capability per framework grid cell so the cost view has
  //    live numbers everywhere. Skipped on SIGTERM: a shutdown request
  //    wants the final metrics out, not a fresh analytics pass over a
  //    partially-collected window.
  if (!interrupted) {
  const auto& records = cluster.scheduler().completed();
  std::vector<std::string> prefixes;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    prefixes.push_back(cluster.node(i).path());
  }

  // Descriptive row.
  const auto pue = analytics::compute_pue(store, 0, cluster.now());
  analytics::compute_itue(store, 0, cluster.now());
  analytics::compute_slowdown({records.data(), records.size()});
  analytics::roofline(3000.0, 200.0, 450.0, 0.25);
  std::printf("interval PUE: %.3f over %lld h\n", pue.pue,
              static_cast<long long>(hours));

  // Diagnostic row. The node monitor trains from the first hour (the first
  // quarter on runs shorter than 4 h) to three quarters of the run and
  // scans its end; the stress test perturbs a small twin of the plant, not
  // the monitored one.
  if (hours >= 2) {
    Rng rng(7);
    analytics::NodeAnomalyMonitor monitor({}, prefixes);
    monitor.train(store, std::min<TimePoint>(kHour, end / 4), 3 * end / 4,
                  rng);
    std::size_t anomalous = 0;
    for (const auto& verdict : monitor.scan(store, cluster.now())) {
      if (verdict.anomalous) ++anomalous;
    }
    std::printf("node anomaly scan: %zu/%zu flagged\n", anomalous,
                cluster.node_count());
  }
  sim::ClusterParams twin_params;
  twin_params.racks = 1;
  twin_params.nodes_per_rack = 2;
  twin_params.workload.peak_arrival_rate_per_hour = 0.0;
  sim::ClusterSimulation twin(twin_params);
  twin.set_workload_enabled(false);
  const auto stress = analytics::run_cooling_stress_test(twin, 0.0);
  std::printf("cooling stress test on a twin plant: tau %.0f s\n",
              stress.time_constant_s);
  const auto fwq =
      analytics::synthesize_fwq(2048, 1e-3, 0.1, 2e-4, 1e-3, /*seed=*/9);
  analytics::analyze_fwq({fwq.data(), fwq.size()}, 1e-3, 1e-3);
  if (!cluster.scheduler().running().empty()) {
    analytics::classify_boundedness(store, cluster.scheduler().running().front(),
                                    prefixes, cluster.now());
  }

  // Predictive row.
  const auto power =
      store.query_aggregated("facility/total_power", 0, cluster.now(), kMinute,
                             telemetry::Aggregation::kMean);
  analytics::detect_power_swings({power.values.data(), power.values.size()},
                                 analytics::NotificationRule{});
  std::vector<double> wear(64);
  for (std::size_t i = 0; i < wear.size(); ++i) {
    wear[i] = 0.5 + 0.004 * static_cast<double>(i);
  }
  analytics::project_failure({wear.data(), wear.size()}, 3600.0, 0.9, true);
  analytics::WorkloadForecaster wf;
  for (const auto& r : records) wf.observe_arrival(r.spec.submit_time);
  if (!records.empty()) wf.forecast(24);
  analytics::JobRuntimePredictor runtime_predictor;
  for (const auto& r : records) runtime_predictor.observe(r);
  if (!records.empty()) runtime_predictor.predict(records.back().spec);

  // Prescriptive row: the control loop already ran setpoint + DVFS and the
  // scheduler used thermal-aware placement; add the applications cell.
  if (!records.empty()) {
    analytics::recommend_for_job(store, records.back(), prefixes);
  }
  }  // if (!interrupted)

  // 5. The stack's own operational picture. Stop sampling first so the
  //    profiler counters the snapshot exports are final.
  if (profiling) profiler.stop();
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::PipelineHealthReport health = obs::assess_pipeline_health(snapshot);
  std::printf("\n%s\n", health.render().c_str());
  std::printf("%s\n", core::render_cell_costs(snapshot).c_str());
  std::printf("%s\n", obs::render_metrics_table(snapshot).c_str());

  // 6. Machine-readable exports.
  bool ok = true;
  ok = write_file(prom_out, obs::to_prometheus(snapshot)) && ok;
  ok = write_file(json_out, obs::to_json(snapshot)) && ok;
  ok = write_file(trace_out, tracer.to_chrome_json()) && ok;
  ok = write_file(flight_out, recorder.to_chrome_json()) && ok;
  ok = profiler.dump_folded(profile_out) && ok;
  const auto cp_reports = obs::analyze_critical_path(tracer.events());
  ok = write_file(cp_out, obs::render_critical_path(cp_reports)) && ok;
  std::printf("exports: %s, %s, %s, %s, %s, %s\n", prom_out.c_str(),
              json_out.c_str(), trace_out.c_str(), flight_out.c_str(),
              profile_out.c_str(), cp_out.c_str());
  std::printf("profiler: %llu samples on %zu thread(s), critical-path "
              "reports: %zu\n",
              static_cast<unsigned long long>(profiler.sampled_total()),
              profiler.thread_count(), cp_reports.size());
  std::printf("trace: %zu spans retained, %llu dropped, %zu metric families\n",
              tracer.event_count(),
              static_cast<unsigned long long>(tracer.dropped()),
              registry.family_count());
  std::printf("flight recorder: %zu events retained of %llu recorded\n",
              recorder.event_count(),
              static_cast<unsigned long long>(recorder.recorded_total()));

  if (!ok || !health.healthy()) {
    std::printf("self-monitoring verdict: UNHEALTHY\n");
    return 1;
  }
  std::printf("self-monitoring verdict: healthy\n");
  return 0;
}
