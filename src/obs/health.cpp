#include "obs/health.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common/contention.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"

namespace oda::obs {

namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string label_suffix(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=" + v;
  }
  out += '}';
  return out;
}

const std::string* label_value(const LabelSet& labels, const std::string& key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Sums the series of `family` whose label set contains key == value.
/// Returns -1.0 when the family is absent entirely (degrade to "(no data)").
double labelled_total(const MetricsSnapshot& snap, const std::string& family,
                      const std::string& key, const std::string& value) {
  const MetricFamily* fam = snap.find(family);
  if (fam == nullptr) return -1.0;
  double total = 0.0;
  for (const auto& v : fam->values) {
    const std::string* got = label_value(v.labels, key);
    if (got != nullptr && *got == value) total += v.value;
  }
  return total;
}

HealthCheck zero_is_healthy(const MetricsSnapshot& snap,
                            const std::string& check_name,
                            const std::string& family,
                            const std::string& what) {
  HealthCheck check;
  check.name = check_name;
  if (snap.find(family) == nullptr) {
    check.ok = true;
    check.detail = "(no data)";
    return check;
  }
  const double total = snap.total(family);
  check.ok = total == 0.0;
  check.detail = fmt("%.0f ", total) + what;
  return check;
}

}  // namespace

bool PipelineHealthReport::healthy() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const HealthCheck& c) { return c.ok; });
}

std::string PipelineHealthReport::render() const {
  TextTable table({"check", "status", "detail"});
  table.set_title("PIPELINE HEALTH");
  table.set_max_width(2, 48);
  for (const auto& c : checks) {
    table.add_row({c.name, c.ok ? "ok" : "DEGRADED", c.detail});
  }
  return table.render();
}

PipelineHealthReport assess_pipeline_health(const MetricsSnapshot& snap) {
  PipelineHealthReport report;
  report.checks.push_back(zero_is_healthy(
      snap, "bus.slow_subscribers", "oda_bus_slow_deliveries_total",
      "deliveries above the bus slow-subscriber threshold"));
  report.checks.push_back(zero_is_healthy(
      snap, "pool.rejected", "oda_pool_rejected_total",
      "tasks rejected by a shut-down pool (ran inline)"));
  report.checks.push_back(zero_is_healthy(
      snap, "queue.rejects", "oda_queue_rejected_total",
      "pushes rejected by a full queue"));
  report.checks.push_back(zero_is_healthy(
      snap, "trace.drops", "oda_trace_dropped_total",
      "spans dropped by a full trace buffer"));

  {
    HealthCheck check;
    check.name = "collector.pace";
    const MetricFamily* fam = snap.find("oda_collector_pass_seconds");
    if (fam == nullptr || fam->histograms.empty() ||
        fam->histograms.front().count == 0) {
      check.ok = true;
      check.detail = "(no data)";
    } else {
      const HistogramValue& h = fam->histograms.front();
      const double mean = h.sum / static_cast<double>(h.count);
      // A collector pass that averages over a second cannot keep up with
      // any realistic sampling period; flag it.
      check.ok = mean < 1.0;
      check.detail = fmt("%.2f ms ", mean * 1e3) +
                     fmt("mean pass over %.0f passes", static_cast<double>(h.count));
    }
    report.checks.push_back(std::move(check));
  }

  {
    // Open circuit breakers mean sensors are actively being skipped
    // (docs/RESILIENCE.md); any nonzero count degrades the pipeline.
    HealthCheck check;
    check.name = "collector.breakers";
    const MetricFamily* fam = snap.find("oda_collector_breakers_open");
    if (fam == nullptr || fam->values.empty()) {
      check.ok = true;
      check.detail = "(no data)";
    } else {
      const double open = snap.total("oda_collector_breakers_open");
      check.ok = open == 0.0;
      check.detail = fmt("%.0f sensors behind an open breaker", open);
    }
    report.checks.push_back(std::move(check));
  }

  {
    // Quarantined sensors are excluded from analytics; surface how many.
    HealthCheck check;
    check.name = "sensors.quarantined";
    const double quarantined =
        labelled_total(snap, "oda_health_sensors", "state", "quarantined");
    if (quarantined < 0.0) {
      check.ok = true;
      check.detail = "(no data)";
    } else {
      check.ok = quarantined == 0.0;
      check.detail = fmt("%.0f sensors quarantined", quarantined);
    }
    report.checks.push_back(std::move(check));
  }

  {
    // Collection gaps growing between two assessments mean reads are being
    // lost *right now* — a steady historical count is fine, growth is not.
    // Edge-triggered per process: the baseline is the total seen by the
    // previous assess_pipeline_health call (first call baselines at 0).
    HealthCheck check;
    check.name = "collector.gaps";
    const MetricFamily* fam = snap.find("oda_collector_gaps_total");
    if (fam == nullptr) {
      check.ok = true;
      check.detail = "(no data)";
    } else {
      static std::atomic<double> baseline{0.0};
      const double total = snap.total("oda_collector_gaps_total");
      // relaxed: a per-process breadcrumb for the next assessment; no
      // ordering with any other memory is needed.
      const double prev = baseline.exchange(total, std::memory_order_relaxed);
      const double growth = total - prev;
      check.ok = growth <= 0.0;
      check.detail = fmt("%.0f new gaps since last assessment ", growth) +
                     fmt("(%.0f lifetime)", total);
    }
    report.checks.push_back(std::move(check));
  }

  {
    // WAL degradation is level-triggered: once the durable tier fell back
    // to in-memory-only mode (ENOSPC, torn write, fsync failure) it stays
    // degraded until restart, and so does this check. Absent family means
    // no WAL is attached — healthy by construction.
    HealthCheck check;
    check.name = "wal.degraded";
    const MetricFamily* fam = snap.find("oda_wal_degraded");
    if (fam == nullptr || fam->values.empty()) {
      check.ok = true;
      check.detail = "(no data)";
    } else {
      const double degraded = snap.total("oda_wal_degraded");
      check.ok = degraded == 0.0;
      check.detail = degraded == 0.0
                         ? "durable tier healthy"
                         : "WAL degraded to in-memory-only mode (samples "
                           "since the fault are not durable)";
    }
    report.checks.push_back(std::move(check));
  }

  {
    // Informational: recovery truncation is the mechanism *working* (the
    // torn tail was cut and accounted), so it never degrades health — but
    // an operator should see that a crash left bytes behind.
    HealthCheck check;
    check.name = "wal.replay";
    const MetricFamily* replayed = snap.find("oda_wal_replayed_samples_total");
    if (replayed == nullptr) {
      check.ok = true;
      check.detail = "(no data)";
    } else {
      check.ok = true;
      check.detail =
          fmt("%.0f samples replayed, ",
              snap.total("oda_wal_replayed_samples_total")) +
          fmt("%.0f bytes truncated at recovery",
              snap.total("oda_wal_truncated_bytes_total"));
    }
    report.checks.push_back(std::move(check));
  }

  {
    HealthCheck check;
    check.name = "store.memory";
    const MetricFamily* fam = snap.find("oda_store_memory_bytes");
    if (fam == nullptr || fam->values.empty()) {
      check.ok = true;
      check.detail = "(no data)";
    } else {
      check.ok = true;  // informational: bounded by ring capacity by design
      check.detail = fmt("%.1f MiB retained", snap.total("oda_store_memory_bytes") /
                                                  (1024.0 * 1024.0));
    }
    report.checks.push_back(std::move(check));
  }

  // Postmortem hook: on the healthy -> unhealthy edge, dump the flight
  // recorder so the moments leading up to the degradation are preserved
  // (no-op unless FlightRecorder::set_dump_path was called).
  static std::atomic<bool> was_unhealthy{false};
  const bool healthy_now = report.healthy();
  if (healthy_now) {
    // relaxed: the edge detector is a per-process breadcrumb, not a lock.
    was_unhealthy.store(false, std::memory_order_relaxed);
  } else if (!was_unhealthy.exchange(true, std::memory_order_relaxed)) {
    FlightRecorder& recorder = FlightRecorder::global();
    if (!recorder.dump_path().empty()) {
      ODA_LOG_WARN << "pipeline health degraded; dumping flight recorder to "
                   << recorder.dump_path();
      recorder.dump_to_file();
    }
  }
  return report;
}

std::string render_metrics_table(const MetricsSnapshot& snap) {
  TextTable table({"metric", "type", "value", "detail"});
  table.set_title("SELF-INSTRUMENTATION METRICS");
  table.set_align(2, Align::kRight);
  table.set_max_width(0, 56);
  table.set_max_width(3, 40);
  for (const auto& fam : snap.families) {
    if (fam.type == MetricType::kHistogram) {
      for (const auto& h : fam.histograms) {
        const double mean =
            h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
        table.add_row({fam.name + label_suffix(h.labels), "histogram",
                       fmt("%.0f", static_cast<double>(h.count)),
                       "mean " + fmt("%.3g", mean) + ", sum " +
                           fmt("%.4g", h.sum)});
      }
    } else {
      for (const auto& v : fam.values) {
        table.add_row({fam.name + label_suffix(v.labels),
                       to_string(fam.type), fmt("%.6g", v.value), ""});
      }
    }
  }
  return table.render();
}

InstrumentationHandles register_thread_pool(MetricsRegistry& registry,
                                            ThreadPool& pool,
                                            const std::string& pool_label) {
  InstrumentationHandles out;
  const LabelSet labels = {{"pool", pool_label}};
  out.handles.push_back(registry.gauge_callback(
      "oda_pool_pending_tasks", "Tasks submitted but not yet finished", labels,
      [&pool] { return static_cast<double>(pool.pending()); }));
  out.handles.push_back(registry.gauge_callback(
      "oda_pool_threads", "Worker threads in the pool", labels,
      [&pool] { return static_cast<double>(pool.thread_count()); }));
  out.handles.push_back(registry.gauge_callback(
      "oda_pool_workers_parked",
      "Workers currently blocked waiting for a task", labels,
      [&pool] { return static_cast<double>(pool.parked_workers()); }));
  out.handles.push_back(registry.counter_callback(
      "oda_pool_submitted_total", "Tasks submitted to the pool", labels,
      [&pool] { return static_cast<double>(pool.submitted_count()); }));
  out.handles.push_back(registry.counter_callback(
      "oda_pool_completed_total", "Tasks that finished executing", labels,
      [&pool] { return static_cast<double>(pool.completed_count()); }));
  out.handles.push_back(registry.counter_callback(
      "oda_pool_rejected_total",
      "Tasks submitted after shutdown (executed inline on the submitter)",
      labels,
      [&pool] { return static_cast<double>(pool.rejected_count()); }));
  // parallel_for_chunks attribution: calls that fanned out and chunks
  // claimed. chunks/calls >> threads means the grain is finer than the
  // fan-out needs; chunks ~= calls means the loop degenerated to serial.
  out.handles.push_back(registry.counter_callback(
      "oda_pool_parallel_for_total",
      "parallel_for_chunks calls that fanned out to the pool",
      labels,
      [&pool] { return static_cast<double>(pool.parallel_for_calls()); }));
  out.handles.push_back(registry.counter_callback(
      "oda_pool_parallel_for_chunks_total",
      "Chunks claimed across all parallel_for_chunks calls (helpers and "
      "callers)",
      labels, [&pool] {
        return static_cast<double>(pool.parallel_for_chunks_claimed());
      }));
  // Scheduler attribution: the pool's timing hook pushes (queue-wait, run)
  // pairs into two push-model histograms. The Histogram references stay
  // valid for the registry's lifetime, so the hook may outlive `out`.
  Histogram& wait_hist = registry.histogram(
      "oda_pool_task_queue_wait_seconds",
      "Time a task spent queued before a worker picked it up", labels);
  Histogram& run_hist = registry.histogram(
      "oda_pool_task_run_seconds", "Time a task spent executing", labels);
  pool.set_task_timing_hook([&wait_hist, &run_hist](double wait_s,
                                                    double run_s) {
    wait_hist.observe(wait_s);
    run_hist.observe(run_s);
  });
  return out;
}

InstrumentationHandles register_lock_contention(MetricsRegistry& registry) {
  InstrumentationHandles out;
  for (std::size_t r = 0; r < kLockRankCount; ++r) {
    const auto rank = static_cast<LockRankId>(r);
    const LabelSet labels = {{"rank", to_string(rank)}};
    out.handles.push_back(registry.histogram_callback(
        "oda_lock_wait_seconds",
        "Blocking lock-acquisition wait time by lock_order rank", labels,
        [rank] {
          const contention::Snapshot snap = contention::snapshot(rank);
          HistogramSnapshot h;
          h.bounds.assign(contention::kWaitBounds.begin(),
                          contention::kWaitBounds.end());
          h.counts.assign(snap.buckets.begin(), snap.buckets.end());
          h.sum = snap.wait_seconds;
          return h;
        }));
    out.handles.push_back(registry.counter_callback(
        "oda_lock_contended_total",
        "Lock acquisitions that lost their try_lock fast path", labels,
        [rank] {
          return static_cast<double>(contention::snapshot(rank).contended);
        }));
  }
  return out;
}

InstrumentationHandles register_profiler(MetricsRegistry& registry,
                                         const SamplingProfiler& profiler,
                                         const std::string& profiler_label) {
  InstrumentationHandles out;
  const LabelSet labels = {{"profiler", profiler_label}};
  out.handles.push_back(registry.counter_callback(
      "oda_profiler_samples_total", "Stack samples written to profiler rings",
      labels,
      [&profiler] { return static_cast<double>(profiler.sampled_total()); }));
  out.handles.push_back(registry.counter_callback(
      "oda_profiler_truncated_total",
      "Stack walks cut short by depth or frame-pointer checks", labels,
      [&profiler] {
        return static_cast<double>(profiler.truncated_total());
      }));
  out.handles.push_back(registry.gauge_callback(
      "oda_profiler_threads_watched",
      "Threads with a sample ring attached in the current run", labels,
      [&profiler] { return static_cast<double>(profiler.thread_count()); }));
  return out;
}

InstrumentationHandles register_tracer(MetricsRegistry& registry) {
  InstrumentationHandles out;
  const LabelSet labels = {{"tracer", "global"}};
  const Tracer& tracer = Tracer::global();
  out.handles.push_back(registry.gauge_callback(
      "oda_trace_events", "Spans currently retained in trace buffers", labels,
      [&tracer] { return static_cast<double>(tracer.event_count()); }));
  out.handles.push_back(registry.counter_callback(
      "oda_trace_dropped_total", "Spans dropped by a full trace buffer",
      labels, [&tracer] { return static_cast<double>(tracer.dropped()); }));
  return out;
}

InstrumentationHandles register_flight_recorder(MetricsRegistry& registry) {
  InstrumentationHandles out;
  const LabelSet labels = {{"recorder", "global"}};
  const FlightRecorder& recorder = FlightRecorder::global();
  out.handles.push_back(registry.gauge_callback(
      "oda_flight_events", "Events currently retained in flight-recorder rings",
      labels,
      [&recorder] { return static_cast<double>(recorder.event_count()); }));
  out.handles.push_back(registry.counter_callback(
      "oda_flight_recorded_total",
      "Events recorded by the flight recorder since start", labels,
      [&recorder] { return static_cast<double>(recorder.recorded_total()); }));
  out.handles.push_back(registry.counter_callback(
      "oda_flight_dumps_total", "Flight-recorder postmortem dumps written",
      labels,
      [&recorder] { return static_cast<double>(recorder.dump_count()); }));
  return out;
}

}  // namespace oda::obs
