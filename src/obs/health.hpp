// Pipeline health: turns a MetricsSnapshot into an operator-facing report —
// per-check verdicts (drops, slow subscribers, rejected tasks, trace
// buffer overflow) and a rendered table of every metric family. Also hosts
// the pull-model registration helpers that connect common/ concurrency
// primitives (which obs cannot be a dependency of) to the registry via
// callback gauges.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/blocking_queue.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace oda::obs {

struct HealthCheck {
  std::string name;     // e.g. "bus.slow_subscribers"
  bool ok = true;
  std::string detail;   // human-readable evidence either way
};

struct PipelineHealthReport {
  std::vector<HealthCheck> checks;

  bool healthy() const;
  /// "PIPELINE HEALTH" TextTable (check | status | detail).
  std::string render() const;
};

/// Evaluates the standard health checks against a snapshot. Checks degrade
/// gracefully: a check whose metrics are absent reports ok with "(no data)".
/// Resilience checks added for the failure-aware collector: open circuit
/// breakers, quarantined sensors, and collection-gap *growth* (the gap
/// check is edge-triggered per process — it compares against the total seen
/// by the previous assessment, so a historical count alone stays healthy).
/// On the healthy -> unhealthy edge the global FlightRecorder is dumped to
/// its configured dump path (postmortem capture; no-op without a path).
PipelineHealthReport assess_pipeline_health(const MetricsSnapshot& snapshot);

/// Renders every family as a table: counters/gauges with their summed
/// value, histograms with count / mean / max-bucket.
std::string render_metrics_table(const MetricsSnapshot& snapshot);

/// Keeps a set of callback registrations alive; dropping it unregisters
/// them (safe teardown before the instrumented object dies).
struct InstrumentationHandles {
  std::vector<CallbackHandle> handles;
};

/// Exports a ThreadPool's queue depth, task counters, and scheduler
/// attribution:
///   oda_pool_pending_tasks{pool=}, oda_pool_threads{pool=},
///   oda_pool_workers_parked{pool=},
///   oda_pool_submitted_total{pool=}, oda_pool_completed_total{pool=},
///   oda_pool_rejected_total{pool=},
///   oda_pool_task_queue_wait_seconds{pool=} (histogram),
///   oda_pool_task_run_seconds{pool=} (histogram).
/// Takes the pool by mutable reference because it installs the per-task
/// timing hook (ThreadPool::set_task_timing_hook) that feeds the two
/// histograms — so call it during setup, before work is submitted. No
/// steal counters are exported: the pool uses a single shared queue, so
/// queue-wait already captures all scheduling delay.
InstrumentationHandles register_thread_pool(MetricsRegistry& registry,
                                            ThreadPool& pool,
                                            const std::string& pool_label);

/// Exports the process-wide lock contention table (common/contention.hpp):
///   oda_lock_wait_seconds{rank=} (histogram of blocking-acquire waits),
///   oda_lock_contended_total{rank=} (contended acquisitions).
/// One series per lock_order rank (including "unranked"), registered
/// eagerly so dashboards see explicit zeros. The sole home of store shard
/// lock-wait attribution (the old per-shard gauge alias is gone).
InstrumentationHandles register_lock_contention(MetricsRegistry& registry);

/// Exports sampling-profiler meta-statistics (obs/profiler.hpp):
///   oda_profiler_samples_total{profiler=}, oda_profiler_truncated_total
///   {profiler=}, oda_profiler_threads_watched{profiler=}.
InstrumentationHandles register_profiler(MetricsRegistry& registry,
                                         const class SamplingProfiler& profiler,
                                         const std::string& profiler_label);

/// Exports the global Tracer's buffer pressure:
///   oda_trace_events{tracer="global"}, oda_trace_dropped_total{tracer=}.
InstrumentationHandles register_tracer(MetricsRegistry& registry);

/// Exports the global FlightRecorder's occupancy and dump counters:
///   oda_flight_events{recorder="global"}, oda_flight_recorded_total
///   {recorder=}, oda_flight_dumps_total{recorder=}.
InstrumentationHandles register_flight_recorder(MetricsRegistry& registry);

/// Exports a BlockingQueue's depth gauge and reject counter:
///   oda_queue_depth{queue=}, oda_queue_rejected_total{queue=}.
template <typename T>
// ODA-LINT-ALLOW(production-caller): BlockingQueue metrics hook; tests drive it
InstrumentationHandles register_blocking_queue(MetricsRegistry& registry,
                                               const BlockingQueue<T>& queue,
                                               const std::string& queue_label) {
  InstrumentationHandles out;
  out.handles.push_back(registry.gauge_callback(
      "oda_queue_depth", "Items currently queued",
      {{"queue", queue_label}, {"kind", "blocking"}},
      [&queue] { return static_cast<double>(queue.size()); }));
  out.handles.push_back(registry.counter_callback(
      "oda_queue_rejected_total", "Pushes rejected because the queue was full",
      {{"queue", queue_label}, {"kind", "blocking"}},
      [&queue] { return static_cast<double>(queue.rejected_count()); }));
  return out;
}

}  // namespace oda::obs
