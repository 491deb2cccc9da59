// Telemetry-store throughput bench: sharded-store insert throughput single-
// and multi-thread, query / query_aggregated / frame latency and the
// collector's serial vs. parallel pass time. `--json <path>` writes its
// metrics through bench_util.hpp for scripts/check_bench.py; --quick shrinks
// the workload for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/cluster.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/series_id.hpp"
#include "telemetry/store.hpp"
#include "telemetry/wal.hpp"

namespace {

using oda::Rng;
using oda::ThreadPool;
using oda::TimePoint;
using oda::telemetry::Aggregation;
using oda::telemetry::IdReading;
using oda::telemetry::Sample;
using oda::telemetry::SeriesId;
using oda::telemetry::SeriesInterner;
using oda::telemetry::TimeSeriesStore;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<std::string> make_paths(std::size_t n) {
  std::vector<std::string> paths;
  paths.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "bench/rack%02zu/node%02zu/power", p / 16,
                  p % 16);
    paths.emplace_back(buf);
  }
  return paths;
}

/// Multi-threaded ingest: each thread writes its own stripe of paths (the
/// collector-group pattern), `samples` total across all threads. Returns
/// million samples per second.
template <typename InsertThread>
double timed_msps(std::size_t threads, std::size_t samples,
                  InsertThread&& body) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&body, t] { body(t); });
  }
  for (auto& w : workers) w.join();
  return static_cast<double>(samples) / seconds_since(start) / 1e6;
}

struct InsertNumbers {
  double sharded_st = 0, sharded_mt = 0;
};

InsertNumbers bench_inserts(std::size_t n_paths, std::size_t per_thread,
                            std::size_t threads, std::size_t batch) {
  const std::vector<std::string> paths = make_paths(n_paths);
  std::vector<SeriesId> ids;
  ids.reserve(n_paths);
  for (const auto& p : paths) ids.push_back(SeriesInterner::global().intern(p));

  InsertNumbers out;
  const auto sharded_writer = [&](TimeSeriesStore& store, std::size_t t,
                                  std::size_t nthreads) {
    // Stripe the path set across threads; batch like a collector pass.
    std::vector<IdReading> buf;
    buf.reserve(batch);
    TimePoint now = 0;
    for (std::size_t i = 0; i < per_thread; ++i) {
      const std::size_t p = (t + i * nthreads) % n_paths;
      buf.push_back({ids[p], {now, static_cast<double>(i)}});
      if (buf.size() == batch) {
        store.insert_batch(std::span<const IdReading>(buf));
        buf.clear();
        ++now;
      }
    }
    if (!buf.empty()) store.insert_batch(std::span<const IdReading>(buf));
  };

  {
    TimeSeriesStore store(1 << 12);
    out.sharded_st =
        timed_msps(1, per_thread, [&](std::size_t t) { sharded_writer(store, t, 1); });
  }
  {
    TimeSeriesStore store(1 << 12);
    out.sharded_mt = timed_msps(threads, per_thread * threads, [&](std::size_t t) {
      sharded_writer(store, t, threads);
    });
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  oda::bench::BenchReport report("bench_store", argc, argv);

  const std::size_t threads =
      std::max<std::size_t>(2, std::min<std::size_t>(
                                   8, std::thread::hardware_concurrency()));
  const std::size_t n_paths = 256;
  const std::size_t per_thread = quick ? 100'000 : 1'000'000;
  const std::size_t batch = 256;

  // ------------------------------------------------------------- ingest
  const InsertNumbers ins = bench_inserts(n_paths, per_thread, threads, batch);
  std::printf("insert throughput (%zu paths, batch %zu):\n", n_paths, batch);
  std::printf("  sharded      1 thread  %8.2f Msamples/s\n", ins.sharded_st);
  std::printf("  sharded     %2zu threads %8.2f Msamples/s\n\n", threads,
              ins.sharded_mt);
  report.add("insert_sharded_1t_msps", ins.sharded_st, "Msamples/s");
  report.add("insert_sharded_mt_msps", ins.sharded_mt, "Msamples/s");
  report.add("insert_threads", static_cast<double>(threads), "");

  // ------------------------------------------------------------- queries
  const std::size_t q_samples = quick ? 20'000 : 200'000;
  TimeSeriesStore store(q_samples + 1);
  const std::vector<std::string> qpaths = make_paths(16);
  for (const auto& p : qpaths) {
    for (std::size_t i = 0; i < q_samples; ++i) {
      store.insert(p, Sample{static_cast<TimePoint>(i),
                             static_cast<double>(i % 997) * 0.5});
    }
  }
  const auto to = static_cast<TimePoint>(q_samples);
  const int q_reps = quick ? 20 : 100;

  auto start = std::chrono::steady_clock::now();
  std::size_t sink = 0;
  for (int r = 0; r < q_reps; ++r) {
    sink += store.query(qpaths[r % qpaths.size()], to / 4, 3 * to / 4).size();
  }
  const double query_us = seconds_since(start) / q_reps * 1e6;

  start = std::chrono::steady_clock::now();
  for (int r = 0; r < q_reps; ++r) {
    sink += store
                .query_aggregated(qpaths[r % qpaths.size()], 0, to, 60,
                                  Aggregation::kStdDev)
                .size();
  }
  const double agg_us = seconds_since(start) / q_reps * 1e6;

  const int f_reps = quick ? 5 : 20;
  start = std::chrono::steady_clock::now();
  for (int r = 0; r < f_reps; ++r) {
    sink += store.frame(qpaths, 0, to, 60, Aggregation::kMean).rows();
  }
  const double frame_ms = seconds_since(start) / f_reps * 1e3;

  ThreadPool pool;
  store.set_pool(&pool);
  start = std::chrono::steady_clock::now();
  for (int r = 0; r < f_reps; ++r) {
    sink += store.frame(qpaths, 0, to, 60, Aggregation::kMean).rows();
  }
  const double frame_parallel_ms = seconds_since(start) / f_reps * 1e3;
  store.set_pool(nullptr);

  std::printf("query latency (%zu samples/series):\n", q_samples);
  std::printf("  query half-range        %10.1f us\n", query_us);
  std::printf("  query_aggregated stddev %10.1f us\n", agg_us);
  std::printf("  frame 16 cols serial    %10.2f ms, pooled %10.2f ms (x%.2f)\n\n",
              frame_ms, frame_parallel_ms, frame_ms / frame_parallel_ms);
  report.add("query_us", query_us, "us");
  report.add("query_aggregated_stddev_us", agg_us, "us");
  report.add("frame_serial_ms", frame_ms, "ms");
  report.add("frame_parallel_ms", frame_parallel_ms, "ms");
  report.add("frame_parallel_speedup", frame_ms / frame_parallel_ms, "x");

  // ------------------------------------------- column-scaling curve
  // Pooled frame() latency as frames widen (64 -> 1024 sensors): the CI
  // smoke gate plots this to catch per-column fan-out overhead creeping
  // back (the chunked parallel_for exists so that 1024 cheap columns do
  // not pay 1024 task submissions).
  {
    const std::size_t cs_samples = quick ? 500 : 2000;
    TimeSeriesStore wide_store(cs_samples + 1);
    const std::vector<std::string> wide_paths = make_paths(1024);
    std::vector<IdReading> seed_batch;
    seed_batch.reserve(wide_paths.size());
    std::vector<SeriesId> wide_ids;
    wide_ids.reserve(wide_paths.size());
    for (const auto& p : wide_paths) {
      wide_ids.push_back(SeriesInterner::global().intern(p));
    }
    for (std::size_t t = 0; t < cs_samples; ++t) {
      seed_batch.clear();
      for (const SeriesId id : wide_ids) {
        seed_batch.push_back(
            {id, {static_cast<TimePoint>(t), static_cast<double>(t % 101)}});
      }
      wide_store.insert_batch(std::span<const IdReading>(seed_batch));
    }
    wide_store.set_pool(&pool);
    const auto wide_to = static_cast<TimePoint>(cs_samples);
    std::printf("frame width scaling (%zu samples/series, pooled):\n",
                cs_samples);
    for (const std::size_t cols : {std::size_t{64}, std::size_t{256},
                                   std::size_t{1024}}) {
      const std::vector<std::string> subset(wide_paths.begin(),
                                            wide_paths.begin() +
                                                static_cast<std::ptrdiff_t>(cols));
      const int reps = quick ? 3 : 10;
      const auto cs_start = std::chrono::steady_clock::now();
      for (int r = 0; r < reps; ++r) {
        sink += wide_store.frame(subset, 0, wide_to, 20, Aggregation::kMean)
                    .rows();
      }
      const double cols_ms = seconds_since(cs_start) / reps * 1e3;
      std::printf("  %4zu cols %10.2f ms\n", cols, cols_ms);
      report.add("frame_cols_" + std::to_string(cols) + "_ms", cols_ms, "ms");
    }
    wide_store.set_pool(nullptr);
  }

  // ---------------------------------------- trace-derived critical path
  // One pooled frame() runs under the tracer; the critical-path analyzer
  // (obs/critical_path.hpp) turns the span tree into the path length and a
  // parallelism coefficient (total busy / root duration). Structural
  // metrics from span nesting, not a wall-clock re-timing — so they also
  // explain *why* the pooled frame is faster, not just that it is.
  {
    oda::obs::Tracer& tracer = oda::obs::Tracer::global();
    tracer.clear();
    tracer.set_capacity(1 << 16);
    tracer.set_enabled(true);
    store.set_pool(&pool);
    sink += store.frame(qpaths, 0, to, 60, Aggregation::kMean).rows();
    store.set_pool(nullptr);
    tracer.set_enabled(false);
    const auto reports = oda::obs::analyze_critical_path(tracer.events());
    tracer.clear();
    for (const auto& r : reports) {
      if (r.root_name != "store.frame") continue;
      std::printf("frame critical path: %.2f ms over %zu spans, "
                  "parallelism x%.2f\n",
                  r.critical_path_us / 1e3, r.span_count, r.parallelism);
      report.add("frame_critical_path_ms", r.critical_path_us / 1e3, "ms");
      report.add("frame_parallelism", r.parallelism, "x");
      break;
    }
  }

  // ------------------------------------------------- collector pass time
  // Serial vs. pool-fanned sensor reads (the fault overlay no longer
  // serializes the parallel path). Same cluster/workload either way.
  std::size_t sensor_count = 0;
  const auto collector_pass_seconds = [&](bool parallel) {
    oda::sim::ClusterParams params;
    params.racks = 8;
    params.nodes_per_rack = 32;
    oda::sim::ClusterSimulation cluster(params);
    sensor_count = cluster.sensors().size();
    for (std::size_t i = 0; i < cluster.sensors().size(); i += 7) {
      cluster.faults().schedule({oda::sim::FaultKind::kSensorNoise,
                                 cluster.sensors()[i].path, 0, 1 << 20, 0.5});
    }
    TimeSeriesStore cstore(1 << 10);
    ThreadPool cpool;
    oda::telemetry::Collector collector(cluster, &cstore, nullptr,
                                        parallel ? &cpool : nullptr);
    collector.add_all_sensors(params.dt);
    const int passes = quick ? 5 : 40;
    cluster.step();
    collector.collect();  // warm-up: intern + create series
    const auto c_start = std::chrono::steady_clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      cluster.step();
      collector.collect();
    }
    return seconds_since(c_start) / passes;
  };
  const double serial_pass = collector_pass_seconds(false);
  const double parallel_pass = collector_pass_seconds(true);
  std::printf("collector pass (8x32 nodes, %zu sensors):\n  serial %8.2f ms, "
              "parallel %8.2f ms -> x%.2f\n",
              sensor_count, serial_pass * 1e3, parallel_pass * 1e3,
              serial_pass / parallel_pass);
  report.add("collector_serial_pass_ms", serial_pass * 1e3, "ms");
  report.add("collector_parallel_pass_ms", parallel_pass * 1e3, "ms");
  report.add("collector_parallel_speedup", serial_pass / parallel_pass, "x");

  // One traced parallel collect() pass, same structural analysis as the
  // frame above: how much of the pass the pool actually overlaps.
  {
    oda::sim::ClusterParams params;
    params.racks = 4;
    params.nodes_per_rack = 16;
    oda::sim::ClusterSimulation cluster(params);
    TimeSeriesStore cstore(1 << 10);
    ThreadPool cpool;
    oda::telemetry::Collector collector(cluster, &cstore, nullptr, &cpool);
    collector.add_all_sensors(params.dt);
    cluster.step();
    collector.collect();  // warm-up: intern + create series
    oda::obs::Tracer& tracer = oda::obs::Tracer::global();
    tracer.clear();
    tracer.set_capacity(1 << 16);
    tracer.set_enabled(true);
    cluster.step();
    collector.collect();
    tracer.set_enabled(false);
    const auto reports = oda::obs::analyze_critical_path(tracer.events());
    tracer.clear();
    for (const auto& r : reports) {
      if (r.root_name != "collector.collect") continue;
      std::printf("collect critical path: %.2f ms over %zu spans, "
                  "parallelism x%.2f\n",
                  r.critical_path_us / 1e3, r.span_count, r.parallelism);
      report.add("collect_critical_path_ms", r.critical_path_us / 1e3, "ms");
      report.add("collect_parallelism", r.parallelism, "x");
      break;
    }
  }

  // ------------------------------------------------------------------ WAL
  // Durable-tier cost: batch ingest with the write-ahead log attached
  // (group commit + fsync per flush) vs. the bare store, and how long
  // recovery takes to replay the segments into a fresh store.
  {
    const std::string wal_dir = "/tmp/oda_bench_wal";
    const std::string scrub = "rm -rf " + wal_dir;
    (void)std::system(scrub.c_str());

    const std::size_t wal_samples = quick ? 100'000 : 1'000'000;
    const std::size_t wal_batch = 256;
    std::vector<SeriesId> wal_ids;
    for (std::size_t i = 0; i < n_paths; ++i) {
      wal_ids.push_back(
          SeriesInterner::global().intern("bwal/s" + std::to_string(i)));
    }
    std::vector<IdReading> wbatch(wal_batch);
    const auto fill = [&](std::size_t base) {
      for (std::size_t j = 0; j < wal_batch; ++j) {
        const std::size_t g = base + j;
        wbatch[j] = IdReading{wal_ids[g % n_paths],
                              {static_cast<TimePoint>(g / n_paths),
                               static_cast<double>(g % 997) * 0.25}};
      }
    };

    const auto ingest_seconds = [&](oda::telemetry::Wal* wal) {
      TimeSeriesStore wstore(1 << 12);
      if (wal != nullptr) wstore.set_wal(wal);
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t base = 0; base + wal_batch <= wal_samples;
           base += wal_batch) {
        fill(base);
        wstore.insert_batch(std::span<const IdReading>(wbatch));
      }
      if (wal != nullptr) wal->flush();
      return seconds_since(t0);
    };

    const double bare_s = ingest_seconds(nullptr);
    double wal_s = 0;
    {
      oda::telemetry::Wal wal(oda::telemetry::WalOptions{.dir = wal_dir});
      std::vector<IdReading> rec;
      wal.recover(rec);
      if (!wal.start()) {
        std::printf("wal bench: start() failed, skipping\n");
      } else {
        wal_s = ingest_seconds(&wal);
      }
      wal.stop();
    }
    if (wal_s > 0) {
      double replay_ms = 0;
      {
        TimeSeriesStore replayed(1 << 12);
        oda::telemetry::Wal wal(oda::telemetry::WalOptions{.dir = wal_dir});
        const auto t0 = std::chrono::steady_clock::now();
        const auto stats = wal.recover_into(replayed);
        replay_ms = seconds_since(t0) * 1e3;
        std::printf("wal: ingest %8.2f Msamples/s bare, %8.2f with WAL "
                    "(overhead x%.2f)\n     replay %.2f ms for %llu samples\n",
                    wal_samples / bare_s / 1e6, wal_samples / wal_s / 1e6,
                    wal_s / bare_s,
                    replay_ms,
                    static_cast<unsigned long long>(stats.samples_replayed));
      }
      report.add("wal_append_msps", wal_samples / wal_s / 1e6, "Msamples/s");
      report.add("wal_append_overhead", wal_s / bare_s, "x");
      report.add("wal_replay_ms", replay_ms, "ms");
    }
    (void)std::system(scrub.c_str());
  }

  if (sink == 0) std::printf("(empty results?)\n");
  return 0;
}
