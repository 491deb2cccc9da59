// Experiment P1 (DESIGN.md): telemetry-pipeline microbenchmarks — the
// infrastructure costs behind every ODA deployment: bus publish fan-out,
// store insert/query/aggregate, full collector passes, and simulator step
// cost at several machine sizes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_util.hpp"

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/store.hpp"

namespace {

using namespace oda;

void BM_BusPublish(benchmark::State& state) {
  telemetry::MessageBus bus;
  const auto subscribers = state.range(0);
  std::size_t delivered = 0;
  for (std::int64_t i = 0; i < subscribers; ++i) {
    bus.subscribe(i % 2 ? "rack*/node*/power" : "*",
                  [&delivered](const telemetry::Reading&) { ++delivered; });
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    bus.publish(telemetry::Reading{"rack00/node01/power", {++t, 150.0}});
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_BusPublish)->Arg(1)->Arg(8)->Arg(64);

void BM_StoreInsert(benchmark::State& state) {
  telemetry::TimeSeriesStore store(1 << 16);
  TimePoint t = 0;
  for (auto _ : state) {
    store.insert("rack00/node01/power", {++t, 150.0});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreInsert);

void BM_StoreQueryRange(benchmark::State& state) {
  telemetry::TimeSeriesStore store(1 << 16);
  for (TimePoint t = 0; t < 40000; ++t) {
    store.insert("s", {t, static_cast<double>(t % 100)});
  }
  const auto span = state.range(0);
  for (auto _ : state) {
    auto slice = store.query("s", 20000, 20000 + span);
    benchmark::DoNotOptimize(slice.values.data());
  }
  state.SetItemsProcessed(state.iterations() * span);
}
BENCHMARK(BM_StoreQueryRange)->Arg(100)->Arg(1000)->Arg(10000);

void BM_StoreAggregate(benchmark::State& state) {
  telemetry::TimeSeriesStore store(1 << 16);
  for (TimePoint t = 0; t < 40000; ++t) {
    store.insert("s", {t, static_cast<double>(t % 100)});
  }
  for (auto _ : state) {
    auto slice = store.query_aggregated("s", 0, 40000, 600,
                                        telemetry::Aggregation::kMean);
    benchmark::DoNotOptimize(slice.values.data());
  }
}
BENCHMARK(BM_StoreAggregate);

void BM_StoreFrame(benchmark::State& state) {
  telemetry::TimeSeriesStore store(1 << 14);
  std::vector<std::string> paths;
  for (int s = 0; s < 16; ++s) {
    paths.push_back("sensor" + std::to_string(s));
    for (TimePoint t = 0; t < 5000; ++t) {
      store.insert(paths.back(), {t, static_cast<double>(t + s)});
    }
  }
  for (auto _ : state) {
    auto frame = store.frame(paths, 0, 5000, 60);
    benchmark::DoNotOptimize(frame.column_values(0).data());
  }
}
BENCHMARK(BM_StoreFrame);

void BM_CollectorPass(benchmark::State& state) {
  sim::ClusterParams params;
  params.racks = static_cast<std::size_t>(state.range(0));
  params.nodes_per_rack = 16;
  sim::ClusterSimulation cluster(params);
  telemetry::TimeSeriesStore store(1 << 12);
  telemetry::Collector collector(cluster, &store, nullptr);
  collector.add_all_sensors(cluster.dt());
  cluster.step();
  collector.collect();  // warm-up: first insert allocates each ring buffer
  for (auto _ : state) {
    collector.collect();
  }
  state.counters["sensors"] =
      static_cast<double>(cluster.sensors().size());
}
BENCHMARK(BM_CollectorPass)->Arg(1)->Arg(4)->Arg(16);

// The same serial pass under the facility-tick benchmark's chaos density:
// read faults on 7% of the sensors (3 in 5 dropouts at p = 0.65, the rest
// 3.5 s stalls) and value overlays on 3% (stuck, drift, spike, noise in
// turn). Windows tile a 30-day horizon, each open for a quarter of it, so a
// quarter of the faulted sensors are faulty at any time; the simulator
// steps between passes (untimed) so breaker cooldowns elapse and half-open
// probes run as they do in the tick.
void BM_CollectorPassFaulted(benchmark::State& state) {
  sim::ClusterParams params;
  params.racks = static_cast<std::size_t>(state.range(0));
  params.nodes_per_rack = 16;
  sim::ClusterSimulation cluster(params);
  const auto& defs = cluster.sensors();
  std::vector<std::size_t> order(defs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(0xC4A05ULL);
  rng.shuffle(order);
  const TimePoint horizon = 30 * kDay;
  const auto schedule = [&](sim::FaultEvent e, std::size_t k, std::size_t n) {
    e.start = horizon * static_cast<TimePoint>(k) / static_cast<TimePoint>(n);
    const TimePoint end = e.start + horizon / 4;
    e.end = std::min(end, horizon);
    cluster.faults().schedule(e);
    if (end > horizon) {
      e.start = 0;
      e.end = end - horizon;
      cluster.faults().schedule(e);
    }
  };
  const std::size_t n_read = defs.size() * 7 / 100;
  const std::size_t n_overlay = defs.size() * 3 / 100;
  std::size_t k = 0;
  for (std::size_t i = 0; i < n_read; ++i, ++k) {
    const bool dropout = i % 5 < 3;
    schedule({dropout ? sim::FaultKind::kSensorDropout
                      : sim::FaultKind::kSensorStall,
              defs[order[k]].path, 0, 0, dropout ? 0.65 : 3.5},
             i, n_read);
  }
  constexpr sim::FaultKind kOverlays[] = {
      sim::FaultKind::kSensorStuck, sim::FaultKind::kSensorDrift,
      sim::FaultKind::kSensorSpike, sim::FaultKind::kSensorNoise};
  for (std::size_t i = 0; i < n_overlay; ++i, ++k) {
    const sim::FaultKind kind = kOverlays[i % 4];
    schedule({kind, defs[order[k]].path, 0, 0,
              kind == sim::FaultKind::kSensorSpike ? 50.0 : 2.5},
             i, n_overlay);
  }

  telemetry::TimeSeriesStore store(1 << 12);
  telemetry::Collector collector(cluster, &store, nullptr);
  collector.add_all_sensors(cluster.dt());
  cluster.step();
  collector.collect();  // warm-up: first insert allocates each ring buffer
  for (auto _ : state) {
    state.PauseTiming();
    cluster.step();
    state.ResumeTiming();
    collector.collect();
  }
  state.counters["sensors"] =
      static_cast<double>(cluster.sensors().size());
  state.counters["gaps_per_pass"] = benchmark::Counter(
      static_cast<double>(collector.gaps_total()) /
      static_cast<double>(state.iterations() + 1));
}
BENCHMARK(BM_CollectorPassFaulted)->Arg(16);

// The tracing cost ladder (trace.hpp's cost model). Both sinks off must
// price a span at one relaxed atomic load — compare against RecorderOnly
// (the always-on default: clock reads + ring stores) and Full (tracer
// buffer push on top). Spans are taken via the TraceSpan class directly,
// which is what the macro expands to.
void BM_TraceSpanDisabled(benchmark::State& state) {
  obs::Tracer::global().set_enabled(false);
  obs::FlightRecorder::global().set_enabled(false);
  for (auto _ : state) {
    obs::TraceSpan span("bench.span", "bench");
  }
  state.SetItemsProcessed(state.iterations());
  obs::FlightRecorder::global().set_enabled(true);  // restore the default
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanRecorderOnly(benchmark::State& state) {
  obs::Tracer::global().set_enabled(false);
  obs::FlightRecorder::global().set_enabled(true);
  for (auto _ : state) {
    obs::TraceSpan span("bench.span", "bench");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanRecorderOnly);

void BM_TraceSpanFull(benchmark::State& state) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_capacity(1 << 12);  // small cap: steady state is count-drops
  tracer.set_enabled(true);
  for (auto _ : state) {
    obs::TraceSpan span("bench.span", "bench");
  }
  state.SetItemsProcessed(state.iterations());
  tracer.set_enabled(false);
  tracer.clear();
  tracer.set_capacity(1 << 16);
}
BENCHMARK(BM_TraceSpanFull);

// The lock-accounting cost (contention.hpp's cost model): an uncontended
// RAII acquisition takes the try_lock fast path and skips both clock reads.
void BM_LockUncontendedAccountingOn(benchmark::State& state) {
  Mutex mu;
  long counter = 0;
  for (auto _ : state) {
    MutexLock lock(mu);
    benchmark::DoNotOptimize(++counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockUncontendedAccountingOn);

void BM_SimStep(benchmark::State& state) {
  sim::ClusterParams params;
  params.racks = static_cast<std::size_t>(state.range(0));
  params.nodes_per_rack = 16;
  params.workload.peak_arrival_rate_per_hour = 60.0;
  sim::ClusterSimulation cluster(params);
  cluster.run_for(kHour);  // warm up with jobs running
  for (auto _ : state) {
    cluster.step();
  }
  state.counters["nodes"] = static_cast<double>(cluster.node_count());
}
BENCHMARK(BM_SimStep)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

ODA_BENCH_MAIN()
