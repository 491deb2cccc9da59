// Annotated-synchronization-layer tests (common/sync.hpp): the RAII
// wrappers and CondVar behave like the std primitives they replace, the
// uniform wait accounting charges contended acquisitions only, and the
// guarded-state bugs surfaced during the annotation pass stay fixed —
// re-entrant health-bus subscribers, breaker-state observation during a
// parallel pass, and FaultInjector moves under a live stuck fault.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/health.hpp"
#include "telemetry/store.hpp"

namespace oda {
namespace {

// ------------------------------------------------------------- primitives

TEST(SyncMutex, MutexLockSerializesCriticalSections) {
  Mutex mu;
  long counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(SyncCondVar, WaitNotifyHandshake) {
  Mutex mu;
  CondVar cv;
  int stage = 0;
  std::thread worker([&] {
    MutexLock lock(mu);
    while (stage != 1) cv.wait(mu);
    stage = 2;
    cv.notify_all();
  });
  {
    MutexLock lock(mu);
    stage = 1;
    cv.notify_all();
    while (stage != 2) cv.wait(mu);
  }
  worker.join();
  MutexLock lock(mu);
  EXPECT_EQ(stage, 2);
}

TEST(SyncWriterLock, AcquireIsFreeWhenUncontended) {
  SharedMutex mu;
  double waited_s = -1.0;
  {
    WriterLock lock(mu);
    waited_s = lock.waited_s();
  }
  EXPECT_DOUBLE_EQ(waited_s, 0.0);
}

TEST(SyncWriterLock, AcquireAccountsContendedWait) {
  SharedMutex mu(LockRankId::kUnranked);
  contention::reset();
  std::atomic<bool> holding{false};
  std::thread holder([&] {
    WriterLock lock(mu);
    holding.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  while (!holding.load(std::memory_order_acquire)) std::this_thread::yield();
  double waited_s = 0.0;
  {
    WriterLock lock(mu);
    waited_s = lock.waited_s();
  }
  holder.join();
  EXPECT_GT(waited_s, 0.0);
  // The same wait must have landed in the per-rank contention table.
  const contention::Snapshot snap =
      contention::snapshot(LockRankId::kUnranked);
  EXPECT_GE(snap.contended, 1u);
  EXPECT_GT(snap.wait_seconds, 0.0);
}

TEST(SyncReaderLock, ReadersOverlapWritersExclude) {
  SharedMutex mu;
  std::atomic<int> concurrent_readers{0};
  std::atomic<int> max_concurrent{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      ReaderLock lock(mu);
      const int now = concurrent_readers.fetch_add(
                          1, std::memory_order_acq_rel) + 1;
      int seen = max_concurrent.load(std::memory_order_relaxed);
      while (now > seen &&
             !max_concurrent.compare_exchange_weak(
                 seen, now, std::memory_order_relaxed,
                 std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      concurrent_readers.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_GT(max_concurrent.load(std::memory_order_relaxed), 1);
  // A writer after the readers drained sees an exclusive section.
  WriterLock lock(mu);
  EXPECT_EQ(concurrent_readers.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace oda

namespace oda::telemetry {
namespace {

// ----------------------------------------------- regression: health re-entry

// The tracker used to publish "_health/*" transitions while holding its own
// mutex; a subscriber that queried the tracker from the callback
// self-deadlocked (and the publish inverted the bus -> health lock order).
// Transitions are now queued under the lock and flushed after release.
TEST(SensorHealthReentrant, SubscriberMayQueryTrackerDuringTransition) {
  MessageBus bus;
  HealthPolicy policy;
  policy.flatline_run = 0;
  policy.out_of_range_run = 0;
  policy.staleness = 0;
  SensorHealthTracker tracker(policy, &bus);
  std::vector<SensorState> observed;
  bus.subscribe("_health/*", [&](const Reading& r) {
    // Re-enter the tracker from the delivery callback: state() takes the
    // tracker mutex, quarantined() walks every series under it.
    observed.push_back(tracker.state("hx/reentrant"));
    EXPECT_FALSE(tracker.quarantined().empty());
    EXPECT_EQ(r.path, "_health/hx/reentrant");
  });
  const SeriesId id = SeriesInterner::global().intern("hx/reentrant");
  for (int i = 0; i < 4; ++i) {
    tracker.record_failure(id, "hx/reentrant", 15 * (i + 1),
                           ReadOutcome::kDropout);
  }
  ASSERT_EQ(observed.size(), 1u);
  // The queued publish is flushed after the transition is committed, so the
  // re-entrant query sees the post-transition state.
  EXPECT_EQ(observed.front(), SensorState::kQuarantined);
}

// step()'s staleness sweep publishes through the same deferred queue.
TEST(SensorHealthReentrant, StalenessSweepFlushesAfterUnlock) {
  MessageBus bus;
  HealthPolicy policy;
  policy.flatline_run = 0;
  policy.out_of_range_run = 0;
  policy.staleness = 60;
  SensorHealthTracker tracker(policy, &bus);
  int deliveries = 0;
  bus.subscribe("_health/*", [&](const Reading&) {
    ++deliveries;
    EXPECT_EQ(tracker.counts().quarantined, 1u);  // re-entrant query
  });
  const SeriesId id = SeriesInterner::global().intern("hx/stale");
  tracker.record_success(id, "hx/stale", 15, 1.0);
  tracker.step(1000);  // way past staleness: quarantine + publish
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(tracker.state("hx/stale"), SensorState::kQuarantined);
}

// -------------------------------------- regression: breaker observability

// breaker_state() races with a parallel collect pass transitioning the
// breaker; the state field is atomic so observers get tear-free values.
TEST(CollectorBreaker, StateObservableDuringParallelPass) {
  sim::ClusterParams params;
  params.racks = 1;
  params.nodes_per_rack = 4;
  params.dt = 15;
  params.seed = 7;
  sim::ClusterSimulation cluster(params);
  cluster.faults().schedule(
      {sim::FaultKind::kSensorDropout, "facility/pue", 15, 600, 1.0});
  TimeSeriesStore store;
  ThreadPool pool(2);
  // The breaker opens after five failed passes (t=75) and cycles through
  // half-open probes every 120 s while the fault lasts.
  Collector collector(cluster, &store, nullptr, &pool);
  collector.add_all_sensors(15);

  std::atomic<bool> stop{false};
  std::atomic<bool> saw_open{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const BreakerState s = collector.breaker_state("facility/pue");
      if (s == BreakerState::kOpen) saw_open.store(true, std::memory_order_relaxed);
      ASSERT_TRUE(s == BreakerState::kClosed || s == BreakerState::kOpen ||
                  s == BreakerState::kHalfOpen);
    }
  });
  while (cluster.now() < 600) {
    cluster.step();
    collector.collect();
  }
  stop.store(true, std::memory_order_release);
  observer.join();
  EXPECT_TRUE(saw_open.load(std::memory_order_relaxed));
  EXPECT_EQ(collector.samples_expected(),
            collector.samples_collected() + collector.gaps_total());
}

// ------------------------------------------------- regression: store ingest

// Contended single-shard batch ingest: the timed WriterLock path must keep
// exact conservation (and the per-shard wait gauge only ever accumulates).
TEST(StoreContention, ContendedBatchIngestStaysExact) {
  TimeSeriesStore store(1 << 12);
  constexpr int kThreads = 4;
  constexpr int kBatches = 50;
  constexpr int kBatch = 64;
  // Four series that share one shard, so every writer contends on one lock.
  const auto shard = [](const std::string& path) {
    return SeriesInterner::global().intern(path).value %
           TimeSeriesStore::kShards;
  };
  std::vector<std::string> paths{"contend/s0"};
  for (int k = 1; paths.size() < static_cast<std::size_t>(kThreads); ++k) {
    const std::string path = "contend/s" + std::to_string(k);
    if (shard(path) == shard(paths[0])) paths.push_back(path);
  }
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const SeriesId id =
          SeriesInterner::global().intern(paths[static_cast<std::size_t>(t)]);
      std::vector<IdReading> batch(kBatch);
      for (int b = 0; b < kBatches; ++b) {
        for (int i = 0; i < kBatch; ++i) {
          batch[static_cast<std::size_t>(i)] =
              {id, {static_cast<TimePoint>(b * kBatch + i),
                    static_cast<double>(i)}};
        }
        store.insert_batch(std::span<const IdReading>(batch));
      }
    });
  }
  for (auto& th : writers) th.join();
  for (const std::string& path : paths) {
    EXPECT_EQ(store.sample_count(SeriesInterner::global().intern(path)),
              static_cast<std::size_t>(kBatches) * kBatch);
  }
  EXPECT_EQ(store.total_inserted(),
            static_cast<std::uint64_t>(kThreads) * kBatches * kBatch);
}

}  // namespace
}  // namespace oda::telemetry

namespace oda::sim {
namespace {

// ------------------------------------------------ regression: injector move

// Moving a FaultInjector used to steal the stuck-fault state without taking
// the source's lock; both move operations now hold it, and the frozen value
// must survive the move.

// Binds the single sensor `path` to handle 0.
void bind_one(FaultInjector& injector, std::string path) {
  injector.bind_sensors(1, [path = std::move(path)](const std::string& p)
                               -> std::optional<std::size_t> {
    if (p == path) return 0;
    return std::nullopt;
  });
}

TEST(FaultInjectorMove, StuckStateSurvivesMoveConstruction) {
  Rng rng(42);
  FaultInjector injector;
  bind_one(injector, "node/temp");
  injector.schedule({FaultKind::kSensorStuck, "node/temp", 10, 1000, 1.0});
  // First in-window read freezes the value.
  EXPECT_DOUBLE_EQ(injector.apply_sensor_faults(0, 33.5, 20, rng), 33.5);
  FaultInjector moved(std::move(injector));
  // The moved-to injector serves the frozen value, not the new raw reading.
  EXPECT_DOUBLE_EQ(moved.apply_sensor_faults(0, 99.0, 30, rng), 33.5);
  EXPECT_EQ(moved.events().size(), 1u);
}

TEST(FaultInjectorMove, StuckStateSurvivesMoveAssignment) {
  Rng rng(43);
  FaultInjector injector;
  bind_one(injector, "node/power");
  injector.schedule({FaultKind::kSensorStuck, "node/power", 0, 500, 1.0});
  EXPECT_DOUBLE_EQ(injector.apply_sensor_faults(0, 250.0, 5, rng), 250.0);
  FaultInjector target;
  target = std::move(injector);
  EXPECT_DOUBLE_EQ(target.apply_sensor_faults(0, 300.0, 10, rng), 250.0);
}

}  // namespace
}  // namespace oda::sim
