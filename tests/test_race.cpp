// Concurrency stress tests aimed at ThreadSanitizer. Each test hammers one
// of the concurrent primitives (BlockingQueue, ThreadPool,
// telemetry::MessageBus) with the interleavings most likely to turn a latent
// ordering bug into a deterministic TSan report: multi-producer/consumer
// loads, shutdown-while-publishing, and subscribe/unsubscribe during
// publish. The assertions also verify conservation (nothing lost, nothing
// duplicated), so the tests are meaningful even in uninstrumented builds —
// but run them under `cmake --preset tsan` to get the race coverage the
// suite exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/blocking_queue.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "common/thread_watch.hpp"
#include "common/trace_context.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/series_id.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/obs_server.hpp"
#include "net/self_scrape.hpp"
#include "telemetry/store.hpp"

namespace oda {
namespace {

// Iteration counts are sized so the whole file stays in the low seconds even
// under TSan's ~5-15x slowdown on a small CI machine.
constexpr int kQueueItemsPerProducer = 5000;
constexpr int kBusMessages = 2000;

// --------------------------------------------------------- BlockingQueue

TEST(RaceBlockingQueue, MultiProducerMultiConsumerConserves) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  BlockingQueue<int> q(32);  // small bound so producers actually block

  std::atomic<std::uint64_t> pushed_sum{0};
  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<int> popped_count{0};

  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kQueueItemsPerProducer; ++i) {
        const int v = p * kQueueItemsPerProducer + i;
        ASSERT_TRUE(q.push(v));
        pushed_sum.fetch_add(static_cast<std::uint64_t>(v),
                             std::memory_order_relaxed);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        popped_sum.fetch_add(static_cast<std::uint64_t>(*v),
                             std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Join producers (the first kProducers threads), then close so consumers
  // drain the remainder and exit.
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(popped_count.load(), kProducers * kQueueItemsPerProducer);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
  EXPECT_EQ(q.size(), 0u);
}

TEST(RaceBlockingQueue, CloseWhilePushingReleasesBlockedProducers) {
  BlockingQueue<int> q(4);
  constexpr int kThreads = 4;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};

  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        if (q.push(i)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
          return;  // closed: push never succeeds again
        }
      }
    });
  }

  // Let producers fill the bounded queue and block, then slam it shut while
  // they are mid-push. Every producer must observe the close and exit.
  while (q.size() < 4) std::this_thread::yield();
  q.close();
  for (auto& p : producers) p.join();

  // Drain after close: pops must return exactly the accepted items that are
  // still queued, then nullopt.
  int drained = 0;
  while (q.try_pop()) ++drained;
  EXPECT_EQ(drained, accepted.load());
  EXPECT_EQ(rejected.load(), kThreads);
  EXPECT_FALSE(q.push(1));
}

TEST(RaceBlockingQueue, TryOpsUnderContention) {
  BlockingQueue<int> q(8);
  std::atomic<int> pushed{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        if (q.try_push(i)) pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        if (q.try_pop()) popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  while (q.try_pop()) popped.fetch_add(1, std::memory_order_relaxed);
  EXPECT_EQ(pushed.load(), popped.load());
}

// ------------------------------------------------------------ ThreadPool

TEST(RaceThreadPool, ConcurrentSubmittersAllTasksRun) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 2000;
  std::atomic<int> executed{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& s : submitters) s.join();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
}

TEST(RaceThreadPool, ShutdownWhileSubmittingSatisfiesEveryFuture) {
  std::atomic<int> executed{0};
  std::vector<std::future<int>> futures;
  std::mutex futures_mu;

  ThreadPool pool(2);
  std::atomic<bool> stop{false};
  std::thread submitter([&] {
    for (int i = 0; i < 100000 && !stop.load(std::memory_order_relaxed); ++i) {
      auto f = pool.submit([&, i] {
        executed.fetch_add(1, std::memory_order_relaxed);
        return i;
      });
      std::lock_guard lock(futures_mu);
      futures.push_back(std::move(f));
    }
  });

  // Shut down while the submitter is racing: late submissions run inline on
  // the submitter thread, so every future must still become ready.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pool.shutdown();
  stop.store(true, std::memory_order_relaxed);
  submitter.join();

  std::lock_guard lock(futures_mu);
  int idx = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.get(), idx);  // futures were appended in submission order
    ++idx;
  }
  EXPECT_EQ(executed.load(), idx);
}

TEST(RaceThreadPool, ParallelForRacingWithSubmits) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 20000;
  std::vector<std::uint8_t> touched(kN, 0);
  std::atomic<int> side_tasks{0};

  std::thread noise([&] {
    for (int i = 0; i < 500; ++i) {
      pool.submit([&] { side_tasks.fetch_add(1, std::memory_order_relaxed); });
    }
  });

  pool.parallel_for_chunks(0, kN, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) touched[i] = 1;
  });
  noise.join();
  pool.wait_idle();

  // parallel_for_chunks partitions [0, kN) disjointly, so plain writes
  // are safe — TSan verifies that claim — and every index is covered.
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), static_cast<int>(kN));
  EXPECT_EQ(side_tasks.load(), 500);
}

TEST(RaceThreadPool, ParallelForUnevenChunkCostsBalance) {
  // Work-stealing claim loop under pathologically uneven costs: a handful
  // of indices are ~1000x more expensive than the rest. Disjoint coverage
  // (plain writes, TSan-checked) must hold regardless of which participant
  // — helper or caller — claims the slow chunks, and a fine grain lets
  // fast threads drain the cheap tail while slow chunks are in flight.
  ThreadPool pool(4);
  constexpr std::size_t kN = 4096;
  std::vector<std::uint32_t> result(kN, 0);
  pool.parallel_for_chunks(
      0, kN,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (i % 512 == 0) {
            // Expensive outlier: real work, not sleep, so TSan interleaves.
            volatile double sink = 0.0;
            for (int k = 0; k < 200000; ++k) {
              sink = sink + static_cast<double>(k);
            }
          }
          result[i] = static_cast<std::uint32_t>(i) + 1;
        }
      },
      /*grain=*/8);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i], i + 1) << "index " << i;
  }
  EXPECT_GE(pool.parallel_for_calls(), 1u);
  EXPECT_GE(pool.parallel_for_chunks_claimed(), kN / 8);
}

TEST(RaceThreadPool, ParallelForChunksCoversRangeDisjointly) {
  // The chunk-granular variant: per-chunk bodies see half-open [lo, hi)
  // ranges that tile [begin, end) exactly once. Concurrent submits add
  // queue noise so helpers start at staggered times.
  ThreadPool pool(3);
  constexpr std::size_t kN = 10000;
  std::vector<std::uint8_t> touched(kN, 0);
  std::atomic<int> side_tasks{0};
  std::thread noise([&] {
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] { side_tasks.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  std::atomic<std::size_t> total{0};
  pool.parallel_for_chunks(100, kN, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) touched[i] = 1;
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  noise.join();
  pool.wait_idle();
  EXPECT_EQ(total.load(), kN - 100);
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), std::size_t{0}),
            kN - 100);
}

TEST(RaceThreadPool, ParallelForPropagatesBodyException) {
  // An exception from any participant (helper or caller) surfaces to the
  // parallel_for_chunks caller after every helper has been joined — no
  // helper may outlive the call frame it borrows.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for_chunks(
          0, 64,
          [&](std::size_t lo, std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (lo == 13) throw std::runtime_error("boom");
          },
          /*grain=*/1),
      std::runtime_error);
  pool.wait_idle();
  EXPECT_GE(ran.load(), 1);
}

TEST(RaceThreadPool, WaitIdleFromManyThreads) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
  }
  std::vector<std::thread> waiters;
  for (int w = 0; w < 4; ++w) {
    waiters.emplace_back([&] { pool.wait_idle(); });
  }
  for (auto& w : waiters) w.join();
  EXPECT_EQ(executed.load(), 1000);
}

// ----------------------------------------------------------- MessageBus

TEST(RaceMessageBus, ParallelPublishersDeliverEverything) {
  telemetry::MessageBus bus;
  constexpr int kPublishers = 4;
  std::atomic<std::uint64_t> received{0};
  bus.subscribe("node/*", [&](const telemetry::Reading&) {
    received.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<std::thread> pubs;
  pubs.reserve(kPublishers);
  for (int p = 0; p < kPublishers; ++p) {
    pubs.emplace_back([&, p] {
      for (int i = 0; i < kBusMessages; ++i) {
        bus.publish(telemetry::Reading{"node/" + std::to_string(p),
                                       {i, static_cast<double>(i)}});
      }
    });
  }
  for (auto& p : pubs) p.join();

  const std::uint64_t want =
      static_cast<std::uint64_t>(kPublishers) * kBusMessages;
  EXPECT_EQ(received.load(), want);
  EXPECT_EQ(bus.published_count(), want);
  EXPECT_EQ(bus.delivered_count(), want);
}

TEST(RaceMessageBus, SubscribeUnsubscribeDuringPublish) {
  telemetry::MessageBus bus;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};

  std::vector<std::thread> pubs;
  for (int p = 0; p < 2; ++p) {
    pubs.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        bus.publish(telemetry::Reading{"sensor/a/power", {0, 1.0}});
      }
    });
  }

  // Churn subscriptions while publishers are mid-flight. The callback's
  // captured state must stay valid for every delivery that was snapshotted
  // before the unsubscribe.
  for (int round = 0; round < 500; ++round) {
    auto id = bus.subscribe("sensor/*", [&](const telemetry::Reading& r) {
      ASSERT_EQ(r.path, "sensor/a/power");
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    std::this_thread::yield();
    bus.unsubscribe(id);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& p : pubs) p.join();

  EXPECT_EQ(bus.subscriber_count(), 0u);
  EXPECT_EQ(bus.delivered_count(), hits.load());
}

// Batch publishers re-resolve routes under the bus lock while subscriptions
// churn. Every delivery a batch snapshotted must still reach a live
// callback, and the per-bus delivered count must equal the callbacks' hits.
TEST(RaceMessageBus, BatchPublishWithSubscriptionChurn) {
  telemetry::MessageBus bus;
  std::vector<telemetry::IdReading> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back({telemetry::SeriesInterner::global().intern(
                         "churn/" + std::to_string(i)),
                     {i, 1.0}});
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> batches{0};

  std::vector<std::thread> pubs;
  for (int p = 0; p < 2; ++p) {
    pubs.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        bus.publish_batch(batch);
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int round = 0; round < 500; ++round) {
    auto id = bus.subscribe(round % 2 ? "churn/*" : "churn/3",
                            [&](const telemetry::Reading& r) {
                              ASSERT_EQ(r.path.rfind("churn/", 0), 0u);
                              hits.fetch_add(1, std::memory_order_relaxed);
                            });
    std::this_thread::yield();
    bus.unsubscribe(id);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& p : pubs) p.join();

  EXPECT_EQ(bus.subscriber_count(), 0u);
  EXPECT_EQ(bus.delivered_count(), hits.load());
  EXPECT_EQ(bus.published_count(), batches.load() * batch.size());
}

TEST(RaceMessageBus, ReentrantPublishFromCallback) {
  telemetry::MessageBus bus;
  std::atomic<int> derived_seen{0};

  // A subscriber that republishes onto a derived topic — the pattern the
  // derived-metrics engine uses — must not deadlock or race against
  // concurrent external publishers.
  bus.subscribe("raw/*", [&](const telemetry::Reading& r) {
    bus.publish(telemetry::Reading{"derived/" + r.path,
                                   {r.sample.time, r.sample.value * 2.0}});
  });
  bus.subscribe("derived/*", [&](const telemetry::Reading&) {
    derived_seen.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<std::thread> pubs;
  for (int p = 0; p < 2; ++p) {
    pubs.emplace_back([&] {
      for (int i = 0; i < kBusMessages; ++i) {
        bus.publish(telemetry::Reading{"raw/x", {i, 1.0}});
      }
    });
  }
  for (auto& p : pubs) p.join();
  EXPECT_EQ(derived_seen.load(), 2 * kBusMessages);
}

// -------------------------------------------------------- MetricsRegistry

// The registry's contract is mutex-guarded registration handing out stable
// instrument references whose hot-path ops are lock-free atomics. Hammer
// registration, increments, observations, and snapshots simultaneously:
// TSan checks the synchronization, the conservation sums check the counts.
TEST(RaceMetricsRegistry, ConcurrentIncObserveSnapshot) {
  obs::MetricsRegistry reg;
  constexpr int kWriters = 4;
  constexpr int kEventsEach = 20000;

  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&reg, w] {
      // Every writer re-registers its instruments each round; half the
      // series are shared across writers, half are per-writer.
      const std::string who = std::to_string(w % 2);
      for (int i = 0; i < kEventsEach; ++i) {
        reg.counter("oda_race_events_total", "events", {{"writer", who}})
            .inc();
        reg.gauge("oda_race_depth", "depth", {{"writer", who}})
            .set(static_cast<double>(i));
        reg.histogram("oda_race_seconds", "latency",
                      std::vector<double>{0.25, 0.5, 0.75}, {})
            .observe(static_cast<double>(i % 100) / 100.0);
      }
    });
  }
  std::atomic<bool> stop{false};
  threads.emplace_back([&] {
    // Snapshot continuously while writers are mid-flight; totals must be
    // monotone for counters even though the cut is not consistent.
    double last_total = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap = reg.snapshot();
      const double total = snap.total("oda_race_events_total");
      ASSERT_GE(total, last_total);
      last_total = total;
    }
  });

  for (int w = 0; w < kWriters; ++w) {
    threads[static_cast<std::size_t>(w)].join();
  }
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.total("oda_race_events_total"),
                   static_cast<double>(kWriters) * kEventsEach);
  const obs::MetricFamily* hist = snap.find("oda_race_seconds");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->histograms.size(), 1u);
  EXPECT_EQ(hist->histograms.front().count,
            static_cast<std::uint64_t>(kWriters) * kEventsEach);
}

// snapshot() runs pull callbacks after releasing the registry lock. An
// unregister that races a snapshot must still return only once no call of
// that callback is running, so its owner may free what the callback reads:
// here every callback reads a heap object its owner deletes right after
// releasing the handle (TSan and ASan flag a late call), while other
// threads register counters, forcing the gather to see the registry move.
TEST(RaceMetricsRegistry, UnregisterDuringSnapshotWaitsForTheCall) {
  obs::MetricsRegistry reg;
  constexpr int kOwners = 3;
  constexpr int kRounds = 400;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const obs::MetricsSnapshot snap = reg.snapshot();
        // Every live series reads 7: a freed object would not.
        if (const obs::MetricFamily* fam = snap.find("oda_race_pull")) {
          for (const auto& v : fam->values) ASSERT_EQ(v.value, 7.0);
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> owners;
  for (int o = 0; o < kOwners; ++o) {
    owners.emplace_back([&reg, o] {
      for (int r = 0; r < kRounds; ++r) {
        auto value = std::make_unique<std::atomic<double>>(7.0);
        obs::CallbackHandle handle = reg.gauge_callback(
            "oda_race_pull", "pull series", {{"owner", std::to_string(o)}},
            [v = value.get()] { return v->load(std::memory_order_relaxed); });
        reg.counter("oda_race_registrations_total", "registrations",
                    {{"round", std::to_string(r % 17)}})
            .inc();
        handle.release();
        // Poison, then free: a call still running (or starting) after
        // release() returned would read -1 or freed memory.
        value->store(-1.0, std::memory_order_relaxed);
        value.reset();
      }
    });
  }
  for (auto& t : owners) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : scrapers) t.join();
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(reg.snapshot().find("oda_race_pull"), nullptr);
}

// The instrumented bus publish path updates per-instance counters, global
// registry counters, per-subscriber stats, and a publish-latency histogram
// on every call. Stress it from parallel publishers and verify the global
// series advanced by exactly the published volume. Deltas, not absolutes:
// the global registry aggregates across every bus in the process.
TEST(RaceMessageBus, InstrumentedPublishKeepsGlobalCountersExact) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::MetricsSnapshot before = reg.snapshot();
  const double published_before = before.total("oda_bus_published_total");
  const double delivered_before = before.total("oda_bus_delivered_total");
  std::uint64_t observed_before = 0;
  if (const obs::MetricFamily* fam = before.find("oda_bus_publish_seconds")) {
    for (const auto& h : fam->histograms) observed_before += h.count;
  }

  telemetry::MessageBus bus;
  constexpr int kPublishers = 4;
  std::atomic<std::uint64_t> received{0};
  bus.subscribe("obs/*", [&](const telemetry::Reading&) {
    received.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<std::thread> pubs;
  pubs.reserve(kPublishers);
  for (int p = 0; p < kPublishers; ++p) {
    pubs.emplace_back([&, p] {
      for (int i = 0; i < kBusMessages; ++i) {
        bus.publish(telemetry::Reading{"obs/" + std::to_string(p),
                                       {i, static_cast<double>(i)}});
      }
    });
  }
  for (auto& p : pubs) p.join();

  const std::uint64_t want =
      static_cast<std::uint64_t>(kPublishers) * kBusMessages;
  EXPECT_EQ(received.load(), want);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.total("oda_bus_published_total") - published_before,
                   static_cast<double>(want));
  EXPECT_DOUBLE_EQ(snap.total("oda_bus_delivered_total") - delivered_before,
                   static_cast<double>(want));
  // The per-pattern subscriber series for this bus instance is exact.
  const obs::MetricFamily* per_sub =
      snap.find("oda_bus_subscriber_deliveries_total");
  ASSERT_NE(per_sub, nullptr);
  double obs_pattern_total = 0.0;
  for (const auto& v : per_sub->values) {
    for (const auto& [k, label] : v.labels) {
      if (k == "pattern" && label == "obs/*") obs_pattern_total += v.value;
    }
  }
  EXPECT_DOUBLE_EQ(obs_pattern_total, static_cast<double>(want));
  // Publish latency histogram observed one value per publish call.
  const obs::MetricFamily* latency = snap.find("oda_bus_publish_seconds");
  ASSERT_NE(latency, nullptr);
  std::uint64_t observed_after = 0;
  for (const auto& h : latency->histograms) observed_after += h.count;
  EXPECT_EQ(observed_after - observed_before, want);
}

// ---------------------------------------------------------- causal tracing

// Concurrent trace-context propagation: many submitter threads race spans
// through a shared ThreadPool and MessageBus while a reader drains the
// Tracer and snapshots the FlightRecorder's seqlock rings mid-write. TSan
// checks the context hand-off and the ring protocol; the assertions check
// that every propagated child kept its submitter's trace id.
TEST(RaceCausalTracing, ContextPropagatesThroughPoolAndBusUnderStress) {
  obs::Tracer& tracer = obs::Tracer::global();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  tracer.clear();
  tracer.set_capacity(1 << 18);
  tracer.set_enabled(true);
  recorder.set_enabled(true);

  telemetry::MessageBus bus;
  bus.subscribe("trace/*", [](const telemetry::Reading&) {
    ODA_TRACE_SPAN_CAT("race.deliver_child", "test");
  });

  constexpr int kSubmitters = 4;
  constexpr int kRounds = 500;
  std::atomic<int> mismatches{0};
  {
    ThreadPool pool(4);
    std::atomic<bool> stop{false};
    std::thread reader([&] {
      // Snapshot continuously while writers lap the rings: the seqlock must
      // hand back only stable slots and the tracer drain must not tear.
      // The accumulation only keeps the loop observable.
      std::size_t drained = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        drained += recorder.snapshot().size();
        drained += tracer.event_count();
      }
      static_cast<void>(drained);
    });

    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        for (int i = 0; i < kRounds; ++i) {
          ODA_TRACE_SPAN_CAT("race.submit_root", "test");
          const TraceContext mine = current_trace_context();
          auto f = pool.submit([&mismatches, mine] {
            // The worker must run under the submitter's context verbatim.
            if (current_trace_context().trace_id != mine.trace_id) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            ODA_TRACE_SPAN_CAT("race.pool_child", "test");
          });
          bus.publish(
              telemetry::Reading{"trace/" + std::to_string(s), {i, 1.0}});
          f.get();
        }
      });
    }
    for (auto& t : submitters) t.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    pool.shutdown();
  }

  EXPECT_EQ(mismatches.load(), 0);
  // Workers never leak a borrowed context past the task: after the pool is
  // idle, fresh spans root fresh traces, so the submitting thread's own
  // context must be empty here.
  EXPECT_FALSE(current_trace_context().active());
  tracer.set_enabled(false);
  tracer.clear();
  tracer.set_capacity(1 << 16);
}

// The sampling profiler interrupts pipeline threads mid-instruction while
// readers drain its seqlock rings: pool workers and bus publishers run
// under SIGPROF fire while folded()/samples() snapshot concurrently. TSan
// cannot instrument the signal handler's view, but it does see the
// watcher/attach/reader interleavings, ring registration during thread
// birth/death, and the stop() quiescence handshake — the places a latent
// ordering bug would live.
TEST(RaceStress, ProfilerSamplesConcurrentPipelineTraffic) {
  obs::SamplingProfiler& prof = obs::SamplingProfiler::global();
  obs::ProfilerOptions opts;
  opts.interval_us = 500;
  opts.ring_capacity = 256;
  ASSERT_TRUE(prof.start(opts));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> delivered{0};
  {
    ThreadPool pool(3);  // workers self-register with the watch registry
    telemetry::MessageBus bus;
    bus.subscribe("prof/*", [&delivered](const telemetry::Reading&) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    });

    // Reader thread: snapshots rings while the handler writes into them.
    std::thread reader([&] {
      std::size_t seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        seen += prof.samples().size();
        seen += prof.folded().size();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      static_cast<void>(seen);
    });

    // A watched producer thread churning bus traffic under sampling.
    std::thread producer([&] {
      WatchedThreadScope scope("race.producer");
      std::int64_t t = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        bus.publish(telemetry::Reading{"prof/node", {++t, 1.0}});
      }
    });

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (std::chrono::steady_clock::now() < deadline) {
      for (int i = 0; i < 64; ++i) {
        pool.submit([] {
          volatile double sink = 0.0;
          for (int k = 0; k < 2000; ++k) sink = sink + 1.0;
        });
      }
      pool.wait_idle();
    }
    stop.store(true, std::memory_order_relaxed);
    producer.join();
    reader.join();
    pool.shutdown();  // workers die (and deregister) while sampling runs
  }
  prof.stop();

  EXPECT_GT(delivered.load(std::memory_order_relaxed), 0u);
  EXPECT_GE(prof.thread_count(), 4u);  // 3 workers + producer
  for (const auto& s : prof.samples()) {
    EXPECT_FALSE(s.pcs.empty());
    EXPECT_LE(s.pcs.size(), obs::kMaxProfFrames);
  }
  prof.clear();
}

// --------------------------------------------- live introspection plane

// Concurrent HTTP scrapers hammering an ObsServer while the pipeline it
// observes keeps mutating: metric writers spin counters and histograms,
// a self-scrape loop snapshots the registry into a TimeSeriesStore, and
// two client threads GET /metrics and /selfscrape over fresh connections.
// Every layer the scrape path crosses (registry snapshot, store shards,
// interner, reactor post queue, connection table) is exercised against
// writers — the interleavings TSan exists to catch.
TEST(RaceStress, MatchRacesNewSeriesInserts) {
  // Writers create series while readers call match(): the memo's count
  // stamp and paths() pass must never hand out a result that misses a
  // series the caller could already see, nor one out of order.
  telemetry::TimeSeriesStore store(64);
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kSeriesPerWriter = 150;
  std::atomic<int> readers_started{0};
  std::atomic<int> writers_done{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Start writing only once every reader is in its loop, so the two
      // sides overlap however the threads are scheduled.
      while (readers_started.load() < kReaders) std::this_thread::yield();
      for (int i = 0; i < kSeriesPerWriter; ++i) {
        const std::string base =
            "race-match/w" + std::to_string(w) + "/s" + std::to_string(i);
        store.insert(base + "/temp", {i, 1.0});
        store.insert(base + "/power", {i, 2.0});
        store.insert(base + "/temp", {i + 1, 1.5});  // an existing series
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      const std::string pattern =
          r == 0 ? "race-match/*/temp" : "race-match/w1/*";
      std::size_t last = 0;
      readers_started.fetch_add(1);
      do {
        const auto got = store.match(pattern);
        EXPECT_GE(got.size(), last);
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
        for (const auto& p : got) EXPECT_TRUE(glob_match(pattern, p)) << p;
        last = got.size();
      } while (writers_done.load() < kWriters);
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string pattern : {"race-match/*/temp", "race-match/w1/*"}) {
    std::vector<std::string> fresh;
    for (const auto& p : store.paths()) {
      if (glob_match(pattern, p)) fresh.push_back(p);
    }
    EXPECT_EQ(store.match(pattern), fresh);
  }
  EXPECT_EQ(store.match("race-match/*/temp").size(),
            static_cast<std::size_t>(kWriters * kSeriesPerWriter));
}

TEST(RaceStress, HttpScrapesRaceThePipeline) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& spin_counter =
      registry.counter("oda_test_race_http_total", "race-test counter");
  obs::Histogram& spin_hist = registry.histogram(
      "oda_test_race_http_seconds", "race-test histogram");

  telemetry::TimeSeriesStore store(1 << 12);
  net::SelfScrape scraper(store);

  net::HttpServerOptions opts;
  opts.port = 0;
  net::ObsServer server(opts);
  server.set_store(&store);
  ASSERT_TRUE(server.start());
  const std::uint16_t port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes_ok{0};

  // One full GET round trip on a fresh loopback connection.
  const auto scrape = [port](const char* target) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return false;
    }
    const std::string req = std::string("GET ") + target +
                            " HTTP/1.1\r\nConnection: close\r\n\r\n";
    std::size_t off = 0;
    while (off < req.size()) {
      const ssize_t n =
          ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        ::close(fd);
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    std::string out;
    char buf[4096];
    for (;;) {  // Connection: close — read to EOF
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0) {
        ::close(fd);
        return false;
      }
      if (n == 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out.compare(0, 12, "HTTP/1.1 200") == 0;
  };

  std::vector<std::thread> threads;
  // Metric writers: the state every scrape snapshots.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&stop, &spin_counter, &spin_hist, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        spin_counter.inc();
        spin_hist.observe(0.001 * static_cast<double>((i + w) % 100));
        ++i;
      }
    });
  }
  // Self-scrape loop: registry -> store while clients read both.
  threads.emplace_back([&stop, &scraper] {
    TimePoint t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      scraper.scrape_once(++t);
    }
  });
  // HTTP scrapers.
  const char* targets[] = {"/metrics", "/selfscrape"};
  for (const char* target : targets) {
    threads.emplace_back([&stop, &scrapes_ok, &scrape, target] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (scrape(target)) {
          scrapes_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Run until both scraper threads have seen real traffic (bounded).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (scrapes_ok.load(std::memory_order_relaxed) < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  server.stop();  // drain races the last in-flight scrapes

  EXPECT_GE(scrapes_ok.load(std::memory_order_relaxed), 20u);
  EXPECT_FALSE(store.match("oda/*").empty());
}

}  // namespace
}  // namespace oda
