// Concurrency stress tests for the sharded TimeSeriesStore and the
// collector's parallel read path, aimed at ThreadSanitizer (run them under
// `cmake --preset tsan`). Writers hammer insert_batch across overlapping
// shard sets while readers run every query surface; assertions verify
// conservation (per-series counts, total_inserted) so the tests stay
// meaningful in uninstrumented builds too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/cluster.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/series_id.hpp"
#include "telemetry/store.hpp"

namespace oda::telemetry {
namespace {

// Sized to stay in the low seconds under TSan's slowdown on small CI boxes.
constexpr int kWriterThreads = 4;
constexpr int kReaderThreads = 3;
constexpr int kBatchesPerWriter = 40;
constexpr int kBatchSize = 256;
constexpr int kPathCount = 32;

TEST(RaceStore, ConcurrentBatchInsertAndQueryAcrossShards) {
  // Capacity >= per-series writes (kWriterThreads * kBatchesPerWriter *
  // kBatchSize / kPathCount = 1280), so nothing is evicted and retention is
  // exactly the write count.
  TimeSeriesStore store(1 << 11);
  std::vector<std::string> paths;
  std::vector<SeriesId> ids;
  for (int p = 0; p < kPathCount; ++p) {
    paths.push_back("race-store/rack" + std::to_string(p / 8) + "/node" +
                    std::to_string(p % 8) + "/power");
    ids.push_back(SeriesInterner::global().intern(paths.back()));
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriterThreads);
  for (int w = 0; w < kWriterThreads; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(1000 + static_cast<std::uint64_t>(w));
      std::vector<IdReading> batch(kBatchSize);
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        for (int i = 0; i < kBatchSize; ++i) {
          // Every writer strides over every series: shard locks genuinely
          // contend, and per-series write counts stay deterministic so the
          // conservation check below is exact.
          const auto p = static_cast<std::size_t>(w + i) % kPathCount;
          batch[i] = IdReading{
              ids[p], {static_cast<TimePoint>(b), rng.normal(0.0, 1.0)}};
        }
        store.insert_batch(std::span<const IdReading>(batch));
      }
    });
  }

  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int r = 0; r < kReaderThreads; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(2000 + static_cast<std::uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        const auto p =
            static_cast<std::size_t>(rng.uniform_int(0, kPathCount - 1));
        (void)store.query(ids[p], 0, kBatchesPerWriter);
        (void)store.query_aggregated(ids[p], 0, kBatchesPerWriter, 4,
                                     Aggregation::kStdDev);
        (void)store.latest(ids[p]);
        (void)store.sample_count(SeriesInterner::global().intern(paths[p]));
        (void)store.match("race-store/rack*/node*/power");
        (void)store.frame({paths[0], paths[7], paths[15], paths[31]}, 0,
                          kBatchesPerWriter, 2, Aggregation::kMean);
      }
    });
  }

  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  // Conservation: nothing lost, nothing duplicated.
  const std::uint64_t total_written = static_cast<std::uint64_t>(
      kWriterThreads) * kBatchesPerWriter * kBatchSize;
  EXPECT_EQ(store.total_inserted(), total_written);
  std::uint64_t retained = 0;
  for (const auto& path : paths) {
    retained += store.sample_count(SeriesInterner::global().intern(path));
  }
  // Rings are sized to hold everything (capacity 1024 per series >= worst
  // case per-series share), so retention must equal the write count.
  EXPECT_EQ(retained, total_written);
  EXPECT_EQ(store.match("race-store/*/*/power").size(),
            static_cast<std::size_t>(kPathCount));
}

TEST(RaceStore, PooledFrameRacesConcurrentBatchInserts) {
  // The chunked parallel frame path under write pressure: fill_column
  // workers take shard reader locks and write disjoint cache-line-aligned
  // column stripes while writer threads pump insert_batch into the same
  // shards. Uneven column costs (one hot series with far more samples)
  // force the chunk-claiming cursor to rebalance mid-frame. Ring capacity
  // comfortably exceeds the 800 seed samples plus every concurrent write a
  // series could absorb, so the seeded window is never evicted mid-test.
  TimeSeriesStore store(1 << 11);
  ThreadPool pool(4);
  store.set_pool(&pool);
  constexpr int kCols = 48;
  std::vector<std::string> paths;
  std::vector<SeriesId> ids;
  for (int p = 0; p < kCols; ++p) {
    paths.push_back("race-pframe/s" + std::to_string(p));
    ids.push_back(SeriesInterner::global().intern(paths.back()));
    // Column 0 is ~10x denser than the rest: an expensive outlier chunk.
    const TimePoint step = p == 0 ? 1 : 10;
    for (TimePoint t = 0; t < 800; t += step) {
      store.insert(ids.back(), {t, static_cast<double>(p) + 0.5});
    }
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(3000 + static_cast<std::uint64_t>(w));
      std::vector<IdReading> batch(128);
      for (int b = 0; b < 60; ++b) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const auto p = static_cast<std::size_t>(
              rng.uniform_int(0, kCols - 1));
          batch[i] = IdReading{ids[p],
                               {800 + static_cast<TimePoint>(b),
                                rng.normal(0.0, 1.0)}};
        }
        store.insert_batch(std::span<const IdReading>(batch));
      }
    });
  }

  // Frames race the writers; only the pre-populated window [0, 800) has a
  // stable answer, so assert on that region (bucket 80 -> 10 rows).
  for (int round = 0; round < 30; ++round) {
    const Frame f = store.frame(paths, 0, 800, 80, Aggregation::kMean);
    ASSERT_EQ(f.rows(), 10u);
    ASSERT_EQ(f.cols(), static_cast<std::size_t>(kCols));
    for (std::size_t c = 1; c < f.cols(); ++c) {
      for (double v : f.column_values(c)) {
        ASSERT_EQ(v, static_cast<double>(c) + 0.5) << "col " << c;
      }
    }
  }
  for (auto& w : writers) w.join();
  store.set_pool(nullptr);
}

TEST(RaceStore, ParallelCollectorReadsWithFaultOverlay) {
  // The collector's parallel path reads sensors concurrently with per-chunk
  // overlay Rngs; stuck/spike/noise faults exercise the shared stuck-state
  // capture under contention.
  sim::ClusterParams params;
  params.racks = 2;
  params.nodes_per_rack = 8;
  sim::ClusterSimulation cluster(params);

  const auto& defs = cluster.sensors();
  ASSERT_GE(defs.size(), 64u);  // parallel path engages at >= 64 sensors
  for (std::size_t i = 0; i < defs.size(); i += 3) {
    sim::FaultEvent e;
    e.kind = (i % 9 == 0)   ? sim::FaultKind::kSensorStuck
             : (i % 6 == 0) ? sim::FaultKind::kSensorSpike
                            : sim::FaultKind::kSensorNoise;
    e.target = defs[i].path;
    e.start = 0;
    e.end = 1 << 20;
    e.magnitude = 1.0;
    cluster.faults().schedule(e);
  }

  TimeSeriesStore store(1 << 8);
  ThreadPool pool(4);
  store.set_pool(&pool);
  Collector collector(cluster, &store, nullptr, &pool);
  const std::size_t matched = collector.add_all_sensors(params.dt);
  ASSERT_EQ(matched, defs.size());

  constexpr int kPasses = 25;
  for (int pass = 0; pass < kPasses; ++pass) {
    cluster.step();
    collector.collect();
  }

  EXPECT_EQ(collector.samples_collected(),
            static_cast<std::uint64_t>(kPasses) * defs.size());
  EXPECT_EQ(store.total_inserted(),
            static_cast<std::uint64_t>(kPasses) * defs.size());
  for (const auto& def : defs) {
    EXPECT_EQ(store.sample_count(SeriesInterner::global().intern(def.path)),
              static_cast<std::size_t>(kPasses))
        << def.path;
  }
}

}  // namespace
}  // namespace oda::telemetry
