// Equivalence property tests for the sharded TimeSeriesStore: every query
// surface (query / query_aggregated / frame / latest / sample_count / paths
// / match) must return bit-identical results to a straightforward
// single-map reference model across randomized workloads — including ring
// wraparound (small capacities), NaN readings, duplicate timestamps, and a
// mix of string, id, and batch ingest paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "telemetry/series_id.hpp"
#include "telemetry/store.hpp"

namespace oda::telemetry {
namespace {

/// NaN-tolerant exact comparison: both NaN, or bitwise-comparable equality.
bool same(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

/// The pre-shard design: one ordered map of capacity-bounded deques, with
/// the original query/aggregation algorithms (materialized bucket vectors
/// fed through the shared aggregate() helper).
class ReferenceStore {
 public:
  explicit ReferenceStore(std::size_t cap) : cap_(cap) {}

  void insert(const std::string& path, Sample s) {
    auto& dq = series_[path];
    dq.push_back(s);
    if (dq.size() > cap_) dq.pop_front();
  }

  SeriesSlice query(const std::string& path, TimePoint from,
                    TimePoint to) const {
    SeriesSlice out;
    const auto it = series_.find(path);
    if (it == series_.end()) return out;
    for (const Sample& s : it->second) {
      if (s.time >= from && s.time < to) {
        out.times.push_back(s.time);
        out.values.push_back(s.value);
      }
    }
    return out;
  }

  SeriesSlice query_aggregated(const std::string& path, TimePoint from,
                               TimePoint to, Duration bucket,
                               Aggregation agg) const {
    const SeriesSlice raw = query(path, from, to);
    SeriesSlice out;
    if (raw.empty()) return out;
    std::vector<double> current;
    TimePoint bucket_start =
        from + ((raw.times.front() - from) / bucket) * bucket;
    const auto flush = [&] {
      if (!current.empty()) {
        out.times.push_back(bucket_start);
        out.values.push_back(aggregate(current, agg));
        current.clear();
      }
    };
    for (std::size_t i = 0; i < raw.size(); ++i) {
      while (raw.times[i] >= bucket_start + bucket) {
        flush();
        bucket_start += bucket;
      }
      current.push_back(raw.values[i]);
    }
    flush();
    return out;
  }

  Frame frame(const std::vector<std::string>& sensor_paths, TimePoint from,
              TimePoint to, Duration bucket, Aggregation agg) const {
    Frame f;
    f.columns = sensor_paths;
    const std::size_t n_buckets = static_cast<std::size_t>(
        std::max<TimePoint>(0, (to - from + bucket - 1) / bucket));
    f.times.resize(n_buckets);
    for (std::size_t b = 0; b < n_buckets; ++b) {
      f.times[b] = from + static_cast<Duration>(b) * bucket;
    }
    f.allocate(n_buckets, sensor_paths.size());
    for (std::size_t c = 0; c < sensor_paths.size(); ++c) {
      const SeriesSlice slice =
          query_aggregated(sensor_paths[c], from, to, bucket, agg);
      for (std::size_t i = 0; i < slice.size(); ++i) {
        const auto b = static_cast<std::size_t>((slice.times[i] - from) / bucket);
        if (b < n_buckets) f.at(b, c) = slice.values[i];
      }
    }
    return f;
  }

  std::optional<Sample> latest(const std::string& path) const {
    const auto it = series_.find(path);
    if (it == series_.end() || it->second.empty()) return std::nullopt;
    return it->second.back();
  }

  std::size_t sample_count(const std::string& path) const {
    const auto it = series_.find(path);
    return it == series_.end() ? 0 : it->second.size();
  }

  std::vector<std::string> paths() const {
    std::vector<std::string> out;
    for (const auto& [p, dq] : series_) out.push_back(p);
    return out;
  }

  std::vector<std::string> match(const std::string& pattern) const {
    std::vector<std::string> out;
    for (const auto& [p, dq] : series_) {
      if (glob_match(pattern, p)) out.push_back(p);
    }
    return out;
  }

 private:
  std::size_t cap_;
  std::map<std::string, std::deque<Sample>> series_;
};

void expect_slices_equal(const SeriesSlice& got, const SeriesSlice& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.times[i], want.times[i]) << context << " @" << i;
    EXPECT_TRUE(same(got.values[i], want.values[i]))
        << context << " @" << i << ": " << got.values[i]
        << " != " << want.values[i];
  }
}

void expect_frames_equal(const Frame& got, const Frame& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.columns, want.columns);
  EXPECT_EQ(got.times, want.times);
  for (std::size_t r = 0; r < got.rows(); ++r) {
    for (std::size_t c = 0; c < got.cols(); ++c) {
      EXPECT_TRUE(same(got.at(r, c), want.at(r, c)))
          << "row " << r << " col " << c;
    }
  }
}

constexpr Aggregation kAllAggs[] = {
    Aggregation::kMean, Aggregation::kMin,   Aggregation::kMax,
    Aggregation::kSum,  Aggregation::kLast,  Aggregation::kCount,
    Aggregation::kStdDev};

/// Drives one randomized workload at a given capacity and checks every
/// query surface against the reference model.
void run_equivalence_round(std::uint64_t seed, std::size_t capacity) {
  Rng rng(seed);
  TimeSeriesStore store(capacity);
  ReferenceStore ref(capacity);

  // A unique path set per round keeps the process-wide interner from
  // aliasing series across test rounds.
  std::vector<std::string> paths;
  const std::size_t n_paths = 3 + static_cast<std::size_t>(rng.uniform_int(0, 9));
  for (std::size_t p = 0; p < n_paths; ++p) {
    paths.push_back("equiv" + std::to_string(seed) + "/rack" +
                    std::to_string(p / 4) + "/node" + std::to_string(p % 4) +
                    "/power");
  }

  // Monotone global clock with duplicate timestamps; values include NaN and
  // large magnitudes. Ingest through a random mix of the string API, the id
  // API, and insert_batch with random batch sizes.
  TimePoint t = static_cast<TimePoint>(rng.uniform_int(0, 100));
  const std::size_t n_ops = 1500;
  std::vector<IdReading> batch;
  const auto flush_batch = [&] {
    if (!batch.empty()) {
      store.insert_batch(std::span<const IdReading>(batch));
      batch.clear();
    }
  };
  for (std::size_t op = 0; op < n_ops; ++op) {
    const std::string& path =
        paths[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
    double value = rng.normal(0.0, 100.0);
    const double u = rng.uniform();
    if (u < 0.05) value = std::nan("");
    else if (u < 0.10) value = value * 1e12;
    const Sample s{t, value};

    ref.insert(path, s);
    const double which = rng.uniform();
    if (which < 0.4) {
      flush_batch();
      store.insert(path, s);
    } else if (which < 0.6) {
      flush_batch();
      store.insert(SeriesInterner::global().intern(path), s);
    } else {
      batch.push_back({SeriesInterner::global().intern(path), s});
      if (batch.size() >= static_cast<std::size_t>(rng.uniform_int(1, 64))) {
        flush_batch();
      }
    }
    t += rng.uniform_int(0, 30);  // duplicates (0) through gaps
  }
  flush_batch();

  // Catalog surfaces.
  EXPECT_EQ(store.paths(), ref.paths());
  EXPECT_EQ(store.match("equiv" + std::to_string(seed) + "/rack0/*/power"),
            ref.match("equiv" + std::to_string(seed) + "/rack0/*/power"));
  for (const auto& path : paths) {
    EXPECT_EQ(store.sample_count(SeriesInterner::global().intern(path)),
              ref.sample_count(path))
        << path;
    const auto got = store.latest(path);
    const auto want = ref.latest(path);
    ASSERT_EQ(got.has_value(), want.has_value()) << path;
    if (got) {
      EXPECT_EQ(got->time, want->time) << path;
      EXPECT_TRUE(same(got->value, want->value)) << path;
    }
  }

  // Random query windows, raw and aggregated, string and id keyed.
  for (int q = 0; q < 20; ++q) {
    const std::string& path =
        paths[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
    const TimePoint from = rng.uniform_int(-50, t);
    const TimePoint to = from + rng.uniform_int(0, t + 100);
    expect_slices_equal(store.query(path, from, to), ref.query(path, from, to),
                        "query " + path);
    const SeriesId id = SeriesInterner::global().intern(path);
    expect_slices_equal(store.query(id, from, to), ref.query(path, from, to),
                        "query(id) " + path);
    const Duration bucket = rng.uniform_int(1, 120);
    for (const Aggregation agg : kAllAggs) {
      expect_slices_equal(
          store.query_aggregated(path, from, to, bucket, agg),
          ref.query_aggregated(path, from, to, bucket, agg),
          "agg " + path + " bucket " + std::to_string(bucket) + " kind " +
              std::to_string(static_cast<int>(agg)));
    }
  }

  // Aligned frames over every path (includes missing-bucket NaN gaps).
  for (const Aggregation agg :
       {Aggregation::kMean, Aggregation::kStdDev, Aggregation::kCount}) {
    const TimePoint from = 0;
    const TimePoint to = t + 50;
    const Duration bucket = rng.uniform_int(10, 200);
    expect_frames_equal(store.frame(paths, from, to, bucket, agg),
                        ref.frame(paths, from, to, bucket, agg));
  }
}

TEST(StoreEquivalence, RandomizedWorkloadsMatchReferenceModel) {
  // Small capacities force ring wraparound.
  run_equivalence_round(/*seed=*/1, /*capacity=*/8);
  run_equivalence_round(/*seed=*/2, /*capacity=*/32);
  run_equivalence_round(/*seed=*/3, /*capacity=*/64);
  run_equivalence_round(/*seed=*/4, /*capacity=*/7);
  run_equivalence_round(/*seed=*/5, /*capacity=*/1024);
}

TEST(StoreEquivalence, AggregateHelperMatchesAccumulator) {
  // The dashboards' aggregate() helper and the store's streaming pass share
  // AggAccumulator; spot-check the helper against hand computations.
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(aggregate(v, Aggregation::kMean), 2.5);
  EXPECT_DOUBLE_EQ(aggregate(v, Aggregation::kMin), 1.0);
  EXPECT_DOUBLE_EQ(aggregate(v, Aggregation::kMax), 4.0);
  EXPECT_DOUBLE_EQ(aggregate(v, Aggregation::kSum), 10.0);
  EXPECT_DOUBLE_EQ(aggregate(v, Aggregation::kLast), 4.0);
  EXPECT_DOUBLE_EQ(aggregate(v, Aggregation::kCount), 4.0);
  EXPECT_NEAR(aggregate(v, Aggregation::kStdDev), 1.2909944487358056, 1e-12);
  EXPECT_TRUE(std::isnan(aggregate({}, Aggregation::kMean)));
  EXPECT_DOUBLE_EQ(aggregate({5.0}, Aggregation::kStdDev), 0.0);
}

TEST(StoreEquivalence, BatchPreservesPerSeriesOrder) {
  // All readings of one series land in one shard; the stable counting sort
  // must keep their relative order so ring retention stays append-ordered.
  TimeSeriesStore store(4);
  const SeriesId id = SeriesInterner::global().intern("equiv-order/s");
  std::vector<IdReading> batch;
  for (TimePoint t = 0; t < 10; ++t) {
    batch.push_back({id, {t, static_cast<double>(t)}});
  }
  store.insert_batch(std::span<const IdReading>(batch));
  const SeriesSlice slice = store.query_all("equiv-order/s");
  ASSERT_EQ(slice.size(), 4u);  // capacity bound: newest four retained
  EXPECT_EQ(slice.times.front(), 6);
  EXPECT_EQ(slice.times.back(), 9);
}

TEST(StoreEquivalence, ParallelFrameMatchesSerial) {
  TimeSeriesStore store(256);
  std::vector<std::string> paths;
  for (int p = 0; p < 12; ++p) {
    paths.push_back("equiv-pframe/s" + std::to_string(p));
  }
  Rng rng(42);
  for (TimePoint t = 0; t < 500; ++t) {
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (rng.uniform() < 0.8) {
        store.insert(paths[p], {t, rng.normal(0.0, 10.0)});
      }
    }
  }
  const Frame serial = store.frame(paths, 0, 500, 37, Aggregation::kStdDev);
  ThreadPool pool(4);
  store.set_pool(&pool);
  const Frame parallel = store.frame(paths, 0, 500, 37, Aggregation::kStdDev);
  store.set_pool(nullptr);
  expect_frames_equal(parallel, serial);
}

TEST(StoreEquivalence, FrameUnknownColumnsStayAllNaN) {
  // Regression: frame() maps unknown paths to the default (invalid)
  // SeriesId; those columns must stay all-NaN rather than aliasing any
  // stored series — serial and pooled paths alike.  Capacity must hold all
  // 100 samples per series or early buckets evict to NaN.
  TimeSeriesStore store(128);
  std::vector<std::string> paths;
  for (int p = 0; p < 6; ++p) {
    paths.push_back("equiv-unknown/s" + std::to_string(p));
    for (TimePoint t = 0; t < 100; ++t) {
      store.insert(paths.back(), {t, static_cast<double>(t + p)});
    }
  }
  // One path never seen by the interner, one interned but never inserted
  // into this store.
  paths.insert(paths.begin() + 2, "equiv-unknown/never-interned");
  SeriesInterner::global().intern("equiv-unknown/foreign");
  paths.push_back("equiv-unknown/foreign");

  const auto check = [&](const Frame& f) {
    ASSERT_EQ(f.cols(), paths.size());
    for (std::size_t r = 0; r < f.rows(); ++r) {
      EXPECT_TRUE(std::isnan(f.at(r, 2))) << "never-interned row " << r;
      EXPECT_TRUE(std::isnan(f.at(r, f.cols() - 1))) << "foreign row " << r;
      EXPECT_FALSE(std::isnan(f.at(r, 0))) << "known column row " << r;
    }
  };
  check(store.frame(paths, 0, 100, 10));
  ThreadPool pool(4);
  store.set_pool(&pool);
  check(store.frame(paths, 0, 100, 10));
  store.set_pool(nullptr);
}

TEST(StoreEquivalence, ContainsAndInvalidHandles) {
  TimeSeriesStore store(16);
  EXPECT_EQ(
      store.sample_count(SeriesInterner::global().intern("equiv-missing/x")),
      0u);
  EXPECT_TRUE(store.query(SeriesId{}, 0, 100).empty());
  EXPECT_TRUE(store.query_aggregated(SeriesId{}, 0, 100, 10,
                                     Aggregation::kMean)
                  .empty());
  EXPECT_FALSE(store.latest(SeriesId{}).has_value());
  EXPECT_EQ(store.sample_count(SeriesId{}), 0u);
  store.insert("equiv-contains/x", {0, 1.0});
  EXPECT_EQ(
      store.sample_count(SeriesInterner::global().intern("equiv-contains/x")),
      1u);
  // Interned elsewhere but never inserted into this store.
  const SeriesId foreign = SeriesInterner::global().intern("equiv-foreign/y");
  EXPECT_EQ(store.sample_count(foreign), 0u);
  EXPECT_FALSE(store.latest(foreign).has_value());
}

TEST(StoreEquivalence, TailLowerBoundMatchesLowerBound) {
  // Rings of every fill level up to twice their capacity (so wrapped and
  // unwrapped, empty included), ascending times with runs of repeats, and
  // probes before, inside, between and after the retained samples.
  Rng rng(109);
  for (std::size_t cap = 1; cap <= 24; ++cap) {
    for (std::size_t pushes = 0; pushes <= 2 * cap + 1; ++pushes) {
      RingBuffer<Sample> ring(cap);
      TimePoint t = rng.uniform_int(-50, 50);
      for (std::size_t i = 0; i < pushes; ++i) {
        t += rng.uniform_int(0, 3);  // 0: a repeated timestamp
        ring.push({t, 0.0});
      }
      const auto [a, b] = ring.spans();
      const std::vector<Sample> all = ring.to_vector();
      const auto less = [](const Sample& s, TimePoint tp) { return s.time < tp; };
      const auto reference = [&](TimePoint probe) {
        return static_cast<std::size_t>(
            std::lower_bound(all.begin(), all.end(), probe, less) - all.begin());
      };
      const TimePoint first = all.empty() ? 0 : all.front().time;
      const TimePoint last = all.empty() ? 0 : all.back().time;
      for (TimePoint from = first - 3; from <= last + 3; ++from) {
        const std::size_t want_lo = reference(from);
        EXPECT_EQ(tail_lower_bound(a, b, from, all.size()), want_lo)
            << "cap " << cap << " pushes " << pushes << " t " << from;
        for (TimePoint to = from; to <= last + 3; to += 2) {
          // The read path's second search starts from the first's answer.
          const std::size_t want_hi = reference(to);
          ASSERT_EQ(tail_lower_bound(a, b, to, all.size()), want_hi);
          EXPECT_EQ(tail_lower_bound(a, b, from, want_hi), want_lo)
              << "cap " << cap << " pushes " << pushes << " [" << from
              << ", " << to << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace oda::telemetry
