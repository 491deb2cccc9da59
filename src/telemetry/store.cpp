#include "telemetry/store.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/agg_kernels.hpp"
#include "telemetry/wal.hpp"

namespace oda::telemetry {

namespace {

/// frame() fans out to the pool only when the column work is worth the
/// submit overhead.
constexpr std::size_t kParallelFrameColumns = 4;

/// Process-wide store metrics (aggregate over every TimeSeriesStore — the
/// per-instance total_inserted() accessor remains exact per store). The
/// memory gauge grows by an estimate of each new series' footprint; ring
/// storage is preallocated at full capacity, so the estimate is taken once
/// at series creation. Stores are pipeline-lifetime objects, so the gauge is
/// treated as monotone (no subtraction on store destruction).
struct StoreMetrics {
  obs::Counter& inserts;
  obs::Counter& queries;
  obs::Gauge& memory_bytes;
  obs::Histogram& batch_size;

  static StoreMetrics& get() {
    static StoreMetrics m{
        obs::MetricsRegistry::global().counter("oda_store_inserts_total",
                                               "Samples inserted into any store"),
        obs::MetricsRegistry::global().counter(
            "oda_store_queries_total",
            "Time-range queries served (including aggregated/frame reads)"),
        obs::MetricsRegistry::global().gauge(
            "oda_store_memory_bytes",
            "Approximate bytes retained across all stores"),
        obs::MetricsRegistry::global().histogram(
            "oda_store_batch_size", "Readings per insert_batch() call",
            obs::exponential_bounds(1.0, 2.0, 17)),
    };
    return m;
  }
};

/// std::lower_bound's index for t in the ascending span s, given that
/// every sample from s[end] on has time >= t: gallops back from `end` in
/// steps of 1, 2, 4, ..., then bisects the last step with a branch-free
/// update.
std::size_t gallop_back(std::span<const Sample> s, TimePoint t,
                        std::size_t end) {
  std::size_t hi = end;
  std::size_t lo = 0;
  for (std::size_t step = 1; hi > 0; step *= 2) {
    const std::size_t probe = hi > step ? hi - step : 0;
    if (s[probe].time < t) {
      lo = probe + 1;
      break;
    }
    hi = probe;
  }
  // Every index below lo is < t, every one from hi is >= t.
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool below = s[mid].time < t;
    lo = below ? mid + 1 : lo;
    hi = below ? hi : mid;
  }
  return lo;
}

}  // namespace

std::size_t tail_lower_bound(std::span<const Sample> a,
                             std::span<const Sample> b, TimePoint t,
                             std::size_t end) {
  const std::size_t na = a.size();
  // The answer lies in b when b's first sample is still below t.
  if (end > na && b.front().time < t) return na + gallop_back(b, t, end - na);
  return gallop_back(a, t, std::min(end, na));
}

double AggAccumulator::result(Aggregation agg) const {
  if (count == 0) return std::nan("");
  switch (agg) {
    case Aggregation::kMean:
      return sum / static_cast<double>(count);
    case Aggregation::kMin:
      return min;
    case Aggregation::kMax:
      return max;
    case Aggregation::kSum:
      return sum;
    case Aggregation::kLast:
      return last;
    case Aggregation::kCount:
      return static_cast<double>(count);
    case Aggregation::kStdDev:
      // Sample stddev (n-1), 0 for a single sample — the original
      // two-pass semantics, computed by Welford's update in add().
      return count < 2 ? 0.0
                       : std::sqrt(m2 / static_cast<double>(count - 1));
  }
  return std::nan("");
}

double aggregate(const std::vector<double>& values, Aggregation agg) {
  AggAccumulator acc;
  for (double v : values) acc.add(v);
  return acc.result(agg);
}

void Frame::allocate(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  // Round the stride up to a whole cache line of doubles so adjacent
  // columns never share a line, then over-allocate one line of slack and
  // pick the base offset that lands column 0 on a 64-byte boundary
  // (vector<double> only guarantees 8-byte alignment).
  constexpr std::size_t kLine = 64 / sizeof(double);
  stride_ = (rows + kLine - 1) & ~(kLine - 1);
  values_.assign(stride_ * cols + kLine - 1, std::nan(""));
  const auto addr = reinterpret_cast<std::uintptr_t>(values_.data());
  const std::size_t misalign = (addr % 64) / sizeof(double);
  base_ = misalign == 0 ? 0 : kLine - misalign;
}

void TimeSeriesStore::count_query() { StoreMetrics::get().queries.inc(); }

TimeSeriesStore::TimeSeriesStore(std::size_t capacity_per_sensor)
    : capacity_(capacity_per_sensor) {
  ODA_REQUIRE(capacity_per_sensor > 0, "store capacity must be positive");
  shards_.reserve(kShards);
  shard_series_.reserve(kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    const obs::LabelSet labels = {{"shard", std::to_string(i)}};
    shard_series_.push_back(&obs::MetricsRegistry::global().gauge(
        "oda_store_shard_series", "Series stored in this shard (occupancy)",
        labels));
  }
}

TimeSeriesStore::Series& TimeSeriesStore::series_locked(Shard& shard,
                                                        SeriesId id) {
  const std::size_t slot = id.value / kShards;
  if (slot >= shard.slots.size()) shard.slots.resize(slot + 1);
  std::optional<Series>& series = shard.slots[slot];
  if (!series) {
    series.emplace(capacity_);
    // Ring storage is preallocated: capacity samples plus the slot and the
    // interned path the series is named by.
    StoreMetrics::get().memory_bytes.add(static_cast<double>(
        capacity_ * sizeof(Sample) + sizeof(std::optional<Series>) +
        SeriesInterner::global().path(id).size()));
    shard_series_[id.value % kShards]->add(1.0);
    // release: a match() that reads this count also sees the new series
    // in its catalog() pass (see with_match()).
    series_count_.fetch_add(1, std::memory_order_release);
  }
  return *series;
}

void TimeSeriesStore::insert(SeriesId id, Sample sample) {
  ODA_REQUIRE(id.valid(), "store insert with invalid series id");
  if (wal_ != nullptr) {
    // Write-ahead: log before applying, outside any shard lock. A refused
    // append (degraded WAL) is accounted by the WAL; ingest continues.
    const IdReading logged{id, sample};
    wal_->append(std::span<const IdReading>(&logged, 1));
  }
  {
    Shard& shard = shard_of(id);
    // Wait accounting rides the uniform contention machinery in sync.hpp
    // (oda_lock_wait_seconds{rank="store_shard"}).
    WriterLock lock(shard.mu);
    series_locked(shard, id).samples.push(sample);
  }
  // relaxed: monotonic statistics counter (see total_inserted()).
  total_inserted_.fetch_add(1, std::memory_order_relaxed);
  StoreMetrics::get().inserts.inc();
}

void TimeSeriesStore::insert(const std::string& path, Sample sample) {
  insert(SeriesInterner::global().intern(path), sample);
}

void TimeSeriesStore::insert_batch(std::span<const IdReading> readings) {
  ODA_TRACE_SPAN_CAT("store.insert_batch", "store");
  StoreMetrics& metrics = StoreMetrics::get();
  metrics.batch_size.observe(static_cast<double>(readings.size()));
  if (readings.empty()) return;
  if (wal_ != nullptr) {
    // Write-ahead: one queue handoff per batch, before any shard lock.
    wal_->append(readings);
  }
  // Stable counting sort of reading indices by shard: each shard lock is
  // taken once per batch and per-series insertion order is preserved. The
  // order buffer is thread_local so steady-state ingest does no heap
  // allocation per batch.
  std::array<std::uint32_t, kShards + 1> counts{};
  for (const IdReading& r : readings) {
    ODA_REQUIRE(r.id.valid(), "insert_batch with invalid series id");
    ++counts[(r.id.value % kShards) + 1];
  }
  for (std::size_t s = 1; s <= kShards; ++s) counts[s] += counts[s - 1];
  thread_local std::vector<std::uint32_t> order;
  order.resize(readings.size());
  std::array<std::uint32_t, kShards> next;
  std::copy(counts.begin(), counts.end() - 1, next.begin());
  for (std::uint32_t i = 0; i < readings.size(); ++i) {
    order[next[readings[i].id.value % kShards]++] = i;
  }

  for (std::size_t s = 0; s < kShards; ++s) {
    const std::uint32_t lo = counts[s];
    const std::uint32_t hi = counts[s + 1];
    if (lo == hi) continue;
    Shard& shard = *shards_[s];
    // Wait accounting rides the uniform contention machinery in sync.hpp
    // (try_lock fast path, timed slow path feeding the kStoreShard rank of
    // oda_lock_wait_seconds).
    WriterLock lock(shard.mu);
    for (std::uint32_t k = lo; k < hi; ++k) {
      const IdReading& r = readings[order[k]];
      series_locked(shard, r.id).samples.push(r.sample);
    }
  }
  // relaxed: monotonic statistics counter (see total_inserted()).
  total_inserted_.fetch_add(readings.size(), std::memory_order_relaxed);
  metrics.inserts.inc(readings.size());
}

std::vector<std::pair<std::string, SeriesId>> TimeSeriesStore::catalog()
    const {
  SeriesInterner& interner = SeriesInterner::global();
  std::vector<std::pair<std::string, SeriesId>> out;
  for (std::size_t s = 0; s < kShards; ++s) {
    const Shard& shard = *shards_[s];
    ReaderLock lock(shard.mu);
    for (std::size_t slot = 0; slot < shard.slots.size(); ++slot) {
      if (!shard.slots[slot]) continue;
      const SeriesId id{static_cast<std::uint32_t>(slot * kShards + s)};
      out.emplace_back(interner.path(id), id);
    }
  }
  // Sorted by path: the original string-keyed map's iteration order.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> TimeSeriesStore::paths() const {
  std::vector<std::string> out;
  for (auto& [path, id] : catalog()) out.push_back(std::move(path));
  return out;
}

template <typename Fn>
auto TimeSeriesStore::with_match(const std::string& pattern, Fn&& fn) const {
  // acquire: pairs with series_locked's release increment, so every series
  // this count includes is visible to the catalog() pass below. A memo
  // stamped with the current count therefore lists every stored match
  // (series are never removed); one stamped older is recomputed, with the
  // memo mutex released across the catalog() pass.
  const std::uint64_t series = series_count_.load(std::memory_order_acquire);
  {
    MutexLock lock(match_mu_);
    const auto it = match_memo_.find(pattern);
    if (it != match_memo_.end() && it->second.series == series) {
      return fn(it->second);
    }
  }
  MatchMemo memo{series, {}, {}};
  for (auto& [path, id] : catalog()) {
    if (!glob_match(pattern, path)) continue;
    memo.paths.push_back(std::move(path));
    memo.ids.push_back(id);
  }
  MutexLock lock(match_mu_);
  MatchMemo& entry = match_memo_[pattern];
  entry = std::move(memo);
  return fn(entry);
}

std::vector<std::string> TimeSeriesStore::match(const std::string& pattern) const {
  return with_match(pattern, [](const MatchMemo& m) { return m.paths; });
}

std::vector<SeriesId> TimeSeriesStore::match_ids(
    const std::string& pattern) const {
  return with_match(pattern, [](const MatchMemo& m) { return m.ids; });
}

std::size_t TimeSeriesStore::sample_count(SeriesId id) const {
  if (!id.valid()) return 0;
  Shard& shard = shard_of(id);
  ReaderLock lock(shard.mu);
  const Series* series = shard.find(id);
  return series == nullptr ? 0 : series->samples.size();
}

std::optional<Sample> TimeSeriesStore::latest(SeriesId id) const {
  if (!id.valid()) return std::nullopt;
  Shard& shard = shard_of(id);
  ReaderLock lock(shard.mu);
  const Series* series = shard.find(id);
  if (series == nullptr || series->samples.empty()) return std::nullopt;
  return series->samples.back();
}

std::optional<Sample> TimeSeriesStore::latest(const std::string& path) const {
  const auto id = SeriesInterner::global().lookup(path);
  return id ? latest(*id) : std::nullopt;
}

SeriesSlice TimeSeriesStore::query(SeriesId id, TimePoint from,
                                   TimePoint to) const {
  SeriesSlice out;
  read_range(id, from, to,
             [&](std::span<const Sample> ra, std::span<const Sample> rb) {
               out.times.resize(ra.size() + rb.size());
               out.values.resize(ra.size() + rb.size());
               std::size_t w = 0;
               for (const auto range : {ra, rb}) {
                 for (const Sample& s : range) {
                   out.times[w] = s.time;
                   out.values[w] = s.value;
                   ++w;
                 }
               }
             });
  return out;
}

SeriesSlice TimeSeriesStore::query(const std::string& path, TimePoint from,
                                   TimePoint to) const {
  const auto id = SeriesInterner::global().lookup(path);
  return query(id.value_or(SeriesId{}), from, to);
}

SeriesSlice TimeSeriesStore::query_all(const std::string& path) const {
  return query(path, kTimeMin, kTimeMax);
}

std::optional<double> TimeSeriesStore::window_mean(SeriesId id, TimePoint from,
                                                   TimePoint to) const {
  double sum = 0.0;
  std::size_t n = 0;
  read_range(id, from, to,
             [&](std::span<const Sample> ra, std::span<const Sample> rb) {
               for (const auto range : {ra, rb}) {
                 for (const Sample& s : range) sum += s.value;
               }
               n = ra.size() + rb.size();
             });
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

SeriesSlice TimeSeriesStore::query_aggregated(SeriesId id, TimePoint from,
                                              TimePoint to, Duration bucket,
                                              Aggregation agg) const {
  ODA_REQUIRE(bucket > 0, "aggregation bucket must be positive");
  SeriesSlice out;
  read_range(id, from, to,
             [&](std::span<const Sample> ra, std::span<const Sample> rb) {
               // Single streaming pass through the per-Aggregation bucket
               // kernels (agg_kernels.hpp): one boundary compare per
               // sample, a tight reduce loop per bucket, bit-identical to
               // folding through AggAccumulator.
               bucket_aggregate_sparse(ra, rb, from, bucket, agg, out.times,
                                       out.values);
             });
  return out;
}

SeriesSlice TimeSeriesStore::query_aggregated(const std::string& path,
                                              TimePoint from, TimePoint to,
                                              Duration bucket,
                                              Aggregation agg) const {
  const auto id = SeriesInterner::global().lookup(path);
  return query_aggregated(id.value_or(SeriesId{}), from, to, bucket, agg);
}

void TimeSeriesStore::fill_columns(Frame& f, std::size_t lo, std::size_t hi,
                                   std::span<const SeriesId> ids,
                                   TimePoint from, TimePoint to,
                                   Duration bucket, Aggregation agg) const {
  // One span per claimed chunk: under a parallel frame() these run on pool
  // workers and carry the submitter's trace context, so the critical-path
  // analyzer still sees the fan-out width (frame_parallelism) from the
  // trace, at a span cost per chunk rather than per column.
  ODA_TRACE_SPAN_CAT("store.fill_column", "store");
  for (std::size_t col = lo; col < hi; ++col) {
    // Unknown sensors (no interner entry, or interned but never inserted
    // here) leave the column all-NaN — never an aliased series' data.
    read_range(ids[col], from, to,
               [&](std::span<const Sample> ra, std::span<const Sample> rb) {
                 // The dense kernel writes aggregates straight into this
                 // column's contiguous stripe — no intermediate
                 // SeriesSlice, no scatter pass.
                 bucket_aggregate_dense(ra, rb, from, bucket, agg, f.rows(),
                                        f.column_values(col).data());
               });
  }
}

Frame TimeSeriesStore::frame_of(std::vector<std::string> columns,
                                std::span<const SeriesId> ids, TimePoint from,
                                TimePoint to, Duration bucket,
                                Aggregation agg) const {
  ODA_REQUIRE(bucket > 0, "frame bucket must be positive");
  Frame f;
  f.columns = std::move(columns);
  const std::size_t n_buckets = static_cast<std::size_t>(
      std::max<TimePoint>(0, (to - from + bucket - 1) / bucket));
  f.times.resize(n_buckets);
  for (std::size_t bkt = 0; bkt < n_buckets; ++bkt) {
    f.times[bkt] = from + static_cast<Duration>(bkt) * bucket;
  }
  f.allocate(n_buckets, ids.size());

  // Columns are independent and each writes only its own cache-line-aligned
  // stripe, so fan them out when a pool is wired in. parallel_for_chunks
  // claims chunks of columns via a shared atomic cursor (grain auto-tuned),
  // so a wide frame costs thread_count task submissions, not one per column.
  if (pool_ != nullptr && ids.size() >= kParallelFrameColumns) {
    pool_->parallel_for_chunks(0, ids.size(), [&](std::size_t lo, std::size_t hi) {
      fill_columns(f, lo, hi, ids, from, to, bucket, agg);
    });
  } else {
    fill_columns(f, 0, ids.size(), ids, from, to, bucket, agg);
  }
  return f;
}

Frame TimeSeriesStore::frame(std::span<const SeriesId> ids, TimePoint from,
                             TimePoint to, Duration bucket,
                             Aggregation agg) const {
  ODA_TRACE_SPAN_CAT("store.frame", "store");
  SeriesInterner& interner = SeriesInterner::global();
  std::vector<std::string> columns;
  columns.reserve(ids.size());
  for (const SeriesId id : ids) {
    columns.push_back(id.valid() ? interner.path(id) : std::string());
  }
  return frame_of(std::move(columns), ids, from, to, bucket, agg);
}

Frame TimeSeriesStore::frame(const std::vector<std::string>& sensor_paths,
                             TimePoint from, TimePoint to, Duration bucket,
                             Aggregation agg) const {
  ODA_TRACE_SPAN_CAT("store.frame", "store");
  SeriesInterner& interner = SeriesInterner::global();
  std::vector<SeriesId> ids(sensor_paths.size());
  for (std::size_t c = 0; c < sensor_paths.size(); ++c) {
    // Unknown paths map to the (explicitly invalid) default SeriesId, whose
    // column stays all-NaN.
    ids[c] = interner.lookup(sensor_paths[c]).value_or(SeriesId{});
  }
  return frame_of(sensor_paths, ids, from, to, bucket, agg);
}

}  // namespace oda::telemetry
