// In-memory time-series store: bounded per-sensor ring storage with
// time-range queries, bucketed downsampling, and aligned multi-sensor frames
// (the tabular input the ML-flavoured analytics consume).
//
// Built for ingest/query throughput (docs/STORE.md):
//  * series are keyed by interned SeriesId handles (series_id.hpp) and
//    spread over 16 lock-striped shards, so writers on different sensors
//    do not contend and no hot path re-hashes path strings;
//  * insert_batch() groups a whole collector pass by shard and takes each
//    shard lock once, replacing per-sample lock acquisitions;
//  * queries walk the ring's contiguous spans and aggregate in one
//    streaming pass (Welford for stddev) without materializing per-bucket
//    value vectors;
//  * frame() fans independent columns out over an optional ThreadPool.
// The string-keyed API is retained as a thin wrapper over the id API, with
// query semantics identical to the original single-map store.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/series_id.hpp"

namespace oda::obs {
class Gauge;
}  // namespace oda::obs

namespace oda::telemetry {

class Wal;

enum class Aggregation { kMean, kMin, kMax, kSum, kLast, kCount, kStdDev };

struct SeriesSlice {
  std::vector<TimePoint> times;
  std::vector<double> values;

  std::size_t size() const { return values.size(); }
  bool empty() const { return values.empty(); }
};

/// An aligned multi-sensor table: rows are time buckets, columns sensors.
/// Storage is one flat column-major buffer: column c occupies the contiguous
/// stripe values_[base_ + c * stride_ .. + rows()), with the stride rounded
/// up to a whole cache line (8 doubles) and column 0 aligned to a 64-byte
/// boundary, so parallel per-column writers never share a cache line.
/// Missing data is NaN.
struct Frame {
  std::vector<std::string> columns;
  std::vector<TimePoint> times;

  std::size_t rows() const { return times.size(); }
  std::size_t cols() const { return columns.size(); }

  /// Sizes the buffer for rows x cols and fills every cell with NaN.
  /// `times`/`columns` stay the caller's to populate (frame() sets them so
  /// rows() == rows and cols() == cols afterwards).
  void allocate(std::size_t rows, std::size_t cols);

  /// Cell accessors (unchecked: the row/col must be in range).
  double at(std::size_t row, std::size_t col) const {
    return values_[base_ + col * stride_ + row];
  }
  double& at(std::size_t row, std::size_t col) {
    return values_[base_ + col * stride_ + row];
  }

  /// Column c's cells as one contiguous stripe of rows() doubles — the
  /// fast path for per-sensor scans (no per-row indirection).
  std::span<const double> column_values(std::size_t col) const {
    return {values_.data() + base_ + col * stride_, rows_};
  }
  std::span<double> column_values(std::size_t col) {
    return {values_.data() + base_ + col * stride_, rows_};
  }

 private:
  // Copies keep base_ as-is: the slack allocated for alignment travels with
  // the buffer, so stale offsets stay in range — a copy merely loses the
  // 64-byte guarantee (a perf nicety, never a correctness requirement).
  std::vector<double> values_;
  std::size_t rows_ = 0;    // row count fixed at allocate() time
  std::size_t stride_ = 0;  // doubles between column starts (>= rows_)
  std::size_t base_ = 0;    // leading pad aligning column 0 to 64 bytes
};

/// Streaming aggregation state: one pass over the values yields every
/// Aggregation result. Shared by the store's bucket walk and the aggregate()
/// helper so both produce bit-identical numbers. Min/max update with the
/// exact std::min_element/std::max_element comparison order so NaN handling
/// matches a materialized std::vector pass.
struct AggAccumulator {
  std::size_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;
  double mean = 0.0;  // Welford running mean
  double m2 = 0.0;    // Welford sum of squared deviations

  void add(double v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (max < v) max = v;
    }
    sum += v;
    last = v;
    ++count;
    const double delta = v - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (v - mean);
  }

  void reset() { *this = AggAccumulator{}; }

  /// The aggregate over everything add()ed so far; NaN when empty.
  double result(Aggregation agg) const;
};

class TimeSeriesStore {
 public:
  /// Lock stripes; series `id` lives in shard id.value % kShards.
  static constexpr std::size_t kShards = 16;

  /// capacity_per_sensor bounds retained samples per path.
  explicit TimeSeriesStore(std::size_t capacity_per_sensor = 1 << 16);

  // -- ingest -----------------------------------------------------------------
  void insert(const std::string& path, Sample sample);
  /// Id-handle fast path; `id` must come from SeriesInterner::global().
  void insert(SeriesId id, Sample sample);
  /// Batch ingest: groups readings by shard (stable, so per-series order is
  /// preserved) and takes each shard lock once per batch.
  void insert_batch(std::span<const IdReading> readings);

  /// Optional pool used by frame() to assemble columns in parallel. The pool
  /// must outlive the store (or be reset to nullptr first).
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Optional durable write-ahead log (telemetry/wal.hpp): when attached,
  /// every ingest path appends to it *before* taking any shard lock, so
  /// durability rides the normal batching and never extends lock hold
  /// times. Attach only after Wal::recover_into() has replayed into this
  /// store (a store with the Wal already attached would re-log its own
  /// replay); the Wal must outlive the store or be detached first.
  void set_wal(Wal* wal) { wal_ = wal; }
  Wal* wal() const { return wal_; }

  // -- catalog ----------------------------------------------------------------
  /// All stored paths, sorted (the original std::map iteration order).
  std::vector<std::string> paths() const;
  /// The stored paths that glob_match `pattern`, sorted. Memoised per
  /// pattern and stamped with the store's series count, so a call scans
  /// the catalog only when a series was created since the pattern's last
  /// scan; otherwise it copies the memo. The memo keeps one entry per
  /// distinct pattern, which suits the fixed patterns callers use.
  std::vector<std::string> match(const std::string& pattern) const;
  /// The ids of match(pattern), in the same path order, from the same memo:
  /// for callers that read the matched series every run and need no names.
  std::vector<SeriesId> match_ids(const std::string& pattern) const;
  std::size_t sample_count(SeriesId id) const;
  std::uint64_t total_inserted() const {
    // relaxed: monotonic statistics counter; synchronizes nothing (matches
    // Collector::samples_collected_).
    return total_inserted_.load(std::memory_order_relaxed);
  }

  // -- queries ----------------------------------------------------------------
  std::optional<Sample> latest(const std::string& path) const;
  std::optional<Sample> latest(SeriesId id) const;
  /// Samples with time in [from, to).
  SeriesSlice query(const std::string& path, TimePoint from, TimePoint to) const;
  SeriesSlice query(SeriesId id, TimePoint from, TimePoint to) const;
  /// All retained samples.
  SeriesSlice query_all(const std::string& path) const;
  /// Mean of the samples with time in [from, to), read in place: the same
  /// left-to-right sum over the count as oda::mean() of query()'s values,
  /// without the copy. nullopt when no sample falls in the range.
  std::optional<double> window_mean(SeriesId id, TimePoint from,
                                    TimePoint to) const;

  /// Downsamples [from, to) into fixed buckets of `bucket` seconds.
  SeriesSlice query_aggregated(const std::string& path, TimePoint from,
                               TimePoint to, Duration bucket,
                               Aggregation agg) const;
  SeriesSlice query_aggregated(SeriesId id, TimePoint from, TimePoint to,
                               Duration bucket, Aggregation agg) const;

  /// Aligned frame over several sensors with a shared bucket grid. Columns
  /// are independent and are computed on the pool set via set_pool(), when
  /// there is one, in claimed chunks of columns (one store.fill_column span
  /// per chunk). Column names are the ids' interned paths; an invalid id
  /// gives an empty name and an all-NaN column. Callers that read the same
  /// sensors every run resolve their ids once and use this overload.
  Frame frame(std::span<const SeriesId> ids, TimePoint from, TimePoint to,
              Duration bucket, Aggregation agg = Aggregation::kMean) const;
  /// String form: looks each path up once (unknown paths give all-NaN
  /// columns) and keeps the caller's names as the column names.
  Frame frame(const std::vector<std::string>& sensor_paths, TimePoint from,
              TimePoint to, Duration bucket,
              Aggregation agg = Aggregation::kMean) const;

  /// The one range lookup of the read path: under the series' shard reader
  /// lock, calls fn(a, b) with the samples of `id` in [from, to) as the
  /// ring's two contiguous spans, oldest first. Calls nothing when `id` is
  /// invalid or unknown here, or when no sample falls in the range. Counts
  /// one query (oda_store_queries_total) either way. Cells that fold a
  /// window (a sum, an integral, a bucketing) read it here in place instead
  /// of copying it out with query(). `fn` must not call back into the store.
  template <typename Fn>
  void read_range(SeriesId id, TimePoint from, TimePoint to, Fn&& fn) const;

 private:
  struct Series {
    RingBuffer<Sample> samples;
    explicit Series(std::size_t cap) : samples(cap) {}
  };

  /// One lock stripe: its own reader/writer lock and its series in a dense
  /// slot vector, series `id` at slot id.value / kShards (empty slots are
  /// ids this store has not seen). The shard lock is held across interner
  /// path lookups and (first-use) metric registration in series_locked,
  /// hence the BEFORE(interner) edge.
  struct Shard {
    mutable SharedMutex mu ODA_ACQUIRED_AFTER(lock_order::store_shard)
        ODA_ACQUIRED_BEFORE(lock_order::interner){LockRankId::kStoreShard};
    std::vector<std::optional<Series>> slots ODA_GUARDED_BY(mu);

    /// The series of `id` (which must map to this shard), or null.
    const Series* find(SeriesId id) const ODA_REQUIRES_SHARED(mu) {
      const std::size_t slot = id.value / kShards;
      return slot < slots.size() && slots[slot] ? &*slots[slot] : nullptr;
    }
  };

  Shard& shard_of(SeriesId id) const { return *shards_[id.value % kShards]; }
  /// Adds one to oda_store_queries_total (read_range's accounting).
  static void count_query();
  /// Creates the series for `id` if absent; caller holds the shard lock.
  Series& series_locked(Shard& shard, SeriesId id) ODA_REQUIRES(shard.mu);
  /// Fills columns [lo, hi) of `f` from ids[lo, hi) under one span.
  void fill_columns(Frame& f, std::size_t lo, std::size_t hi,
                    std::span<const SeriesId> ids, TimePoint from,
                    TimePoint to, Duration bucket, Aggregation agg) const;
  Frame frame_of(std::vector<std::string> columns,
                 std::span<const SeriesId> ids, TimePoint from, TimePoint to,
                 Duration bucket, Aggregation agg) const;

  /// One match() result and the series count it was resolved at.
  struct MatchMemo {
    std::uint64_t series = 0;
    std::vector<std::string> paths;
    std::vector<SeriesId> ids;  // ids[i] names paths[i]
  };
  /// Every stored series as (path, id), sorted by path.
  std::vector<std::pair<std::string, SeriesId>> catalog() const;
  /// The memo entry for `pattern` at the current series count, rescanning
  /// the catalog first when a series was created since its last scan.
  template <typename Fn>
  auto with_match(const std::string& pattern, Fn&& fn) const;

  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;  // kShards entries
  std::atomic<std::uint64_t> total_inserted_{0};
  /// Series created so far; bumped only where series_locked creates one.
  std::atomic<std::uint64_t> series_count_{0};
  /// Leaf lock: held only to read or replace a memo entry, never across
  /// catalog() (which takes the shard locks).
  mutable Mutex match_mu_{LockRankId::kStoreCatalog};
  mutable std::unordered_map<std::string, MatchMemo> match_memo_
      ODA_GUARDED_BY(match_mu_);
  ThreadPool* pool_ = nullptr;
  Wal* wal_ = nullptr;
  // Per-shard instruments, owned by the global registry and shared across
  // stores with the same shard index (aggregate semantics, like the
  // process-wide insert/query counters). Lock-wait attribution lives in the
  // uniform oda_lock_wait_seconds{rank="store_shard"} contention table.
  std::vector<obs::Gauge*> shard_series_;
};

/// Index of the first sample with time >= t in the ring's two ascending
/// spans read as one sequence a ++ b: std::lower_bound's index over it, for
/// every t. `end` bounds the search from above: every sample at or after
/// index `end` must have time >= t (pass a.size() + b.size() when nothing is
/// known). The search gallops back from `end` in steps of 1, 2, 4, ... and
/// then bisects the last step, so a window that ends near the newest sample
/// costs O(log window) probes, all of them in the window's own cache lines.
std::size_t tail_lower_bound(std::span<const Sample> a,
                             std::span<const Sample> b, TimePoint t,
                             std::size_t end);

template <typename Fn>
void TimeSeriesStore::read_range(SeriesId id, TimePoint from, TimePoint to,
                                 Fn&& fn) const {
  count_query();
  if (!id.valid() || from >= to) return;
  Shard& shard = shard_of(id);
  ReaderLock lock(shard.mu);
  const Series* series = shard.find(id);
  if (series == nullptr) return;
  // Samples are time-ordered (monotone inserts). Both ends are found from
  // the tail: `to` from the newest sample, then `from` back from `to`.
  const auto [a, b] = series->samples.spans();
  const std::size_t hi = tail_lower_bound(a, b, to, a.size() + b.size());
  const std::size_t lo = tail_lower_bound(a, b, from, hi);
  if (lo >= hi) return;
  // Logical [lo, hi) as (part of a, part of b).
  const auto in_a = [na = a.size()](std::size_t i) { return std::min(i, na); };
  fn(a.subspan(in_a(lo), in_a(hi) - in_a(lo)),
     b.subspan(lo - in_a(lo), (hi - in_a(hi)) - (lo - in_a(lo))));
}

/// Aggregates a value list (helper shared with dashboards). Implemented on
/// AggAccumulator, so it matches query_aggregated() bit-for-bit.
// ODA-LINT-ALLOW(production-caller): reference the store equivalence tests use
double aggregate(const std::vector<double>& values, Aggregation agg);

}  // namespace oda::telemetry
