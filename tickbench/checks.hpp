// Output checks of the facility-tick benchmark. Each relies only on a
// property the program promises:
//   1. a fault-free sensor's stored sample is bit-equal to its fault-free
//      SensorDef::read() taken right after collect(), and it has no gap;
//   2. conservation: expected == collected + gaps, the benchmark's own
//      expected count == the collector's, WAL committed == store inserted,
//      nothing lost, and the replay returns every committed sample;
//   3. the store and the replay of its WAL hold bit-identical series;
//   4. query_aggregated() equals a left fold over the raw query();
//   5. the same seed and pool size give the same store digest.
// self_test() feeds tampered inputs to the checks and reports whether each
// one fails on them, so a check that cannot fail shows.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/engine.hpp"
#include "telemetry/store.hpp"

namespace tickbench {

/// Check 1 for one sensor: the latest stored sample is at `now` and is
/// bit-equal to `def.read()`.
bool stored_equals_read(const oda::telemetry::TimeSeriesStore& store,
                        oda::telemetry::SeriesId id,
                        const oda::sim::SensorDef& def, oda::TimePoint now);

/// FNV-1a over every listed series: path, then each sample's time and value
/// bits, in order (checks 3 and 5).
std::uint64_t store_digest(const oda::telemetry::TimeSeriesStore& store,
                           const std::vector<std::string>& paths);

/// Samples that differ between two stores (missing, extra, or not
/// bit-equal) over the listed series; 0 iff their digests agree.
std::uint64_t sample_differences(const oda::telemetry::TimeSeriesStore& a,
                                 const oda::telemetry::TimeSeriesStore& b,
                                 const std::vector<std::string>& paths);

/// Check 1, gap half: every sensor without an injected read fault retains
/// exactly one sample per due time of its group (the newest `capacity` of
/// them). Returns the number of sensors that do not.
std::uint64_t gap_failures(
    const oda::telemetry::TimeSeriesStore& store,
    const std::vector<std::vector<std::string>>& group_paths,
    const std::vector<const std::vector<oda::TimePoint>*>& due_times,
    const std::set<std::string>& read_faulted, std::size_t capacity);

/// The counts check 2 compares.
struct Conservation {
  std::uint64_t expected_bench = 0;      // from the benchmark's own config
  std::uint64_t expected_collector = 0;  // Collector::samples_expected()
  std::uint64_t collected = 0;
  std::uint64_t gaps = 0;
  std::uint64_t inserted = 0;  // TimeSeriesStore::total_inserted()
  std::uint64_t committed = 0;
  std::uint64_t lost = 0;
  std::uint64_t replayed = 0;
};

/// Check 2: the sum of every violated equation's shortfall (0 = holds).
std::uint64_t conservation_failures(const Conservation& c);

/// Check 4 for one aggregated slice: `agg` must equal, bit for bit, the
/// left fold of `raw` into buckets of `bucket` seconds starting at `from`.
bool fold_matches(const oda::telemetry::SeriesSlice& raw,
                  const oda::telemetry::SeriesSlice& agg, oda::TimePoint from,
                  oda::Duration bucket, oda::telemetry::Aggregation mode);

/// Check 4 over a seeded sample of series: every aggregation mode at two
/// bucket widths over [from, to). Returns the mismatching slices.
std::uint64_t aggregation_failures(const oda::telemetry::TimeSeriesStore& store,
                                   const std::vector<std::string>& paths,
                                   oda::TimePoint from, oda::TimePoint to,
                                   std::uint64_t seed);

/// One line per tampered input and check: true when the check failed on
/// it, as it must. `clean` holds the same checks on the untampered input,
/// which must all pass.
struct SelfTestResult {
  std::vector<std::pair<std::string, bool>> clean;
  std::vector<std::pair<std::string, bool>> tampered;
  bool ok() const;
  std::string render() const;
};

/// Runs a small facility for a few dozen ticks under `dir` and checks the
/// checks against one altered sample, one dropped sample, one truncated WAL
/// and one altered aggregate.
SelfTestResult self_test(oda::ThreadPool& pool, const std::string& dir);

}  // namespace tickbench
