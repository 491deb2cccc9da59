// Per-rank lock contention accounting. The RAII wrappers in common/sync.hpp
// feed every contended acquisition (one that lost its try_lock fast path)
// into a fixed table of atomic wait statistics keyed by the lock's
// oda::lock_order rank. The table is plain atomics end to end — no locks,
// no allocation — so recording from inside a lock acquisition can never
// deadlock or invert the very hierarchy it measures. obs exports the table
// as oda_lock_wait_seconds / oda_lock_contended_total (see
// obs::register_lock_contention) — the uniform mechanism that replaced the
// store's one-off per-shard wait gauge.
//
// Accounting is always on. Its cost on an uncontended acquisition is the
// try_lock fast path alone: no clock read and no atomic write.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace oda {

/// Runtime identity of a lock's level in the lock-order hierarchy
/// (common/sync.hpp lock_order markers), plus buckets for the leaf locks
/// that stay unranked in the static hierarchy but are still worth
/// attributing wait time to. Order mirrors lock_order (outermost first).
enum class LockRankId : std::uint8_t {
  kUnranked = 0,  // default: leaf locks with no declared rank
  kBus,
  kHealth,
  kStoreShard,
  kWal,
  kInterner,
  kMetrics,
  kTrace,
  kLog,
  kPool,        // BlockingQueue / ThreadPool idle wait (leaf)
  kThreadWatch, // watched-thread registry (leaf)
  kStoreCatalog, // TimeSeriesStore::match() memo (leaf)
  kCount,
};

inline constexpr std::size_t kLockRankCount =
    static_cast<std::size_t>(LockRankId::kCount);

/// Stable label for metric export ("bus", "store_shard", ...).
const char* to_string(LockRankId rank) noexcept;

namespace contention {

/// Histogram bucket upper bounds (seconds) for lock wait times: 1us to
/// ~2s in x8 steps. Fixed at compile time so the stats table is all plain
/// atomics with static storage.
inline constexpr std::array<double, 8> kWaitBounds = {
    1e-6, 8e-6, 64e-6, 512e-6, 4.096e-3, 32.768e-3, 0.262144, 2.097152};

/// Per-rank wait statistics. All fields are monotonic counters written with
/// relaxed atomics from the lock wrappers' contended path; readers
/// (metric snapshots) tolerate torn cross-field views by construction —
/// each exported family is derived from one field read pass.
struct LockWaitStats {
  std::atomic<std::uint64_t> contended{0};      ///< acquisitions that waited
  std::atomic<std::uint64_t> wait_nanos{0};     ///< total wait, nanoseconds
  std::array<std::atomic<std::uint64_t>, kWaitBounds.size() + 1> buckets{};
};

/// The global table, indexed by LockRankId.
LockWaitStats& stats(LockRankId rank) noexcept;

/// Records one contended acquisition of `wait_seconds` against `rank`.
/// Lock-free and allocation-free; callable while blocked-then-acquired.
void record_wait(LockRankId rank, double wait_seconds) noexcept;

/// Zeroes the whole table (tests). Not linearizable against concurrent
/// recorders; callers quiesce writers first.
void reset() noexcept;

/// One-pass snapshot of a rank's stats, shaped for histogram export. The
/// exported count is the sum of the bucket counts read in this pass, so the
/// +Inf bucket always equals the count even under concurrent writes.
struct Snapshot {
  std::uint64_t contended = 0;
  double wait_seconds = 0.0;
  std::array<std::uint64_t, kWaitBounds.size() + 1> buckets{};
};
Snapshot snapshot(LockRankId rank) noexcept;

}  // namespace contention
}  // namespace oda
