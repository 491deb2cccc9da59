// Interned series handles. Sensor paths are strings at the edges of the
// system (config, bus patterns, dashboards) but the hot data plane —
// collector passes, store shards, the WAL — should not
// re-hash and re-compare strings on every sample. A SeriesInterner assigns
// each path a dense 32-bit SeriesId exactly once; hot paths resolve their
// paths up front and carry integer handles from then on.
//
// The interner is process-wide (SeriesInterner::global()): an id names a
// path, not a store, so every TimeSeriesStore shares the same handle space
// and ids can travel between subsystems. Entries are never removed, which
// makes reverse lookups (`path(id)`) stable references for the process
// lifetime.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/sync.hpp"
#include "telemetry/sample.hpp"

namespace oda::telemetry {

/// Dense handle for an interned sensor path. Value-type, trivially copyable;
/// the default-constructed id is invalid.
struct SeriesId {
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

  std::uint32_t value = kInvalid;

  constexpr bool valid() const { return value != kInvalid; }

  friend constexpr bool operator==(SeriesId a, SeriesId b) {
    return a.value == b.value;
  }
  friend constexpr bool operator!=(SeriesId a, SeriesId b) {
    return a.value != b.value;
  }
  friend constexpr bool operator<(SeriesId a, SeriesId b) {
    return a.value < b.value;
  }
};

/// A reading already resolved to its interned handle — the batch-ingest
/// currency (see TimeSeriesStore::insert_batch).
struct IdReading {
  SeriesId id;
  Sample sample;
};

/// Thread-safe path <-> SeriesId bijection. Interning takes the writer lock
/// only on first sight of a path; lookups are shared-lock reads.
class SeriesInterner {
 public:
  /// The process-wide interner used by the telemetry data plane.
  static SeriesInterner& global();

  /// Returns the id for `path`, assigning the next dense id on first use.
  SeriesId intern(const std::string& path) ODA_EXCLUDES(mu_);

  /// Returns the id for `path` if it was ever interned (never assigns).
  std::optional<SeriesId> lookup(const std::string& path) const
      ODA_EXCLUDES(mu_);

  /// Reverse lookup. The returned reference is stable for the process
  /// lifetime (entries are never removed). Throws ContractError on an
  /// unknown or invalid id.
  const std::string& path(SeriesId id) const ODA_EXCLUDES(mu_);

  /// Number of interned paths.
  std::size_t size() const ODA_EXCLUDES(mu_);

 private:
  /// Store shards hold their lock across path(id) lookups, so the interner
  /// sits between the shard and metrics levels.
  mutable SharedMutex mu_ ODA_ACQUIRED_AFTER(lock_order::interner)
      ODA_ACQUIRED_BEFORE(lock_order::metrics){LockRankId::kInterner};
  std::unordered_map<std::string, std::uint32_t> ids_ ODA_GUARDED_BY(mu_);
  // Deque so path(id) references stay valid while intern() appends.
  std::deque<std::string> paths_ ODA_GUARDED_BY(mu_);
};

}  // namespace oda::telemetry
