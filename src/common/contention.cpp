#include "common/contention.hpp"

namespace oda {

const char* to_string(LockRankId rank) noexcept {
  switch (rank) {
    case LockRankId::kUnranked: return "unranked";
    case LockRankId::kBus: return "bus";
    case LockRankId::kHealth: return "health";
    case LockRankId::kStoreShard: return "store_shard";
    case LockRankId::kWal: return "wal";
    case LockRankId::kInterner: return "interner";
    case LockRankId::kMetrics: return "metrics";
    case LockRankId::kTrace: return "trace";
    case LockRankId::kLog: return "log";
    case LockRankId::kPool: return "pool";
    case LockRankId::kThreadWatch: return "thread_watch";
    case LockRankId::kStoreCatalog: return "store_catalog";
    case LockRankId::kCount: break;
  }
  return "invalid";
}

namespace contention {

namespace {

// Static storage, zero-initialized before main: recording is safe from any
// lock acquisition, including ones during static construction.
std::array<LockWaitStats, kLockRankCount> g_stats{};

}  // namespace

LockWaitStats& stats(LockRankId rank) noexcept {
  auto idx = static_cast<std::size_t>(rank);
  if (idx >= kLockRankCount) idx = 0;
  return g_stats[idx];
}

void record_wait(LockRankId rank, double wait_seconds) noexcept {
  LockWaitStats& s = stats(rank);
  // relaxed (all): monotonic statistics counters; no reader synchronizes
  // through them (snapshots tolerate skew between fields by design).
  s.contended.fetch_add(1, std::memory_order_relaxed);
  s.wait_nanos.fetch_add(static_cast<std::uint64_t>(wait_seconds * 1e9),
                         std::memory_order_relaxed);
  std::size_t b = 0;
  while (b < kWaitBounds.size() && wait_seconds > kWaitBounds[b]) ++b;
  s.buckets[b].fetch_add(1, std::memory_order_relaxed);
}

void reset() noexcept {
  for (auto& s : g_stats) {
    // relaxed: callers quiesce writers before reset() (documented).
    s.contended.store(0, std::memory_order_relaxed);
    s.wait_nanos.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

Snapshot snapshot(LockRankId rank) noexcept {
  const LockWaitStats& s = stats(rank);
  Snapshot out;
  // relaxed (all): statistics reads; the derived count is computed from the
  // single bucket pass below so the exported histogram is self-consistent.
  out.contended = s.contended.load(std::memory_order_relaxed);
  out.wait_seconds =
      static_cast<double>(s.wait_nanos.load(std::memory_order_relaxed)) * 1e-9;
  for (std::size_t i = 0; i < out.buckets.size(); ++i) {
    out.buckets[i] = s.buckets[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace contention
}  // namespace oda
