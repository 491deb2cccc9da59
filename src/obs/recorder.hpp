// Always-on flight recorder: a bounded per-thread ring of the most recent
// spans and instants, recording even while full tracing is disabled. It is
// the black box of the pipeline — when a health check trips or a chaos
// campaign fails, the last moments of every thread are still in memory and
// can be dumped to Chrome trace JSON for postmortem inspection
// (assess_pipeline_health dumps it automatically on the healthy->unhealthy
// edge when a dump path is configured).
//
// The rings live in the per-thread records it shares with the Tracer
// (trace.hpp); FlightRecorder::global() is the one view over them.
//
// Cost model: enabled by default, a recorded event is two steady-clock reads
// (shared with the tracer path) plus a handful of release atomic stores into
// a fixed ring slot (plain movs on x86) — no locks, no allocation, no
// branches on capacity, no write shared with other threads.
// Disabling it (set_enabled(false)) together with a disabled Tracer returns
// span entry to a single relaxed load (see trace.hpp's cost model).
//
// Concurrency: each thread writes only its own ring; slots are plain atomic
// words guarded by a per-slot sequence counter (a seqlock), so a concurrent
// snapshot() skips slots that are mid-write instead of tearing. Names and
// categories are retained as raw `const char*` — string literals only.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "obs/trace.hpp"

namespace oda::obs {

class FlightRecorder {
 public:
  /// Events retained per thread (a power of two).
  static constexpr std::size_t kRingCapacity = 1024;

  /// The process-wide recorder the ODA_TRACE_* macros feed. Enabled by
  /// default (always-on).
  static FlightRecorder& global();

  void set_enabled(bool enabled);
  bool enabled() const {
    // relaxed: advisory sink mask, same semantics as Tracer::enabled().
    return (detail::g_trace_mode.load(std::memory_order_relaxed) &
            detail::kTraceModeRecorder) != 0;
  }

  /// Records one event into the calling thread's ring, overwriting the
  /// oldest. name/category must be string literals (retained as pointers).
  void record(const char* name, const char* category, std::uint64_t ts_us,
              std::uint64_t dur_us, TraceEventKind kind,
              std::uint64_t trace_id, std::uint64_t span_id,
              std::uint64_t parent_id) noexcept;

  /// Copies every currently-retained event (all threads), ordered by start
  /// time. Slots concurrently being overwritten are skipped, not torn.
  std::vector<TraceEvent> snapshot() const;
  /// Chrome trace JSON of snapshot(). Ring eviction may orphan parent ids;
  /// scripts/check_trace.py --allow-missing-parents accepts such dumps.
  std::string to_chrome_json() const;

  /// Events currently retained, computed from the ring heads without
  /// copying them.
  std::size_t event_count() const;
  /// Events recorded since process start (the sum of the ring heads; never
  /// decreases, clear() included).
  std::uint64_t recorded_total() const;
  std::uint64_t dump_count() const {
    // relaxed: statistics counter.
    return dumps_.load(std::memory_order_relaxed);
  }

  /// Empties every ring: later snapshots start at each ring's current head.
  void clear();

  /// Destination for automatic postmortem dumps ("" disables, the default).
  void set_dump_path(std::string path);
  std::string dump_path() const;

  /// Writes to_chrome_json() to `path` (or dump_path() when empty).
  /// Returns false when no path is configured or the write fails.
  bool dump_to_file(const std::string& path = "");

 private:
  FlightRecorder() = default;

  std::atomic<std::uint64_t> dumps_{0};
  mutable Mutex mu_ ODA_ACQUIRED_AFTER(lock_order::trace)
      ODA_ACQUIRED_BEFORE(lock_order::log){LockRankId::kTrace};
  std::string dump_path_ ODA_GUARDED_BY(mu_);
};

namespace detail {

/// One event as its thread records it. The names stay the literals the
/// macros were given; TraceEvent strings are built only when events are
/// read.
struct SpanRecord {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  TraceEventKind kind = TraceEventKind::kSpan;
  std::uint64_t count = 0;  // TraceEvent::count; not kept in the ring
};

/// Everything one thread records: its tid, the flight-recorder ring and the
/// Tracer's event list. Created on the thread's first event, registered
/// once in a process-wide list and kept until exit, so a thread's events
/// outlive it until they are read.
struct ThreadSpans {
  explicit ThreadSpans(std::uint32_t thread_id) : tid(thread_id) {}

  /// Writes `ev` into the ring, overwriting the oldest slot. Owning thread
  /// only.
  void ring_push(const SpanRecord& ev) noexcept;

  const std::uint32_t tid;  // 1-based registration order

  // One ring slot. All members are atomics written by the owning thread
  // only; `seq` is the seqlock word readers use to detect tearing (odd =
  // write in progress; the stable value 2i+2 encodes the ring position i,
  // so readers also reject slots lapped mid-scan). The seqlock stays
  // outside the annotated-mutex world: writers are lock-free by design and
  // readers detect torn slots via the sequence word.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> category{nullptr};
    std::atomic<std::uint64_t> ts_us{0};
    std::atomic<std::uint64_t> dur_us{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> span_id{0};
    std::atomic<std::uint64_t> parent_id{0};
    std::atomic<std::uint32_t> kind{0};
  };
  std::array<Slot, FlightRecorder::kRingCapacity> slots;
  std::atomic<std::uint64_t> head{0};   // next write position (monotonic)
  std::atomic<std::uint64_t> start{0};  // first position clear() kept

  /// Guards the traced events. Uncontended except while a reader drains.
  Mutex mu ODA_ACQUIRED_AFTER(lock_order::trace)
      ODA_ACQUIRED_BEFORE(lock_order::log);
  std::vector<SpanRecord> traced ODA_GUARDED_BY(mu);
};

/// The public form of `ev`, owned strings and the thread's tid.
inline TraceEvent to_trace_event(const SpanRecord& ev, std::uint32_t tid) {
  return {ev.name,     ev.category, ev.ts_us,     ev.dur_us, tid,
          ev.kind,     ev.trace_id, ev.span_id, ev.parent_id, ev.count};
}

/// The calling thread's record, created and registered on first use.
ThreadSpans& local_spans();
/// Every record registered so far, in tid order.
std::vector<ThreadSpans*> all_spans();

}  // namespace detail

}  // namespace oda::obs
