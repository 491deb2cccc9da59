// Sampling wall-clock profiler for the pipeline's own threads.
//
// A watcher thread periodically sends SIGPROF to every thread registered in
// the ThreadWatchRegistry (ThreadPool workers register automatically; other
// threads opt in with a WatchedThreadScope). The async-signal-safe handler
// walks the interrupted thread's frame-pointer chain — bounds-checked
// against the stack limits captured at registration — and writes the
// backtrace into a per-thread lock-free ring using the same seqlock
// protocol as the FlightRecorder (obs/recorder.cpp documents the memory
// orders). Because samples are taken on the wall clock rather than CPU
// time, threads blocked in locks or queue pops are sampled too: the folded
// output shows where time *goes*, including waiting.
//
// Signal-safety rules the handler obeys (docs/OBSERVABILITY.md "Profiling"):
//   * no locks, no allocation, no TLS with dynamic init — only plain
//     atomics, the registration record, and the thread's own stack;
//   * every sample ring is pre-allocated before the first signal can fire;
//   * errno is saved and restored;
//   * an in-flight counter plus a seq_cst active-flag handshake lets stop()
//     quiesce handlers before rings are detached, so a late signal can
//     never touch freed memory.
//
// Output: folded stacks ("role;frame;frame;... count", root first — the
// format scripts/stack_collapse-style tooling and flamegraph.pl consume),
// plus raw samples for tests. An installed-but-stopped profiler sends no
// signal, so profiled threads pay nothing while it is stopped.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_watch.hpp"

namespace oda::obs {

/// Hard cap on frames captured per sample (slot size is fixed at compile
/// time so the handler never allocates).
inline constexpr std::size_t kMaxProfFrames = 32;

struct ProfilerOptions {
  std::uint64_t interval_us = 2000;  ///< sampling period per thread
  std::size_t max_frames = kMaxProfFrames;  ///< clamped to kMaxProfFrames
  std::size_t ring_capacity = 1024;  ///< per-thread slots, rounded to pow2
};

namespace detail {
/// Process-wide gate, read first by the SIGPROF handler and by active().
/// One profiler may run at a time (the handler and TLS are process-global).
inline std::atomic<bool> g_profiler_active{false};
}  // namespace detail

/// One decoded sample (tests and custom exporters; folded() is the
/// human-facing aggregation).
struct ProfileSample {
  const char* role = "";
  std::uint64_t tid = 0;
  std::uint64_t ts_us = 0;
  std::vector<std::uintptr_t> pcs;  ///< leaf first (pcs[0] = interrupted pc)
};

class SamplingProfiler {
 public:
  SamplingProfiler() = default;
  ~SamplingProfiler();

  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  /// The process-wide instance used by examples and benches.
  static SamplingProfiler& global();

  /// True while any profiler is sampling. One relaxed load — this is the
  /// entire hot-path cost of a stopped profiler.
  static bool active() noexcept {
    // relaxed: advisory gate; the stop() handshake uses its own seq_cst
    // protocol, this read is for cheap steady-state checks.
    return detail::g_profiler_active.load(std::memory_order_relaxed);
  }

  /// Starts sampling every watched thread. Returns false if another
  /// profiler is active or this one already runs.
  /// Retained samples from a previous run are dropped.
  bool start(const ProfilerOptions& opts = {});

  /// Stops the watcher, quiesces in-flight handlers, and detaches rings.
  /// Samples stay readable until clear() or the next start().
  void stop();

  bool running() const;

  /// Decoded samples from every ring (retired threads included), oldest
  /// lap first per thread. Safe while running (seqlock snapshot).
  std::vector<ProfileSample> samples() const;

  /// Symbolized folded stacks, aggregated and sorted by stack string:
  /// "role;outermost;...;leaf count\n" per line. Symbolization (dladdr +
  /// demangle) happens here, never in the handler.
  std::string folded() const;

  /// Writes folded() to a file; false (with a log warning) on I/O failure.
  bool dump_folded(const std::string& path) const;

  std::uint64_t sampled_total() const;    ///< samples written to rings
  std::uint64_t truncated_total() const;  ///< walks cut short (depth/fp)
  std::uint64_t signals_sent() const;     ///< SIGPROFs the watcher issued
  std::size_t thread_count() const;       ///< rings ever attached this run

  /// Drops retained rings/samples. Only valid while stopped.
  void clear();

  /// Per-thread sample ring. Defined in profiler.cpp; public only so the
  /// file-local signal handler there can name it (it is reachable anyway
  /// through WatchedThread::profiler_data).
  struct Ring;

 private:
  void attach(WatchedThread& rec);
  void watcher_loop(std::uint64_t interval_us);
  static void register_hook_trampoline(WatchedThread& rec);

  /// Serializes start/stop/clear. Held while calling into the registry
  /// (lock order: lifecycle -> thread_watch -> rings_mu_).
  mutable Mutex lifecycle_mu_;
  /// Guards rings_ only; taken under the registry lock in attach(), and
  /// standalone by readers. Never held while taking another lock.
  mutable Mutex rings_mu_;
  std::vector<std::shared_ptr<Ring>> rings_ ODA_GUARDED_BY(rings_mu_);
  bool running_ ODA_GUARDED_BY(lifecycle_mu_) = false;
  ProfilerOptions opts_ ODA_GUARDED_BY(lifecycle_mu_);
  std::thread watcher_ ODA_GUARDED_BY(lifecycle_mu_);
  /// Normalized ring geometry for attach(). Written in start() before the
  /// release publish of the active-instance pointer; read plainly by
  /// attach() after the trampoline's acquire load (or on the start thread
  /// itself), so no lock is needed.
  std::size_t ring_capacity_ = 1024;
  std::uint32_t ring_max_frames_ = kMaxProfFrames;
  std::atomic<bool> stop_flag_{false};
  std::atomic<std::uint64_t> signals_{0};
};

}  // namespace oda::obs
