// Process-wide registry of "watched" pipeline threads for the sampling
// profiler (obs/profiler.hpp). Threads opt in with a WatchedThreadScope at
// the top of their loop (ThreadPool workers do this automatically); the
// registry records the pthread handle, a role label, and the thread's stack
// bounds so an async-signal-safe backtrace walker can bounds-check frame
// pointers without touching /proc from a handler.
//
// Liveness contract (what makes pthread_kill() safe): a thread appears in
// the registry only between its WatchedThreadScope constructor and
// destructor, and removal takes the registry lock. for_each() also runs
// under that lock, so any record it visits belongs to a thread that cannot
// have exited yet — signalling it is race-free. The registry never frees a
// record while a consumer holds its shared_ptr, so per-thread profiler
// attachments survive thread exit until the profiler drops them.
#pragma once

#include <pthread.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/sync.hpp"

namespace oda {

/// One registered thread. The struct is shared with an async-signal
/// context: the profiler's SIGPROF handler reads role/stack bounds and the
/// profiler_data attachment from the interrupted thread itself, so those
/// fields are written once at registration (before the thread can be
/// signalled) or through the atomic slot.
struct WatchedThread {
  pthread_t handle{};
  std::uint64_t os_tid = 0;       ///< kernel tid (gettid), for trace/export
  const char* role = "";          ///< static label, e.g. "pool.worker"
  const char* stack_lo = nullptr; ///< lowest valid stack address
  const char* stack_hi = nullptr; ///< one past the highest stack address
  /// Opaque per-thread attachment owned by the profiler (its sample ring).
  /// Written with release by the profiler, read with acquire from the
  /// signal handler on this thread.
  std::atomic<void*> profiler_data{nullptr};
};

/// The registry. All methods are thread-safe.
class ThreadWatchRegistry {
 public:
  static ThreadWatchRegistry& global();

  /// Hook invoked (under the registry lock) for every thread registered
  /// after installation — the running profiler uses it to attach sample
  /// rings to late-spawned threads. The hook must not call back into the
  /// registry. Pass nullptr to uninstall.
  using RegisterHook = void (*)(WatchedThread&);
  void set_register_hook(RegisterHook hook) noexcept;

  /// Visits every currently live watched thread under the registry lock:
  /// records visited here belong to threads that cannot exit until fn
  /// returns (see liveness contract above). fn must not register or
  /// unregister threads.
  void for_each(const std::function<void(WatchedThread&)>& fn);

  std::size_t size() const;

 private:
  friend class WatchedThreadScope;

  std::shared_ptr<WatchedThread> add(const char* role);
  void remove(const WatchedThread* rec);

  /// Leaf lock (kThreadWatch): held across for_each callbacks, which only
  /// signal threads / flip atomic attachments — never take another lock.
  mutable Mutex mu_{LockRankId::kThreadWatch};
  std::vector<std::shared_ptr<WatchedThread>> threads_ ODA_GUARDED_BY(mu_);
  std::atomic<RegisterHook> hook_{nullptr};
};

/// The calling thread's registration record, or nullptr when unregistered.
/// Async-signal-safe (one thread-local pointer read): this is how the
/// SIGPROF handler finds its own ring.
WatchedThread* current_watched_thread() noexcept;

/// RAII registration of the current thread. Nested scopes on one thread are
/// inert (the outermost wins).
class WatchedThreadScope {
 public:
  explicit WatchedThreadScope(const char* role);
  ~WatchedThreadScope();

  WatchedThreadScope(const WatchedThreadScope&) = delete;
  WatchedThreadScope& operator=(const WatchedThreadScope&) = delete;

 private:
  std::shared_ptr<WatchedThread> rec_;
};

}  // namespace oda
