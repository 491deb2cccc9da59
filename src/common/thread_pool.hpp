// Fixed-size thread pool with future-returning submission and a chunked
// parallel_for_chunks helper. Collectors and batch analytics use it to fan
// work across cores.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/blocking_queue.hpp"
#include "common/sync.hpp"
#include "common/trace_context.hpp"

namespace oda {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Self-instrumentation counters (see obs::register_thread_pool): tasks
  /// submitted, finished, and submitted-after-shutdown (ran inline), plus
  /// the current backlog. All monotonic except pending().
  // relaxed (all four): standalone statistics; they synchronize nothing.
  std::uint64_t submitted_count() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t completed_count() const {
    return completed_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected_count() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }
  /// Workers currently blocked in (or entering) the queue pop — the
  /// "idle capacity right now" gauge for scheduler attribution.
  // relaxed: statistics gauge; synchronizes nothing.
  std::size_t parked_workers() const {
    return parked_.load(std::memory_order_relaxed);
  }

  /// Installs a per-task timing hook: hook(queue_wait_s, run_s) is invoked
  /// on the worker after each queued task finishes (inline-run rejected
  /// tasks are not timed — they never waited in the queue). Install during
  /// setup, before tasks are submitted, and at most once per quiescent
  /// period: the hook object itself is unsynchronized after arming.
  /// obs::register_thread_pool uses this to fill the
  /// oda_pool_task_{queue_wait,run}_seconds histograms.
  void set_task_timing_hook(std::function<void(double, double)> hook);

  /// Submits a callable; the returned future yields its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    // relaxed: the increment only needs to be ordered before the matching
    // decrement in task_done(), and it is — the queue's mutex (push below /
    // pop in worker_loop) releases/acquires between them. wait_idle() callers
    // must themselves order their submits before waiting; no memory order on
    // this counter could wait for a task that has not been submitted yet.
    pending_.fetch_add(1, std::memory_order_relaxed);
    // relaxed: statistics counter (see submitted_count()).
    submitted_.fetch_add(1, std::memory_order_relaxed);
    // Queue-wait attribution: when a timing hook is armed, stamp the
    // enqueue time so the worker can report wait and run durations.
    // acquire: pairs with the release in set_task_timing_hook so the hook
    // object is fully constructed before the worker invokes it.
    const bool timed = timing_armed_.load(std::memory_order_acquire);
    const auto enqueued = timed ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
    // Capture the submitter's trace context so spans opened inside the task
    // stay children of the span that submitted it (causal tracing across the
    // pool boundary). Costs one thread-local read + a 16-byte copy.
    const bool accepted = tasks_.push(
        [this, task, timed, enqueued, ctx = current_trace_context()] {
          TraceContextScope trace_scope(ctx);
          if (timed) {
            const auto started = std::chrono::steady_clock::now();
            (*task)();
            note_task_timing(enqueued, started);
          } else {
            (*task)();
          }
        });
    if (!accepted) {
      // Pool already shut down: run inline so the future is still satisfied.
      // relaxed: statistics counter (see rejected_count()).
      rejected_.fetch_add(1, std::memory_order_relaxed);
      (*task)();
      task_done();
    }
    return result;
  }

  /// Runs body(lo, hi) over half-open chunks of [begin, end) across the
  /// pool and waits. Chunks of `grain` indices are claimed from a shared
  /// atomic cursor, so threads that finish early steal the remaining chunks
  /// and uneven per-chunk costs still balance; the calling thread
  /// participates, so only min(thread_count, chunks - 1) helper tasks are
  /// ever submitted. A chunk-granular body amortizes per-chunk setup (RNG
  /// splits, trace spans, buffers) across the indices inside it.
  /// grain == 0 auto-tunes to ~8 chunks per thread. The first exception a
  /// chunk throws is rethrown after every helper has been joined.
  void parallel_for_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t grain = 0);

  /// Lifetime totals for parallel_for_chunks: calls that
  /// actually fanned out, and chunks claimed (by helpers or the caller).
  // relaxed (both): standalone statistics; they synchronize nothing.
  std::uint64_t parallel_for_calls() const {
    return pf_calls_.load(std::memory_order_relaxed);
  }
  std::uint64_t parallel_for_chunks_claimed() const {
    return pf_chunks_.load(std::memory_order_relaxed);
  }

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Stops accepting tasks and joins workers (also done by the destructor).
  void shutdown();

 private:
  void worker_loop();
  void task_done();
  void note_task_timing(std::chrono::steady_clock::time_point enqueued,
                        std::chrono::steady_clock::time_point started);

  BlockingQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> parked_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> pf_calls_{0};
  std::atomic<std::uint64_t> pf_chunks_{0};
  /// Written once during setup (set_task_timing_hook), then read by
  /// workers behind the timing_armed_ acquire/release edge.
  std::function<void(double, double)> timing_hook_;
  std::atomic<bool> timing_armed_{false};
  /// Leaf lock (unranked): only pairs idle_cv_ with the pending_ == 0 edge;
  /// no other lock is ever taken while holding it.
  Mutex idle_mu_{LockRankId::kPool};
  CondVar idle_cv_;
};

}  // namespace oda
