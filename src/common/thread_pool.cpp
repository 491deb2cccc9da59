#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/thread_watch.hpp"

namespace oda {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::worker_loop() {
  // Register with the thread-watch registry so the sampling profiler can
  // signal this worker (obs/profiler.hpp). One registration per worker
  // lifetime.
  WatchedThreadScope watch("pool.worker");
  for (;;) {
    // relaxed (both): parked_workers() is an advisory gauge — a reader
    // catching the counter mid-update just sees the worker as (not yet)
    // parked, both of which are momentarily true.
    parked_.fetch_add(1, std::memory_order_relaxed);
    auto task = tasks_.pop();
    parked_.fetch_sub(1, std::memory_order_relaxed);
    if (!task) break;
    (*task)();
    task_done();
  }
}

void ThreadPool::set_task_timing_hook(std::function<void(double, double)> hook) {
  timing_hook_ = std::move(hook);
  // release: publishes the hook object to workers' acquire loads (submit).
  timing_armed_.store(static_cast<bool>(timing_hook_),
                      std::memory_order_release);
}

void ThreadPool::note_task_timing(
    std::chrono::steady_clock::time_point enqueued,
    std::chrono::steady_clock::time_point started) {
  const auto finished = std::chrono::steady_clock::now();
  timing_hook_(std::chrono::duration<double>(started - enqueued).count(),
               std::chrono::duration<double>(finished - started).count());
}

void ThreadPool::task_done() {
  // relaxed: statistics counter (see completed_count()).
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    MutexLock lock(idle_mu_);
    idle_cv_.notify_all();
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // ~8 chunks per thread by default: coarse enough that the atomic claim is
  // noise, fine enough that one slow chunk can be balanced around.
  if (grain == 0) grain = std::max<std::size_t>(1, n / (thread_count() * 8));
  const std::size_t n_chunks = (n + grain - 1) / grain;
  if (n_chunks == 1) {
    body(begin, end);
    return;
  }
  // relaxed: statistics counter (see parallel_for_calls()).
  pf_calls_.fetch_add(1, std::memory_order_relaxed);

  // Dynamic chunk claiming off one shared cursor: every participant —
  // helper workers and the calling thread alike — loops fetch_add'ing the
  // next chunk index until the range is drained. Helpers that start late
  // (queue backlog) simply claim fewer chunks; a busy or 1-thread pool
  // degrades to the caller draining everything itself, never to deadlock.
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (;;) {
      // relaxed: the claim only needs atomicity (each chunk handed to one
      // participant); the futures' get()/inline-run below order all chunk
      // writes before parallel_for_chunks returns.
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= n_chunks) return;
      // relaxed: statistics counter (see parallel_for_chunks_claimed()).
      pf_chunks_.fetch_add(1, std::memory_order_relaxed);
      const std::size_t lo = begin + k * grain;
      body(lo, std::min(lo + grain, end));
    }
  };
  // References into this frame are safe: every future is get() below, so
  // helpers cannot outlive the call (submit() runs rejected tasks inline).
  const std::size_t helpers = std::min(thread_count(), n_chunks - 1);
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (std::size_t h = 0; h < helpers; ++h) {
    futures.push_back(submit(drain));
  }
  // The caller works too instead of blocking — a fan-out costs nothing
  // extra on a saturated pool and still finishes on a pool of one.
  std::exception_ptr first_error;
  try {
    drain();
  } catch (...) {
    first_error = std::current_exception();
  }
  // Always join every helper (even after an error: they share this frame),
  // then surface the first failure like the old one-future-per-chunk path.
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::wait_idle() {
  MutexLock lock(idle_mu_);
  while (pending_.load(std::memory_order_acquire) != 0) idle_cv_.wait(idle_mu_);
}

void ThreadPool::shutdown() {
  tasks_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

}  // namespace oda
