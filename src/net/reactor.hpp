// Non-blocking edge-triggered epoll reactor: one event-loop thread
// (registered with common/thread_watch.hpp as "net.reactor") multiplexing
// sockets, one-shot timers, and cross-thread posted tasks via an eventfd
// wakeup. All fd/timer state is confined to the loop thread — the only
// shared state is the posted-task queue, guarded by an oda::Mutex leaf
// lock — so handlers run lock-free and the analysis has nothing to prove
// about them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"

namespace oda::net {

// Event mask bits handed to io handlers (translated from epoll).
inline constexpr std::uint32_t kEventRead = 1u << 0;
inline constexpr std::uint32_t kEventWrite = 1u << 1;
inline constexpr std::uint32_t kEventError = 1u << 2;  ///< EPOLLERR/EPOLLHUP

class Reactor {
 public:
  using IoHandler = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;

  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawns the loop thread. Returns false when setup failed or the
  /// reactor is already running.
  bool start(const char* role = "net.reactor");
  /// Requests shutdown and joins the loop thread. Pending posted tasks and
  /// timers are dropped; registered fds are deregistered but not closed
  /// (their owners close them).
  void stop();
  bool running() const noexcept {
    // relaxed: an independent liveness flag; no data is published by it.
    return running_.load(std::memory_order_relaxed);
  }
  bool on_loop_thread() const noexcept;

  // ----- loop-thread only (or before start()) -----

  /// Registers `fd` edge-triggered for the given kEvent* interest mask.
  bool add_fd(int fd, std::uint32_t events, IoHandler handler);
  /// Deregisters `fd` and drops its handler. Safe to call from inside the
  /// fd's own handler (dispatch invokes a copy).
  void del_fd(int fd);
  /// Runs `fn` on the loop thread after `delay_s` seconds (one-shot).
  /// Returns a timer id for cancel().
  std::uint64_t schedule(double delay_s, Task fn);
  void cancel(std::uint64_t timer_id);

  // ----- any thread -----

  /// Enqueues `fn` to run on the loop thread and wakes it. Tasks posted
  /// after stop() are silently dropped.
  void post(Task fn) ODA_EXCLUDES(post_mu_);

 private:
  struct Timer {
    std::uint64_t id = 0;
    double deadline_s = 0.0;
    Task fn;
  };

  void loop();
  void wake();
  int next_timeout_ms() const;
  void run_posted() ODA_EXCLUDES(post_mu_);
  void run_due_timers();
  static double now_s();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  const char* role_ = "net.reactor";
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::thread::id> loop_tid_{};

  // Loop-thread-confined (no lock by design; not visible off-loop).
  std::unordered_map<int, IoHandler> handlers_;
  std::vector<Timer> timers_;  // unsorted; scanned per tick (few timers)
  std::uint64_t next_timer_id_ = 1;

  /// Leaf lock (unranked): guards only the posted-task queue and never
  /// nests around another lock — tasks run after it is released.
  mutable Mutex post_mu_;
  std::vector<Task> posted_ ODA_GUARDED_BY(post_mu_);
};

}  // namespace oda::net
