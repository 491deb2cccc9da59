#include "common/thread_watch.hpp"

#include <unistd.h>

#include <algorithm>

#if defined(__linux__)
#include <sys/syscall.h>
#endif

namespace oda {

namespace {

// Local-exec TLS in the main link unit: reading this from a signal handler
// is a plain offset load, no lazy allocation. Initialized (written) at
// registration, strictly before the thread can be signalled.
thread_local WatchedThread* t_current = nullptr;

std::uint64_t os_thread_id() {
#if defined(__linux__)
  return static_cast<std::uint64_t>(::syscall(SYS_gettid));
#else
  return 0;
#endif
}

void query_stack_bounds(const char** lo, const char** hi) {
  *lo = nullptr;
  *hi = nullptr;
#if defined(__linux__)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* addr = nullptr;
  std::size_t size = 0;
  if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
    *lo = static_cast<const char*>(addr);
    *hi = static_cast<const char*>(addr) + size;
  }
  pthread_attr_destroy(&attr);
#endif
}

}  // namespace

ThreadWatchRegistry& ThreadWatchRegistry::global() {
  static ThreadWatchRegistry registry;
  return registry;
}

void ThreadWatchRegistry::set_register_hook(RegisterHook hook) noexcept {
  // release: a registration that loads this hook (acquire in add()) must
  // see everything the profiler set up before installing it.
  hook_.store(hook, std::memory_order_release);
}

void ThreadWatchRegistry::for_each(
    const std::function<void(WatchedThread&)>& fn) {
  MutexLock lock(mu_);
  for (const auto& rec : threads_) fn(*rec);
}

std::size_t ThreadWatchRegistry::size() const {
  MutexLock lock(mu_);
  return threads_.size();
}

std::shared_ptr<WatchedThread> ThreadWatchRegistry::add(const char* role) {
  auto rec = std::make_shared<WatchedThread>();
  rec->handle = pthread_self();
  rec->os_tid = os_thread_id();
  rec->role = role;
  query_stack_bounds(&rec->stack_lo, &rec->stack_hi);
  {
    MutexLock lock(mu_);
    threads_.push_back(rec);
    // acquire: pairs with the release store in set_register_hook().
    if (RegisterHook hook = hook_.load(std::memory_order_acquire)) {
      hook(*rec);
    }
  }
  // Publish the TLS pointer only after the record is complete; from here on
  // a SIGPROF on this thread can observe and use it.
  t_current = rec.get();
  return rec;
}

void ThreadWatchRegistry::remove(const WatchedThread* rec) {
  t_current = nullptr;
  MutexLock lock(mu_);
  threads_.erase(std::remove_if(threads_.begin(), threads_.end(),
                                [rec](const std::shared_ptr<WatchedThread>& p) {
                                  return p.get() == rec;
                                }),
                 threads_.end());
}

WatchedThread* current_watched_thread() noexcept { return t_current; }

WatchedThreadScope::WatchedThreadScope(const char* role) {
  if (t_current != nullptr) return;  // nested scope: outermost wins
  rec_ = ThreadWatchRegistry::global().add(role);
}

WatchedThreadScope::~WatchedThreadScope() {
  if (rec_) ThreadWatchRegistry::global().remove(rec_.get());
}

}  // namespace oda
