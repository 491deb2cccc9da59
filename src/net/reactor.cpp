#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/log.hpp"
#include "common/thread_watch.hpp"

namespace oda::net {

namespace {

std::uint32_t to_epoll(std::uint32_t events) {
  std::uint32_t mask = EPOLLET;
  if (events & kEventRead) mask |= EPOLLIN | EPOLLRDHUP;
  if (events & kEventWrite) mask |= EPOLLOUT;
  return mask;
}

std::uint32_t from_epoll(std::uint32_t mask) {
  std::uint32_t events = 0;
  // RDHUP surfaces as readable: the next read() returns 0 and the
  // connection winds down gracefully instead of being torn down mid-write.
  if (mask & (EPOLLIN | EPOLLPRI | EPOLLRDHUP)) events |= kEventRead;
  if (mask & EPOLLOUT) events |= kEventWrite;
  if (mask & (EPOLLERR | EPOLLHUP)) events |= kEventError;
  return events;
}

}  // namespace

Reactor::Reactor() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    ODA_LOG_ERROR << "net: epoll_create1: " << std::strerror(errno);
    return;
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ODA_LOG_ERROR << "net: eventfd: " << std::strerror(errno);
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: drained every tick
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

Reactor::~Reactor() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool Reactor::start(const char* role) {
  if (epoll_fd_ < 0 || running_.load(std::memory_order_relaxed)) return false;
  role_ = role;
  stop_requested_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
  loop_tid_.store(thread_.get_id(), std::memory_order_relaxed);
  return true;
}

void Reactor::stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  wake();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_relaxed);
  loop_tid_.store(std::thread::id{}, std::memory_order_relaxed);
  handlers_.clear();
  timers_.clear();
  {
    MutexLock lock(post_mu_);
    posted_.clear();
  }
}

bool Reactor::on_loop_thread() const noexcept {
  return std::this_thread::get_id() ==
         loop_tid_.load(std::memory_order_relaxed);
}

bool Reactor::add_fd(int fd, std::uint32_t events, IoHandler handler) {
  if (epoll_fd_ < 0) return false;
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ODA_LOG_ERROR << "net: epoll_ctl(ADD): " << std::strerror(errno);
    return false;
  }
  handlers_[fd] = std::move(handler);
  return true;
}

void Reactor::del_fd(int fd) {
  if (epoll_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

std::uint64_t Reactor::schedule(double delay_s, Task fn) {
  const std::uint64_t id = next_timer_id_++;
  timers_.push_back(Timer{id, now_s() + delay_s, std::move(fn)});
  return id;
}

void Reactor::cancel(std::uint64_t timer_id) {
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->id == timer_id) {
      timers_.erase(it);
      return;
    }
  }
}

void Reactor::post(Task fn) {
  {
    MutexLock lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void Reactor::wake() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // EAGAIN (counter saturated) still leaves the fd readable — wakeup holds.
  const ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
  (void)rc;
}

double Reactor::now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Reactor::next_timeout_ms() const {
  // Cap the sleep so a missed wakeup can only delay shutdown briefly.
  double timeout_s = 1.0;
  const double now = now_s();
  for (const Timer& t : timers_) {
    const double until = t.deadline_s - now;
    if (until < timeout_s) timeout_s = until;
  }
  if (timeout_s <= 0.0) return 0;
  return static_cast<int>(timeout_s * 1000.0) + 1;
}

void Reactor::run_posted() {
  std::vector<Task> batch;
  {
    MutexLock lock(post_mu_);
    batch.swap(posted_);
  }
  for (Task& task : batch) task();
}

void Reactor::run_due_timers() {
  const double now = now_s();
  // Collect-then-run: a timer callback may schedule()/cancel() freely.
  std::vector<Task> due;
  for (auto it = timers_.begin(); it != timers_.end();) {
    if (it->deadline_s <= now) {
      due.push_back(std::move(it->fn));
      it = timers_.erase(it);
    } else {
      ++it;
    }
  }
  for (Task& task : due) task();
}

void Reactor::loop() {
  WatchedThreadScope watch(role_);
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                               next_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      ODA_LOG_ERROR << "net: epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == wake_fd_) {
        std::uint64_t drain = 0;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
      }
    }
    run_posted();
    run_due_timers();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) continue;
      // Re-check per dispatch (an earlier handler may have removed this
      // fd) and invoke a copy (the handler may remove itself).
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      IoHandler handler = it->second;
      handler(from_epoll(events[i].events));
    }
    // Tasks posted while dispatching io run next tick (the wake eventfd is
    // already signalled), except on the shutdown path below.
  }
  run_posted();
}

}  // namespace oda::net
