// Bounded multi-producer/multi-consumer blocking queue. Mutex + condition
// variables: simple, correct, and fast enough for control-plane traffic
// (task dispatch, alerts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>

#include "common/sync.hpp"

namespace oda {

template <typename T>
class BlockingQueue {
 public:
  /// capacity == 0 means unbounded.
  explicit BlockingQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Blocks while full. Returns false if the queue was closed.
  bool push(T value) {
    {
      MutexLock lock(mu_);
      while (!closed_ && capacity_ != 0 && items_.size() >= capacity_) {
        not_full_.wait(mu_);
      }
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed.
  bool try_push(T value) {
    {
      MutexLock lock(mu_);
      if (closed_ || (capacity_ != 0 && items_.size() >= capacity_)) {
        ++rejected_;
        return false;
      }
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// try_push calls that returned false (full or closed) — the drop signal
  /// exported by obs::register_blocking_queue.
  std::uint64_t rejected_count() const {
    MutexLock lock(mu_);
    return rejected_;
  }

  /// Blocks while empty. Returns nullopt once closed and drained.
  std::optional<T> pop() {
    std::optional<T> value;
    {
      MutexLock lock(mu_);
      while (!closed_ && items_.empty()) not_empty_.wait(mu_);
      if (items_.empty()) return std::nullopt;
      value = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::optional<T> value;
    {
      MutexLock lock(mu_);
      if (items_.empty()) return std::nullopt;
      value = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return value;
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain remaining items.
  void close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_{LockRankId::kPool};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ ODA_GUARDED_BY(mu_);
  std::size_t capacity_;
  std::uint64_t rejected_ ODA_GUARDED_BY(mu_) = 0;
  bool closed_ ODA_GUARDED_BY(mu_) = false;
};

}  // namespace oda
