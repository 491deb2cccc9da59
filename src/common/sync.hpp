// Annotated synchronization primitives: the only place in src/ allowed to
// touch <mutex>/<shared_mutex>/<condition_variable> directly (enforced by
// scripts/oda_lint.py's raw-mutex rule). Everything else locks through
// oda::Mutex / oda::SharedMutex and the RAII wrappers below, which carry
// Clang Thread Safety Analysis attributes — so a build with the `tsa`
// preset (-Wthread-safety -Wthread-safety-beta -Werror) machine-checks the
// locking discipline that used to live in comments:
//
//   * ODA_GUARDED_BY(mu) on a field: every access must hold mu;
//   * ODA_REQUIRES(mu) on a *_locked() helper: callers must hold mu;
//   * ODA_ACQUIRED_BEFORE / ODA_ACQUIRED_AFTER edges (via the lock_order
//     rank markers below): acquiring locks against the declared hierarchy
//     is a compile error, not a TSan-dynamic-luck deadlock.
//
// Off Clang, every attribute expands to nothing and the primitives are
// zero-cost forwarding wrappers, so GCC builds are bit-identical to the
// pre-annotation code. docs/STATIC_ANALYSIS.md ("Thread-safety analysis")
// documents the conventions, the lock-order hierarchy, and the suppression
// idiom for intentionally lock-free structures.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/contention.hpp"

// ---------------------------------------------------------------- attributes

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ODA_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef ODA_THREAD_ANNOTATION
#define ODA_THREAD_ANNOTATION(x)  // expands to nothing off Clang
#endif

/// Marks a class as a lockable capability; `name` appears in diagnostics.
#define ODA_CAPABILITY(name) ODA_THREAD_ANNOTATION(capability(name))
/// Marks an RAII class whose constructor acquires and destructor releases.
#define ODA_SCOPED_CAPABILITY ODA_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be accessed while holding the given capability.
#define ODA_GUARDED_BY(x) ODA_THREAD_ANNOTATION(guarded_by(x))
/// Pointee may only be accessed while holding the given capability.
#define ODA_PT_GUARDED_BY(x) ODA_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function may only be called while holding the capability exclusively.
#define ODA_REQUIRES(...) \
  ODA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function may only be called while holding the capability (shared ok).
#define ODA_REQUIRES_SHARED(...) \
  ODA_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability exclusively and does not release it.
#define ODA_ACQUIRE(...) ODA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ODA_ACQUIRE_SHARED(...) \
  ODA_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability (generic: matches however acquired).
#define ODA_RELEASE(...) ODA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define ODA_RELEASE_SHARED(...) \
  ODA_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Function attempts the acquire; holds it iff the result equals arg 1.
#define ODA_TRY_ACQUIRE(...) \
  ODA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define ODA_TRY_ACQUIRE_SHARED(...) \
  ODA_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (the function takes it itself).
#define ODA_EXCLUDES(...) ODA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Lock-order edges: this capability is acquired before/after the others.
/// Checked transitively under -Wthread-safety-beta.
#define ODA_ACQUIRED_BEFORE(...) \
  ODA_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ODA_ACQUIRED_AFTER(...) \
  ODA_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Tells the analysis the capability is held (runtime-verified elsewhere).
#define ODA_ASSERT_CAPABILITY(x) ODA_THREAD_ANNOTATION(assert_capability(x))
/// Function returns a reference to the given capability.
#define ODA_RETURN_CAPABILITY(x) ODA_THREAD_ANNOTATION(lock_returned(x))
/// Last-resort opt-out, always with a justification comment; see
/// docs/STATIC_ANALYSIS.md for when this is acceptable.
#define ODA_NO_THREAD_SAFETY_ANALYSIS \
  ODA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace oda {

// ---------------------------------------------------------------- lock order
//
// Rank markers: zero-size capabilities that are never locked, only named in
// ODA_ACQUIRED_BEFORE/AFTER edges. A concrete mutex at level L is declared
// AFTER its level's marker and BEFORE the next level's marker; since the
// beta ordering check is transitive, acquiring any lower-level mutex while
// holding a higher-level one warns even across unrelated classes. The
// hierarchy (outermost first) mirrors the actual call nesting of the data
// plane — see docs/STATIC_ANALYSIS.md for the rationale per level:
//
//   bus -> health -> store shard -> wal -> interner -> metrics -> trace -> log
//
// Leaf locks that never nest around other locks (BlockingQueue, ThreadPool
// idle wait, FaultInjector stuck state, CaptureSink) stay unranked: the
// analysis simply has no edges for them, which is the truthful contract.

/// A named level in the lock-order hierarchy. Never actually locked.
class ODA_CAPABILITY("lock rank") LockRank {
 public:
  constexpr LockRank() = default;
  LockRank(const LockRank&) = delete;
  LockRank& operator=(const LockRank&) = delete;
};

namespace lock_order {
inline LockRank bus;
inline LockRank health ODA_ACQUIRED_AFTER(bus);
inline LockRank store_shard ODA_ACQUIRED_AFTER(health);
inline LockRank wal ODA_ACQUIRED_AFTER(store_shard);
inline LockRank interner ODA_ACQUIRED_AFTER(wal);
inline LockRank metrics ODA_ACQUIRED_AFTER(interner);
inline LockRank trace ODA_ACQUIRED_AFTER(metrics);
inline LockRank log ODA_ACQUIRED_AFTER(trace);
}  // namespace lock_order

// The static rank markers above have a runtime twin: LockRankId
// (common/contention.hpp). A mutex constructed with its LockRankId feeds
// per-rank wait-time statistics whenever an RAII acquisition below loses
// its try_lock fast path, giving the "which lock tier are we waiting on"
// attribution that the compile-time hierarchy cannot (it only proves
// ordering). Unranked mutexes account under LockRankId::kUnranked.

// ---------------------------------------------------------------- primitives

/// std::mutex with thread-safety-analysis attributes. Prefer the MutexLock
/// RAII wrapper; call lock()/unlock() directly only where RAII cannot
/// express the shape.
class ODA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Tags the mutex with its lock-order tier for contention accounting.
  explicit Mutex(LockRankId rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ODA_ACQUIRE() { mu_.lock(); }
  void unlock() ODA_RELEASE() { mu_.unlock(); }
  bool try_lock() ODA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  LockRankId rank() const noexcept { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  LockRankId rank_ = LockRankId::kUnranked;
};

/// std::shared_mutex with thread-safety-analysis attributes. Writers use
/// WriterLock, readers ReaderLock.
class ODA_CAPABILITY("shared mutex") SharedMutex {
 public:
  SharedMutex() = default;
  /// Tags the mutex with its lock-order tier for contention accounting.
  explicit SharedMutex(LockRankId rank) : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ODA_ACQUIRE() { mu_.lock(); }
  void unlock() ODA_RELEASE() { mu_.unlock(); }
  bool try_lock() ODA_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() ODA_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() ODA_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() ODA_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

  LockRankId rank() const noexcept { return rank_; }

 private:
  std::shared_mutex mu_;
  LockRankId rank_ = LockRankId::kUnranked;
};

// ------------------------------------------------------------- RAII wrappers
//
// Every wrapper constructor runs the same contention-accounting body,
// detail::acquire_accounted: a try_lock fast path with zero clock reads;
// only an acquisition that actually waited pays for two steady_clock reads,
// and that wait is recorded against the mutex's LockRankId and kept in
// waited_s() for callers that attribute per-instance. Direct Mutex::lock()
// calls and the CondVar reacquire stay unaccounted — attribution covers the
// RAII idiom the codebase uses everywhere else.

namespace detail {

/// Returns the seconds the acquisition waited (0.0 on the fast path). The
/// member pointers are template arguments, so every call is direct; the
/// wrappers' constructors carry the thread-safety annotations for the lock
/// this takes.
template <auto TryAcquire, auto Acquire, typename M>
double acquire_accounted(M& mu) {
  if ((mu.*TryAcquire)()) return 0.0;
  const auto wait_start = std::chrono::steady_clock::now();
  (mu.*Acquire)();
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wait_start)
                              .count();
  contention::record_wait(mu.rank(), waited_s);
  return waited_s;
}

}  // namespace detail

/// Scoped exclusive lock on a Mutex (the std::lock_guard replacement).
class ODA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ODA_ACQUIRE(mu)
      : mu_(&mu),
        waited_s_(
            detail::acquire_accounted<&Mutex::try_lock, &Mutex::lock>(mu)) {}
  ~MutexLock() ODA_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Seconds this acquisition blocked (0.0 on the fast path).
  double waited_s() const noexcept { return waited_s_; }

 private:
  friend class CondVar;
  Mutex* mu_;
  double waited_s_;
};

/// Scoped exclusive lock on a SharedMutex (the std::unique_lock replacement
/// for writer paths).
class ODA_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ODA_ACQUIRE(mu)
      : mu_(&mu),
        waited_s_(detail::acquire_accounted<&SharedMutex::try_lock,
                                            &SharedMutex::lock>(mu)) {}
  ~WriterLock() ODA_RELEASE() { mu_->unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

  /// Seconds this acquisition blocked (0.0 on the fast path).
  double waited_s() const noexcept { return waited_s_; }

 private:
  SharedMutex* mu_;
  double waited_s_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class ODA_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ODA_ACQUIRE_SHARED(mu)
      : mu_(&mu),
        waited_s_(detail::acquire_accounted<&SharedMutex::try_lock_shared,
                                            &SharedMutex::lock_shared>(mu)) {}
  ~ReaderLock() ODA_RELEASE() { mu_->unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

  /// Seconds this acquisition blocked (0.0 on the fast path).
  double waited_s() const noexcept { return waited_s_; }

 private:
  SharedMutex* mu_;
  double waited_s_;
};

// ------------------------------------------------------------------- condvar

/// Condition variable bound to oda::Mutex. wait() takes the Mutex itself
/// (annotated ODA_REQUIRES) instead of a predicate lambda: the analysis
/// cannot see held locks inside wait(lock, pred) lambdas, so waiters are
/// written as explicit `while (!cond) cv.wait(mu);` loops — which keeps the
/// guarded-field accesses in the loop condition visibly under the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires before returning.
  /// From the analysis' point of view the mutex is held throughout, which
  /// is exactly the guarantee the caller's guarded accesses rely on.
  void wait(Mutex& mu) ODA_REQUIRES(mu) {
    std::unique_lock<std::mutex> relock(mu.mu_, std::adopt_lock);
    cv_.wait(relock);
    relock.release();
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace oda
