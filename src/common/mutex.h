// The project's only lock vocabulary: `CAPABILITY`-annotated wrappers
// over the standard mutexes, so Clang's thread-safety analysis
// (`-Wthread-safety`, `-Werror=thread-safety` in CI) checks every lock
// acquisition in the tree against the `GUARDED_BY`/`REQUIRES`/`EXCLUDES`
// contracts declared next to the data.
//
// Raw `std::mutex` / `std::shared_mutex` / `std::lock_guard` /
// `std::unique_lock` / `std::condition_variable` are forbidden outside
// this header (`tools/trex_check.py` check `raw-mutex`): an
// unwrapped lock is invisible to the analysis, so any state it guards
// silently falls out of the checked locking model.
//
//   trex::Mutex mu_;
//   int depth_ GUARDED_BY(mu_);
//
//   void Push() EXCLUDES(mu_) {
//     MutexLock lock(mu_);   // scoped; analysis tracks the hold
//     ++depth_;
//     cv_.NotifyOne();
//   }
//
// Condition waits are explicit loops over `CondVar::Wait` — never
// lambda predicates, which the analysis treats as separate, lock-less
// functions and flags:
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.Wait(lock);
//
// `ASSERT_HELD(mu)` re-establishes a hold the analysis cannot see
// (callback boundaries); it is a no-op at runtime.

#ifndef TREX_COMMON_MUTEX_H_
#define TREX_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace trex {

/// Exclusive lock (wraps `std::mutex`); the unit the analysis tracks.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Declares to the analysis that the current thread holds this mutex
  /// — for callback boundaries it cannot see across. No runtime effect.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Reader/writer lock (wraps `std::shared_mutex`). Shared holders may
/// read guarded state (`REQUIRES_SHARED`); writers need the exclusive
/// hold (`REQUIRES`).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

  /// See `Mutex::AssertHeld`.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive hold of a `Mutex`. Also the handle `CondVar` waits
/// on, and — for the rare drain loops that drop the lock around a
/// callback — manually unlockable (`Unlock`/`Lock`), with the
/// destructor releasing only if held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RELEASE() {}  // std::unique_lock releases only if held

  /// Mid-scope release/reacquire, for loops that must drop the lock
  /// around user code (e.g. `ThreadPool` running a task).
  void Unlock() RELEASE() { lock_.unlock(); }
  void Lock() ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Scoped exclusive hold of a `SharedMutex` (the writer side).
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;
  ~WriterLock() RELEASE() { mu_.Unlock(); }

 private:
  SharedMutex& mu_;
};

/// Scoped shared hold of a `SharedMutex` (the reader side).
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;
  ~ReaderLock() RELEASE() { mu_.UnlockShared(); }

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to `Mutex`/`MutexLock`. Waits keep the
/// analysis' view of the hold intact (the lock is released and
/// reacquired inside, with the same post-condition).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Callers wait in an explicit loop over the guarded condition (see
  /// file comment); there is deliberately no predicate overload.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(lock.lock_, timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace trex

/// Callback-boundary assertion, reading like the contract it states:
/// `ASSERT_HELD(entry->mu);`.
#define ASSERT_HELD(mu) (mu).AssertHeld()

#endif  // TREX_COMMON_MUTEX_H_
