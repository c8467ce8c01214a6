// Annotated synchronization primitives.
//
// Thin wrappers over std::mutex / std::condition_variable that carry the
// clang thread-safety attributes from util/thread_annotations.h, plus the
// ThreadRole capability used to machine-check single-writer contracts.
// std::mutex itself is invisible to the analysis, so new shared state must
// be guarded by these types (tools/run_tidy.sh + the tidy preset enforce
// the annotations; nothing here adds runtime cost — MutexLock compiles to
// exactly a lock_guard, and ThreadRole is an empty struct whose methods
// are no-ops).
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace pdmm {

// A std::mutex the thread-safety analysis can see.
class PDMM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PDMM_ACQUIRE() { mu_.lock(); }
  void unlock() PDMM_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Scoped lock (lock_guard shape: acquires in the constructor, releases in
// the destructor, no unlock/relock surface).
class PDMM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PDMM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PDMM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable over Mutex. wait() takes the Mutex the caller holds;
// there is deliberately no predicate overload — the analysis cannot see
// through a predicate lambda (it would report the guarded reads inside it
// as unlocked), so callers write the standard
//   while (!condition) cv.wait(mu);
// loop, which the analysis checks end-to-end.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, sleeps, and re-acquires it before
  // returning; the caller's capability set is unchanged across the call,
  // which is exactly what the REQUIRES annotation states. Spurious
  // wakeups are possible (hence the while-loop idiom above).
  void wait(Mutex& mu) PDMM_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller still owns the mutex
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// A thread-confinement capability with no runtime state. Guards members
// that are owned by one logical role ("the updater thread", "the
// journal's appender") rather than by a lock: members declared
// PDMM_GUARDED_BY(role_) are only touchable from functions that carry
// PDMM_REQUIRES(role_) or that asserted the role.
//
// The role is established, not acquired: there is nothing to lock at
// runtime. A thread calls assert_held() at the point where the
// single-writer contract makes it true by construction (e.g. pdmm_serve's
// updater loop, a test's driver thread), and the analysis then verifies
// that every guarded access downstream of that point is reached only
// through annotated paths. Asserting a role on two concurrent threads is
// a contract violation the analysis cannot catch — the assertion site is
// the documented boundary of trust, which is why call sites must state in
// a comment why the contract holds there.
class PDMM_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void assert_held() const PDMM_ASSERT_CAPABILITY(this) {}
};

}  // namespace pdmm
