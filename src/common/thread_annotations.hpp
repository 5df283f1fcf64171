// Clang thread-safety annotations plus the annotated lock primitives the
// rest of the tree builds on (DESIGN.md §8).
//
// The concurrency contracts introduced with the parallel verification
// server (DESIGN.md §6) used to live only in comments: "guarded by the
// shard lock", "workers read published snapshots lock-free", "sat_count's
// memo is internally synchronized". Nothing stopped a later change from
// violating them silently. This header turns those contracts into
// attributes the compiler checks: under clang with
//
//   -Wthread-safety -Wthread-safety-beta -Werror=thread-safety-analysis
//
// (the `clang-strict` CMake preset), reading a GUARDED_BY member without
// its capability held, or calling a REQUIRES function unlocked, is a
// build error. Under every other compiler the macros expand to nothing
// and the wrappers compile down to the std primitives they hold — GCC
// builds are unchanged.
//
// Why wrapper types at all: the analysis needs capability attributes on
// the mutex CLASS, and libstdc++'s std::mutex carries none. veridp code
// therefore uses veridp::Mutex / veridp::SharedMutex and the scoped
// guards below instead of bare std types. The domain lint
// (tools/veridp_lint.py, rule `raw-lock`) enforces the other half of the
// bargain: outside this file, .lock()/.unlock() may only appear through
// the RAII guards, so there is no un-annotated side door.
//
// Macro names follow the clang documentation's mutex.h reference so they
// read like the upstream examples (CAPABILITY, GUARDED_BY, REQUIRES,
// ACQUIRE/RELEASE, EXCLUDES, ...).
// Lockdep (DESIGN.md §12): when VERIDP_LOCKDEP is defined, every
// wrapper constructed with a name keeps that name, and a thread that
// already holds one named lock aborts when it acquires another — naming
// both locks and printing its stack. Unnamed wrappers stay untracked
// (tests and scratch locks); every lock in src/ is named. Without the
// macro the hooks vanish and the wrappers keep their exact release
// layout (pinned by the static_asserts below the two mutex types).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/lockdep.hpp"

#if defined(__clang__)
#define VERIDP_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define VERIDP_THREAD_ANNOTATION__(x)  // no-op off clang
#endif

#define CAPABILITY(x) VERIDP_THREAD_ANNOTATION__(capability(x))
#define SCOPED_CAPABILITY VERIDP_THREAD_ANNOTATION__(scoped_lockable)
#define GUARDED_BY(x) VERIDP_THREAD_ANNOTATION__(guarded_by(x))
#define PT_GUARDED_BY(x) VERIDP_THREAD_ANNOTATION__(pt_guarded_by(x))
#define REQUIRES(...) \
  VERIDP_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  VERIDP_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) \
  VERIDP_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  VERIDP_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  VERIDP_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  VERIDP_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  VERIDP_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  VERIDP_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  VERIDP_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) VERIDP_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) \
  VERIDP_THREAD_ANNOTATION__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  VERIDP_THREAD_ANNOTATION__(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) VERIDP_THREAD_ANNOTATION__(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  VERIDP_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace veridp {

/// Annotated exclusive mutex. The raw lock()/unlock() members exist only
/// so the RAII guards and CondVar below can be written; production code
/// takes a MutexLock (the `raw-lock` lint rule enforces this).
///
/// Under VERIDP_LOCKDEP the named constructor keeps the name for the
/// one-named-lock-per-thread rule (lockdep.hpp). The hook calls below
/// are inline no-ops in release builds, and the name member exists
/// only in checked builds, so the release layout and code are exactly
/// the std primitive's.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* name) {
#ifdef VERIDP_LOCKDEP
    name_ = name;
#else
    (void)name;
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    lockdep::pre_acquire(name());
    mu_.lock();
    lockdep::post_acquire(this, name());
  }
  void unlock() RELEASE() {
    lockdep::on_release(this, name());
    mu_.unlock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    lockdep::pre_acquire(name());
    const bool ok = mu_.try_lock();
    if (ok) lockdep::post_acquire(this, name());
    return ok;
  }

  /// The underlying std primitive, for CondVar::wait only.
  std::mutex& native() { return mu_; }

 private:
  const char* name() const {
#ifdef VERIDP_LOCKDEP
    return name_;
#else
    return nullptr;
#endif
  }

  std::mutex mu_;
#ifdef VERIDP_LOCKDEP
  const char* name_ = nullptr;
#endif
};

/// Annotated shared (reader/writer) mutex, e.g. the BddManager
/// sat_count memo: concurrent warm readers, exclusive cold fills.
/// Same lockdep story as Mutex: a shared acquisition counts as holding
/// the lock.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const char* name) {
#ifdef VERIDP_LOCKDEP
    name_ = name;
#else
    (void)name;
#endif
  }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    lockdep::pre_acquire(name());
    mu_.lock();
    lockdep::post_acquire(this, name());
  }
  void unlock() RELEASE() {
    lockdep::on_release(this, name());
    mu_.unlock();
  }
  void lock_shared() ACQUIRE_SHARED() {
    lockdep::pre_acquire(name());
    mu_.lock_shared();
    lockdep::post_acquire(this, name());
  }
  void unlock_shared() RELEASE_SHARED() {
    lockdep::on_release(this, name());
    mu_.unlock_shared();
  }

 private:
  const char* name() const {
#ifdef VERIDP_LOCKDEP
    return name_;
#else
    return nullptr;
#endif
  }

  std::shared_mutex mu_;
#ifdef VERIDP_LOCKDEP
  const char* name_ = nullptr;
#endif
};

#ifndef VERIDP_LOCKDEP
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "release veridp::Mutex must keep std::mutex's layout");
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex),
              "release veridp::SharedMutex must keep std::shared_mutex's "
              "layout");
#endif

/// Scoped exclusive lock over Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RELEASE_GENERIC() { mu_.unlock(); }

  /// For CondVar::wait, which must name the mutex it releases.
  Mutex& mutex() { return mu_; }

 private:
  Mutex& mu_;
};

/// Scoped shared (reader) lock over SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;
  ~ReaderLock() RELEASE_GENERIC() { mu_.unlock_shared(); }

 private:
  SharedMutex& mu_;
};

/// Scoped exclusive (writer) lock over SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;
  ~WriterLock() RELEASE_GENERIC() { mu_.unlock(); }

 private:
  SharedMutex& mu_;
};

/// Condition variable paired with veridp::Mutex. wait() is excluded from
/// the analysis: it atomically releases and reacquires the capability,
/// which the static model cannot express — callers keep their MutexLock
/// and re-test their predicate in a loop, so every guarded access around
/// the wait still happens under the capability.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lk) NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> ul(lk.mutex().native(), std::adopt_lock);
    cv_.wait(ul);
    ul.release();  // the MutexLock still owns the capability
  }

  /// Timed wait; returns false on timeout. Same capability story as
  /// wait(): the caller's MutexLock is held again either way, and the
  /// caller re-tests its predicate in a loop. The parallel server's
  /// workers use this to bound how long an idle worker sleeps before
  /// rescanning sibling lanes for stealable work.
  template <typename Rep, typename Period>
  bool wait_for(MutexLock& lk, std::chrono::duration<Rep, Period> d)
      NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> ul(lk.mutex().native(), std::adopt_lock);
    const std::cv_status st = cv_.wait_for(ul, d);
    ul.release();  // the MutexLock still owns the capability
    return st == std::cv_status::no_timeout;
  }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace veridp
