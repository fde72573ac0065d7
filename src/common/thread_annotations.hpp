#pragma once
// Clang Thread Safety Analysis wiring (ISSUE 10 satellite): capability
// macros plus an annotated Mutex/MutexLock pair so -Wthread-safety can
// statically check the lock discipline of the Engine job queue, the
// Server connection registry and the PipelineCache computing latch.
// Under non-Clang compilers every macro expands to nothing and Mutex
// degrades to a plain std::mutex wrapper; the CI clang job builds with
// -Werror=thread-safety as the enforcement point.
//
// Condition variables: std::condition_variable needs the raw
// std::unique_lock<std::mutex>, which MutexLock::native() exposes.  A
// cv wait releases and reacquires the mutex, which is capability-neutral
// (held before, held after), so the analysis stays sound; wait predicates
// run with the lock held but are separate functions to the analysis, so
// they carry GPURF_NO_THREAD_SAFETY_ANALYSIS.

#include <mutex>

#if defined(__clang__)
#define GPURF_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GPURF_THREAD_ANNOTATION(x)
#endif

#define GPURF_CAPABILITY(x) GPURF_THREAD_ANNOTATION(capability(x))
#define GPURF_SCOPED_CAPABILITY GPURF_THREAD_ANNOTATION(scoped_lockable)
#define GPURF_GUARDED_BY(x) GPURF_THREAD_ANNOTATION(guarded_by(x))
#define GPURF_PT_GUARDED_BY(x) GPURF_THREAD_ANNOTATION(pt_guarded_by(x))
#define GPURF_REQUIRES(...) \
  GPURF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GPURF_ACQUIRE(...) \
  GPURF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GPURF_RELEASE(...) \
  GPURF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GPURF_EXCLUDES(...) GPURF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define GPURF_NO_THREAD_SAFETY_ANALYSIS \
  GPURF_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gpurf::common {

/// std::mutex with the capability attribute the analysis tracks.
class GPURF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GPURF_ACQUIRE() { mu_.lock(); }
  void unlock() GPURF_RELEASE() { mu_.unlock(); }

  /// Raw mutex, only for MutexLock's unique_lock (condvar waits).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII scope lock (the lock_guard / unique_lock replacement for Mutex).
/// lock()/unlock() support the hand-over-hand patterns (compute outside
/// the latch, re-lock to publish); native() feeds condition_variable.
class GPURF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GPURF_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() GPURF_RELEASE() {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() GPURF_ACQUIRE() { lock_.lock(); }
  void unlock() GPURF_RELEASE() { lock_.unlock(); }
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace gpurf::common
