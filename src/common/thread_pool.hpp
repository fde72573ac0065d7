#pragma once
// Deterministic thread pool for the analysis/tuning pipeline.
//
// Design constraints (see ISSUE 1):
//  * work-stealing-free: parallel_for partitions [0, n) into contiguous
//    static shards, one per thread, so the set of indices a thread runs is
//    a pure function of (n, num_threads) — no scheduling races leak into
//    iteration order within a shard;
//  * deterministic results: callers only submit independent iterations
//    whose writes go to disjoint slots, so the combined result is
//    identical to the serial loop regardless of shard interleaving;
//  * nested calls degrade gracefully: a parallel_for issued from inside a
//    worker runs inline on that worker (no deadlock, no oversubscription).
//
// Thread count: GPURF_THREADS environment variable when set (>= 1),
// otherwise std::thread::hardware_concurrency().  Tests and benches may
// resize() the singleton at runtime to compare serial vs parallel runs in
// one process.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gpurf::common {

class ThreadPool;

namespace detail {
inline thread_local bool tl_in_pool_worker = false;
/// Pool bound to the calling thread by ScopedPool (an Engine executing
/// work on behalf of a session); null means "use the process-wide pool".
inline thread_local ThreadPool* tl_current_pool = nullptr;
}  // namespace detail

/// True when the calling thread is executing inside a parallel_for shard.
/// Parallel facilities that would otherwise fan out (e.g. the interpreter's
/// block-parallel grid execution) consult this to degrade to their serial
/// path instead of queueing nested work that runs inline anyway.
inline bool in_pool_worker() { return detail::tl_in_pool_worker; }

/// Number of threads the pool uses by default: GPURF_THREADS when set,
/// else hardware concurrency (always >= 1).
inline int default_thread_count() {
  if (const char* env = std::getenv("GPURF_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

class ThreadPool {
 public:
  explicit ThreadPool(int threads) { spawn(threads); }
  ~ThreadPool() { shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool shared by the tuner, probes and pipeline.
  static ThreadPool& instance() {
    static ThreadPool pool(default_thread_count());
    return pool;
  }

  /// Pool the calling thread should fan work out on: the ScopedPool-bound
  /// pool when an Engine is driving this thread, else the shared instance.
  /// All pipeline-internal parallelism routes through here so that work an
  /// Engine executes lands on that Engine's own pool.
  static ThreadPool& current() {
    return detail::tl_current_pool ? *detail::tl_current_pool : instance();
  }

  /// Total execution width including the calling thread.
  int size() const { return num_threads_; }

  /// Re-target the pool (joins workers; callers must not hold jobs).
  void resize(int threads) {
    if (threads < 1) threads = 1;
    std::lock_guard<std::mutex> submit(submit_mu_);
    if (threads == num_threads_) return;
    shutdown();
    spawn(threads);
  }

  /// Run fn(i) for every i in [0, n).  Blocks until all iterations finish.
  /// The calling thread executes shard 0; workers execute shards 1..T-1.
  /// The first exception thrown by any iteration is rethrown here.
  void parallel_for(size_t n, const std::function<void(size_t)>& fn) {
    if (n == 0) return;
    // Serial fast path: one thread, one item, or a nested call from a
    // worker (which would deadlock waiting on its own pool).
    if (num_threads_ <= 1 || n == 1 || detail::tl_in_pool_worker) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }

    // NOTE: parallel_for is fork-join for *short* fan-outs — it holds
    // submit_mu_ for the duration of the job, so long-resident occupants
    // (e.g. the sharded timing simulator, whose shards live for the whole
    // run) must NOT route through the pool: they would serialise every
    // other session's probe batches — and with them their cancellation
    // checkpoints — behind a multi-second mutex hold.  sim/gpu.cpp spawns
    // a dedicated, globally-gated shard crew instead, sized by size().
    std::lock_guard<std::mutex> submit(submit_mu_);
    const int nshards =
        static_cast<int>(std::min<size_t>(n, static_cast<size_t>(num_threads_)));
    const std::function<void(int)> shard = [&, nshards](int s) {
      // Contiguous static partition: shard s owns [lo, hi).
      const size_t lo = n * static_cast<size_t>(s) / nshards;
      const size_t hi = n * static_cast<size_t>(s + 1) / nshards;
      for (size_t i = lo; i < hi; ++i) fn(i);
    };

    std::exception_ptr first_error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_ = &shard;
      job_shards_ = nshards;
      shards_done_ = 0;
      error_ = nullptr;
      ++job_id_;
      cv_.notify_all();
      lock.unlock();

      // The caller is shard 0.  While it runs its shard it counts as a
      // pool thread: a nested parallel_for from inside fn must run inline
      // (taking submit_mu_ again from this thread would deadlock).
      detail::tl_in_pool_worker = true;
      try {
        shard(0);
      } catch (...) {
        std::lock_guard<std::mutex> elock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      detail::tl_in_pool_worker = false;

      lock.lock();
      done_cv_.wait(lock, [&] { return shards_done_ == job_shards_ - 1; });
      job_ = nullptr;
      first_error = error_;
    }
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  void spawn(int threads) {
    if (threads < 1) threads = 1;
    num_threads_ = threads;
    stop_ = false;
    // No job can be in flight here (construction, or resize() after
    // shutdown with submit_mu_ held); restart the job counter so fresh
    // workers (seen_job = 0) don't mistake the previous pool's last job
    // id for new work and dereference the cleared job pointer.
    job_id_ = 0;
    job_ = nullptr;
    workers_.reserve(static_cast<size_t>(threads - 1));
    for (int t = 1; t < threads; ++t)
      workers_.emplace_back([this, t] { worker_loop(t); });
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      cv_.notify_all();
    }
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  void worker_loop(int worker_index) {
    detail::tl_in_pool_worker = true;
    uint64_t seen_job = 0;
    for (;;) {
      const std::function<void(int)>* job = nullptr;
      int nshards = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || job_id_ != seen_job; });
        if (stop_) return;
        seen_job = job_id_;
        job = job_;
        nshards = job_shards_;
      }
      // Threads beyond the shard count sit this job out (and must not
      // touch the done counter, which only tracks participating shards).
      if (worker_index >= nshards) continue;
      try {
        (*job)(worker_index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++shards_done_;
        done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  int num_threads_ = 1;

  std::mutex submit_mu_;  ///< serialises external parallel_for / resize

  std::mutex mu_;
  std::condition_variable cv_, done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  int job_shards_ = 0;
  int shards_done_ = 0;
  uint64_t job_id_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

/// Reusable cycle barrier for lockstep phase execution (ISSUE 5: the
/// sharded timing simulator ticks its SMs in parallel through a window of
/// max(1, min(lat_l1_hit, lat_tex_hit)) cycles, then runs a serial phase —
/// block refills, L2 replay — between windows; see sim/gpu.hpp).
///
/// Epoch-based: every participant calls arrive_and_wait(fn) once per
/// window; the last arriver runs `fn` alone (exclusive access to shared
/// state) and then releases the epoch.  Writes made before an arrival
/// happen-before the completion function, and writes made inside the
/// completion function happen-before every participant's return — so a
/// stop flag set in `fn` is safely readable right after the barrier.
///
/// `fn` must not throw (catch internally and latch an exception_ptr); a
/// participant that abandons the barrier mid-simulation would deadlock the
/// remaining ones, which is why the simulator's shard loops route every
/// exception through a shared error slot instead of unwinding.
///
/// Waiting spins briefly (per-epoch latency matters: a sharded simulation
/// meets once per window, thousands of times per run) and then yields, so
/// oversubscribed hosts — e.g. a one-core CI runner with GPURF_THREADS=4 —
/// degrade to scheduler-paced progress instead of livelock.
class CycleBarrier {
 public:
  explicit CycleBarrier(int participants) : total_(participants) {}

  CycleBarrier(const CycleBarrier&) = delete;
  CycleBarrier& operator=(const CycleBarrier&) = delete;

  template <typename Fn>
  void arrive_and_wait(Fn&& fn) {
    const uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == total_) {
      fn();
      // Reset the arrival count *before* publishing the new epoch: a
      // participant can only re-arrive after it observed the epoch bump.
      arrived_.store(0, std::memory_order_relaxed);
      epoch_.store(epoch + 1, std::memory_order_release);
    } else {
      int spins = 0;
      while (epoch_.load(std::memory_order_acquire) == epoch) {
        if (spins < 1024)
          ++spins;  // saturate: don't overflow during a very long wait
        else
          std::this_thread::yield();
      }
    }
  }

 private:
  const int total_;
  std::atomic<int> arrived_{0};
  std::atomic<uint64_t> epoch_{0};
};

/// RAII: bind `pool` as the calling thread's current pool for the scope.
/// Engines wrap every public entry point in one of these, so the session's
/// configured width applies to all nested parallel_for calls while other
/// threads (and other Engines) stay untouched.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool* pool) : saved_(detail::tl_current_pool) {
    detail::tl_current_pool = pool;
  }
  ~ScopedPool() { detail::tl_current_pool = saved_; }

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* saved_;
};

/// Convenience wrapper over the calling thread's current pool.
inline void parallel_for(size_t n, const std::function<void(size_t)>& fn) {
  ThreadPool::current().parallel_for(n, fn);
}

}  // namespace gpurf::common
