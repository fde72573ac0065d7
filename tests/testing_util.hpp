#pragma once
// Helpers shared by the test binaries (each test is its own executable, so
// anything two suites need lives here rather than being copy-pasted).

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "sim/stats.hpp"

namespace gpurf::testing {

/// Field-by-field SimStats comparison with per-field failure messages —
/// the readable face of SimStats::operator== for the sharded-simulator
/// determinism suites (a bare == would say only "not equal").
inline void expect_same_sim_stats(const gpurf::sim::SimStats& a,
                                  const gpurf::sim::SimStats& b,
                                  const std::string& what = {}) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.thread_insts, b.thread_insts) << what;
  EXPECT_EQ(a.warp_insts, b.warp_insts) << what;
  EXPECT_EQ(a.blocks_run, b.blocks_run) << what;
  EXPECT_EQ(a.l1.accesses, b.l1.accesses) << what;
  EXPECT_EQ(a.l1.misses, b.l1.misses) << what;
  EXPECT_EQ(a.tex.accesses, b.tex.accesses) << what;
  EXPECT_EQ(a.tex.misses, b.tex.misses) << what;
  EXPECT_EQ(a.l2.accesses, b.l2.accesses) << what;
  EXPECT_EQ(a.l2.misses, b.l2.misses) << what;
  EXPECT_EQ(a.stall_scoreboard, b.stall_scoreboard) << what;
  EXPECT_EQ(a.stall_no_cu, b.stall_no_cu) << what;
  EXPECT_EQ(a.stall_barrier, b.stall_barrier) << what;
  EXPECT_EQ(a.stall_empty, b.stall_empty) << what;
  EXPECT_EQ(a.operand_fetches, b.operand_fetches) << what;
  EXPECT_EQ(a.double_fetches, b.double_fetches) << what;
  EXPECT_EQ(a.conversions, b.conversions) << what;
  // Defaulted operator== covers any counter the list above misses.
  EXPECT_TRUE(a == b) << what << " (field added to SimStats but not here?)";
}

/// RAII: resize the shared thread pool, restore the previous width on
/// scope exit — lets one process compare serial and parallel engine runs.
class PoolWidth {
 public:
  explicit PoolWidth(int n)
      : saved_(gpurf::common::ThreadPool::instance().size()) {
    gpurf::common::ThreadPool::instance().resize(n);
  }
  ~PoolWidth() { gpurf::common::ThreadPool::instance().resize(saved_); }

  PoolWidth(const PoolWidth&) = delete;
  PoolWidth& operator=(const PoolWidth&) = delete;

 private:
  int saved_;
};

/// RAII: hold `pool` busy from a background thread — one fan-out over all
/// of its threads whose shards block until release() (or scope exit).  The
/// constructor returns once every shard runs, so the pool is busy by then.
/// Needs a pool at least two threads wide.
class HeldPool {
 public:
  explicit HeldPool(gpurf::common::ThreadPool& pool) {
    std::promise<void> held;
    std::future<void> ready = held.get_future();
    holder_ = std::thread([this, &pool, held = std::move(held)]() mutable {
      const int n = pool.size();
      std::atomic<int> started{0};
      pool.parallel_for(static_cast<size_t>(n), [&](size_t) {
        if (started.fetch_add(1) + 1 == n) held.set_value();
        latch_.wait();
      });
    });
    ready.wait();
  }
  ~HeldPool() { release(); }

  void release() {
    if (!holder_.joinable()) return;
    release_.set_value();
    holder_.join();
  }

  HeldPool(const HeldPool&) = delete;
  HeldPool& operator=(const HeldPool&) = delete;

 private:
  std::promise<void> release_;
  std::shared_future<void> latch_ = release_.get_future().share();
  std::thread holder_;
};

}  // namespace gpurf::testing
