// The host-speed probe and the op timer built on it.
//
// The probe is a fixed computation that uses no gpurf code (integer
// hashing, a floating-point chain and read-modify-writes in a 1 MiB table
// per thread) run on as many threads as the measured program computes on,
// all at once, in the shape the program's work takes: an equal share per
// thread that waits for the slowest (kJoin: a parallel_for, a barrier), or
// small chunks of the same total taken from a common counter (kShared:
// independent jobs, where a slow vCPU just takes fewer of them).
// On a shared host the same work takes more or less time from one minute,
// or one second, to the next; timing the probe right before and right after
// each op of a workload tells the launcher how fast the host was while the
// op ran, and it scales the op's seconds to a reference speed.  Nothing
// here changes when the program does.
//
// The probe reports its wall time and the CPU time one of its threads
// needed (the mean over them).
// Wall time grows both when the host runs each instruction slower and when
// it preempts the guest's vCPUs; CPU time grows only with the first, and
// it is the one a program's CPU seconds are scaled by.

#include <time.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace pb {
namespace {

constexpr uint64_t kProbeIters = 25'000'000;  // per thread: about 0.07 s
constexpr uint64_t kChunks = 16;              // per thread
constexpr size_t kTableWords = size_t{1} << 18;

std::atomic<uint64_t> g_sink{0};

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// One probe thread: kChunks chunks of its own, or (with `next`) chunks
/// taken from the shared counter until `total` are taken.
void probe_work(uint64_t thread_seed, std::atomic<uint64_t>* next,
                uint64_t total, double* cpu_s) {
  const double c0 = thread_cpu_s();
  std::vector<uint32_t> table(kTableWords);
  for (size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<uint32_t>(i * 2654435761u);
  uint64_t x = 0x9e3779b97f4a7c15ull ^ thread_seed;
  uint32_t acc = 0;
  double f = 1.0;
  for (uint64_t own = 0;; ++own) {
    if (next ? next->fetch_add(1) >= total : own == kChunks) break;
    for (uint64_t i = 0; i < kProbeIters / kChunks; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += table[x & (kTableWords - 1)];
      table[(x >> 20) & (kTableWords - 1)] ^= acc;
      f = f * 1.0000001 + static_cast<double>(acc & 7) * 1e-9;
    }
  }
  g_sink.fetch_add(acc + static_cast<uint64_t>(f), std::memory_order_relaxed);
  *cpu_s = thread_cpu_s() - c0;
}

}  // namespace

ProbeTime host_probe(int threads, ProbeShape shape) {
  std::vector<double> cpu(static_cast<size_t>(threads), 0.0);
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t>* shared = shape == ProbeShape::kShared ? &next : nullptr;
  const uint64_t total = kChunks * static_cast<uint64_t>(threads);
  const double t0 = now_s();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back(probe_work, static_cast<uint64_t>(t + 1), shared, total,
                      &cpu[t]);
  for (auto& th : pool) th.join();
  ProbeTime p;
  p.wall_s = now_s() - t0;
  for (double c : cpu) p.cpu_s += c / threads;
  return p;
}

ProbedOps::ProbedOps(Report& rep, int threads, ProbeShape shape,
                     std::function<double()> cpu_s)
    : rep_(rep), threads_(threads), shape_(shape), cpu_s_(std::move(cpu_s)) {
  // An idle vCPU comes back slowly: the first probe only warms the host.
  (void)host_probe(threads_, shape_);
  probe();
}

void ProbedOps::probe() {
  if (sampler_) sampler_->pause(true);
  const ProbeTime p = host_probe(threads_, shape_);
  if (sampler_) sampler_->pause(false);
  rep_.samples["probe.wall_s"].push_back(p.wall_s);
  rep_.samples["probe.cpu_s"].push_back(p.cpu_s);
}

void ProbedOps::begin() {
  t0_ = now_s();
  c0_ = cpu_s_();
}

void ProbedOps::end() {
  const double wall = now_s() - t0_;
  const double cpu = cpu_s_() - c0_;
  wall_s_ += wall;
  cpu_s_total_ += cpu;
  rep_.samples["op.wall_s"].push_back(wall);
  rep_.samples["op.cpu_s"].push_back(cpu);
  probe();
}

}  // namespace pb
