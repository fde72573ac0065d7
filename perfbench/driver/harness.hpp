#pragma once
// Shared plumbing of the benchmark driver: the span recorder behind the
// traced run, host context (CPU set, CPUs actually used, rusage), the
// per-process report every workload fills, seeded input generation and the
// reference-value checks.
//
// The driver only measures and checks; statistics over the raw samples
// (percentiles, self time, the rate-ladder rule) live in perfbench/stats.py
// so there is one tested implementation of them.

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hpp"

namespace pb {

// ------------------------------------------------------------------- time

/// Seconds on the monotonic clock.  std::chrono::steady_clock is
/// CLOCK_MONOTONIC on Linux, the clock Python's time.monotonic() reads, so
/// the launcher's spawn timestamp and the driver's readings compare.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ----------------------------------------------------------------- tracing

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  uint64_t tid = 0;
};

/// Process-wide span store.  Spans are coarse (one per call into a layer's
/// public function), so a mutex-guarded vector is enough; recording is off
/// unless the traced run enables it.
class Tracer {
 public:
  static Tracer& get();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t open(const char* name, double start_s);
  void close(uint64_t id, double end_s);

  /// Write every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_
  uint64_t next_id_ = 1;           ///< guarded by mu_
};

/// RAII span around one call into a layer.  Always times the call (the
/// untraced run needs the durations too); records it only when tracing.
/// Parents come from a per-thread stack of open spans.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close now (idempotent) and return the duration in seconds.
  double stop();

 private:
  double start_s_;
  double dur_s_ = -1.0;
  uint64_t id_ = 0;
};

// -------------------------------------------------------------------- host

int nproc();
/// CPUs this process may run on (sched_getaffinity).
std::vector<int> allowed_cpus();

struct Usage {
  double cpu_s = 0.0;        ///< user + sys
  double peak_rss_mb = 0.0;  ///< ru_maxrss
};
Usage self_usage();

/// CPU seconds consumed so far by process `pid`, from /proc/<pid>/stat.
double proc_cpu_s(pid_t pid);

/// Samples /proc/<pid>/task/*/stat every 50 ms and records the
/// CPUs on which a thread accumulated CPU time since the previous sample
/// (the "processor" field names the CPU a thread last ran on).
class CpuSampler {
 public:
  explicit CpuSampler(pid_t pid);
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  void stop();
  std::vector<int> cpus_used() const;
  /// While paused nothing is recorded (the host-speed probe's threads run
  /// then, and they are not the program's).
  void pause(bool paused) { paused_.store(paused, std::memory_order_relaxed); }

 private:
  void loop();
  void sample();

  pid_t pid_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::map<int, uint64_t> last_ticks_;  ///< tid -> utime+stime (sampler only)
  mutable std::mutex mu_;
  std::set<int> used_;  ///< guarded by mu_
  std::thread thread_;  ///< declared last: uses every member above
};

// ---------------------------------------------------------------- inputs

/// SplitMix64 stream: the benchmark's own generator, so the inputs a seed
/// produces never change when the program's RNG does.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next();
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

// ----------------------------------------------------------------- report

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double t0 = 0.0;  ///< monotonic time the launcher spawned this process
  std::string work_dir;    ///< per-checkout scratch (cache, sockets, spans)
  std::string ref_dir;     ///< reference values
  std::string gpurfd;      ///< daemon binary (serve-mixed)
  std::string spans_path;  ///< traced run: span output file
  bool bless = false;      ///< write reference values instead of checking
  bool setup_only = false; ///< stop after set-up (setup_s samples)
};

/// Everything one driver process measured.  Printed as a single JSON line.
struct Report {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  double cpu_util = 0.0;
  std::vector<int> cpus_used;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, double> layers;
  std::map<std::string, std::vector<double>> samples;

  /// Count one attempted op; a non-empty `error` marks it failed.
  void op(const std::string& error = {});
  std::string to_json(const Options& o) const;
};

// ------------------------------------------------------------- references

/// FNV-1a 64 of a string, as 16 hex digits.
std::string digest(const std::string& s);

/// Reference values of one workload: a flat JSON object key -> string,
/// read from <ref_dir>/<name>.json.  In bless mode expect() records the
/// actual value instead and save() writes the file back.
class References {
 public:
  References(const Options& o, const std::string& name);
  /// Compare `actual` with the stored value; returns an error message on
  /// mismatch or a missing key, empty when equal.
  std::string expect(const std::string& key, const std::string& actual);
  bool save() const;

 private:
  std::string path_;
  bool bless_;
  std::mutex mu_;
  std::map<std::string, std::string> values_;  ///< guarded by mu_
};

// -------------------------------------------------------------- host speed

struct ProbeTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< per thread (the mean over the probe's threads)
};

/// How the probe's threads share its work, after the program's own shape.
enum class ProbeShape {
  kJoin,    ///< equal shares, wait for the slowest (parallel_for, barrier)
  kShared,  ///< chunks from a common counter (independent jobs on a pool)
};

/// One run of the host-speed probe (host_probe.cpp): a fixed computation
/// with no gpurf code on `threads` threads.
ProbeTime host_probe(int threads, ProbeShape shape);

/// Times a workload's ops with host-speed probes among them: one before the
/// first op and one after every op, so the launcher can scale the ops'
/// seconds by the host speed measured while they ran.  Records the samples
/// "op.wall_s", "op.cpu_s", "probe.wall_s" and "probe.cpu_s" in the report.
/// The probe runs on `threads` threads, the program's compute width, in the
/// program's shape; `cpu_s` reads the CPU seconds of the measured program.
class ProbedOps {
 public:
  ProbedOps(Report& rep, int threads, ProbeShape shape,
            std::function<double()> cpu_s);
  /// Pause `sampler` during every later probe.
  void exclude_from(CpuSampler& sampler) { sampler_ = &sampler; }
  void begin();
  void end();
  /// Totals over the ops so far, probes left out.
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_total_; }

 private:
  void probe();

  Report& rep_;
  int threads_;
  ProbeShape shape_;
  std::function<double()> cpu_s_;
  CpuSampler* sampler_ = nullptr;
  double t0_ = 0.0;
  double c0_ = 0.0;
  double wall_s_ = 0.0;
  double cpu_s_total_ = 0.0;
};

/// The workloads.
Report run_tune_cold(const Options& o);
Report run_sim_sweep(const Options& o);
Report run_serve_mixed(const Options& o);

/// Canonical text of a parsed JSON value: object keys sorted, numbers
/// printed round-trip exact, members named `drop_key` left out.  Two values
/// are deep_equal exactly when their canonical texts are equal (with no
/// key dropped).
std::string canonical_json(const gpurf::api::JsonValue& v,
                           const std::string& drop_key = {});

}  // namespace pb
