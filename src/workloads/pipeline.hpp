#pragma once
// The full static compression pipeline of Fig. 7, packaged per workload:
//
//   range analysis (§4.2)  ->  integer bitwidths
//   precision tuning (§4.1) -> float formats, per quality level
//   slice allocation (§4.3) -> register pressure + indirection table
//
// plus helpers to derive simulator launch specs for the paper's
// experiment configurations (original / compressed / artificial).
//
// Ownership model (ISSUE 3): pipeline results memoize inside a
// PipelineCache instance, and the expensive tuned precision maps persist
// in a versioned on-disk cache under PipelineOptions::cache_dir.  The
// public entry point is gpurf::Engine (src/api/engine.hpp), which owns one
// PipelineCache per session — two Engines with different options never
// share state.  compute_pipeline() is the raw, memo-free computation used
// by benches and determinism tests.

#include <atomic>
#include <condition_variable>
#include <memory>
#include <map>
#include <mutex>
#include <string>

#include "alloc/slice_alloc.hpp"
#include "analysis/range_analysis.hpp"
#include "api/status.hpp"
#include "common/thread_annotations.hpp"
#include "sim/gpu.hpp"
#include "tuning/tuner.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

/// Register pressure under each framework combination (Fig. 9's six bars).
struct PressureReport {
  uint32_t original = 0;
  uint32_t narrow_int = 0;
  uint32_t narrow_float_perfect = 0;
  uint32_t narrow_float_high = 0;
  uint32_t both_perfect = 0;
  uint32_t both_high = 0;
};

struct PipelineResult {
  analysis::RangeAnalysisResult ranges;
  gpurf::tuning::TuneResult tune_perfect;
  gpurf::tuning::TuneResult tune_high;
  PressureReport pressure;
  gpurf::alloc::AllocationResult alloc_both_perfect;
  gpurf::alloc::AllocationResult alloc_both_high;
};

/// Directory for the on-disk precision-map cache when PipelineOptions does
/// not name one: $GPURF_CACHE_DIR if set, else ".gpurf_cache".  The
/// environment is consulted exactly once per process (the env-var-as-
/// default rule: Engine construction captures it; nothing re-reads the
/// environment afterwards).
const std::string& default_cache_dir();

/// Cache-observability counters for the pipeline layer (ISSUE 4 metrics
/// satellite).  Relaxed atomics bumped on the memo / disk-cache paths; an
/// Engine owns one instance and merges it into metrics_json().
struct PipelineStats {
  std::atomic<uint64_t> memo_hits{0};    ///< PipelineCache served a result
  std::atomic<uint64_t> memo_misses{0};  ///< PipelineCache computed fresh
  std::atomic<uint64_t> disk_cache_hits{0};
  std::atomic<uint64_t> disk_cache_stale_rejections{0};  ///< kDataLoss loads
  std::atomic<uint64_t> disk_cache_write_failures{0};    ///< failed stores
  /// Latched once a store fails (unwritable/full cache dir): the session
  /// stops touching the disk cache and keeps serving from memory — a
  /// degraded environment must never fail submit paths (PR 6 satellite).
  std::atomic<bool> disk_cache_disabled{false};
  /// Candidates submitted to the session's workload probes (tuner chains,
  /// the full-precision probe and final validations alike).
  std::atomic<uint64_t> tuner_candidates{0};
  /// Submitted candidates the probe never finished scoring: speculative
  /// chain members past the first failure that were never replayed or were
  /// abandoned mid-replay.
  std::atomic<uint64_t> tuner_candidates_doomed{0};
};

/// Pipeline computation knobs.  An Engine fills every field from its
/// EngineOptions at construction; default-constructed options reproduce
/// the legacy env-driven behaviour.
struct PipelineOptions {
  /// Load/store tuned precision maps in the on-disk cache.
  bool use_disk_cache = true;
  /// Cache directory; empty means default_cache_dir().
  std::string cache_dir;
  /// Base tuner options (quality level is set per tuning run; a
  /// speculate_batch <= 0 resolves to the current thread pool's width).
  gpurf::tuning::TunerOptions tuner;
  /// Interpreter strategy for every functional replay the tuner's quality
  /// probes perform (thread_insts is ignored).
  RunOptions run;
  /// Cache counters to bump (nullable).  Not owned; must outlive every
  /// compute_pipeline / PipelineCache::get call using these options.
  PipelineStats* stats = nullptr;
};

/// Compute a pipeline result directly — no memo, no Engine.  Benches and
/// determinism tests use this for fresh, controlled runs.
PipelineResult compute_pipeline(const Workload& w,
                                const PipelineOptions& opt = {});

/// Build the workload's quality probe — the same probe compute_pipeline
/// tunes against (every sample variant replayed functionally, scores
/// combined pessimistically).  Public so a caller can drive tune_precision
/// on a workload directly, outside any PipelineCache (the cold-tuning
/// benchmark does).  Construction replays every sample variant once to
/// build the references; `run.cancel` threads into those replays and all
/// later evaluations.  `stats` (nullable, not owned) receives the tuner
/// candidate counters.
std::unique_ptr<gpurf::tuning::QualityProbe> make_workload_probe(
    const Workload& w, const RunOptions& run, PipelineStats* stats = nullptr);

/// Session-scoped memo of pipeline results, keyed by workload name.
/// Independent workloads may be requested from different threads
/// concurrently; each workload's pipeline is computed exactly once per
/// cache instance.  gpurf::Engine owns one of these per session.
class PipelineCache {
 public:
  explicit PipelineCache(PipelineOptions opt = {}) : opt_(std::move(opt)) {}

  /// Run (or fetch the memoized) pipeline for a workload.  `cancel`
  /// applies to a computation this call performs itself: its checkpoints
  /// thread into the tuner and the functional replays, and a stop unwinds
  /// as common::CancelledError *before* the memo entry is published — the
  /// computing latch resets and one waiter is woken to recompute with its
  /// own token, so a cancelled job can never leave a partial memo and can
  /// never strand other callers.  A caller that merely waits on another
  /// thread's in-flight computation is not interruptible (it blocks until
  /// the winner publishes or unwinds).
  ///
  /// The latch is a hand-rolled mutex + condvar state machine rather than
  /// std::once_flag: the exceptional-unwind path of std::call_once is
  /// exactly the part of the contract sanitizer runtimes get wrong
  /// (a waiter parked in the interceptor is never requeued after the
  /// winner throws, deadlocking every later caller), and the cancel path
  /// above throws by design.
  const PipelineResult& get(const Workload& w,
                            gpurf::common::CancelToken* cancel = nullptr);

  const PipelineOptions& options() const { return opt_; }

 private:
  struct Entry {
    gpurf::common::Mutex mu;
    std::condition_variable cv;
    /// A caller is inside compute_pipeline.
    bool computing GPURF_GUARDED_BY(mu) = false;
    /// Set once, then immutable (published under mu before any waiter
    /// can observe it).
    std::unique_ptr<PipelineResult> result GPURF_GUARDED_BY(mu);
  };

  PipelineOptions opt_;
  gpurf::common::Mutex mu_;  ///< guards the map shape only
  std::map<std::string, Entry> cache_
      GPURF_GUARDED_BY(mu_);  ///< node-stable addresses
};

// ------------------------------------------------------- on-disk pmap cache
//
// Tuned precision maps are the only expensive artifact (hundreds of
// functional probes), so they persist across processes.  Entries are
// versioned: the header records the cache schema version, the Table-3
// format-table version (fp::kFormatTableVersion) and the kernel's content
// fingerprint, and loading rejects any mismatch with a non-OK Status
// instead of silently reinterpreting stale bits.

/// Stable content fingerprint of a kernel (FNV-1a over its printed text):
/// it contains no addresses and no implementation-defined hashing, so it
/// is comparable across processes, builds and standard libraries.
uint64_t kernel_cache_fingerprint(const Workload& w);

/// Path of the workload's cache entry inside `dir`.
std::string pmap_cache_path(const Workload& w, const std::string& dir);

/// Load the tuned perfect/high precision maps for `w` from `dir`.
///   OK          — maps loaded into `perfect` / `high`;
///   kNotFound   — no cache entry (expected on first run);
///   kDataLoss   — entry exists but is unversioned, stale (fingerprint or
///                 format-table mismatch) or corrupt; callers re-tune.
gpurf::Status load_pmap_cache(const Workload& w, const std::string& dir,
                              gpurf::tuning::TuneResult& perfect,
                              gpurf::tuning::TuneResult& high);

/// Store tuned precision maps (best effort; returns non-OK on I/O failure).
gpurf::Status store_pmap_cache(const Workload& w, const std::string& dir,
                               const gpurf::tuning::TuneResult& perfect,
                               const gpurf::tuning::TuneResult& high);

// ------------------------------------------------------------- simulation

/// Experiment configurations of §6.
enum class SimMode {
  kOriginal,          ///< baseline RF, original pressure
  kCompressedPerfect, ///< proposed RF, perfect-quality compression
  kCompressedHigh,    ///< proposed RF, high-quality compression
};

/// Assemble a timing-simulation launch for a workload instance.  The
/// instance must outlive the returned spec (it borrows memory/textures).
gpurf::sim::KernelLaunchSpec make_launch_spec(const Workload& w,
                                              Workload::Instance& inst,
                                              const PipelineResult& pr,
                                              SimMode mode);

/// Compression config matching the mode (baseline vs. paper default).
gpurf::sim::CompressionConfig make_compression_config(SimMode mode);

}  // namespace gpurf::workloads
