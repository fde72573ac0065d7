#pragma once
// gpurf::Engine — the session-scoped public API of the framework (ISSUE 3,
// job-oriented serving surface since ISSUE 4).
//
// Everything the paper's Fig.-7 flow needs (range analysis -> precision
// tuning -> slice allocation -> timing simulation) is reachable from one
// context object.  An Engine *owns* the resources the free functions used
// to share process-wide:
//
//   * a ThreadPool sized by EngineOptions::threads,
//   * a KernelAnalysis cache (CFG / ipdom / decoded streams),
//   * a pipeline memo + the on-disk precision-map cache directory,
//   * its own instances of the eleven Table-4 workloads,
//   * a GpuConfig and interpreter RunOptions for every simulation it runs.
//
// Two Engines in one process are fully isolated: different thread counts,
// cache directories, GPU models and tuner settings never interact, which
// is what multi-tenant serving and A/B experiments over simulator
// configurations need (see ROADMAP north star).
//
// Environment-variable rule: $GPURF_THREADS and $GPURF_CACHE_DIR are
// *defaults only*, consulted exactly once when an EngineOptions field was
// left unset at Engine construction.  No public entry point reads the
// environment after the Engine exists; reconfiguration means constructing
// another Engine.
//
// Error model: public entry points return Status / StatusOr instead of
// aborting — unknown workload names, malformed kernel text, failed IR
// verification and corrupt cache entries come back as structured errors a
// serving layer can reject per-request.  Internal invariant violations
// still abort (GPURF_ASSERT), as corrupted simulator state must never be
// silently ignored.
//
// Serving surface (ISSUE 4): submit(JobRequest) returns a gpurf::Job — a
// handle with a stable id, a queued/running/done/cancelled/deadline-
// exceeded state machine, cooperative cancel(), a per-request deadline
// that covers queue wait AND execution, a priority (higher first, FIFO
// within a level), and a progress snapshot (pipeline stage, tuner
// pass/evaluations, simulated cycles).  The executor's in-flight set is
// bounded by EngineOptions::max_inflight: a deadline-less submit blocks
// for a slot (backpressure), a submit with a deadline gives up when the
// deadline passes and returns the job already in kDeadlineExceeded.
// Engine-level metrics (cache hit counters, queue depth, jobs by terminal
// state, wall times) export via metrics_json();
// api/server.hpp speaks the whole surface over a local socket (gpurfd).

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/job.hpp"
#include "api/metrics.hpp"
#include "api/status.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "exec/kernel_analysis.hpp"
#include "sim/gpu.hpp"
#include "tuning/tuner.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf {

namespace detail {
struct CampaignSweep;  // one campaign kind's part of a sweep (engine.cpp)
}  // namespace detail

/// Construction-time configuration.  Every field left at its default is
/// resolved once in the Engine constructor (environment variables, then
/// hardware defaults); the resolved values are visible via
/// Engine::options() and never change for the Engine's lifetime.
struct EngineOptions {
  /// Thread-pool width; <= 0 resolves to $GPURF_THREADS, else hardware
  /// concurrency.
  int threads = 0;
  /// On-disk precision-map cache directory; empty resolves to
  /// $GPURF_CACHE_DIR, else ".gpurf_cache".
  std::string cache_dir;
  /// Persist tuned precision maps across processes (versioned entries;
  /// stale/corrupt ones are rejected and re-tuned).
  bool use_disk_cache = true;
  /// Tuner search knobs.  `level` is ignored (the pipeline always tunes
  /// both paper thresholds); speculate_batch <= 0 resolves to `threads`;
  /// `cancel` is ignored (tokens are per-job).
  tuning::TunerOptions tuner;
  /// Interpreter strategy for every functional replay (SoA warp execution,
  /// block-parallel grids).  `thread_insts` and `cancel` are ignored.
  workloads::RunOptions run;
  /// GPU model for occupancy and timing simulation.
  sim::GpuConfig gpu = sim::GpuConfig::fermi_gtx480();
  /// Multi-SM shard count for every timing simulation this Engine runs
  /// (ISSUE 5): SMs tick in parallel on the Engine's pool workers with a
  /// deterministic barrier once per window of max(1, min(lat_l1_hit,
  /// lat_tex_hit)) cycles; SimStats are bit-identical at every
  /// value.  <= 0 resolves to `threads`; 1 forces the serial schedule,
  /// which a simulation also takes when the pool is busy (one sharded
  /// simulation at a time per Engine; fan-outs from other jobs meanwhile
  /// run inline on their callers).  Overridable per request via
  /// SimRequest::sim_shards.
  int sim_shards = 0;
  /// Async executor width; <= 0 resolves to `threads`.  Executor threads
  /// run submitted jobs concurrently; each job fans its inner work out on
  /// the Engine's pool.
  int async_workers = 0;
  /// Bound on queued + running async jobs; 0 resolves to
  /// 2 * async_workers.  A full queue blocks deadline-less submitters;
  /// submitters with a deadline fail over to kDeadlineExceeded once it
  /// passes.
  size_t max_inflight = 0;

  // Builder-style setters, chainable:
  //   Engine e(EngineOptions().with_threads(4).with_disk_cache(false));
  EngineOptions& with_threads(int n) { threads = n; return *this; }
  EngineOptions& with_cache_dir(std::string d) {
    cache_dir = std::move(d);
    return *this;
  }
  EngineOptions& with_disk_cache(bool on) { use_disk_cache = on; return *this; }
  EngineOptions& with_tuner(const tuning::TunerOptions& t) {
    tuner = t;
    return *this;
  }
  EngineOptions& with_run_options(const workloads::RunOptions& r) {
    run = r;
    return *this;
  }
  EngineOptions& with_gpu(const sim::GpuConfig& g) { gpu = g; return *this; }
  EngineOptions& with_sim_shards(int n) { sim_shards = n; return *this; }
  EngineOptions& with_async_workers(int n) { async_workers = n; return *this; }
  EngineOptions& with_max_inflight(size_t n) { max_inflight = n; return *this; }
};

class Engine {
 public:
  explicit Engine(EngineOptions opts = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Options after construction-time resolution (threads/cache_dir/...
  /// filled in).
  const EngineOptions& options() const { return opts_; }

  // ------------------------------------------------------------ workloads

  /// Names of the bundled Table-4 workloads, in the paper's order.
  std::vector<std::string> workload_names() const;

  /// Look up a bundled workload by name (NotFound for unknown names).
  StatusOr<const workloads::Workload*> workload(std::string_view name) const;

  // ------------------------------------------------------------- pipeline

  /// Run (or fetch this Engine's memoized) static compression pipeline.
  /// The pointer stays valid for the Engine's lifetime.
  StatusOr<const workloads::PipelineResult*> pipeline(
      const workloads::Workload& w);
  StatusOr<const workloads::PipelineResult*> pipeline(std::string_view name);

  /// Compute a pipeline fresh, bypassing both the memo and the disk cache
  /// (benches / determinism comparisons).
  StatusOr<workloads::PipelineResult> compute_pipeline(
      const workloads::Workload& w);

  /// JSON snapshot of the (memoized) pipeline result.
  StatusOr<std::string> pipeline_json(std::string_view name);

  // ------------------------------------------------------------- timing sim

  /// Cycle-level simulation of one workload launch under this Engine's
  /// GpuConfig.  Runs the pipeline first if not yet memoized.
  StatusOr<sim::SimResult> simulate(const workloads::Workload& w,
                                    const SimRequest& req = {});
  StatusOr<sim::SimResult> simulate(std::string_view name,
                                    const SimRequest& req = {});
  StatusOr<sim::SimResult> simulate(const workloads::Workload& w,
                                    workloads::SimMode mode) {
    SimRequest r;
    r.mode = mode;
    return simulate(w, r);
  }
  StatusOr<sim::SimResult> simulate(std::string_view name,
                                    workloads::SimMode mode) {
    SimRequest r;
    r.mode = mode;
    return simulate(name, r);
  }

  // -------------------------------------------------------- custom kernels

  /// Assemble kernel text (InvalidArgument on parse errors).
  StatusOr<ir::Kernel> parse_kernel(std::string_view asm_text) const;

  /// IR verification (FailedPrecondition with the verifier message).
  /// Also enforces dataflow soundness (PR 9): a register read on some
  /// path before any definition — Dataflow::undefined_uses, the entry
  /// block's live-in set — fails with kFailedPrecondition naming
  /// the registers.  `allow_undefined_reads` opts out for deliberately
  /// ill-formed inputs (fuzzers, lint-only flows).
  Status verify_kernel(const ir::Kernel& k,
                       bool allow_undefined_reads = false) const;

  /// Instruction-granular lint report (PR 9): undefined reads, dead
  /// writes, never-read registers, static vs. allocator pressure, linear
  /// live intervals.  Never fails on ill-formed dataflow — that is what
  /// the report is *for* — only on malformed IR.
  ///
  /// Since ISSUE 10 the report also carries the static memory-access
  /// section: in-bounds proof coverage, definite/possible OOB findings
  /// and the per-block disjointness verdicts.  The workload overloads
  /// analyse a sample instance, so global OOB classification sees the
  /// real launch geometry, parameter words and memory image; the bare
  /// kernel overload runs at the default launch with no global-memory
  /// context (shared-memory findings only).
  StatusOr<analysis::KernelReport> analyze(const ir::Kernel& k);
  StatusOr<analysis::KernelReport> analyze(const workloads::Workload& w);
  StatusOr<analysis::KernelReport> analyze(std::string_view workload_name);

  /// Precision-tune a custom kernel against a caller-supplied probe, using
  /// this Engine's tuner options and thread pool.
  StatusOr<tuning::TuneResult> tune(const ir::Kernel& k,
                                    tuning::QualityProbe& probe,
                                    quality::QualityLevel level);

  // --------------------------------------------------------------- Job API

  /// Enqueue a pipeline / simulation job.  The returned handle is live
  /// immediately: id(), state(), cancel(), wait_for(), progress().
  /// Scheduling: highest priority first, FIFO within a level.  With a
  /// deadline, the submit itself gives up once the deadline passes while
  /// waiting for an in-flight slot (the job comes back already
  /// kDeadlineExceeded); without one it blocks for a slot (backpressure).
  /// Execution errors (unknown workload, failed verification, ...) land in
  /// Job::status(), not here.
  Job submit(JobRequest req);

  /// Look up a previously submitted job by id (NotFound once it has been
  /// evicted — the registry retains all live jobs and the most recent
  /// terminal ones).  Ids run 1, 2, 3, ... in submission order, campaign
  /// children included.
  StatusOr<Job> find_job(uint64_t id) const;

  /// Jobs currently queued or running on the async executor.
  size_t inflight() const;

  /// Graceful shutdown helper (PR 6): cancel every still-queued job
  /// immediately, let running jobs finish within `budget_ms`, then
  /// cooperatively cancel the stragglers and wait for them to stop at
  /// their next checkpoint.  Returns OK when everything finished inside
  /// the budget, DeadlineExceeded when stragglers had to be cancelled.
  /// The Engine stays usable afterwards; gpurfd calls this between
  /// stopping its accept loop and destroying the Engine (--drain-ms).
  Status drain(int64_t budget_ms);

  /// Point-in-time metrics snapshot as a JSON object: cache counters
  /// (pipeline memo, kernel-analysis cache, disk cache), queue depth,
  /// jobs by terminal state, cumulative job wall time, and per-stage
  /// latency summaries.  Embedded in every gpurfd response envelope.
  std::string metrics_json() const;

  /// The same snapshot as a value.  The `serialize` histogram is the
  /// Server's to fill (it adds its own before serialising); it comes back
  /// empty here.
  MetricsSnapshot metrics_snapshot() const;

 private:
  /// Bind this Engine's pool + analysis cache to the calling thread for
  /// the duration of one public call (or one async job).
  class Scope {
   public:
    explicit Scope(Engine& e)
        : pool_(&e.pool_), cache_(&e.analysis_cache_) {}

   private:
    common::ScopedPool pool_;
    exec::ScopedAnalysisCache cache_;
  };

  /// Jobs to retain in the id registry; terminal jobs are evicted oldest-
  /// first beyond this (live jobs are never evicted).
  static constexpr size_t kMaxRetainedJobs = 1024;

  StatusOr<sim::SimResult> simulate_impl(const workloads::Workload& w,
                                         const SimRequest& req,
                                         common::CancelToken* cancel);
  StatusOr<const workloads::PipelineResult*> pipeline_impl(
      const workloads::Workload& w, common::CancelToken* cancel);
  /// Kernel report with its static-memory section: proven against the
  /// workload's sample instance when `w` is set, else classified at the
  /// default launch without instance context.
  StatusOr<analysis::KernelReport> analyze_impl(const ir::Kernel& k,
                                                const workloads::Workload* w);

  void ensure_executor();
  void executor_loop();
  void run_job(detail::JobImpl& job);
  /// Joins the coordinators that parked their id on finished_campaigns_.
  void reap_campaigns() GPURF_EXCLUDES(qmu_);
  /// Campaign orchestrator thread body: starts the job, runs its kind's
  /// sweep through run_sweep and finalizes it.
  void run_campaign(detail::JobImpl& job);
  /// The seeded sweep driver shared by every campaign kind: child
  /// submission with the rest of the parent's deadline, collection with
  /// checkpoint polling, orphan cancellation and the status mapping.
  Status run_sweep(detail::JobImpl& job, detail::CampaignSweep& sweep);
  void release_slot();
  void evict_terminal_jobs_locked() GPURF_REQUIRES(qmu_);

  EngineOptions opts_;
  common::ThreadPool pool_;
  exec::AnalysisCache analysis_cache_;
  workloads::PipelineStats pipeline_stats_;
  workloads::PipelineCache pipelines_;
  std::vector<std::unique_ptr<workloads::Workload>> registry_;
  EngineMetrics metrics_;

  // Async executor (threads spawned lazily on first submit).  The queue
  // state is capability-annotated (ISSUE 10 satellite): the CI clang job
  // builds with -Werror=thread-safety, so an access outside qmu_ is a
  // compile error, not a review comment.
  mutable common::Mutex qmu_;
  std::condition_variable qcv_;    ///< wakes executor threads
  std::condition_variable slot_cv_;  ///< wakes blocked submitters
  std::vector<std::shared_ptr<detail::JobImpl>> queue_
      GPURF_GUARDED_BY(qmu_);  ///< pending jobs
  std::unordered_map<uint64_t, std::shared_ptr<detail::JobImpl>> jobs_
      GPURF_GUARDED_BY(qmu_);
  uint64_t next_job_id_ GPURF_GUARDED_BY(qmu_) = 1;
  uint64_t next_run_seq_ GPURF_GUARDED_BY(qmu_) = 1;
  size_t inflight_ GPURF_GUARDED_BY(qmu_) = 0;  ///< queued + running
  bool stopping_ GPURF_GUARDED_BY(qmu_) = false;
  bool executor_started_ GPURF_GUARDED_BY(qmu_) = false;
  std::vector<std::thread> executors_;
  /// Campaign orchestrator threads by job id (one per campaign job).
  /// They bypass the executor queue — a campaign is a coordinator that
  /// mostly waits on its child simulate jobs, so parking it on an executor
  /// worker could deadlock a small pool.  A finished coordinator parks its
  /// id on finished_campaigns_ and the next campaign submit joins it, so a
  /// long-lived Engine holds only live coordinators.  The rest are joined
  /// in the destructor *before* the executors: a stopping campaign cancels
  /// its children, which the draining executors then finalize.
  std::unordered_map<uint64_t, std::thread> campaign_threads_
      GPURF_GUARDED_BY(qmu_);
  std::vector<uint64_t> finished_campaigns_ GPURF_GUARDED_BY(qmu_);
};

}  // namespace gpurf
