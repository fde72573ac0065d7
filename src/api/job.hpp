#pragma once
// First-class jobs on the Engine's async executor (ISSUE 4 tentpole).
//
// PR 3's async API returned bare std::futures: no
// identity, no way to abort a multi-second tuning run, no visibility into
// where a request is stuck, and strict FIFO ordering.  A Job replaces that
// with a serving-grade handle:
//
//   * stable id — addressable across the gpurfd wire protocol;
//   * state machine — queued -> running -> {done, cancelled,
//     deadline-exceeded}; a failed run is `done` with a non-OK status;
//   * cancel() — cooperative; the worker observes it at its next
//     checkpoint (between tuner probe batches, between pipeline stages,
//     every few thousand simulated cycles), so a cancelled job never
//     leaves a partially-written memo or disk-cache entry;
//   * per-request deadline — applies to queue wait AND execution: a full
//     in-flight queue no longer blocks submitters past their deadline, and
//     a running job stops at its next checkpoint once the deadline passes;
//   * priority — higher runs first; FIFO within a priority level;
//   * progress() — pipeline stage, tuner pass/evaluations, simulated
//     cycles, wall time, and the global run sequence number.
//
// The handle is a shared_ptr view onto state owned jointly with the
// Engine: it stays valid after the job finishes and (for terminal jobs)
// after the Engine is destroyed.

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "common/cancel.hpp"
#include "sim/gpu.hpp"
#include "workloads/pipeline.hpp"

namespace gpurf {

/// Permanent-fault injection for one simulation (PR 6).  The Engine
/// generates rf::FaultMap::generate(seed, density), runs the slice
/// allocator fault-aware (redirection + graceful spill) and reports
/// coverage/degradation in SimResult::fault.  density <= 0 disables
/// injection entirely (bit-identical to a fault-free run).
struct FaultSpec {
  uint64_t seed = 0;
  double density = 0.0;  ///< fraction of slice sites faulty, clamped [0,1]
  /// Also score output quality of the faulty allocation against the
  /// fault-free tuned run (adds two sample-scale functional runs).
  bool score_quality = false;
};

/// One timing-simulation request (§6 experiment configurations).
struct SimRequest {
  workloads::SimMode mode = workloads::SimMode::kOriginal;
  workloads::Scale scale = workloads::Scale::kFull;
  uint32_t variant = 0;
  /// Override the compression pipeline parameters (e.g. the §6.3
  /// writeback-delay sweep); unset derives the config from `mode`.  An
  /// enabled override with conversions_per_cycle == 0 or a writeback delay
  /// above 64 cycles is INVALID_ARGUMENT.
  std::optional<sim::CompressionConfig> compression;
  /// Multi-SM shard count for this simulation only: > 0 overrides the
  /// Engine's resolved EngineOptions::sim_shards (1 = serial reference
  /// schedule).  Timing results are bit-identical at every value.
  int sim_shards = 0;
  /// Permanent-fault injection; density <= 0 (default) = fault-free.
  /// Requires a compressed mode — faults live in the compressed file.
  FaultSpec fault;
  /// Transient soft-error injection (PR 7): Poisson bit flips over the
  /// physical slice geometry.  Works in every mode (the baseline RF is the
  /// comparison point); rate <= 0 with track_exposure unset runs
  /// bit-identical to a flip-free simulation.
  sim::SoftErrorSpec soft;
  /// Also score the flipped run's architectural output against the exact
  /// reference and a flip-free tuned replay (fills
  /// SoftErrorReport::quality_*; adds two functional runs at this
  /// request's scale).  Ignored unless the flip process is active.
  bool soft_score_quality = false;
};

/// A fault-injection campaign (ROADMAP 4a): sweep `maps_per_density`
/// seeded fault maps at each density in `densities`, every map one
/// child simulate Job on the Engine's executor.  Per-map seeds are
/// derived deterministically from `base_seed`, so a campaign is exactly
/// reproducible; per-map progress is published through
/// JobProgress::campaign_maps_{done,total} and cancel stops the sweep at
/// the next map boundary.
/// Cap on the points of one campaign request (swept values x seeds per
/// value).  The sweep holds a child Job and a result point for every
/// point until it finishes, so a request over the cap is INVALID_ARGUMENT
/// before any child is submitted.  The bundled sweeps use a few dozen.
inline constexpr int64_t kMaxCampaignPoints = 65536;

struct FaultCampaignRequest {
  SimRequest sim;                 ///< template for every child simulation
  std::vector<double> densities = {0.005, 0.01, 0.02, 0.05};
  int maps_per_density = 3;       ///< seeded maps per density point
  uint64_t base_seed = 1;         ///< per-map seeds derived from this
};

enum class JobState {
  kQueued,            ///< accepted, waiting for an executor worker
  kRunning,           ///< executing on a worker
  kDone,              ///< finished (status() is OK on success)
  kCancelled,         ///< stopped by Job::cancel()
  kDeadlineExceeded,  ///< deadline elapsed while queued or running
};

inline const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kDeadlineExceeded: return "deadline_exceeded";
  }
  return "unknown";
}

inline bool job_state_terminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

/// Outcome of one fault map inside a campaign.
struct FaultCampaignPoint {
  double density = 0.0;   ///< requested density of this point
  uint64_t seed = 0;      ///< derived per-map seed
  JobState state = JobState::kDone;  ///< child terminal state
  std::string error;      ///< non-empty when the child failed
  sim::FaultInjectionReport fault;   ///< empty when the child failed
  uint64_t cycles = 0;
  double ipc = 0.0;
};

struct FaultCampaignResult {
  std::string workload;
  std::vector<FaultCampaignPoint> points;  ///< density-major, seed order
};

/// A transient soft-error campaign (PR 7 tentpole): sweep `seeds_per_rate`
/// seeded flip processes at each rate in `flips_per_mcycle`, every point
/// one child simulate job on the Engine's executor.  Per-point seeds are a
/// deterministic splitmix64 stream off `base_seed`; progress and
/// cancellation behave exactly like a permanent-fault campaign.
struct TransientCampaignRequest {
  /// Template for every child: mode, scale, compression, faults — the
  /// per-child soft-error rate and seed are overwritten by the sweep.
  SimRequest sim;
  std::vector<double> flip_rates = {10.0, 100.0, 1000.0};  ///< per Mcycle
  int seeds_per_rate = 3;
  uint64_t base_seed = 1;
};

/// Outcome of one flip process inside a transient campaign.
struct TransientCampaignPoint {
  double flips_per_mcycle = 0.0;
  uint64_t seed = 0;
  JobState state = JobState::kDone;  ///< child terminal state
  std::string error;       ///< non-empty when the child failed (a corrupted
                           ///< address aborting the run is a DUE, reported
                           ///< here as the child's FailedPrecondition)
  sim::SoftErrorReport soft;  ///< empty when the child failed
  uint64_t cycles = 0;
  double ipc = 0.0;
};

struct TransientCampaignResult {
  std::string workload;
  std::vector<TransientCampaignPoint> points;  ///< rate-major, seed order
};

enum class JobKind { kPipeline, kSimulate, kFaultCampaign,
                     kTransientCampaign };

inline const char* job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::kPipeline: return "pipeline";
    case JobKind::kSimulate: return "simulate";
    case JobKind::kFaultCampaign: return "fault_campaign";
    case JobKind::kTransientCampaign: return "transient_campaign";
  }
  return "unknown";
}

/// True for job kinds that run as campaign orchestrators (a coordinator
/// thread fanning out child simulate jobs) instead of executor queue
/// entries.
inline bool job_kind_campaign(JobKind k) {
  return k == JobKind::kFaultCampaign || k == JobKind::kTransientCampaign;
}

/// What to run and how to schedule it.
struct JobRequest {
  JobKind kind = JobKind::kPipeline;
  std::string workload;        ///< bundled Table-4 workload name
  SimRequest sim;              ///< kSimulate only
  FaultCampaignRequest campaign;  ///< kFaultCampaign only
  TransientCampaignRequest transient;  ///< kTransientCampaign only
  int priority = 0;            ///< higher runs first; FIFO within a level
  int64_t deadline_ms = 0;     ///< relative to submit(), covers queue wait
                               ///< and execution; <= 0 means no deadline

  static JobRequest pipeline(std::string name) {
    JobRequest r;
    r.kind = JobKind::kPipeline;
    r.workload = std::move(name);
    return r;
  }
  static JobRequest simulate(std::string name, SimRequest req = {}) {
    JobRequest r;
    r.kind = JobKind::kSimulate;
    r.workload = std::move(name);
    r.sim = req;
    return r;
  }
  static JobRequest fault_campaign(std::string name,
                                   FaultCampaignRequest req = {}) {
    JobRequest r;
    r.kind = JobKind::kFaultCampaign;
    r.workload = std::move(name);
    r.campaign = std::move(req);
    return r;
  }
  static JobRequest transient_campaign(std::string name,
                                       TransientCampaignRequest req = {}) {
    JobRequest r;
    r.kind = JobKind::kTransientCampaign;
    r.workload = std::move(name);
    r.transient = std::move(req);
    return r;
  }
  JobRequest& with_priority(int p) { priority = p; return *this; }
  JobRequest& with_deadline_ms(int64_t ms) { deadline_ms = ms; return *this; }
};

/// Point-in-time view of a job's execution (coarse, lock-free counters).
struct JobProgress {
  JobState state = JobState::kQueued;
  common::JobStage stage = common::JobStage::kQueued;
  int tuner_pass = 0;         ///< current tuner fixpoint pass (1-based)
  int tuner_evaluations = 0;  ///< quality probes performed so far
  uint64_t sim_cycles = 0;    ///< simulated cycles so far
  uint64_t run_seq = 0;       ///< global start order (0 = not started yet)
  double wall_ms = 0.0;       ///< submit -> now (or -> terminal)
  /// start -> now (or -> terminal); 0 while still queued.  Unlike
  /// wall_ms this excludes queue wait, so per-job throughput metrics
  /// (e.g. simulated cycles per second) are meaningful even when many
  /// jobs were submitted up front.
  double exec_ms = 0.0;
  // Fault-campaign jobs only: per-map sweep progress.
  int campaign_maps_done = 0;
  int campaign_maps_total = 0;
};

class Engine;

namespace detail {

/// Shared job state.  The Engine and every Job handle hold it through a
/// shared_ptr; the mutex guards the state machine and results, while the
/// CancelToken carries the lock-free control/progress channel into the
/// lower layers.
struct JobImpl {
  using Clock = std::chrono::steady_clock;

  uint64_t id = 0;
  JobRequest req;
  common::CancelToken token;

  mutable std::mutex mu;
  std::condition_variable cv;
  JobState state = JobState::kQueued;
  Status status;  ///< terminal status (OK for a successful kDone)
  std::optional<workloads::PipelineResult> pipeline_result;
  std::optional<sim::SimResult> sim_result;
  std::optional<FaultCampaignResult> campaign_result;
  std::optional<TransientCampaignResult> transient_result;

  Clock::time_point submitted_at{};
  Clock::time_point started_at{};
  Clock::time_point finished_at{};
  uint64_t run_seq = 0;

  /// queued -> running; false if the job is already terminal or a stop was
  /// requested while it sat in the queue (the caller finalizes it instead).
  bool start_running(uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu);
    if (state != JobState::kQueued) return false;
    if (token.stop_reason() != common::StopReason::kNone) return false;
    state = JobState::kRunning;
    started_at = Clock::now();
    run_seq = seq;
    return true;
  }

  /// Transition to a terminal state exactly once; false (a no-op) if the
  /// job already is terminal.
  bool finalize(JobState terminal, Status st) {
    std::lock_guard<std::mutex> lock(mu);
    if (job_state_terminal(state)) return false;
    status = std::move(st);
    finished_at = Clock::now();
    state = terminal;
    token.set_stage(common::JobStage::kFinished);
    cv.notify_all();
    return true;
  }
};

}  // namespace detail

/// Caller-facing job handle (cheap to copy; all methods thread-safe).
/// A default-constructed Job is empty — valid() is false and every other
/// method must not be called.
class Job {
 public:
  Job() = default;

  bool valid() const { return impl_ != nullptr; }
  uint64_t id() const { return impl_->id; }
  JobKind kind() const { return impl_->req.kind; }
  const std::string& workload() const { return impl_->req.workload; }
  int priority() const { return impl_->req.priority; }

  JobState state() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->state;
  }

  bool done() const { return job_state_terminal(state()); }

  /// Request cooperative cancellation.  A queued job transitions to
  /// kCancelled immediately; a running job stops at its next checkpoint
  /// (at most one tuner probe batch / pipeline stage / simulation slice
  /// later).  No-op on terminal jobs.
  void cancel() {
    impl_->token.cancel();
    std::unique_lock<std::mutex> lock(impl_->mu);
    if (impl_->state == JobState::kQueued) {
      lock.unlock();
      // The executor discards the queue entry when it reaches it; the
      // in-flight slot is released there, so accounting stays single-owner.
      impl_->finalize(JobState::kCancelled,
                      Status::Cancelled("cancelled while queued"));
    }
  }

  /// Block until the job is terminal.
  void wait() const {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->cv.wait(lock, [&] { return job_state_terminal(impl_->state); });
  }

  /// Block up to `timeout`; true once the job is terminal.
  bool wait_for(std::chrono::milliseconds timeout) const {
    std::unique_lock<std::mutex> lock(impl_->mu);
    return impl_->cv.wait_for(
        lock, timeout, [&] { return job_state_terminal(impl_->state); });
  }

  /// Terminal status: OK for a successful kDone, kCancelled /
  /// kDeadlineExceeded / the failure status otherwise.  FailedPrecondition
  /// while the job is still queued or running.
  Status status() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!job_state_terminal(impl_->state))
      return Status::FailedPrecondition("job " + std::to_string(impl_->id) +
                                        " is not finished");
    return impl_->status;
  }

  JobProgress progress() const {
    JobProgress p;
    std::lock_guard<std::mutex> lock(impl_->mu);
    p.state = impl_->state;
    p.stage = impl_->token.stage();
    p.tuner_pass = impl_->token.tuner_pass.load(std::memory_order_relaxed);
    p.tuner_evaluations =
        impl_->token.tuner_evaluations.load(std::memory_order_relaxed);
    p.sim_cycles = impl_->token.sim_cycles.load(std::memory_order_relaxed);
    p.campaign_maps_done =
        impl_->token.campaign_maps_done.load(std::memory_order_relaxed);
    p.campaign_maps_total =
        impl_->token.campaign_maps_total.load(std::memory_order_relaxed);
    p.run_seq = impl_->run_seq;
    const auto end = job_state_terminal(impl_->state)
                         ? impl_->finished_at
                         : detail::JobImpl::Clock::now();
    p.wall_ms = std::chrono::duration<double, std::milli>(
                    end - impl_->submitted_at)
                    .count();
    if (impl_->run_seq > 0)
      p.exec_ms = std::chrono::duration<double, std::milli>(
                      end - impl_->started_at)
                      .count();
    return p;
  }

  /// Result accessors: the value snapshot for a successful job of the
  /// matching kind, the terminal status as an error otherwise.
  StatusOr<workloads::PipelineResult> pipeline_result() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!job_state_terminal(impl_->state))
      return Status::FailedPrecondition("job is not finished");
    if (impl_->pipeline_result) return *impl_->pipeline_result;
    if (!impl_->status.ok()) return impl_->status;
    return Status::FailedPrecondition("not a pipeline job");
  }

  StatusOr<sim::SimResult> sim_result() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!job_state_terminal(impl_->state))
      return Status::FailedPrecondition("job is not finished");
    if (impl_->sim_result) return *impl_->sim_result;
    if (!impl_->status.ok()) return impl_->status;
    return Status::FailedPrecondition("not a simulate job");
  }

  StatusOr<FaultCampaignResult> campaign_result() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!job_state_terminal(impl_->state))
      return Status::FailedPrecondition("job is not finished");
    if (impl_->campaign_result) return *impl_->campaign_result;
    if (!impl_->status.ok()) return impl_->status;
    return Status::FailedPrecondition("not a fault-campaign job");
  }

  StatusOr<TransientCampaignResult> transient_result() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!job_state_terminal(impl_->state))
      return Status::FailedPrecondition("job is not finished");
    if (impl_->transient_result) return *impl_->transient_result;
    if (!impl_->status.ok()) return impl_->status;
    return Status::FailedPrecondition("not a transient-campaign job");
  }

 private:
  friend class Engine;
  explicit Job(std::shared_ptr<detail::JobImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<detail::JobImpl> impl_;
};

}  // namespace gpurf
