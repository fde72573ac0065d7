#include "api/engine.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "alloc/slice_alloc.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/memory_access.hpp"
#include "api/json.hpp"
#include "common/rng.hpp"
#include "fp/format.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "quality/degradation.hpp"
#include "rf/fault_map.hpp"

namespace gpurf {

namespace detail {

/// One campaign kind's part of a seeded sweep.  Engine::run_sweep owns
/// everything else and never looks at the kind.
struct CampaignSweep {
  std::string what;         ///< error prefix, e.g. "fault campaign 'DWT2D'"
  Status precheck;          ///< non-OK rejects the request before any child
  std::string empty_error;  ///< appended to `what` when there are no points
  std::vector<double> axis;  ///< swept values (densities, flip rates)
  int per_value = 1;         ///< seeded points per value (< 1 means 1)
  uint64_t base_seed = 1;    ///< head of the splitmix64 seed stream
  /// Records the point (value, derived seed); returns its child request.
  std::function<SimRequest(double x, uint64_t seed)> add_point;
  /// Copies child i's outcome into point i.
  std::function<void(size_t i, JobState state,
                     const StatusOr<sim::SimResult>& res)>
      collect;
  /// Moves the finished result into the job (success only).
  std::function<void(JobImpl& job)> publish;
};

}  // namespace detail

namespace {

/// Largest compressed-pipeline writeback delay a SimRequest may set.  The
/// paper sweeps {0, 2, 4, 8} cycles (§6.3); far larger delays only stretch
/// a run toward GpuConfig::max_cycles.
constexpr uint32_t kMaxWritebackDelay = 64;

EngineOptions resolve(EngineOptions o) {
  // Environment variables act as defaults only, consulted exactly once
  // here; after construction the Engine never touches the environment.
  if (o.threads <= 0) o.threads = common::default_thread_count();
  if (o.cache_dir.empty()) o.cache_dir = workloads::default_cache_dir();
  if (o.tuner.speculate_batch <= 0) o.tuner.speculate_batch = o.threads;
  if (o.sim_shards <= 0) o.sim_shards = o.threads;
  if (o.async_workers <= 0) o.async_workers = o.threads;
  if (o.max_inflight == 0)
    o.max_inflight = 2 * static_cast<size_t>(o.async_workers);
  o.run.thread_insts = nullptr;
  // Cancellation tokens are per-job, never session-wide configuration.
  o.run.cancel = nullptr;
  o.run.abandon = nullptr;
  o.tuner.cancel = nullptr;
  return o;
}

workloads::PipelineOptions pipeline_options(const EngineOptions& o,
                                            workloads::PipelineStats* stats) {
  workloads::PipelineOptions p;
  p.use_disk_cache = o.use_disk_cache;
  p.cache_dir = o.cache_dir;
  p.tuner = o.tuner;
  p.run = o.run;
  p.stats = stats;
  return p;
}

/// Map a cooperative stop to the Status the serving layer reports.
Status stop_status(const common::CancelledError& e, const std::string& what) {
  return e.reason() == common::StopReason::kDeadline
             ? Status::DeadlineExceeded(what + ": " + e.what())
             : Status::Cancelled(what + ": " + e.what());
}

/// Terminal JobState matching a terminal Status.
JobState terminal_state_for(const Status& st) {
  switch (st.code()) {
    case StatusCode::kCancelled: return JobState::kCancelled;
    case StatusCode::kDeadlineExceeded: return JobState::kDeadlineExceeded;
    default: return JobState::kDone;  // success or ordinary failure
  }
}

uint64_t wall_us_since(detail::JobImpl::Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          detail::JobImpl::Clock::now() - start)
          .count());
}

/// The fields every campaign point shares: the child's terminal state,
/// then its cycles and IPC or its error.  True when the child succeeded
/// (the caller copies its kind's report).
template <class Point>
bool copy_point(Point& pt, JobState state,
                const StatusOr<sim::SimResult>& res) {
  pt.state = state;
  if (!res.ok()) {
    pt.error = res.status().to_string();
    return false;
  }
  pt.cycles = res->stats.cycles;
  pt.ipc = res->stats.ipc();
  return true;
}

/// Fault campaign: one child per (density, seeded fault map).  Faults
/// live in the compressed register file, so a baseline-RF request is
/// rejected before any child runs.
detail::CampaignSweep fault_sweep(const detail::JobImpl& job) {
  const FaultCampaignRequest& creq = job.req.campaign;
  auto result = std::make_shared<FaultCampaignResult>();
  result->workload = job.req.workload;
  detail::CampaignSweep sw;
  sw.what = "fault campaign '" + job.req.workload + "'";
  if (creq.sim.mode == workloads::SimMode::kOriginal)
    sw.precheck = Status::InvalidArgument(
        sw.what + " requires a compressed mode (perfect|high)");
  sw.empty_error = "has no density points";
  sw.axis = creq.densities;
  sw.per_value = creq.maps_per_density;
  sw.base_seed = creq.base_seed;
  sw.add_point = [result, tmpl = creq.sim](double density, uint64_t seed) {
    FaultCampaignPoint pt;
    pt.density = density;
    pt.seed = seed;
    result->points.push_back(pt);
    SimRequest sr = tmpl;
    sr.fault.seed = seed;
    sr.fault.density = density;
    return sr;
  };
  sw.collect = [result](size_t i, JobState state,
                        const StatusOr<sim::SimResult>& res) {
    FaultCampaignPoint& pt = result->points[i];
    if (copy_point(pt, state, res)) pt.fault = res->fault;
  };
  sw.publish = [result](detail::JobImpl& j) {
    j.campaign_result = std::move(*result);
  };
  return sw;
}

/// Transient campaign: one child per (flip rate, seeded flip process).
/// Any mode is legal — comparing the baseline RF's vulnerability against
/// the compressed one is the point.
detail::CampaignSweep transient_sweep(const detail::JobImpl& job) {
  const TransientCampaignRequest& creq = job.req.transient;
  auto result = std::make_shared<TransientCampaignResult>();
  result->workload = job.req.workload;
  detail::CampaignSweep sw;
  sw.what = "transient campaign '" + job.req.workload + "'";
  sw.empty_error = "has no flip-rate points";
  sw.axis = creq.flip_rates;
  sw.per_value = creq.seeds_per_rate;
  sw.base_seed = creq.base_seed;
  sw.add_point = [result, tmpl = creq.sim](double rate, uint64_t seed) {
    TransientCampaignPoint pt;
    pt.flips_per_mcycle = rate;
    pt.seed = seed;
    result->points.push_back(pt);
    SimRequest sr = tmpl;
    sr.soft.flips_per_mcycle = rate;
    sr.soft.seed = seed;
    return sr;
  };
  sw.collect = [result](size_t i, JobState state,
                        const StatusOr<sim::SimResult>& res) {
    TransientCampaignPoint& pt = result->points[i];
    if (copy_point(pt, state, res)) pt.soft = res->soft;
  };
  sw.publish = [result](detail::JobImpl& j) {
    j.transient_result = std::move(*result);
  };
  return sw;
}

}  // namespace

Engine::Engine(EngineOptions opts)
    : opts_(resolve(std::move(opts))),
      pool_(opts_.threads),
      pipelines_(pipeline_options(opts_, &pipeline_stats_)),
      registry_(workloads::make_all_workloads()) {}

Engine::~Engine() {
  std::unordered_map<uint64_t, std::thread> campaigns;
  {
    common::MutexLock lock(qmu_);
    stopping_ = true;
    qcv_.notify_all();
    slot_cv_.notify_all();
    campaigns.swap(campaign_threads_);
  }
  // Campaign orchestrators first: a stopping campaign cancels its child
  // jobs (further child submits throw), and the executors below then
  // drain and finalize those children before exiting.
  for (auto& [id, t] : campaigns) t.join();
  for (auto& t : executors_) t.join();
}

std::vector<std::string> Engine::workload_names() const {
  std::vector<std::string> names;
  names.reserve(registry_.size());
  for (const auto& w : registry_) names.push_back(w->spec().name);
  return names;
}

StatusOr<const workloads::Workload*> Engine::workload(
    std::string_view name) const {
  for (const auto& w : registry_)
    if (w->spec().name == name) return static_cast<const workloads::Workload*>(w.get());
  return Status::NotFound("unknown workload '" + std::string(name) +
                          "'; known: " + [this] {
                            std::string s;
                            for (const auto& w : registry_) {
                              if (!s.empty()) s += ", ";
                              s += w->spec().name;
                            }
                            return s;
                          }());
}

StatusOr<const workloads::PipelineResult*> Engine::pipeline_impl(
    const workloads::Workload& w, common::CancelToken* cancel) {
  common::ScopedPool scope(&pool_);
  // gpurf::Error is the core's recoverable, input-dependent tier
  // (GPURF_CHECK) — e.g. a workload whose metric fails at full precision —
  // so it maps to FailedPrecondition; a cooperative stop maps to
  // kCancelled / kDeadlineExceeded; anything else escaping the core is
  // Internal.  GPURF_ASSERT (state corruption) still aborts by design.
  try {
    // Tune-stage latency (ISSUE 8): the memo get covers the whole tuning
    // path on a miss and a map lookup on a hit, so memo hits show up
    // directly as a microsecond-bucket p50.
    const auto t0 = detail::JobImpl::Clock::now();
    const workloads::PipelineResult* pr = &pipelines_.get(w, cancel);
    metrics_.tune_hist.record_us(wall_us_since(t0));
    return pr;
  } catch (const common::CancelledError& e) {
    return stop_status(e, std::string("pipeline '") + w.spec().name + "'");
  } catch (const Error& e) {
    return Status::FailedPrecondition(std::string("pipeline '") +
                                      w.spec().name + "': " + e.what());
  } catch (const std::exception& e) {
    return Status::Internal(std::string("pipeline '") + w.spec().name +
                            "': " + e.what());
  }
}

StatusOr<const workloads::PipelineResult*> Engine::pipeline(
    const workloads::Workload& w) {
  return pipeline_impl(w, nullptr);
}

StatusOr<const workloads::PipelineResult*> Engine::pipeline(
    std::string_view name) {
  auto w = workload(name);
  if (!w.ok()) return w.status();
  return pipeline(**w);
}

StatusOr<workloads::PipelineResult> Engine::compute_pipeline(
    const workloads::Workload& w) {
  common::ScopedPool scope(&pool_);
  workloads::PipelineOptions opt = pipelines_.options();
  opt.use_disk_cache = false;
  try {
    return workloads::compute_pipeline(w, opt);
  } catch (const Error& e) {
    return Status::FailedPrecondition(std::string("pipeline '") +
                                      w.spec().name + "': " + e.what());
  } catch (const std::exception& e) {
    return Status::Internal(std::string("pipeline '") + w.spec().name +
                            "': " + e.what());
  }
}

StatusOr<std::string> Engine::pipeline_json(std::string_view name) {
  auto pr = pipeline(name);
  if (!pr.ok()) return pr.status();
  return api::to_json(**pr);
}

StatusOr<sim::SimResult> Engine::simulate_impl(const workloads::Workload& w,
                                               const SimRequest& req,
                                               common::CancelToken* cancel) {
  if (req.variant >= w.num_sample_variants() &&
      req.scale == workloads::Scale::kSample)
    return Status::InvalidArgument(
        "variant " + std::to_string(req.variant) + " out of range for '" +
        w.spec().name + "'");
  const bool inject = req.fault.density > 0.0;
  if (inject && req.mode == workloads::SimMode::kOriginal)
    return Status::InvalidArgument(
        "fault injection on '" + w.spec().name +
        "' requires a compressed mode (faults live in the compressed "
        "register file)");
  // A compressed config the simulator cannot finish in bounded time (no
  // value-converter throughput, or an unbounded writeback delay) is
  // rejected before any tuning or simulation.
  if (req.compression && req.compression->enabled) {
    if (req.compression->conversions_per_cycle == 0)
      return Status::InvalidArgument(
          "compression.conversions_per_cycle must be at least 1");
    if (req.compression->writeback_delay > kMaxWritebackDelay)
      return Status::InvalidArgument(
          "writeback_delay " +
          std::to_string(req.compression->writeback_delay) +
          " exceeds the limit of " + std::to_string(kMaxWritebackDelay) +
          " cycles");
  }
  auto pr = pipeline_impl(w, cancel);
  if (!pr.ok()) return pr.status();

  common::ScopedPool scope(&pool_);
  try {
    if (cancel) {
      cancel->set_stage(common::JobStage::kSimulating);
      cancel->checkpoint();
    }
    auto inst = w.make_instance(req.scale, req.variant);
    auto spec = workloads::make_launch_spec(w, inst, **pr, req.mode);
    spec.soft = req.soft;
    const sim::CompressionConfig comp =
        req.compression ? *req.compression
                        : workloads::make_compression_config(req.mode);
    sim::SimOptions so;
    so.shards = req.sim_shards > 0 ? req.sim_shards : opts_.sim_shards;
    // Static disjointness gate (ISSUE 10): multi-SM sharding executes all
    // blocks against one shared GlobalMemory, so it requires the sharded
    // memory contract (no cross-block reads, no overlapping stores).  The
    // contract is now proven per launch by the memory-access prover — or
    // waived by the workload spec — instead of assumed; unproven kernels
    // fall back to the bit-identical serial schedule (SimStats are
    // shard-count-invariant, so the clamp never changes results).
    if (so.shards > 1 && !w.mem_proofs(inst, /*footprints=*/true)->shard_ok)
      so.shards = 1;

    // Soft-error quality scoring (PR 7) needs the pristine inputs kept
    // aside: the timing sim executes functionally against inst.gmem, so
    // the flipped run's architectural output is read back from it after
    // the simulation.
    const bool soft_quality = req.soft_score_quality && req.soft.enabled();
    std::optional<workloads::Workload::Instance> pristine;
    if (soft_quality) pristine = inst;
    auto score_soft = [&](sim::SimResult& result,
                          const exec::PrecisionMap* pmap) {
      // Two functional replays score the flipped output: exact reference
      // and flip-free tuned run (the flipped output itself comes from the
      // simulated memory image).
      const auto metric = w.make_metric(inst);
      workloads::RunOptions ro = opts_.run;
      ro.cancel = cancel;
      auto ref_inst = *pristine;
      const auto ref = w.run(ref_inst, nullptr, nullptr, ro);
      auto ff_inst = *pristine;
      const auto flip_free = w.run(ff_inst, pmap, nullptr, ro);
      const auto flipped = inst.gmem.read_f32(inst.out_base, inst.out_words);
      result.soft.quality_scored = true;
      result.soft.quality_fault_free = metric->score(ref, flip_free);
      result.soft.quality_faulty = metric->score(ref, flipped);
      result.soft.quality_delta = quality::degradation_delta(
          metric->kind(), result.soft.quality_fault_free,
          result.soft.quality_faulty);
    };

    if (!inject) {
      const auto t0 = detail::JobImpl::Clock::now();
      sim::SimResult result = sim::simulate(opts_.gpu, comp, spec, cancel, so);
      metrics_.sim_hist.record_us(wall_us_since(t0));
      if (soft_quality) score_soft(result, spec.precision);
      return result;
    }

    // Fault injection (PR 6): generate the deterministic map, re-run the
    // slice allocator fault-aware (redirection + graceful spill) and
    // swap the launch's allocation for the redirected one.  The memoized
    // pipeline stays untouched — fault-free requests keep serving its
    // bit-identical allocation.
    const rf::FaultMap fm =
        rf::FaultMap::generate(req.fault.seed, req.fault.density);
    const auto& tune = req.mode == workloads::SimMode::kCompressedPerfect
                           ? (*pr)->tune_perfect
                           : (*pr)->tune_high;
    alloc::AllocOptions aopt;
    aopt.faults = &fm;
    const alloc::AllocationResult fa = alloc::allocate_slices(
        w.kernel(), w.kernel_analysis()->dataflow(), &(*pr)->ranges,
        &tune.pmap, aopt);

    // Spilled f32 registers live full-width in the spill store, so the
    // interpreter must not quantize them.
    exec::PrecisionMap adj = tune.pmap;
    if (adj.active())
      for (uint32_t r = 0;
           r < fa.table.size() && r < adj.per_reg.size(); ++r)
        if (fa.table[r].valid && fa.table[r].spilled)
          adj.per_reg[r] = fp::format_for_bits(32);
    spec.allocation = &fa;
    spec.regs_per_thread = fa.total_phys_regs();
    spec.precision = &adj;

    const auto sim_t0 = detail::JobImpl::Clock::now();
    sim::SimResult result = sim::simulate(opts_.gpu, comp, spec, cancel, so);
    metrics_.sim_hist.record_us(wall_us_since(sim_t0));
    sim::FaultInjectionReport& rep = result.fault;
    rep.active = true;
    rep.seed = req.fault.seed;
    rep.density = fm.density();
    rep.faults_total = static_cast<uint32_t>(fm.num_faults());
    rep.faults_in_footprint = fa.faulty_slices_avoided;
    rep.registers_redirected = fa.registers_redirected;
    rep.registers_spilled = fa.registers_spilled;
    rep.spill_regs = fa.spill_regs;
    rep.coverage_pct = fa.fault_coverage_pct();

    if (req.fault.score_quality) {
      // Three sample-scale functional runs score output degradation:
      // exact reference, fault-free tuned, faulty-redirected.
      // Redirection never changes numerics and spilled registers revert
      // to full precision, so the delta is expected <= 0 ("no worse") —
      // measured rather than asserted, which is the point of the report.
      auto qinst = w.make_instance(workloads::Scale::kSample, 0);
      const auto metric = w.make_metric(qinst);
      workloads::RunOptions ro = opts_.run;
      ro.cancel = cancel;
      auto ref_inst = qinst;
      const auto ref = w.run(ref_inst, nullptr, nullptr, ro);
      auto ff_inst = qinst;
      const auto fault_free = w.run(ff_inst, &tune.pmap, nullptr, ro);
      auto fy_inst = std::move(qinst);
      const auto faulty = w.run(fy_inst, &adj, nullptr, ro);
      rep.quality_scored = true;
      rep.quality_fault_free = metric->score(ref, fault_free);
      rep.quality_faulty = metric->score(ref, faulty);
      rep.quality_delta = quality::degradation_delta(
          metric->kind(), rep.quality_fault_free, rep.quality_faulty);
    }
    if (soft_quality) score_soft(result, &adj);
    return result;
  } catch (const common::CancelledError& e) {
    return stop_status(e, std::string("simulate '") + w.spec().name + "'");
  } catch (const Error& e) {
    return Status::FailedPrecondition(std::string("simulate '") +
                                      w.spec().name + "': " + e.what());
  } catch (const std::exception& e) {
    return Status::Internal(std::string("simulate '") + w.spec().name +
                            "': " + e.what());
  }
}

StatusOr<sim::SimResult> Engine::simulate(const workloads::Workload& w,
                                          const SimRequest& req) {
  return simulate_impl(w, req, nullptr);
}

StatusOr<sim::SimResult> Engine::simulate(std::string_view name,
                                          const SimRequest& req) {
  auto w = workload(name);
  if (!w.ok()) return w.status();
  return simulate(**w, req);
}

StatusOr<ir::Kernel> Engine::parse_kernel(std::string_view asm_text) const {
  try {
    return ir::parse_kernel(asm_text);
  } catch (const Error& e) {
    return Status::InvalidArgument(std::string("parse: ") + e.what());
  }
}

Status Engine::verify_kernel(const ir::Kernel& k,
                             bool allow_undefined_reads) const {
  try {
    ir::verify(k);
    if (!allow_undefined_reads) {
      // Dataflow enforcement (PR 9): surface entry-live-in registers as
      // verification failures instead of silently reading zeros.
      const auto df = analysis::compute_dataflow(k, analysis::build_cfg(k));
      if (!df.undefined_uses.empty()) {
        std::string msg = std::string("verify '") + k.name +
                          "': undefined register read:";
        for (uint32_t r : df.undefined_uses)
          msg += std::string(" %") + k.regs[r].name;
        msg += " (use Engine::analyze for the full report, or "
               "allow_undefined_reads to bypass)";
        return Status::FailedPrecondition(msg);
      }
    }
    return Status::Ok();
  } catch (const Error& e) {
    return Status::FailedPrecondition(std::string("verify '") + k.name +
                                      "': " + e.what());
  }
}

StatusOr<analysis::KernelReport> Engine::analyze(const ir::Kernel& k) {
  return analyze_impl(k, nullptr);
}

StatusOr<analysis::KernelReport> Engine::analyze(const workloads::Workload& w) {
  return analyze_impl(w.kernel(), &w);
}

StatusOr<analysis::KernelReport> Engine::analyze_impl(
    const ir::Kernel& k, const workloads::Workload* w) {
  common::ScopedPool scope(&pool_);
  const std::string& name = w ? w->spec().name : k.name;
  try {
    const exec::KernelAnalysis ka(k);
    analysis::KernelReport rep =
        analysis::build_kernel_report(k, ka.cfg(), ka.dataflow());
    rep.alloc_pressure = alloc::baseline_pressure(k);
    rep.live_interval_pressure = alloc::live_interval_pressure(k);
    const uint64_t shw = analysis::shared_words(k);
    if (w) {
      // Full instance context: the sample instance's launch geometry,
      // parameter words and memory image are exactly what replay runs
      // against, so the findings and verdicts describe real executions.
      auto inst = w->make_instance(workloads::Scale::kSample, 0);
      const auto proofs = w->mem_proofs(inst, /*footprints=*/true);
      analysis::apply_memory_findings(rep, proofs->mem, proofs->proven,
                                      proofs->gmem_words, shw,
                                      w->spec().assume_disjoint);
      return rep;
    }
    // Without instance context: shared-memory OOB classification only
    // (gmem_words = 0), no footprint solves — a bare kernel has no
    // meaningful grid to prove disjointness over.
    analysis::MemoryAccessOptions mo;
    mo.footprints = false;
    const auto ma = analysis::analyze_memory_accesses(
        k, ka.cfg(), ka.dataflow(), ir::LaunchConfig{}, mo);
    analysis::apply_memory_findings(rep, ma, analysis::prove_in_bounds(ma, 0, shw),
                                    0, shw, /*waived=*/false);
    return rep;
  } catch (const Error& e) {
    return Status::FailedPrecondition("analyze '" + name + "': " + e.what());
  } catch (const std::exception& e) {
    return Status::Internal("analyze '" + name + "': " + e.what());
  }
}

StatusOr<analysis::KernelReport> Engine::analyze(std::string_view name) {
  auto w = workload(name);
  if (!w.ok()) return w.status();
  return analyze(**w);
}

StatusOr<tuning::TuneResult> Engine::tune(const ir::Kernel& k,
                                          tuning::QualityProbe& probe,
                                          quality::QualityLevel level) {
  common::ScopedPool scope(&pool_);
  tuning::TunerOptions topt = opts_.tuner;
  topt.level = level;
  topt.defer_validation = false;
  try {
    return tuning::tune_precision(k, probe, topt);
  } catch (const Error& e) {
    return Status::FailedPrecondition(std::string("tune '") + k.name +
                                      "': " + e.what());
  }
}

// ----------------------------------------------------------------- Job API

void Engine::ensure_executor() {
  common::MutexLock lock(qmu_);
  if (executor_started_) return;
  executor_started_ = true;
  executors_.reserve(static_cast<size_t>(opts_.async_workers));
  for (int t = 0; t < opts_.async_workers; ++t)
    executors_.emplace_back([this] { executor_loop(); });
}

Job Engine::submit(JobRequest req) {
  auto impl = std::make_shared<detail::JobImpl>();
  impl->req = std::move(req);
  impl->submitted_at = detail::JobImpl::Clock::now();
  std::optional<detail::JobImpl::Clock::time_point> deadline;
  if (impl->req.deadline_ms > 0) {
    deadline = impl->submitted_at +
               std::chrono::milliseconds(impl->req.deadline_ms);
    impl->token.set_deadline(*deadline);
  }
  ensure_executor();

  if (job_kind_campaign(impl->req.kind)) {
    // Campaigns bypass the executor queue and its in-flight accounting:
    // the orchestrator is a coordinator that mostly waits on the child
    // simulate jobs it submits (those children take normal slots, so a
    // large campaign self-throttles against max_inflight).  Running the
    // coordinator on an executor worker could deadlock a width-1 pool.
    reap_campaigns();
    common::MutexLock lock(qmu_);
    metrics_.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
    GPURF_CHECK(!stopping_, "submit on a stopping Engine");
    impl->id = next_job_id_++;
    evict_terminal_jobs_locked();
    jobs_[impl->id] = impl;
    campaign_threads_.emplace(impl->id, std::thread([this, impl] {
      run_campaign(*impl);
      common::MutexLock done(qmu_);
      finished_campaigns_.push_back(impl->id);
    }));
    return Job(impl);
  }

  bool rejected = false;
  {
    common::MutexLock lock(qmu_);
    metrics_.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
    // Bounded in-flight set.  Without a deadline this is pure
    // backpressure (block until a slot frees, as before).  With one, the
    // wait gives up at the deadline — the request's time budget covers
    // queue admission too, so a saturated Engine sheds late work instead
    // of blocking its callers indefinitely (ISSUE 4 satellite).
    // (The predicate runs with qmu_ held inside the wait; it is a separate
    // function to the thread safety analysis, hence the opt-out.)
    auto has_slot = [&]() GPURF_NO_THREAD_SAFETY_ANALYSIS {
      return stopping_ || inflight_ < opts_.max_inflight;
    };
    if (deadline) {
      if (!slot_cv_.wait_until(lock.native(), *deadline, has_slot))
        rejected = true;
    } else {
      slot_cv_.wait(lock.native(), has_slot);
    }
    GPURF_CHECK(!stopping_, "submit on a stopping Engine");
    impl->id = next_job_id_++;
    evict_terminal_jobs_locked();
    jobs_[impl->id] = impl;
    if (!rejected) {
      ++inflight_;
      queue_.push_back(impl);
      qcv_.notify_one();
    }
  }
  if (rejected) {
    metrics_.record_terminal(JobState::kDeadlineExceeded, false,
                             wall_us_since(impl->submitted_at));
    impl->finalize(JobState::kDeadlineExceeded,
                   Status::DeadlineExceeded(
                       "no in-flight slot before the deadline (queue full)"));
  }
  return Job(impl);
}

StatusOr<Job> Engine::find_job(uint64_t id) const {
  common::MutexLock lock(qmu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    return Status::NotFound("no job with id " + std::to_string(id));
  return Job(it->second);
}

void Engine::evict_terminal_jobs_locked() {
  if (jobs_.size() < kMaxRetainedJobs) return;
  std::vector<uint64_t> terminal_ids;
  for (const auto& [id, j] : jobs_) {
    std::lock_guard<std::mutex> lk(j->mu);
    if (job_state_terminal(j->state)) terminal_ids.push_back(id);
  }
  std::sort(terminal_ids.begin(), terminal_ids.end());
  // Evict in a batch (down to 3/4 of the cap, oldest first) so a daemon
  // sitting at the cap does not pay the full registry scan on every
  // subsequent submit.
  const size_t target = kMaxRetainedJobs - kMaxRetainedJobs / 4;
  for (uint64_t id : terminal_ids) {
    if (jobs_.size() <= target) break;
    jobs_.erase(id);
  }
}

void Engine::release_slot() {
  common::MutexLock lock(qmu_);
  --inflight_;
  slot_cv_.notify_one();
}

void Engine::run_job(detail::JobImpl& job) {
  // Queue-wait latency (ISSUE 8): submit -> the executor actually starting
  // the job (admission wait for a slot plus time parked in the queue).
  metrics_.queue_wait_hist.record_us(wall_us_since(job.submitted_at));
  Status st;
  switch (job.req.kind) {
    case JobKind::kPipeline: {
      auto w = workload(job.req.workload);
      if (!w.ok()) {
        st = w.status();
        break;
      }
      auto pr = pipeline_impl(**w, &job.token);
      if (pr.ok()) {
        // Value snapshot: the job owns its result independently of the
        // Engine's memo (readers may outlive the Engine).  Written before
        // finalize(), whose lock hand-off publishes it to readers.
        job.pipeline_result = **pr;
      } else {
        st = pr.status();
      }
      break;
    }
    case JobKind::kSimulate: {
      auto w = workload(job.req.workload);
      if (!w.ok()) {
        st = w.status();
        break;
      }
      auto sr = simulate_impl(**w, job.req.sim, &job.token);
      if (sr.ok()) {
        job.sim_result = std::move(sr).value();
      } else {
        st = sr.status();
      }
      break;
    }
    case JobKind::kFaultCampaign:
    case JobKind::kTransientCampaign:
      // Campaign jobs never enter the executor queue (see submit()).
      st = Status::Internal("campaign job on the executor queue");
      break;
  }
  const JobState terminal = terminal_state_for(st);
  // Ordering contract for observers woken by finalize(): the slot is
  // released first (PR 3's "inflight == 0 once every future resolved"
  // still holds) and the metrics are recorded first (a wait() that
  // returned sees this job in the terminal-state counters).
  release_slot();
  metrics_.record_terminal(terminal, st.ok(), wall_us_since(job.submitted_at));
  job.finalize(terminal, std::move(st));
}

void Engine::executor_loop() {
  for (;;) {
    std::shared_ptr<detail::JobImpl> job;
    uint64_t seq = 0;
    {
      common::MutexLock lock(qmu_);
      qcv_.wait(lock.native(), [&]() GPURF_NO_THREAD_SAFETY_ANALYSIS {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping, queue drained
      // Highest priority first; FIFO (lowest id) within a level.  The
      // queue is short-lived and bounded by max_inflight, so a linear
      // scan beats heap bookkeeping.
      size_t best = 0;
      for (size_t i = 1; i < queue_.size(); ++i) {
        const auto& a = *queue_[i];
        const auto& b = *queue_[best];
        if (a.req.priority > b.req.priority ||
            (a.req.priority == b.req.priority && a.id < b.id))
          best = i;
      }
      job = std::move(queue_[best]);
      queue_.erase(queue_.begin() + best);
      seq = next_run_seq_++;
    }

    if (job->start_running(seq)) {
      run_job(*job);
    } else {
      // The job went terminal while queued (Job::cancel finalized it) or
      // its token demands a stop before any work started.  Release the
      // slot, make sure a terminal state is recorded, and count it (each
      // popped-unstarted job is counted exactly here, exactly once).
      release_slot();
      const common::StopReason r = job->token.stop_reason();
      JobState terminal = JobState::kCancelled;
      Status st = Status::Cancelled("cancelled while queued");
      if (r == common::StopReason::kDeadline) {
        terminal = JobState::kDeadlineExceeded;
        st = Status::DeadlineExceeded("deadline expired in queue");
      }
      metrics_.record_terminal(terminal, false,
                               wall_us_since(job->submitted_at));
      job->finalize(terminal, std::move(st));
    }
  }
}

void Engine::reap_campaigns() {
  // Join outside qmu_: a finishing coordinator takes qmu_ to park its id,
  // after which it has nothing left to run but its epilogue.
  std::vector<std::thread> done;
  {
    common::MutexLock lock(qmu_);
    for (uint64_t id : finished_campaigns_) {
      auto it = campaign_threads_.find(id);
      done.push_back(std::move(it->second));
      campaign_threads_.erase(it);
    }
    finished_campaigns_.clear();
  }
  for (auto& t : done) t.join();
}

void Engine::run_campaign(detail::JobImpl& job) {
  uint64_t seq = 0;
  {
    common::MutexLock lock(qmu_);
    seq = next_run_seq_++;
  }
  Status st;
  if (job.start_running(seq)) {
    metrics_.queue_wait_hist.record_us(wall_us_since(job.submitted_at));
    detail::CampaignSweep sweep = job.req.kind == JobKind::kFaultCampaign
                                      ? fault_sweep(job)
                                      : transient_sweep(job);
    st = run_sweep(job, sweep);
  } else if (job.token.stop_reason() == common::StopReason::kDeadline) {
    st = Status::DeadlineExceeded("deadline before campaign start");
  } else {
    st = Status::Cancelled("cancelled before campaign start");
  }
  const JobState terminal = terminal_state_for(st);
  metrics_.record_terminal(terminal, st.ok(), wall_us_since(job.submitted_at));
  job.finalize(terminal, std::move(st));
}

Status Engine::run_sweep(detail::JobImpl& job, detail::CampaignSweep& sweep) {
  if (!sweep.precheck.ok()) return sweep.precheck;
  // The point count is computed in 64 bits: a wire request may carry
  // up to INT_MAX seeds per value.
  const int per = std::max(1, sweep.per_value);
  const int64_t total = static_cast<int64_t>(sweep.axis.size()) * per;
  if (total == 0)
    return Status::InvalidArgument(sweep.what + " " + sweep.empty_error);
  if (total > kMaxCampaignPoints)
    return Status::InvalidArgument(sweep.what + " has " +
                                   std::to_string(total) + " points (at most " +
                                   std::to_string(kMaxCampaignPoints) + ")");
  job.token.campaign_maps_total.store(static_cast<int>(total),
                                      std::memory_order_relaxed);
  job.token.set_stage(common::JobStage::kSimulating);

  // Submit one child simulate job per (axis value, seed).  Seeds are a
  // deterministic splitmix64 stream off base_seed, so the same request
  // reruns the exact same points.  Children inherit the parent's priority
  // and the remainder of its deadline.
  std::vector<Job> children;
  Status st;
  try {
    uint64_t seed_state = sweep.base_seed;
    for (double x : sweep.axis) {
      for (int k = 0; k < per; ++k) {
        job.token.checkpoint();  // stop submitting once cancelled
        JobRequest child =
            JobRequest::simulate(job.req.workload,
                                 sweep.add_point(x, splitmix64(seed_state)))
                .with_priority(job.req.priority);
        if (job.token.has_deadline()) {
          const auto left =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  job.token.deadline() - detail::JobImpl::Clock::now());
          child.deadline_ms = std::max<int64_t>(1, left.count());
        }
        children.push_back(submit(std::move(child)));
      }
    }

    // Collect in submission order, polling the parent token so a campaign
    // cancel propagates to every child at the next slice.
    for (size_t i = 0; i < children.size(); ++i) {
      while (!children[i].wait_for(std::chrono::milliseconds(50)))
        job.token.checkpoint();
      sweep.collect(i, children[i].state(), children[i].sim_result());
      job.token.campaign_maps_done.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const common::CancelledError& e) {
    st = stop_status(e, sweep.what);
  } catch (const Error& e) {
    // submit() on a stopping Engine, or a child rejection.
    st = Status::Cancelled(sweep.what + " aborted: " + e.what());
  } catch (const std::exception& e) {
    st = Status::Internal(sweep.what + ": " + e.what());
  }
  if (!st.ok()) {
    // Propagate the stop to every child before the parent finalizes, so a
    // cancelled campaign never leaves orphan work running.
    for (auto& c : children) c.cancel();
    for (auto& c : children) c.wait();
    return st;
  }
  sweep.publish(job);
  return st;
}

Status Engine::drain(int64_t budget_ms) {
  const auto deadline =
      detail::JobImpl::Clock::now() +
      std::chrono::milliseconds(budget_ms > 0 ? budget_ms : 0);
  std::vector<std::shared_ptr<detail::JobImpl>> live;
  {
    common::MutexLock lock(qmu_);
    live.reserve(jobs_.size());
    for (const auto& [id, j] : jobs_) live.push_back(j);
  }
  // Shed still-queued jobs immediately: drain means "finish what is
  // running, start nothing new".  (The executor releases their slots when
  // it pops the finalized entries.)
  for (auto& j : live) {
    bool queued = false;
    {
      std::lock_guard<std::mutex> lk(j->mu);
      queued = j->state == JobState::kQueued;
    }
    if (queued) {
      j->token.cancel();
      j->finalize(JobState::kCancelled,
                  Status::Cancelled("cancelled by drain while queued"));
    }
  }
  // Running jobs get the budget...
  size_t cancelled = 0;
  for (auto& j : live) {
    std::unique_lock<std::mutex> lk(j->mu);
    if (!j->cv.wait_until(lk, deadline,
                          [&] { return job_state_terminal(j->state); })) {
      lk.unlock();
      j->token.cancel();
      ++cancelled;
    }
  }
  // ...then the stragglers are cancelled cooperatively and we wait for
  // their next checkpoint, so the caller can destroy the Engine without
  // racing in-flight results.
  for (auto& j : live) {
    std::unique_lock<std::mutex> lk(j->mu);
    j->cv.wait(lk, [&] { return job_state_terminal(j->state); });
  }
  return cancelled == 0
             ? Status::Ok()
             : Status::DeadlineExceeded(
                   std::to_string(cancelled) +
                   " running job(s) cancelled at the drain budget");
}

size_t Engine::inflight() const {
  common::MutexLock lock(qmu_);
  return inflight_;
}

MetricsSnapshot Engine::metrics_snapshot() const {
  MetricsSnapshot m;
  m.pipeline_memo_hits =
      pipeline_stats_.memo_hits.load(std::memory_order_relaxed);
  m.pipeline_memo_misses =
      pipeline_stats_.memo_misses.load(std::memory_order_relaxed);
  m.disk_cache_hits =
      pipeline_stats_.disk_cache_hits.load(std::memory_order_relaxed);
  m.disk_cache_stale_rejections =
      pipeline_stats_.disk_cache_stale_rejections.load(
          std::memory_order_relaxed);
  m.disk_cache_write_failures =
      pipeline_stats_.disk_cache_write_failures.load(
          std::memory_order_relaxed);
  m.disk_cache_disabled =
      pipeline_stats_.disk_cache_disabled.load(std::memory_order_relaxed) ? 1
                                                                          : 0;
  m.tuner_candidates =
      pipeline_stats_.tuner_candidates.load(std::memory_order_relaxed);
  m.tuner_candidates_doomed =
      pipeline_stats_.tuner_candidates_doomed.load(std::memory_order_relaxed);
  {
    common::MutexLock lock(qmu_);
    m.queue_depth = queue_.size();
    m.inflight = inflight_;
    m.jobs_running = inflight_ - queue_.size();
  }
  m.jobs_submitted = metrics_.jobs_submitted.load(std::memory_order_relaxed);
  m.jobs_done = metrics_.jobs_done.load(std::memory_order_relaxed);
  m.jobs_failed = metrics_.jobs_failed.load(std::memory_order_relaxed);
  m.jobs_cancelled = metrics_.jobs_cancelled.load(std::memory_order_relaxed);
  m.jobs_deadline_exceeded =
      metrics_.jobs_deadline_exceeded.load(std::memory_order_relaxed);
  m.job_wall_us_total =
      metrics_.job_wall_us_total.load(std::memory_order_relaxed);
  m.queue_wait = metrics_.queue_wait_hist.snapshot();
  m.tune = metrics_.tune_hist.snapshot();
  m.sim = metrics_.sim_hist.snapshot();
  return m;
}

std::string Engine::metrics_json() const {
  return api::to_json(metrics_snapshot());
}

}  // namespace gpurf
