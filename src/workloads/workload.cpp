#include "workloads/workload.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"

namespace gpurf::workloads {

using gpurf::quality::MetricKind;

Workload::Workload(WorkloadSpec spec, std::string_view asm_text)
    : spec_(std::move(spec)), kernel_(gpurf::ir::parse_kernel(asm_text)) {
  gpurf::ir::verify(kernel_);
}

std::unique_ptr<gpurf::quality::QualityMetric> Workload::make_metric(
    const Instance& inst) const {
  switch (spec_.metric) {
    case MetricKind::kSsim:
      GPURF_CHECK(inst.image_w > 0 && inst.image_h > 0,
                  "SSIM workload without image dimensions");
      return gpurf::quality::make_ssim_metric(inst.image_w, inst.image_h);
    case MetricKind::kDeviation:
      return gpurf::quality::make_deviation_metric();
    case MetricKind::kBinary:
      return gpurf::quality::make_binary_metric();
  }
  GPURF_ASSERT(false, "unknown metric kind");
  return nullptr;
}

std::shared_ptr<const Workload::MemProofs> Workload::mem_proofs(
    const Instance& inst, bool footprints) const {
  // Key: everything the proofs depend on beyond the kernel text.
  char head[96];
  std::snprintf(head, sizeof head, "%ux%ux%ux%u|%zu|", inst.launch.grid_x,
                inst.launch.grid_y, inst.launch.block_x, inst.launch.block_y,
                inst.gmem.size());
  std::string key = head;
  for (uint32_t p : inst.params) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%x,", p);
    key += buf;
  }

  const bool grid_over_cap =
      uint64_t(inst.launch.grid_x) * inst.launch.grid_y >
      analysis::kMaxFootprintBlocks;
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    auto it = mem_cache_.find(key);
    // An elision-only entry is upgraded when footprints are wanted —
    // unless the grid exceeds the solve cap, where retrying cannot
    // improve the verdicts.
    if (it != mem_cache_.end() &&
        (!footprints || it->second->mem.footprints_computed || grid_over_cap))
      return it->second;
  }

  auto proofs = std::make_shared<MemProofs>();
  analysis::MemoryAccessOptions mo;
  mo.param_values = &inst.params;
  mo.footprints = footprints;
  const auto& ka = *kernel_analysis();
  proofs->mem = analysis::analyze_memory_accesses(kernel_, ka.cfg(),
                                                  ka.dataflow(), inst.launch, mo);
  proofs->gmem_words = inst.gmem.size();
  proofs->proven = analysis::prove_in_bounds(
      proofs->mem, proofs->gmem_words, analysis::shared_words(kernel_));
  for (const auto& a : proofs->mem.accesses)
    proofs->proven_sites += proofs->proven[a.flat];
  proofs->parallel_ok = proofs->mem.loads_local || spec_.assume_disjoint;
  proofs->shard_ok =
      (proofs->mem.loads_local && proofs->mem.stores_disjoint) ||
      spec_.assume_disjoint;

  std::lock_guard<std::mutex> lock(mem_mu_);
  auto& slot = mem_cache_[key];
  // Keep the stronger entry if a concurrent probe raced us there.
  if (!slot || (footprints && !slot->mem.footprints_computed))
    slot = std::move(proofs);
  return slot;
}

const std::shared_ptr<const gpurf::exec::KernelAnalysis>&
Workload::kernel_analysis() const {
  std::call_once(analysis_once_, [&] {
    analysis_ = std::make_shared<const gpurf::exec::KernelAnalysis>(kernel_);
  });
  return analysis_;
}

std::vector<float> Workload::run(
    Instance& inst, const gpurf::exec::PrecisionMap* pmap,
    const analysis::RangeAnalysisResult* range_check,
    const RunOptions& opt) const {
  // Replay-granular stop: a cancelled tuning job aborts before the next
  // replay starts, never in the middle of one.
  if (opt.cancel) opt.cancel->checkpoint();
  gpurf::exec::ExecContext ctx;
  ctx.kernel = &kernel_;
  ctx.launch = inst.launch;
  ctx.gmem = &inst.gmem;
  ctx.textures = &inst.textures;
  ctx.params = inst.params;
  ctx.precision = pmap;
  ctx.range_check = range_check;
  ctx.use_soa = opt.use_soa;
  ctx.elide_dead_writes = opt.elide_dead_writes;
  ctx.abandon = opt.abandon;

  // Static memory proofs (ISSUE 10).  Block-parallel execution now
  // requires the no-cross-block-reads contract proven (or waived); the
  // per-block footprint solves are only paid when parallelism is actually
  // reachable — the same test run_functional applies: several blocks, a
  // current pool wider than one thread, and a caller that is not itself a
  // pool worker (nested fan-outs run inline).  Bounds-check elision uses
  // the launch-wide solve either way.
  const bool want_parallel =
      opt.block_parallel &&
      uint64_t(inst.launch.grid_x) * inst.launch.grid_y > 1 &&
      gpurf::common::ThreadPool::current().size() > 1 &&
      !gpurf::common::in_pool_worker();
  std::shared_ptr<const MemProofs> proofs;
  if (opt.elide_bounds_checks || want_parallel)
    proofs = mem_proofs(inst, /*footprints=*/want_parallel);
  ctx.block_parallel =
      opt.block_parallel && (!want_parallel || proofs->parallel_ok);
  if (proofs && opt.elide_bounds_checks) {
    ctx.elide_bounds_checks = true;
    ctx.mem_proven = proofs->proven.data();
  }

  ctx.analysis = kernel_analysis();
  const uint64_t insts = gpurf::exec::run_functional(ctx);
  if (opt.thread_insts) *opt.thread_insts = insts;
  return inst.gmem.read_f32(inst.out_base, inst.out_words);
}

}  // namespace gpurf::workloads
