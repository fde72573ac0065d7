#pragma once
// Cycle-level GPU timing simulator (paper §3.1 baseline + §3.2 proposal).
//
// Modelled mechanisms — exactly the ones the paper's results flow from:
//  * block dispatcher with occupancy limits (registers / shared memory /
//    max warps / max blocks);
//  * two GTO warp schedulers per SM, dual issue;
//  * scoreboard without forwarding (dependent instructions wait for
//    writeback, §6.3);
//  * operand collector: 16 collector units, per-bank arbitration over the
//    16 register banks, bank = (reg + warp) % 16;
//  * compressed mode adds: source indirection-table read stage, split
//    operands costing two fetches, Value Converter throughput of six
//    warp conversions per cycle, and a configurable writeback delay;
//  * SPU x2 / SFU / LD-ST pipelines with per-class latencies;
//  * memory coalescing into 128-byte lines, L1 / texture / shared L2 /
//    DRAM latencies, shared-memory bank conflicts.
//
// Execution is functional-at-issue: when a warp instruction issues, the
// interpreter (exec::BlockExec) executes it and the timing token flows
// through collection, execution and writeback.  Precision maps quantize
// f32 writes during compressed runs, so timing results correspond to the
// same numerics the quality metrics scored.
//
// Sharded execution (ISSUE 5): SimOptions::shards > 1 partitions the SMs
// into contiguous index ranges ticked in parallel; the shards meet at a
// deterministic barrier once per window of W = max(1, min(lat_l1_hit,
// lat_tex_hit)) cycles, not once per cycle.  The window rule: an SM ticks
// privately until the window ends or until a tick frees one of its block
// slots (an event); the serial phase then replays the events in cycle
// order — refilling slots from the block dispatcher in SM-index order at
// the event's cycle — and replays the window's buffered L2 probes in
// (cycle, SM) order.  Every L2-dependent writeback lands at least W cycles
// after its issue, so it is scheduled before any tick that could see it.
// For the same reason an SM inside a window whose warps all wait on the
// scoreboard or a barrier, with no collector unit in use, jumps to its
// next writeback and records the stalls of the cycles it skipped.
// Serial runs and soft-flip runs take W = 1.  The shards run on the
// current thread pool's resident workers through
// ThreadPool::try_parallel_for; when the pool is busy (another simulation
// or fan-out holds it) the run takes the serial schedule with identical
// results, and fan-outs issued while a simulation holds the pool run
// inline on their callers instead of waiting for it.
// Each SM owns private SimStats, a private ExecContext (thread_insts) and
// its private L1 / texture caches; the only cross-SM structures — the
// block dispatcher and the shared L2 — are touched exclusively in the
// serial phase, in that fixed order.  SimStats are therefore
// bit-identical to the serial schedule at every shard count.
//
// Sharded memory contract (stricter than block-parallel run_functional,
// which replays a write log in grid order): blocks of one launch must
// neither read another block's global-memory writes NOR store to a word
// another block stores to — SMs execute functionally against the one
// shared GlobalMemory during the parallel tick, so overlapping stores
// from different SMs would be an unsynchronized data race.  Since
// ISSUE 10 this contract is statically verified, not assumed: the
// memory-access analysis (analysis/memory_access.hpp) proves per-block
// store/load footprint disjointness from the launch's concrete
// parameters, and Engine::simulate only shards when the proof holds.
// Workloads the interval domain cannot prove (2-D tiled footprints,
// data-dependent addressing) carry an explicit, per-workload documented
// assume_disjoint waiver in their WorkloadSpec; unproven, unwaived
// kernels fall back to shards = 1 with bit-identical results (SimStats
// are shard-count-invariant, see above).  Direct sim::simulate calls
// default to shards = 1 and take no verdict.

#include <memory>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "common/cancel.hpp"
#include "exec/interp.hpp"
#include "exec/machine.hpp"
#include "ir/kernel.hpp"
#include "sim/config.hpp"
#include "sim/occupancy.hpp"
#include "sim/stats.hpp"

namespace gpurf::sim {

/// Transient (SEU) soft-error process for one launch (PR 7).  Bit flips
/// arrive as a Poisson process over continuous cycle time and land on a
/// uniformly random physical site (SM, warp slot, physical register,
/// slice, lane, bit-within-slice).  The process is fully determined by
/// (rate, seed): the same pair produces the same flip trace — and the same
/// SimStats — at every shard count, because flips are generated and
/// applied in the serial barrier phase in SM-index order.  A rate <= 0
/// disables injection entirely and draws no random numbers, so such runs
/// are bit-identical to fault-free references.
struct SoftErrorSpec {
  /// Expected flips per million simulated cycles over the whole GPU.
  double flips_per_mcycle = 0.0;
  uint64_t seed = 1;
  /// Accumulate the live-bit exposure integral even when the flip rate is
  /// zero.  A rate-0 run with this set executes identically to fault-free
  /// (no flips, no RNG draws) but reports SimStats::soft_live_bit_cycles —
  /// the deterministic cross-section measurement bench_soft compares
  /// between baseline and compressed.  Left false, rate-0 runs are
  /// bit-identical to fault-free references in every SimStats field.
  bool track_exposure = false;

  bool enabled() const { return flips_per_mcycle > 0.0; }
  bool active() const { return enabled() || track_exposure; }
};

struct KernelLaunchSpec {
  const gpurf::ir::Kernel* kernel = nullptr;
  gpurf::ir::LaunchConfig launch;
  gpurf::exec::GlobalMemory* gmem = nullptr;
  const std::vector<gpurf::exec::Texture>* textures = nullptr;
  std::vector<uint32_t> params;

  /// Register pressure used for occupancy (baseline colouring or the
  /// compressed physical count from the slice allocator).
  uint32_t regs_per_thread = 0;

  /// Compressed mode only: quantization of f32 register writes and the
  /// operand -> physical-register mapping for bank traffic.
  const gpurf::exec::PrecisionMap* precision = nullptr;
  const gpurf::alloc::AllocationResult* allocation = nullptr;

  /// Transient soft-error injection (PR 7).  Part of the launch spec, not
  /// SimOptions: an active flip process changes functional state and
  /// SimStats, while SimOptions is documented results-invariant.
  SoftErrorSpec soft;
};

/// Fault-injection outcome of one simulated launch (PR 6).  The simulator
/// itself only charges the redirection penalty — the report is assembled
/// by the caller (Engine::simulate) from the fault map, the fault-aware
/// allocation and the optional quality probe; `active == false` means the
/// run was fault-free and every other field is at its default.
struct FaultInjectionReport {
  bool active = false;
  uint64_t seed = 0;
  double density = 0.0;             ///< actual density of the injected map
  uint32_t faults_total = 0;        ///< faulty slice sites in the map
  uint32_t faults_in_footprint = 0; ///< inside the allocated registers
  uint32_t registers_redirected = 0;
  uint32_t registers_spilled = 0;
  uint32_t spill_regs = 0;          ///< spill-store slots consumed
  double coverage_pct = 100.0;      ///< AllocationResult::fault_coverage_pct
  bool quality_scored = false;      ///< quality delta below is meaningful
  double quality_fault_free = 0.0;
  double quality_faulty = 0.0;
  double quality_delta = 0.0;       ///< positive = worse than fault-free

  bool operator==(const FaultInjectionReport&) const = default;
};

/// AVF-style vulnerability breakdown of one soft-error run (PR 7).  The
/// counter fields mirror SimStats (they are the merged totals); the report
/// adds the spec that produced them plus the quality delta the Engine
/// scores via the workload metric.  `active == false` means no flip
/// process was attached and every other field is at its default.
struct SoftErrorReport {
  bool active = false;
  double flips_per_mcycle = 0.0;
  uint64_t seed = 0;
  uint64_t flips_injected = 0;
  uint64_t flips_on_live = 0;
  uint64_t flips_masked_dead = 0;
  uint64_t flips_visible = 0;
  uint64_t live_bit_cycles = 0;     ///< deterministic exposure integral
  /// Static AVF refinement (PR 9): flips provably masked by the static
  /// live mask alone (<= flips_masked_dead), and the static upper-bound
  /// integral (>= live_bit_cycles).
  uint64_t flips_static_dead = 0;
  uint64_t static_live_bit_cycles = 0;
  bool quality_scored = false;
  double quality_fault_free = 0.0;
  double quality_faulty = 0.0;
  double quality_delta = 0.0;

  /// Architecturally-visible flips per injected flip (AVF proxy).
  double avf() const {
    return flips_injected == 0 ? 0.0
                               : double(flips_visible) / double(flips_injected);
  }

  bool operator==(const SoftErrorReport&) const = default;
};

struct SimResult {
  SimStats stats;
  Occupancy occupancy;
  FaultInjectionReport fault;
  SoftErrorReport soft;
};

/// Execution-strategy knobs for one simulate() call (timing results are
/// identical for every setting; only wall-clock changes).
struct SimOptions {
  /// Number of SM shards ticked in parallel between barriers, which come
  /// once per window of max(1, min(lat_l1_hit, lat_tex_hit)) cycles (see
  /// the file comment).  1 = serial (the reference schedule); <= 0
  /// resolves to the current thread pool's width; values are clamped to
  /// min(pool width, num_sms).  Nested calls from inside a pool worker
  /// always degrade to serial.
  int shards = 1;
};

/// Validate a GpuConfig and launch spec before committing simulator
/// resources.  Bad input (zero SMs, warp schedulers, register banks,
/// collector units or max warps per SM, or more than the GpuConfig::kMax*
/// bounds; missing kernel/memory, unset register pressure, a block shape
/// with zero threads, a precision map that is neither empty nor one
/// Table-3 format per kernel register) raises gpurf::Error via GPURF_CHECK — recoverable
/// at the Engine boundary, which converts it to a Status instead of
/// terminating.  An *empty grid* (zero blocks) is legal: it is a
/// degenerate launch that simulates in exactly zero cycles (ISSUE 5 fixed
/// the drain-tick off-by-one that used to charge one cycle for it).  Note
/// that compressed mode (comp.enabled) without a slice allocation is
/// legal: the conversion/writeback overheads apply even when every
/// operand still maps 1:1 (`comp` is taken for future mode-dependent
/// checks).
void validate_launch_spec(const GpuConfig& gpu, const CompressionConfig& comp,
                          const KernelLaunchSpec& spec);

/// Run one kernel launch to completion.  Calls validate_launch_spec first.
/// `cancel` (nullable) is the cooperative stop/progress channel: the
/// serial phase polls it every 4096 cycles, publishing the
/// simulated-cycle count and throwing common::CancelledError once a stop
/// was requested — the partially-advanced simulator state is simply
/// discarded with the stack, so cancellation can never corrupt anything
/// observable.  `opt.shards` selects serial vs. multi-SM sharded
/// execution; SimStats are bit-identical either way.
SimResult simulate(const GpuConfig& gpu, const CompressionConfig& comp,
                   const KernelLaunchSpec& spec,
                   gpurf::common::CancelToken* cancel = nullptr,
                   const SimOptions& opt = {});

}  // namespace gpurf::sim
