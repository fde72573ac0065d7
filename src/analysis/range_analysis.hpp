#pragma once
// Static integer range analysis in the style of Pereira et al. [CGO'13],
// the framework the paper adopts in §4.2 to find narrow integer operands.
//
// Pipeline:
//   1. SSA construction (dominance frontiers, pruned phi placement).
//   2. e-SSA: sigma nodes on the outgoing edges of conditional branches,
//      capturing the inequality enforced by the branch (Fig. 8b).
//   3. A constraint graph whose strongly-connected components are solved in
//      topological order with the classic three phases: growth analysis with
//      jump-to-infinity widening, future (sigma-bound) resolution, and
//      narrowing (Fig. 8c).
//   4. Per-register merge: the union of the ranges of all SSA definitions of
//      each original register, from which the required bitwidth and
//      signedness are derived (Fig. 8d).
//
// Special registers (%tid, %ctaid, ...) are seeded from the launch
// configuration; parameters use their declared range contract or the full
// type range, as ptxas would.
//
// The memory-access pass (ISSUE 10) reuses the same solver with three
// extensions, all opt-in via RangeAnalysisOptions: the %ctaid seeds can be
// pinned to a single block (per-block footprints), parameters can be seeded
// with the exact runtime values of one launch (buffer base addresses), and
// the solved interval of every load/store address operand can be collected
// per instruction site.

#include <optional>
#include <vector>

#include "analysis/interval.hpp"
#include "ir/kernel.hpp"

namespace gpurf::analysis {

struct IntWidthInfo {
  Interval range = Interval::full_s32();
  int bits = 32;          ///< bits that must be stored (1..32)
  bool is_signed = true;  ///< needs sign extension on read (lo < 0)
  bool analyzed = false;  ///< true only for integer data registers
};

/// Solved interval of the address operand of one memory instruction.
/// `value` is the mathematical range of the register *before* the
/// interpreter's u32 reinterpretation and mem_offset addition — consumers
/// (memory_access.cpp) apply those themselves.
struct MemSiteRange {
  uint32_t blk = 0;
  uint32_t inst = 0;              ///< index within blocks[blk].insts
  Interval value = Interval::empty();
  bool reached = false;  ///< site renamed (statically reachable from entry)
};

struct RangeAnalysisOptions {
  /// Collect MemSiteRange for every LD/ST (global and shared) site.
  bool collect_mem = false;
  /// Pin %ctaid.x / %ctaid.y to a sub-range (typically a point) instead of
  /// the full grid — per-block footprint solves.  %nctaid keeps the grid.
  std::optional<Interval> ctaid_x;
  std::optional<Interval> ctaid_y;
  /// Exact runtime parameter words of one launch; when set, parameter i is
  /// seeded with the point interval of its value (interpreted in the
  /// parameter's declared type) instead of its declared range contract.
  const std::vector<uint32_t>* param_values = nullptr;
};

struct RangeAnalysisResult {
  std::vector<IntWidthInfo> regs;  ///< indexed by kernel register id
  /// Per-memory-instruction address operand ranges, block-major, one entry
  /// per LD_GLOBAL/LD_SHARED/ST_GLOBAL/ST_SHARED site (TEX2D is clamped by
  /// construction and excluded).  Empty unless options.collect_mem.
  std::vector<MemSiteRange> mem;

  /// Total 4-bit slices needed by an integer register under this analysis.
  int slices_for_reg(uint32_t r) const;
};

struct Cfg;       // cfg.hpp
struct Dataflow;  // dataflow.hpp

/// Solve over the kernel's CFG and dataflow (pruned phis read its
/// block-level live-in sets).  Callers pass the facts of the kernel's
/// exec::KernelAnalysis, so repeated solves never rebuild them.
RangeAnalysisResult analyze_ranges(const gpurf::ir::Kernel& k, const Cfg& cfg,
                                   const Dataflow& df,
                                   const gpurf::ir::LaunchConfig& lc,
                                   const RangeAnalysisOptions& options = {});

/// The same over an exec::KernelAnalysis of `k` built for this one call
/// (defined beside KernelAnalysis, in exec/kernel_analysis.cpp).
RangeAnalysisResult analyze_ranges(const gpurf::ir::Kernel& k,
                                   const gpurf::ir::LaunchConfig& lc);

}  // namespace gpurf::analysis
