#pragma once
// Shared per-kernel execution analysis (ISSUE 1 tentpole, exec layer).
//
// BlockExec used to rebuild the CFG and recompute immediate post-dominators
// for every thread block it executed — once per grid block, per functional
// run, per tuner probe.  For a tuning session that is hundreds of thousands
// of identical recomputations of the same static facts.
//
// KernelAnalysis hoists everything the interpreter needs that depends only
// on the kernel text into one immutable, shareable object:
//   * the CFG with its dominator facts (ipdom: SIMT reconvergence points),
//   * a flattened decoded instruction stream: block-major, contiguous,
//     with per-instruction flags (has_dst, control class) predecoded so
//     the dispatch loop stops chasing the opcode-info table.
//
// The owner of a kernel builds its analysis (a Workload once, lazily; a
// simulation once per launch; a functional run once for all its blocks)
// and lends it out; concurrent tuner probes share one immutable analysis.
// The decoded stream points into the kernel's instruction storage, so an
// analysis is valid only while its kernel lives unmodified.

#include <cstdint>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "ir/kernel.hpp"

namespace gpurf::exec {

/// Fused (opcode, type) lane operation, resolved at decode time so the SoA
/// warp dispatcher switches exactly once per warp instruction (ISSUE 2).
/// Every variant the scalar exec_lane reference distinguishes at runtime
/// gets its own enumerator; the two paths must stay bit-for-bit equal.
enum class LaneOp : uint8_t {
  kAddF, kAddI, kSubF, kSubI, kMulF, kMulI, kMadF, kMadI,
  kDivF, kDivS, kDivU, kRemS, kRemU,
  kMinF, kMinS, kMinU, kMaxF, kMaxS, kMaxU,
  kAbsF, kAbsI, kNegF, kNegI,
  kAnd, kOr, kXor, kNot, kShl, kShrS, kShrU,
  kSin, kCos, kEx2, kLg2, kSqrt, kRsqrt, kRcp,
  kMov, kSelp,
  kCvtF2S, kCvtF2U, kCvtS2F, kCvtU2F, kCvtBits,
  kSetpF, kSetpS, kSetpU,
  kLdGlobal, kLdShared, kTex2d,
  kStore,    ///< ST_GLOBAL / ST_SHARED (handled by the store path)
  kControl,  ///< BRA / RET / BAR (no lane data path)
};

/// One predecoded instruction: the IR instruction plus the hot flags the
/// dispatch loop consults every step.
struct DecodedInst {
  const gpurf::ir::Instruction* in = nullptr;
  LaneOp lane_op = LaneOp::kControl;
  uint8_t num_srcs = 0;     ///< copied from the instruction (gather count)
  bool has_dst = false;
  bool is_store = false;    ///< ST_GLOBAL / ST_SHARED
  bool is_control = false;  ///< BRA / RET / BAR (no lane data path)
  /// LD_GLOBAL / LD_SHARED / TEX2D: side effects (bounds checks, the
  /// memory trace) must still execute when the destination write is
  /// elided.
  bool is_mem_read = false;
  /// Destination is statically dead right after this write (PR 9): the
  /// interpreter may skip quantize/range-check/writeback — and for pure
  /// ALU ops the whole data path — without observable effect.
  bool dead_dst = false;
  /// Block-major flattened instruction index (position in the decoded
  /// stream).  Indexes launch-dependent side tables such as
  /// ExecContext::mem_proven (ISSUE 10).
  uint32_t flat = 0;
};

class KernelAnalysis {
 public:
  explicit KernelAnalysis(const gpurf::ir::Kernel& k);

  const analysis::Cfg& cfg() const { return cfg_; }
  const std::vector<uint32_t>& ipdom() const { return cfg_.ipdom; }

  /// The kernel's one liveness pass: block live-in/out, pressure and
  /// undefined reads, plus per-point live sets, dead-dst flags and linear
  /// live intervals — computed once and held beside the CFG, shared by
  /// the interpreter, range analysis, memory prover, allocator and
  /// soft-error model.
  const analysis::Dataflow& dataflow() const { return dataflow_; }

  /// Decoded instruction at (block, index) — contiguous block-major layout.
  const DecodedInst& inst(uint32_t blk, uint32_t idx) const {
    return decoded_[dataflow_.inst_first[blk] + idx];
  }
  uint32_t block_size(uint32_t blk) const { return dataflow_.block_size[blk]; }
  uint32_t num_blocks() const {
    return static_cast<uint32_t>(dataflow_.block_size.size());
  }

 private:
  analysis::Cfg cfg_;
  analysis::Dataflow dataflow_;
  std::vector<DecodedInst> decoded_;
};

}  // namespace gpurf::exec
