#pragma once
// Functional SIMT interpreter.
//
// Threads execute in warps of 32 in lockstep; control-flow divergence is
// handled with a reconvergence stack whose reconvergence points are the
// immediate post-dominators of the branching blocks — the same mechanism
// GPGPU-Sim models for the paper's baseline (§3.1).
//
// The interpreter serves two masters:
//  * standalone functional runs (reference outputs and the precision
//    tuner's quality probes), via run_functional();
//  * the cycle-level timing simulator, which drives warps one instruction
//    at a time through BlockExec::step() and reads back the memory trace
//    of each instruction for its cache / coalescing model.
//
// Execution model (ISSUE 2): the data path is warp-vectorized — operands
// are read as 32-wide struct-of-arrays rows, each predecoded LaneOp
// runs as one branch-free lane loop the compiler auto-vectorises, and the
// destination row is written back under the active mask.  The per-lane
// scalar path (exec_lane) is retained as the bit-identical reference for
// asserts and differential fuzzing (ExecContext::use_soa = false).
// run_functional() additionally shards independent grid blocks across the
// shared thread pool with per-shard write-combine buffers merged in grid
// order, so parallel runs stay bit-identical to the serial schedule.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/kernel_analysis.hpp"
#include "exec/machine.hpp"
#include "ir/kernel.hpp"

namespace gpurf::exec {

constexpr uint32_t kWarpSize = 32;

/// One reconvergence-stack entry: execute from (blk, inst) with `mask`
/// until reaching block `rpc_blk` (kNoBlock = kernel exit).
struct StackEntry {
  uint32_t blk = 0;
  uint32_t inst = 0;
  uint32_t rpc_blk = gpurf::ir::kNoBlock;
  uint32_t mask = 0;
};

/// Result of executing one warp instruction; consumed by the timing model.
/// Caller-owned and reused across steps: BlockExec::step() overwrites every
/// field except the `addr` lanes outside the memory trace.
struct StepResult {
  const gpurf::ir::Instruction* inst = nullptr;
  uint32_t active_mask = 0;  ///< lanes that actually executed
  bool warp_done = false;
  bool at_barrier = false;
  /// Memory trace: per-lane word address (global/shared) or texel index
  /// (texture); valid for lanes set in active_mask of memory instructions.
  std::array<uint32_t, kWarpSize> addr;
};

class WarpState {
 public:
  WarpState(uint32_t num_regs, uint32_t warp_in_block, uint32_t valid_mask)
      : regs_(size_t(num_regs) * kWarpSize, 0),
        warp_in_block_(warp_in_block),
        valid_mask_(valid_mask) {
    stack_.push_back(
        StackEntry{0, 0, gpurf::ir::kNoBlock, valid_mask});
  }

  uint32_t reg(uint32_t r, uint32_t lane) const {
    return regs_[size_t(r) * kWarpSize + lane];
  }
  void set_reg(uint32_t r, uint32_t lane, uint32_t v) {
    regs_[size_t(r) * kWarpSize + lane] = v;
  }

  /// Contiguous 32-lane row of register `r` — the storage is already
  /// struct-of-arrays (register-major, lanes adjacent), so the SoA warp
  /// kernels gather and scatter whole rows with vector loads/stores.
  const uint32_t* lanes(uint32_t r) const {
    return regs_.data() + size_t(r) * kWarpSize;
  }

  bool done() const { return done_; }
  uint32_t warp_in_block() const { return warp_in_block_; }
  uint32_t valid_mask() const { return valid_mask_; }
  const std::vector<StackEntry>& stack() const { return stack_; }

 private:
  friend class BlockExec;
  std::vector<uint32_t> regs_;
  std::vector<StackEntry> stack_;
  uint32_t warp_in_block_;
  uint32_t valid_mask_;
  bool done_ = false;
};

/// Execution state of one thread block: its warps plus shared memory.
class BlockExec {
 public:
  BlockExec(ExecContext& ctx, uint32_t ctaid_x, uint32_t ctaid_y);

  uint32_t num_warps() const { return static_cast<uint32_t>(warps_.size()); }
  const WarpState& warp(uint32_t w) const { return warps_[w]; }
  /// Mutable warp state — the soft-error injector's write path (PR 7):
  /// the timing simulator flips bits of resident registers between cycles.
  WarpState& warp_mut(uint32_t w) { return warps_[w]; }
  bool warp_done(uint32_t w) const { return warps_[w].done(); }
  bool all_done() const;

  /// Predecoded view of the instruction the warp will execute next
  /// (nullptr when done) — lets the timing simulator index its per-launch
  /// timing table instead of re-deriving opcode classes.  Inline: the
  /// simulator calls it after every warp step.
  const DecodedInst* peek_decoded(uint32_t w) const {
    const WarpState& ws = warps_[w];
    if (ws.done()) return nullptr;
    const StackEntry& tos = ws.stack_.back();
    return &ka_->inst(tos.blk, tos.inst);
  }

  /// Execute exactly one warp instruction, describing it in `res`.
  void step(uint32_t w, StepResult& res);

  /// Run the whole block functionally, respecting barriers by rotating
  /// between warps at barrier boundaries.
  void run_to_completion();

 private:
  uint32_t read_operand(const WarpState& ws, const gpurf::ir::Operand& o,
                        uint32_t lane) const;
  void write_dst(WarpState& ws, const gpurf::ir::Instruction& in,
                 uint32_t lane, uint32_t raw);
  uint32_t special_value(gpurf::ir::Special s, uint32_t warp_in_block,
                         uint32_t lane) const;
  uint32_t exec_lane(const WarpState& ws, const gpurf::ir::Instruction& in,
                     uint32_t lane, StepResult& res) const;
  // SoA warp data path (default): register rows read in place, one
  // branch-free lane loop per fused LaneOp, masked row write-back.
  const uint32_t* gather_operand(const WarpState& ws,
                                 const gpurf::ir::Operand& o,
                                 uint32_t* scratch) const;
  void exec_warp(WarpState& ws, const DecodedInst& dec, uint32_t exec_mask,
                 StepResult& res);
  void write_dst_warp(WarpState& ws, const gpurf::ir::Instruction& in,
                      uint32_t exec_mask, uint32_t* vals);
  void advance(WarpState& ws, const gpurf::ir::Instruction& in,
               uint32_t exec_mask, StepResult& res);
  void pop_reconverged(WarpState& ws);

  ExecContext& ctx_;
  const gpurf::ir::Kernel& k_;
  /// Shared immutable analysis (CFG, ipdoms, decoded instruction stream),
  /// borrowed from ctx.analysis, which must be set.
  std::shared_ptr<const KernelAnalysis> ka_;
  uint32_t ctaid_x_, ctaid_y_;
  std::vector<WarpState> warps_;
  std::vector<uint32_t> shared_;
  /// Set by step() for the instruction in flight: the static memory pass
  /// proved every dynamic address of this site in bounds and elision is on
  /// (ISSUE 10) — the load paths skip their GPURF_CHECKs.
  bool step_mem_proven_ = false;
};

/// Run the entire grid functionally (block by block).  Returns the total
/// number of thread instructions executed.  Throws gpurf::Error if
/// ctx.precision fails PrecisionMap::validate for the kernel.
uint64_t run_functional(ExecContext& ctx);

}  // namespace gpurf::exec
