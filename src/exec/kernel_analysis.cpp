#include "exec/kernel_analysis.hpp"

#include "analysis/range_analysis.hpp"

namespace gpurf::exec {

namespace ir = gpurf::ir;

namespace {

/// Resolve the fused (opcode, type) lane operation.  The mapping mirrors
/// exec_lane's runtime branches exactly, including the CVT quirk that a
/// float source dominates the decision (dst S32 -> f2s, anything else ->
/// f2u), so SoA and scalar execution can never disagree.
LaneOp classify_lane_op(const ir::Instruction& in) {
  using ir::Opcode;
  using ir::Type;
  const bool f = in.type == Type::F32;
  const bool s = in.type == Type::S32;
  switch (in.op) {
    case Opcode::ADD: return f ? LaneOp::kAddF : LaneOp::kAddI;
    case Opcode::SUB: return f ? LaneOp::kSubF : LaneOp::kSubI;
    case Opcode::MUL: return f ? LaneOp::kMulF : LaneOp::kMulI;
    case Opcode::MAD: return f ? LaneOp::kMadF : LaneOp::kMadI;
    case Opcode::DIV:
      return f ? LaneOp::kDivF : (s ? LaneOp::kDivS : LaneOp::kDivU);
    case Opcode::REM: return s ? LaneOp::kRemS : LaneOp::kRemU;
    case Opcode::MIN:
      return f ? LaneOp::kMinF : (s ? LaneOp::kMinS : LaneOp::kMinU);
    case Opcode::MAX:
      return f ? LaneOp::kMaxF : (s ? LaneOp::kMaxS : LaneOp::kMaxU);
    case Opcode::ABS: return f ? LaneOp::kAbsF : LaneOp::kAbsI;
    case Opcode::NEG: return f ? LaneOp::kNegF : LaneOp::kNegI;
    case Opcode::AND: return LaneOp::kAnd;
    case Opcode::OR: return LaneOp::kOr;
    case Opcode::XOR: return LaneOp::kXor;
    case Opcode::NOT: return LaneOp::kNot;
    case Opcode::SHL: return LaneOp::kShl;
    case Opcode::SHR: return s ? LaneOp::kShrS : LaneOp::kShrU;
    case Opcode::SIN: return LaneOp::kSin;
    case Opcode::COS: return LaneOp::kCos;
    case Opcode::EX2: return LaneOp::kEx2;
    case Opcode::LG2: return LaneOp::kLg2;
    case Opcode::SQRT: return LaneOp::kSqrt;
    case Opcode::RSQRT: return LaneOp::kRsqrt;
    case Opcode::RCP: return LaneOp::kRcp;
    case Opcode::MOV: return LaneOp::kMov;
    case Opcode::SELP: return LaneOp::kSelp;
    case Opcode::CVT:
      if (in.cvt_src_type == Type::F32)
        return in.type == Type::S32 ? LaneOp::kCvtF2S : LaneOp::kCvtF2U;
      if (in.type == Type::F32)
        return in.cvt_src_type == Type::S32 ? LaneOp::kCvtS2F
                                            : LaneOp::kCvtU2F;
      return LaneOp::kCvtBits;
    case Opcode::SETP:
      return f ? LaneOp::kSetpF
               : (in.type == Type::U32 ? LaneOp::kSetpU : LaneOp::kSetpS);
    case Opcode::LD_GLOBAL: return LaneOp::kLdGlobal;
    case Opcode::LD_SHARED: return LaneOp::kLdShared;
    case Opcode::TEX2D: return LaneOp::kTex2d;
    case Opcode::ST_GLOBAL:
    case Opcode::ST_SHARED: return LaneOp::kStore;
    case Opcode::BRA:
    case Opcode::RET:
    case Opcode::BAR: return LaneOp::kControl;
  }
  return LaneOp::kControl;
}

}  // namespace

KernelAnalysis::KernelAnalysis(const ir::Kernel& k)
    : cfg_(analysis::build_cfg(k)),
      dataflow_(analysis::compute_dataflow(k, cfg_)) {
  decoded_.reserve(dataflow_.num_insts);
  for (uint32_t blk = 0; blk < k.blocks.size(); ++blk) {
    const auto& b = k.blocks[blk];
    for (uint32_t i = 0; i < b.insts.size(); ++i) {
      const auto& in = b.insts[i];
      DecodedInst d;
      d.in = &in;
      d.lane_op = classify_lane_op(in);
      d.num_srcs = in.num_srcs;
      d.has_dst = in.info().has_dst;
      d.is_store =
          in.op == ir::Opcode::ST_GLOBAL || in.op == ir::Opcode::ST_SHARED;
      d.is_control = in.op == ir::Opcode::BRA || in.op == ir::Opcode::RET ||
                     in.op == ir::Opcode::BAR;
      d.is_mem_read = d.lane_op == LaneOp::kLdGlobal ||
                      d.lane_op == LaneOp::kLdShared ||
                      d.lane_op == LaneOp::kTex2d;
      d.dead_dst = d.has_dst && dataflow_.dst_dead(blk, i);
      d.flat = static_cast<uint32_t>(decoded_.size());
      decoded_.push_back(d);
    }
  }
}

}  // namespace gpurf::exec

namespace gpurf::analysis {

RangeAnalysisResult analyze_ranges(const ir::Kernel& k,
                                   const ir::LaunchConfig& lc) {
  const exec::KernelAnalysis ka(k);
  return analyze_ranges(k, ka.cfg(), ka.dataflow(), lc);
}

}  // namespace gpurf::analysis
