#pragma once
// Use/def helpers shared by the dataflow pass (analysis/dataflow.hpp), SSA
// construction and the interference builder.

#include "ir/instruction.hpp"

namespace gpurf::analysis {

/// Invoke fn(reg_id) for every register read by `in` (sources + guard).
template <typename Fn>
void for_each_use(const gpurf::ir::Instruction& in, Fn&& fn) {
  for (int i = 0; i < in.num_srcs; ++i)
    if (in.srcs[i].is_reg()) fn(in.srcs[i].index);
  if (in.guard != gpurf::ir::kNoReg) fn(in.guard);
}

/// The register defined by `in`, or kNoReg.
inline uint32_t def_of(const gpurf::ir::Instruction& in) {
  return in.info().has_dst ? in.dst : gpurf::ir::kNoReg;
}

/// A guarded (predicated) definition only partially defines its destination:
/// inactive lanes keep the old value, so the old value must stay live.
inline bool is_partial_def(const gpurf::ir::Instruction& in) {
  return in.info().has_dst && in.guard != gpurf::ir::kNoReg;
}

}  // namespace gpurf::analysis
