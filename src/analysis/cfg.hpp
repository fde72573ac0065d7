#pragma once
// Control-flow graph utilities: predecessor/successor lists, reverse
// post-order, dominators, post-dominators (for SIMT reconvergence points)
// and dominance frontiers (for SSA phi placement).

#include <cstdint>
#include <vector>

#include "ir/kernel.hpp"

namespace gpurf::analysis {

constexpr uint32_t kNoBlock = gpurf::ir::kNoBlock;

struct Cfg {
  std::vector<std::vector<uint32_t>> succs;
  std::vector<std::vector<uint32_t>> preds;
  std::vector<uint32_t> rpo;  ///< reachable block ids in reverse post-order
  /// Immediate dominators (Cooper-Harvey-Kennedy).  idom[entry] == entry;
  /// unreachable blocks get kNoBlock.
  std::vector<uint32_t> idom;
  /// Immediate post-dominators over the reverse CFG with a virtual exit
  /// node.  ipdom[b] == kNoBlock means the virtual exit (b is
  /// post-dominated only by program exit).  Used as the SIMT reconvergence
  /// point of branches in b.
  std::vector<uint32_t> ipdom;
  /// Dominance frontiers (SSA phi placement).
  std::vector<std::vector<uint32_t>> frontiers;

  uint32_t num_blocks() const { return static_cast<uint32_t>(succs.size()); }
};

/// Edges, reverse post-order, dominators, post-dominators and dominance
/// frontiers of `k`, computed once.
Cfg build_cfg(const gpurf::ir::Kernel& k);

}  // namespace gpurf::analysis
