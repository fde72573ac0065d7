#include "analysis/cfg.hpp"

#include <algorithm>

namespace gpurf::analysis {

using gpurf::ir::Kernel;

namespace {

/// Reverse post-order of the nodes reachable from `root`, by iterative DFS.
std::vector<uint32_t> reverse_postorder(
    const std::vector<std::vector<uint32_t>>& succs, uint32_t root) {
  std::vector<uint8_t> seen(succs.size(), 0);
  std::vector<uint32_t> post;
  post.reserve(succs.size());
  std::vector<std::pair<uint32_t, size_t>> stack;
  stack.emplace_back(root, 0);
  seen[root] = 1;
  while (!stack.empty()) {
    auto& [b, i] = stack.back();
    if (i < succs[b].size()) {
      const uint32_t s = succs[b][i++];
      if (!seen[s]) {
        seen[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      post.push_back(b);
      stack.pop_back();
    }
  }
  return {post.rbegin(), post.rend()};
}

/// Cooper-Harvey-Kennedy immediate dominators of a graph given by its
/// predecessor lists and a reverse post-order from its root (rpo[0]).
/// idom[root] == root; nodes outside `rpo` get kNoBlock.
std::vector<uint32_t> dominator_fixpoint(
    const std::vector<std::vector<uint32_t>>& preds,
    const std::vector<uint32_t>& rpo) {
  const size_t n = preds.size();
  std::vector<uint32_t> idom(n, kNoBlock);
  if (rpo.empty()) return idom;
  std::vector<uint32_t> rpo_index(n, UINT32_MAX);
  for (uint32_t i = 0; i < rpo.size(); ++i) rpo_index[rpo[i]] = i;
  // Intersection on RPO indices (smaller index = closer to the root).
  auto intersect = [&](uint32_t a, uint32_t b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = idom[a];
      while (rpo_index[b] > rpo_index[a]) b = idom[b];
    }
    return a;
  };
  const uint32_t root = rpo[0];
  idom[root] = root;
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t b : rpo) {
      if (b == root) continue;
      uint32_t new_idom = kNoBlock;
      for (uint32_t p : preds[b]) {
        if (idom[p] == kNoBlock) continue;  // not yet processed/unreachable
        new_idom = new_idom == kNoBlock ? p : intersect(p, new_idom);
      }
      if (new_idom != kNoBlock && idom[b] != new_idom) {
        idom[b] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

/// Immediate post-dominators; the virtual exit maps to kNoBlock.
std::vector<uint32_t> compute_ipdom(const Cfg& cfg) {
  const uint32_t n = cfg.num_blocks();
  // Reverse CFG with virtual exit node `n`.  Exit blocks (no successors)
  // connect to the virtual exit.
  const uint32_t vexit = n;
  std::vector<std::vector<uint32_t>> rsuccs(n + 1), rpreds(n + 1);
  for (uint32_t b = 0; b < n; ++b) {
    if (cfg.succs[b].empty()) {
      rsuccs[vexit].push_back(b);
      rpreds[b].push_back(vexit);
    }
    for (uint32_t s : cfg.succs[b]) {
      rsuccs[s].push_back(b);
      rpreds[b].push_back(s);
    }
  }
  const auto ipdom =
      dominator_fixpoint(rpreds, reverse_postorder(rsuccs, vexit));
  std::vector<uint32_t> out(n, kNoBlock);
  for (uint32_t b = 0; b < n; ++b)
    out[b] = (ipdom[b] == vexit) ? kNoBlock : ipdom[b];
  return out;
}

std::vector<std::vector<uint32_t>> compute_dominance_frontiers(
    const Cfg& cfg) {
  const std::vector<uint32_t>& idom = cfg.idom;
  const uint32_t n = cfg.num_blocks();
  std::vector<std::vector<uint32_t>> df(n);
  for (uint32_t b = 0; b < n; ++b) {
    if (cfg.preds[b].size() < 2) continue;
    for (uint32_t p : cfg.preds[b]) {
      uint32_t runner = p;
      while (runner != kNoBlock && runner != idom[b]) {
        auto& v = df[runner];
        if (std::find(v.begin(), v.end(), b) == v.end()) v.push_back(b);
        if (runner == idom[runner]) break;  // reached entry
        runner = idom[runner];
      }
    }
  }
  return df;
}

}  // namespace

Cfg build_cfg(const Kernel& k) {
  Cfg cfg;
  const uint32_t n = static_cast<uint32_t>(k.blocks.size());
  cfg.succs.resize(n);
  cfg.preds.resize(n);
  for (uint32_t b = 0; b < n; ++b) {
    cfg.succs[b] = k.successors(b);
    for (uint32_t s : cfg.succs[b]) cfg.preds[s].push_back(b);
  }
  cfg.rpo = reverse_postorder(cfg.succs, 0);
  cfg.idom = dominator_fixpoint(cfg.preds, cfg.rpo);
  cfg.ipdom = compute_ipdom(cfg);
  cfg.frontiers = compute_dominance_frontiers(cfg);
  return cfg;
}

}  // namespace gpurf::analysis
