#include "analysis/memory_access.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "analysis/dataflow.hpp"
#include "common/error.hpp"

namespace gpurf::analysis {

namespace ir = gpurf::ir;

namespace {

bool is_global_op(ir::Opcode op) {
  return op == ir::Opcode::LD_GLOBAL || op == ir::Opcode::ST_GLOBAL;
}

bool is_store_op(ir::Opcode op) {
  return op == ir::Opcode::ST_GLOBAL || op == ir::Opcode::ST_SHARED;
}

/// Interpreter address arithmetic: addr = (int64)(u32)reg + mem_offset.
/// A solved value interval maps 1:1 onto addresses only when it already
/// fits u32; otherwise the reinterpretation may wrap and all we know is
/// the full u32 range.  Returns whether the mapping was exact.
bool effective_addr(const Interval& value, int64_t off, Interval* out) {
  if (value.is_empty() || value.lo < 0 ||
      value.hi > static_cast<int64_t>(UINT32_MAX)) {
    *out = Interval::make(off, static_cast<int64_t>(UINT32_MAX) + off);
    return false;
  }
  *out = Interval::make(value.lo + off, value.hi + off);
  return true;
}

/// One per-(site, block) address segment for the disjointness sweeps.
struct Seg {
  int64_t lo = 0;
  int64_t hi = 0;
  uint32_t block = 0;
};

/// Max-hi tracker over the two best *distinct-block* segments seen so far.
/// For a new segment from block b, the largest hi among earlier segments
/// of any other block is t1.hi (if t1.block != b) else t2.hi — keeping
/// more than two entries can never change that maximum.
struct Top2 {
  int64_t hi[2] = {0, 0};
  uint32_t block[2] = {0, 0};
  int n = 0;

  void add(int64_t h, uint32_t b) {
    for (int i = 0; i < n; ++i) {
      if (block[i] == b) {
        hi[i] = std::max(hi[i], h);
        if (n == 2 && hi[1] > hi[0]) {
          std::swap(hi[0], hi[1]);
          std::swap(block[0], block[1]);
        }
        return;
      }
    }
    if (n < 2) {
      hi[n] = h;
      block[n] = b;
      ++n;
    } else if (h > hi[1]) {
      hi[1] = h;
      block[1] = b;
    }
    if (n == 2 && hi[1] > hi[0]) {
      std::swap(hi[0], hi[1]);
      std::swap(block[0], block[1]);
    }
  }

  /// Largest hi among tracked segments NOT from block b (or nullopt).
  bool other_max(uint32_t b, int64_t* out) const {
    for (int i = 0; i < n; ++i) {
      if (block[i] != b) {
        *out = hi[i];
        return true;
      }
    }
    return false;
  }
};

/// True iff no two segments from different blocks overlap.
bool segments_disjoint(std::vector<Seg>& segs) {
  std::sort(segs.begin(), segs.end(), [](const Seg& a, const Seg& b) {
    return a.lo < b.lo || (a.lo == b.lo && a.block < b.block);
  });
  Top2 top;
  for (const Seg& s : segs) {
    int64_t h;
    if (top.other_max(s.block, &h) && s.lo <= h) return false;
    top.add(s.hi, s.block);
  }
  return true;
}

/// True iff no load segment overlaps a store segment from another block.
bool loads_are_local(const std::vector<Seg>& stores,
                     const std::vector<Seg>& loads) {
  struct Ev {
    Seg s;
    bool is_store;
  };
  std::vector<Ev> evs;
  evs.reserve(stores.size() + loads.size());
  for (const Seg& s : stores) evs.push_back({s, true});
  for (const Seg& s : loads) evs.push_back({s, false});
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    return a.s.lo < b.s.lo;
  });
  Top2 store_top, load_top;
  for (const Ev& e : evs) {
    int64_t h;
    if (e.is_store) {
      if (load_top.other_max(e.s.block, &h) && e.s.lo <= h) return false;
      store_top.add(e.s.hi, e.s.block);
    } else {
      if (store_top.other_max(e.s.block, &h) && e.s.lo <= h) return false;
      load_top.add(e.s.hi, e.s.block);
    }
  }
  return true;
}

AffineFootprint detect_affine(const std::vector<Interval>& hull) {
  AffineFootprint af;
  if (hull.empty()) return af;
  for (const Interval& h : hull)
    if (h.is_empty()) return af;
  af.lo0 = hull[0].lo;
  af.hi0 = hull[0].hi;
  if (hull.size() == 1) {
    af.valid = true;
    return af;
  }
  const int64_t s = hull[1].lo - hull[0].lo;
  for (size_t b = 0; b < hull.size(); ++b) {
    const int64_t d = s * static_cast<int64_t>(b);
    if (hull[b].lo != af.lo0 + d || hull[b].hi != af.hi0 + d) return af;
  }
  af.stride = s;
  af.valid = true;
  return af;
}

}  // namespace

std::string AffineFootprint::to_string() const {
  if (!valid) return "";
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%" PRId64 "%+" PRId64 "b, %" PRId64
                                 "%+" PRId64 "b]",
                lo0, stride, hi0, stride);
  return buf;
}

MemoryAccessAnalysis analyze_memory_accesses(const ir::Kernel& k,
                                             const Cfg& cfg,
                                             const Dataflow& df,
                                             const ir::LaunchConfig& lc,
                                             const MemoryAccessOptions& opts) {
  MemoryAccessAnalysis ma;
  ma.num_insts = df.num_insts;

  // Launch-wide solve: one interval per site covering every block/thread.
  RangeAnalysisOptions ro;
  ro.collect_mem = true;
  ro.param_values = opts.param_values;
  const RangeAnalysisResult full = analyze_ranges(k, cfg, df, lc, ro);

  ma.accesses.reserve(full.mem.size());
  for (const MemSiteRange& s : full.mem) {
    const ir::Instruction& in = k.blocks[s.blk].insts[s.inst];
    MemAccess a;
    a.blk = s.blk;
    a.inst = s.inst;
    a.flat = df.inst_first[s.blk] + s.inst;
    a.is_store = is_store_op(in.op);
    a.is_global = is_global_op(in.op);
    a.mem_offset = in.mem_offset;
    a.reached = s.reached;
    if (s.reached) a.addr_known = effective_addr(s.value, a.mem_offset, &a.addr);
    ma.num_global += a.is_global;
    ma.accesses.push_back(a);
  }

  if (!opts.footprints) return ma;

  // Fast path: a launch with no reachable global store cannot violate
  // either contract — nothing is written for another block to read or
  // collide with.
  bool any_global_store = false;
  for (const MemAccess& a : ma.accesses)
    any_global_store |= a.is_global && a.is_store && a.reached;
  if (!any_global_store) {
    ma.footprints_computed = true;
    ma.stores_disjoint = true;
    ma.loads_local = true;
    return ma;
  }

  const uint64_t nblocks = uint64_t(lc.grid_x) * uint64_t(lc.grid_y);
  if (nblocks == 0 || nblocks > kMaxFootprintBlocks) return ma;  // unproven

  std::vector<Seg> stores, loads;
  bool stores_known = true;
  bool loads_known = true;
  ma.store_hull.assign(nblocks, Interval::empty());
  ma.load_hull.assign(nblocks, Interval::empty());

  for (uint32_t by = 0; by < lc.grid_y; ++by) {
    for (uint32_t bx = 0; bx < lc.grid_x; ++bx) {
      const uint32_t b = by * lc.grid_x + bx;
      RangeAnalysisOptions ro2;
      ro2.collect_mem = true;
      ro2.param_values = opts.param_values;
      ro2.ctaid_x = Interval::point(bx);
      ro2.ctaid_y = Interval::point(by);
      const RangeAnalysisResult r = analyze_ranges(k, cfg, df, lc, ro2);
      GPURF_ASSERT(r.mem.size() == ma.accesses.size(),
                   "per-block solve enumerated different mem sites");
      for (size_t i = 0; i < r.mem.size(); ++i) {
        const MemAccess& a = ma.accesses[i];
        if (!a.is_global || !r.mem[i].reached) continue;
        Interval addr;
        const bool known =
            effective_addr(r.mem[i].value, a.mem_offset, &addr);
        if (!known) {
          (a.is_store ? stores_known : loads_known) = false;
          continue;
        }
        Interval& hull = (a.is_store ? ma.store_hull : ma.load_hull)[b];
        hull = iv_union(hull, addr);
        (a.is_store ? stores : loads).push_back({addr.lo, addr.hi, b});
      }
    }
  }

  ma.footprints_computed = true;
  if (stores_known) {
    ma.stores_disjoint = segments_disjoint(stores);
    if (loads_known)
      ma.loads_local = loads_are_local(stores, loads);
  }
  ma.store_affine = detect_affine(ma.store_hull);
  ma.load_affine = detect_affine(ma.load_hull);
  return ma;
}

std::vector<uint8_t> prove_in_bounds(const MemoryAccessAnalysis& ma,
                                     uint64_t gmem_words,
                                     uint64_t shared_word_count) {
  std::vector<uint8_t> out(ma.num_insts, 0);
  for (const MemAccess& a : ma.accesses) {
    if (!a.reached) {
      out[a.flat] = 1;  // cannot execute, so the check cannot fire
      continue;
    }
    if (!a.addr_known) continue;
    const uint64_t limit = a.is_global ? gmem_words : shared_word_count;
    if (limit == 0) continue;
    if (a.addr.lo >= 0 && a.addr.hi < static_cast<int64_t>(limit))
      out[a.flat] = 1;
  }
  return out;
}

void apply_memory_findings(KernelReport& rep, const MemoryAccessAnalysis& ma,
                           const std::vector<uint8_t>& proven,
                           uint64_t gmem_words, uint64_t shared_word_count,
                           bool waived) {
  rep.mem_analyzed = true;
  rep.gmem_words = gmem_words;
  rep.mem_insts = static_cast<uint32_t>(ma.accesses.size());
  rep.mem_proven = 0;
  rep.oob_errors.clear();
  rep.oob_warnings.clear();
  for (const MemAccess& a : ma.accesses) {
    if (proven[a.flat]) {
      ++rep.mem_proven;
      continue;
    }
    if (!a.reached) continue;
    if (a.is_global && gmem_words == 0) continue;  // no instance context
    const uint64_t limit = a.is_global ? gmem_words : shared_word_count;
    OobFinding f;
    f.blk = a.blk;
    f.inst = a.inst;
    f.is_store = a.is_store;
    f.shared = !a.is_global;
    f.addr_known = a.addr_known;
    f.lo = a.addr.lo;
    f.hi = a.addr.hi;
    // Definite: the whole (exactly known) interval misses the buffer, so
    // the dynamic check fires whenever the site executes.
    f.definite = a.addr_known && !a.addr.is_empty() &&
                 (a.addr.hi < 0 || a.addr.lo >= static_cast<int64_t>(limit));
    (f.definite ? rep.oob_errors : rep.oob_warnings).push_back(f);
  }
  rep.footprints_computed = ma.footprints_computed;
  rep.stores_disjoint = ma.stores_disjoint;
  rep.loads_local = ma.loads_local;
  rep.disjoint_waived = waived;
  rep.store_affine = ma.store_affine.to_string();
  rep.load_affine = ma.load_affine.to_string();
}

}  // namespace gpurf::analysis
