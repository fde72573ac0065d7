#include "analysis/dataflow.hpp"

#include <algorithm>

#include "analysis/uses.hpp"

namespace gpurf::analysis {

using gpurf::ir::Kernel;
using gpurf::ir::Type;

namespace {

/// Block-level fixpoint: live-in/out per block, treating a guarded def as
/// a use of its destination.
void solve_blocks(const Kernel& k, const Cfg& cfg, Dataflow& df) {
  const uint32_t nb = cfg.num_blocks();
  const uint32_t nr = k.num_regs();

  // Per-block use (upward-exposed) and def (fully-defined) sets.
  std::vector<DynBitset> use(nb, DynBitset(nr)), def(nb, DynBitset(nr));
  for (uint32_t b = 0; b < nb; ++b) {
    for (const auto& in : k.blocks[b].insts) {
      for_each_use(in, [&](uint32_t r) {
        if (!def[b].test(r)) use[b].set(r);
      });
      const uint32_t d = def_of(in);
      if (d != gpurf::ir::kNoReg) {
        if (is_partial_def(in) && !def[b].test(d)) use[b].set(d);
        def[b].set(d);
      }
    }
  }

  df.live_in.assign(nb, DynBitset(nr));
  df.live_out.assign(nb, DynBitset(nr));

  // Iterate to fixpoint, walking post-order (reverse of RPO) for speed.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = cfg.rpo.rbegin(); it != cfg.rpo.rend(); ++it) {
      const uint32_t b = *it;
      DynBitset out(nr);
      for (uint32_t s : cfg.succs[b]) out.merge(df.live_in[s]);
      DynBitset in = out;
      in.and_not(def[b]);
      in.merge(use[b]);
      if (!(out == df.live_out[b])) {
        df.live_out[b] = out;
        changed = true;
      }
      if (!(in == df.live_in[b])) {
        df.live_in[b] = std::move(in);
        changed = true;
      }
    }
  }

  df.live_in[0].for_each_set(
      [&](size_t r) { df.undefined_uses.push_back(static_cast<uint32_t>(r)); });
}

}  // namespace

Dataflow compute_dataflow(const Kernel& k, const Cfg& cfg) {
  Dataflow df;
  solve_blocks(k, cfg, df);

  const uint32_t nb = cfg.num_blocks();
  const uint32_t nr = k.num_regs();

  df.block_size.resize(nb);
  df.point_first.resize(nb);
  df.inst_first.resize(nb);
  uint32_t points = 0, insts = 0;
  for (uint32_t b = 0; b < nb; ++b) {
    df.block_size[b] = static_cast<uint32_t>(k.blocks[b].insts.size());
    df.point_first[b] = points;
    df.inst_first[b] = insts;
    points += df.block_size[b] + 1;
    insts += df.block_size[b];
  }
  df.num_points = points;
  df.num_insts = insts;

  df.live_before.resize(points);
  df.dead_dst.assign(insts, 0);
  df.ever_live = DynBitset(nr);
  df.def_count.assign(nr, 0);
  df.use_count.assign(nr, 0);

  // One backward scan per block from its live-out set, carrying both
  // views.  The per-point transfer from point i+1 to point i (about to
  // execute instruction i):
  //   live_before = (live_after \ dst-if-full-def) ∪ uses
  // Partial (guarded) defs merge into the destination, so they do not
  // kill: the old value is needed exactly when the merged value is.
  // `held` is the block-level view the pressure counts, where a partial
  // def also reads its destination.
  auto count_data = [&](const DynBitset& live) {
    uint32_t c = 0;
    live.for_each_set([&](size_t r) {
      if (k.regs[r].type != Type::PRED) ++c;
    });
    return c;
  };
  for (uint32_t b = 0; b < nb; ++b) {
    DynBitset cur = df.live_out[b];
    DynBitset held = cur;
    df.max_pressure = std::max(df.max_pressure, count_data(held));
    df.live_before[df.point_first[b] + df.block_size[b]] = cur;
    for (uint32_t i = df.block_size[b]; i-- > 0;) {
      const gpurf::ir::Instruction& in = k.blocks[b].insts[i];
      const uint32_t d = def_of(in);
      if (d != gpurf::ir::kNoReg) {
        ++df.def_count[d];
        if (!cur.test(d)) df.dead_dst[df.inst_first[b] + i] = 1;
        if (!is_partial_def(in)) {
          cur.reset(d);
          held.reset(d);
        }
      }
      for_each_use(in, [&](uint32_t r) {
        ++df.use_count[r];
        cur.set(r);
        held.set(r);
      });
      if (d != gpurf::ir::kNoReg && is_partial_def(in)) held.set(d);
      df.max_pressure = std::max(df.max_pressure, count_data(held));
      df.live_before[df.point_first[b] + i] = cur;
    }
  }

  for (const DynBitset& s : df.live_before) df.ever_live.merge(s);

  // Linear intervals: min/max point where the register is live, per
  // ever-live register, half-open at the top.
  std::vector<uint32_t> lo(nr, points), hi(nr, 0);
  for (uint32_t p = 0; p < points; ++p) {
    df.live_before[p].for_each_set([&](size_t rr) {
      const uint32_t r = static_cast<uint32_t>(rr);
      lo[r] = std::min(lo[r], p);
      hi[r] = std::max(hi[r], p + 1);
    });
  }
  for (uint32_t r = 0; r < nr; ++r)
    if (lo[r] < points) df.intervals.push_back(LiveInterval{r, lo[r], hi[r]});

  return df;
}

std::vector<DynBitset> build_interference(const Kernel& k, const Dataflow& df,
                                          bool live_intervals) {
  const uint32_t nr = k.num_regs();
  std::vector<DynBitset> adj(nr, DynBitset(nr));
  auto is_data = [&](uint32_t r) { return k.regs[r].type != Type::PRED; };
  auto add_edges_from = [&](uint32_t d, const DynBitset& liveset) {
    if (!is_data(d)) return;
    liveset.for_each_set([&](size_t rr) {
      const uint32_t r = static_cast<uint32_t>(rr);
      if (r == d || !is_data(r)) return;
      adj[d].set(r);
      adj[r].set(d);
    });
  };

  for (uint32_t b = 0; b < df.block_size.size(); ++b) {
    DynBitset cur = df.live_out[b];
    for (uint32_t i = df.block_size[b]; i-- > 0;) {
      const auto& in = k.blocks[b].insts[i];
      const uint32_t d = def_of(in);
      if (d != gpurf::ir::kNoReg) {
        // The def interferes with everything live across it — unless
        // live-range packing elides it as a dead write, which then never
        // reaches the register file.
        if (!(live_intervals && df.dst_dead(b, i))) {
          if (is_partial_def(in)) cur.set(d);
          add_edges_from(d, cur);
        }
        if (!is_partial_def(in)) cur.reset(d);
      }
      for_each_use(in, [&](uint32_t r) { cur.set(r); });
    }
  }
  return adj;
}

KernelReport build_kernel_report(const Kernel& k, const Cfg& cfg,
                                 const Dataflow& df) {
  KernelReport rep;
  rep.kernel = k.name;
  rep.num_regs = k.num_regs();
  rep.num_blocks = cfg.num_blocks();
  rep.num_insts = df.num_insts;
  rep.static_pressure = df.max_pressure;
  rep.undefined_reads = df.undefined_uses;
  rep.intervals = df.intervals;
  rep.reg_names.reserve(k.num_regs());
  for (const auto& ri : k.regs) rep.reg_names.push_back(ri.name);

  for (uint32_t b = 0; b < cfg.num_blocks(); ++b)
    for (uint32_t i = 0; i < df.block_size[b]; ++i)
      if (df.dst_dead(b, i)) {
        const uint32_t d = def_of(k.blocks[b].insts[i]);
        rep.dead_writes.push_back(DeadWrite{b, i, d});
      }

  for (uint32_t r = 0; r < k.num_regs(); ++r)
    if (df.def_count[r] > 0 && df.use_count[r] == 0) rep.never_read.push_back(r);

  return rep;
}

}  // namespace gpurf::analysis
