#include "alloc/slice_alloc.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "analysis/dataflow.hpp"
#include "common/bitutil.hpp"
#include "common/error.hpp"
#include "exec/kernel_analysis.hpp"
#include "rf/fault_map.hpp"

namespace gpurf::alloc {

namespace ir = gpurf::ir;
using gpurf::DynBitset;

namespace {

struct PhysReg {
  // occupants[s]: architectural registers using slice-column s.
  std::array<std::vector<uint32_t>, 8> occupants;
};

/// Slices of `p` that register `r` could use: a slice-column is available
/// when none of its occupants interferes with r.
uint8_t available_mask(const PhysReg& p, uint32_t r,
                       const std::vector<DynBitset>& adj) {
  uint8_t m = 0;
  for (int s = 0; s < 8; ++s) {
    bool ok = true;
    for (uint32_t o : p.occupants[s]) {
      if (o == r || adj[r].test(o)) {
        ok = false;
        break;
      }
    }
    if (ok) m |= static_cast<uint8_t>(1u << s);
  }
  return m;
}

/// Take the lowest `n` set bits of `avail`.
uint8_t take_slices(uint8_t avail, int n) {
  uint8_t out = 0;
  for (int s = 0; s < 8 && n > 0; ++s) {
    if (avail & (1u << s)) {
      out |= static_cast<uint8_t>(1u << s);
      --n;
    }
  }
  GPURF_ASSERT(n == 0, "take_slices: not enough available slices");
  return out;
}

void occupy(PhysReg& p, uint8_t mask, uint32_t r) {
  for (int s = 0; s < 8; ++s)
    if (mask & (1u << s)) p.occupants[s].push_back(r);
}

}  // namespace

AllocationResult allocate_slices(const ir::Kernel& k,
                                 const analysis::RangeAnalysisResult* ranges,
                                 const exec::PrecisionMap* pmap,
                                 const AllocOptions& opt) {
  const exec::KernelAnalysis ka(k);
  return allocate_slices(k, ka.dataflow(), ranges, pmap, opt);
}

AllocationResult allocate_slices(const ir::Kernel& k,
                                 const analysis::Dataflow& df,
                                 const analysis::RangeAnalysisResult* ranges,
                                 const exec::PrecisionMap* pmap,
                                 const AllocOptions& opt) {
  GPURF_CHECK(!opt.pack_ints || ranges != nullptr,
              "pack_ints requires range-analysis results");
  GPURF_CHECK(!opt.pack_floats || (pmap != nullptr && pmap->active()),
              "pack_floats requires a precision map");
  if (opt.pack_floats) pmap->validate(k.num_regs());

  const auto adj = analysis::build_interference(k, df, opt.live_intervals);

  AllocationResult res;
  res.table.assign(k.num_regs(), IndirectionEntry{});

  // Slice width per architectural register.
  struct Item {
    uint32_t reg;
    int slices;
    uint32_t degree;
  };
  std::vector<Item> items;
  for (uint32_t r = 0; r < k.num_regs(); ++r) {
    // Registers that never appear in the program (dead declarations) do
    // not occupy register-file space.
    if (df.def_count[r] + df.use_count[r] == 0 ||
        k.regs[r].type == ir::Type::PRED)
      continue;
    int slices = 8;
    auto& e = res.table[r];
    if (k.regs[r].type == ir::Type::F32) {
      e.is_float = true;
      if (opt.pack_floats) {
        const auto& fmt = pmap->format(r);
        slices = fmt.slices();
        e.float_bits = static_cast<uint8_t>(fmt.total_bits);
      }
    } else if (opt.pack_ints) {
      const auto& info = ranges->regs[r];
      GPURF_ASSERT(info.analyzed, "int register missing range info");
      slices = slices_for_bits(info.bits);
      e.is_signed = info.is_signed;
    }
    e.valid = true;
    e.slices = static_cast<uint8_t>(slices);
    items.push_back(Item{r, slices, static_cast<uint32_t>(adj[r].count())});
  }

  // First-fit-decreasing order: wide operands first, ties by interference
  // degree so constrained registers get first pick.
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.slices != b.slices) return a.slices > b.slices;
    if (a.degree != b.degree) return a.degree > b.degree;
    return a.reg < b.reg;
  });

  std::vector<PhysReg> phys;

  // Faulty slice-columns are simply masked out of availability — that is
  // the whole redirection policy: operands land in the space static
  // compression left free, away from broken slices.  An empty map keeps
  // placement bit-identical to the fault-free allocator.
  const gpurf::rf::FaultMap* faults =
      (opt.faults && !opt.faults->empty()) ? opt.faults : nullptr;
  const auto usable = [&](size_t p) -> uint8_t {
    return faults ? static_cast<uint8_t>(
                        0xffu & ~faults->faulty_mask(static_cast<uint32_t>(p)))
                  : uint8_t{0xff};
  };

  // Pass 1: best-fit into a single physical register.  Pass 2: split
  // across the two fullest candidates (at most 2 physical registers per
  // operand, §4.3).
  const auto try_place = [&](const Item& it, IndirectionEntry& e) -> bool {
    int best = -1;
    int best_avail = 9;
    std::vector<uint8_t> avail(phys.size());
    for (size_t p = 0; p < phys.size(); ++p) {
      avail[p] = available_mask(phys[p], it.reg, adj) & usable(p);
      const int a = std::popcount(avail[p]);
      if (a >= it.slices && a < best_avail) {
        best = static_cast<int>(p);
        best_avail = a;
      }
    }
    if (best >= 0) {
      const uint8_t m = take_slices(avail[best], it.slices);
      occupy(phys[best], m, it.reg);
      e.r0 = SliceLoc{static_cast<uint32_t>(best), m};
      e.split = false;
      return true;
    }

    int p1 = -1, p2 = -1;
    for (size_t p = 0; p < phys.size(); ++p) {
      if (std::popcount(avail[p]) == 0) continue;
      if (p1 < 0 || std::popcount(avail[p]) > std::popcount(avail[p1]))
        p1 = static_cast<int>(p);
    }
    if (p1 >= 0) {
      for (size_t p = 0; p < phys.size(); ++p) {
        if (static_cast<int>(p) == p1 || std::popcount(avail[p]) == 0)
          continue;
        if (p2 < 0 || std::popcount(avail[p]) > std::popcount(avail[p2]))
          p2 = static_cast<int>(p);
      }
    }
    if (p1 >= 0 && p2 >= 0 &&
        std::popcount(avail[p1]) + std::popcount(avail[p2]) >= it.slices) {
      const int take1 = std::min<int>(std::popcount(avail[p1]), it.slices);
      const uint8_t m1 = take_slices(avail[p1], take1);
      const uint8_t m2 = take_slices(avail[p2], it.slices - take1);
      occupy(phys[p1], m1, it.reg);
      occupy(phys[p2], m2, it.reg);
      e.r0 = SliceLoc{static_cast<uint32_t>(p1), m1};
      e.r1 = SliceLoc{static_cast<uint32_t>(p2), m2};
      e.split = true;
      ++res.split_operands;
      return true;
    }
    return false;
  };

  for (const Item& it : items) {
    auto& e = res.table[it.reg];
    const size_t base = phys.size();
    bool placed = try_place(it, e);

    // Pass 3: open new physical registers until the operand fits.  With no
    // faults a fresh register always fits the operand whole (pass 1 picks
    // it as the sole candidate), so the operand stays unsplit, which the
    // paper's §6.5 power discussion prefers (fewer double-fetches).  Under
    // faults a fresh register may itself be partially broken, so keep
    // growing — a split against an existing register can still resolve it
    // — up to the indirection table's 256-register cap.
    while (!placed && phys.size() < 256) {
      phys.emplace_back();
      placed = try_place(it, e);
    }
    if (!placed) {
      // Graceful degradation: the operand cannot be placed in <= 2 pieces
      // inside the compressed file.  Give it a full-width slot in the
      // uncompressed spill store instead of aborting, and roll back the
      // registers speculatively opened above (no occupants yet).
      phys.resize(base);
      e.spilled = true;
      e.split = false;
      e.slices = 8;
      e.is_signed = false;
      e.float_bits = 32;
      e.r0 = SliceLoc{res.spill_regs++, 0xff};
      e.r1 = SliceLoc{};
      ++res.registers_spilled;
      continue;
    }

    res.total_slices += static_cast<uint32_t>(it.slices);
    if (faults) {
      const uint8_t fm =
          faults->faulty_mask(e.r0.phys_reg) |
          (e.split ? faults->faulty_mask(e.r1.phys_reg) : uint8_t{0});
      if (fm) {
        e.redirected = true;
        ++res.registers_redirected;
      }
    }
  }

  res.num_physical_regs = static_cast<uint32_t>(phys.size());
  GPURF_CHECK(res.num_physical_regs <= 256,
              "allocation exceeds the 256-entry indirection table");
  if (faults)
    for (uint32_t p = 0; p < res.num_physical_regs; ++p)
      res.faulty_slices_avoided +=
          static_cast<uint32_t>(std::popcount(faults->faulty_mask(p)));
  return res;
}

uint32_t baseline_pressure(const ir::Kernel& k) {
  // With every operand at the full 8 slices, slice packing degenerates to
  // interference-graph colouring, which is exactly the uncompressed
  // allocation.
  AllocOptions opt;
  opt.pack_ints = false;
  opt.pack_floats = false;
  return allocate_slices(k, nullptr, nullptr, opt).num_physical_regs;
}

uint32_t live_interval_pressure(const ir::Kernel& k) {
  AllocOptions opt;
  opt.pack_ints = false;
  opt.pack_floats = false;
  opt.live_intervals = true;
  return allocate_slices(k, nullptr, nullptr, opt).num_physical_regs;
}

}  // namespace gpurf::alloc
