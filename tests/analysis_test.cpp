// Tests for CFG utilities, the dataflow pass and the interval domain,
// including property-style parameterized sweeps of the interval transfer
// functions against concrete evaluation, and golden digests of every
// workload's static facts.

#include <gtest/gtest.h>

#include <cstdio>

#include "alloc/slice_alloc.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/interval.hpp"
#include "analysis/range_analysis.hpp"
#include "api/engine.hpp"
#include "api/json.hpp"
#include "common/rng.hpp"
#include "fp/format.hpp"
#include "ir/parser.hpp"
#include "workloads/workload.hpp"

namespace gpurf::analysis {
namespace {

using gpurf::ir::parse_kernel;

ir::Kernel diamond() {
  return parse_kernel(R"(
.kernel diamond
.reg s32 %a
.reg pred %p
entry:
  mov.s32 %a, %tid.x
  setp.lt.s32 %p, %a, 16
  @%p bra left
right:
  add.s32 %a, %a, 1
  bra join
left:
  add.s32 %a, %a, 2
join:
  ret
)");
}

TEST(Cfg, DiamondStructure) {
  auto k = diamond();
  Cfg cfg = build_cfg(k);
  ASSERT_EQ(cfg.num_blocks(), 4u);
  EXPECT_EQ(cfg.succs[0], (std::vector<uint32_t>{2, 1}));  // taken, fall
  EXPECT_EQ(cfg.succs[1], (std::vector<uint32_t>{3}));
  EXPECT_EQ(cfg.succs[2], (std::vector<uint32_t>{3}));
  EXPECT_EQ(cfg.preds[3].size(), 2u);
  // RPO starts at entry.
  EXPECT_EQ(cfg.rpo.front(), 0u);
}

TEST(Cfg, DominatorsDiamond) {
  auto k = diamond();
  Cfg cfg = build_cfg(k);
  const auto& idom = cfg.idom;
  EXPECT_EQ(idom[0], 0u);
  EXPECT_EQ(idom[1], 0u);
  EXPECT_EQ(idom[2], 0u);
  EXPECT_EQ(idom[3], 0u);  // join dominated by entry, not by either arm
}

TEST(Cfg, PostDominatorsDiamond) {
  auto k = diamond();
  Cfg cfg = build_cfg(k);
  const auto& ipdom = cfg.ipdom;
  EXPECT_EQ(ipdom[0], 3u);  // branch reconverges at the join
  EXPECT_EQ(ipdom[1], 3u);
  EXPECT_EQ(ipdom[2], 3u);
  EXPECT_EQ(ipdom[3], kNoBlock);  // exit
}

TEST(Cfg, DominanceFrontierDiamond) {
  auto k = diamond();
  Cfg cfg = build_cfg(k);
  const auto& df = cfg.frontiers;
  EXPECT_EQ(df[1], (std::vector<uint32_t>{3}));
  EXPECT_EQ(df[2], (std::vector<uint32_t>{3}));
  EXPECT_TRUE(df[3].empty());
}

TEST(Cfg, LoopPostDominators) {
  auto k = parse_kernel(R"(
.kernel loop
.reg s32 %i
.reg pred %p
entry:
  mov.s32 %i, 0
head:
  setp.ge.s32 %p, %i, 4
  @%p bra exit
body:
  add.s32 %i, %i, 1
  bra head
exit:
  ret
)");
  Cfg cfg = build_cfg(k);
  const auto& ipdom = cfg.ipdom;
  EXPECT_EQ(ipdom[1], k.find_block("exit"));  // loop header reconverges at exit
}

TEST(Liveness, PressureSimple) {
  auto k = parse_kernel(R"(
.kernel p
.reg s32 %a
.reg s32 %b
.reg s32 %c
entry:
  mov.s32 %a, 1
  mov.s32 %b, 2
  add.s32 %c, %a, %b
  st.global.s32 [%a], %c
  ret
)");
  Cfg cfg = build_cfg(k);
  auto lv = compute_dataflow(k, cfg);
  EXPECT_TRUE(lv.undefined_uses.empty());
  // %b dies at the add and %c is born there, so the peak simultaneous set
  // is {a, b} before the add / {a, c} after: 2 registers.
  EXPECT_EQ(lv.max_pressure, 2u);
}

TEST(Liveness, DeadCodeHasNoPressure) {
  auto k = parse_kernel(R"(
.kernel d
.reg s32 %a
.reg s32 %dead
entry:
  mov.s32 %a, 1
  st.global.s32 [%a], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  auto lv = compute_dataflow(k, cfg);
  EXPECT_EQ(lv.max_pressure, 1u);  // %dead never appears
}

TEST(Liveness, UndefinedUseDetected) {
  auto k = parse_kernel(R"(
.kernel u
.reg s32 %a
.reg s32 %never
entry:
  add.s32 %a, %never, 1
  st.global.s32 [%a], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  auto lv = compute_dataflow(k, cfg);
  ASSERT_EQ(lv.undefined_uses.size(), 1u);
  EXPECT_EQ(lv.undefined_uses[0], k.find_reg("never"));
}

TEST(Liveness, GuardedDefKeepsOldValueLive) {
  auto k = parse_kernel(R"(
.kernel g
.reg s32 %a
.reg s32 %b
.reg pred %p
entry:
  mov.s32 %a, 1
  mov.s32 %b, 2
  setp.lt.s32 %p, %b, 3
  @%p mov.s32 %a, 5
  st.global.s32 [%b], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  auto lv = compute_dataflow(k, cfg);
  auto adj = build_interference(k, lv, /*live_intervals=*/false);
  // %a's initial value must survive across the guarded redefinition, so
  // %a and %b interfere throughout.
  EXPECT_TRUE(adj[k.find_reg("a")].test(k.find_reg("b")));
}

// ------------------------------------------------------------------------
// Property tests: interval transfer functions are sound w.r.t. concrete
// evaluation, parameterized over the operator.

struct IvCase {
  const char* name;
  Interval (*transfer)(const Interval&, const Interval&);
  int64_t (*concrete)(int64_t, int64_t);
};

int64_t c_add(int64_t a, int64_t b) { return a + b; }
int64_t c_sub(int64_t a, int64_t b) { return a - b; }
int64_t c_mul(int64_t a, int64_t b) { return a * b; }
int64_t c_div(int64_t a, int64_t b) { return b == 0 ? 0 : a / b; }
int64_t c_rem(int64_t a, int64_t b) { return b == 0 ? 0 : a % b; }
int64_t c_min(int64_t a, int64_t b) { return std::min(a, b); }
int64_t c_max(int64_t a, int64_t b) { return std::max(a, b); }
int64_t c_and(int64_t a, int64_t b) { return a & b; }
int64_t c_or(int64_t a, int64_t b) { return a | b; }
int64_t c_xor(int64_t a, int64_t b) { return a ^ b; }

Interval t_div(const Interval& a, const Interval& b) {
  // Division by a range containing only zero is modelled as top; skip it
  // in the property by construction below.
  return iv_div(a, b);
}

class IntervalProperty : public ::testing::TestWithParam<IvCase> {};

TEST_P(IntervalProperty, SoundOverSampledValues) {
  const IvCase& c = GetParam();
  gpurf::Pcg32 rng(0xC0FFEE);
  for (int trial = 0; trial < 200; ++trial) {
    // Random small-ish intervals (sign mix, includes degenerate points).
    auto rnd = [&](int span) {
      const int64_t lo = int64_t(rng.next_below(2 * span)) - span;
      const int64_t hi = lo + rng.next_below(span);
      return Interval::make(lo, hi);
    };
    const Interval A = rnd(300), B = rnd(300);
    const Interval R = c.transfer(A, B);
    for (int s = 0; s < 16; ++s) {
      const int64_t a = A.lo + int64_t(rng.next_below(uint32_t(A.hi - A.lo + 1)));
      const int64_t b = B.lo + int64_t(rng.next_below(uint32_t(B.hi - B.lo + 1)));
      if ((c.concrete == c_div || c.concrete == c_rem) && b == 0) continue;
      const int64_t r = c.concrete(a, b);
      EXPECT_TRUE(R.contains(r))
          << c.name << ": " << a << " op " << b << " = " << r
          << " outside " << R.str() << " for A=" << A.str()
          << " B=" << B.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, IntervalProperty,
    ::testing::Values(IvCase{"add", iv_add, c_add},
                      IvCase{"sub", iv_sub, c_sub},
                      IvCase{"mul", iv_mul, c_mul},
                      IvCase{"div", t_div, c_div},
                      IvCase{"rem", iv_rem, c_rem},
                      IvCase{"min", iv_min, c_min},
                      IvCase{"max", iv_max, c_max},
                      IvCase{"and", iv_and, c_and},
                      IvCase{"or", iv_or, c_or},
                      IvCase{"xor", iv_xor, c_xor}),
    [](const ::testing::TestParamInfo<IvCase>& i) {
      return std::string(i.param.name);
    });

TEST(Interval, UnionIntersect) {
  const Interval a = Interval::make(0, 10);
  const Interval b = Interval::make(5, 20);
  EXPECT_EQ(iv_union(a, b), Interval::make(0, 20));
  EXPECT_EQ(iv_intersect(a, b), Interval::make(5, 10));
  EXPECT_TRUE(iv_intersect(Interval::make(0, 1), Interval::make(5, 6))
                  .is_empty());
  EXPECT_EQ(iv_union(Interval::empty(), a), a);
}

TEST(Interval, EmptyPropagation) {
  const Interval e = Interval::empty();
  const Interval a = Interval::make(1, 2);
  EXPECT_TRUE(iv_add(e, a).is_empty());
  EXPECT_TRUE(iv_mul(a, e).is_empty());
  EXPECT_TRUE(iv_neg(e).is_empty());
}

TEST(Interval, ShiftTransfers) {
  EXPECT_EQ(iv_shl(Interval::make(1, 3), Interval::point(4)),
            Interval::make(16, 48));
  EXPECT_EQ(iv_shr_s(Interval::make(-8, 8), Interval::point(1)),
            Interval::make(-4, 4));
  // Logical shift of a possibly-negative value covers the full u32 range.
  EXPECT_EQ(iv_shr_u(Interval::make(-1, 1), Interval::point(1)),
            Interval::full_u32());
}

TEST(Interval, NotNegAbs) {
  EXPECT_EQ(iv_not(Interval::make(0, 255)), Interval::make(-256, -1));
  EXPECT_EQ(iv_neg(Interval::make(-3, 7)), Interval::make(-7, 3));
  EXPECT_EQ(iv_abs(Interval::make(-3, 7)), Interval::make(0, 7));
  EXPECT_EQ(iv_abs(Interval::make(-9, -2)), Interval::make(2, 9));
}

TEST(Interval, InfinityAwareArithmetic) {
  const Interval top = Interval::top();
  EXPECT_TRUE(iv_add(top, Interval::point(5)).lo_inf());
  EXPECT_TRUE(iv_add(top, Interval::point(5)).hi_inf());
  const Interval half = Interval::make(0, Interval::kPosInf);
  EXPECT_EQ(iv_add(half, Interval::point(1)).lo, 1);
  EXPECT_TRUE(iv_add(half, Interval::point(1)).hi_inf());
}

// ----------------------------------------------------- dataflow (PR 9)

TEST(Dataflow, PointLivenessStraightLine) {
  auto k = parse_kernel(R"(
.kernel p
.reg s32 %a
.reg s32 %b
.reg s32 %c
entry:
  mov.s32 %a, 1
  mov.s32 %b, 2
  add.s32 %c, %a, %b
  st.global.s32 [%a], %c
  ret
)");
  Cfg cfg = build_cfg(k);
  const Dataflow df = compute_dataflow(k, cfg);
  const uint32_t a = k.find_reg("a"), b = k.find_reg("b"), c = k.find_reg("c");

  // Before the add (point 2): a and b live, c not yet.
  EXPECT_TRUE(df.live_at(0, 2, a));
  EXPECT_TRUE(df.live_at(0, 2, b));
  EXPECT_FALSE(df.live_at(0, 2, c));
  // Before the store (point 3): b is dead, a and c live.
  EXPECT_FALSE(df.live_at(0, 3, b));
  EXPECT_TRUE(df.live_at(0, 3, a));
  EXPECT_TRUE(df.live_at(0, 3, c));
  // Nothing here is a dead write.
  for (uint32_t i = 0; i < df.block_size[0]; ++i)
    EXPECT_FALSE(df.dst_dead(0, i)) << "inst " << i;
  // Def-use chains: each reg defined once; a read twice (add + address).
  EXPECT_EQ(df.def_count[a], 1u);
  EXPECT_EQ(df.use_count[a], 2u);
  EXPECT_EQ(df.use_count[c], 1u);
}

TEST(Dataflow, DeadWriteAndNeverReadDetected) {
  auto k = parse_kernel(R"(
.kernel dw
.reg s32 %a
.reg s32 %scratch
entry:
  mov.s32 %a, 7
  mul.s32 %scratch, %a, 3
  mov.s32 %a, %tid.x
  st.global.s32 [%a], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  const Dataflow df = compute_dataflow(k, cfg);
  // The mul's destination is never read, and the first mov to %a is
  // overwritten after its only use feeds the mul.
  EXPECT_TRUE(df.dst_dead(0, 1));
  EXPECT_FALSE(df.dst_dead(0, 0));  // %a=7 is read by the mul
  EXPECT_FALSE(df.dst_dead(0, 2));

  const KernelReport rep = build_kernel_report(k, cfg, df);
  ASSERT_EQ(rep.dead_writes.size(), 1u);
  EXPECT_EQ(rep.dead_writes[0].reg, k.find_reg("scratch"));
  ASSERT_EQ(rep.never_read.size(), 1u);
  EXPECT_EQ(rep.never_read[0], k.find_reg("scratch"));
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.reg_names[rep.never_read[0]], "scratch");
}

TEST(Dataflow, PartialDefKeepsDstLiveBeforeGuard) {
  auto k = parse_kernel(R"(
.kernel g
.reg s32 %a
.reg s32 %b
.reg pred %p
entry:
  mov.s32 %a, 1
  mov.s32 %b, 2
  setp.lt.s32 %p, %b, 3
  @%p mov.s32 %a, 5
  st.global.s32 [%b], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  const Dataflow df = compute_dataflow(k, cfg);
  const uint32_t a = k.find_reg("a");
  // The guarded mov merges into %a, so the incoming value is still live
  // before it (the guard may be false) — and the merged def is not dead.
  EXPECT_TRUE(df.live_at(0, 3, a));
  EXPECT_FALSE(df.dst_dead(0, 3));
  // An unconditional def would have killed it: point 1 (before %b's mov,
  // after %a's) still has a live because the store reads it.
  EXPECT_TRUE(df.live_at(0, 1, a));
}

TEST(Dataflow, GuardedDefOfDeadRegisterSplitsTheViews) {
  // %a is only ever written under a guard and never read.  The block view
  // treats the guarded write as a read of %a (inactive lanes keep the old
  // value), so %a is live-in at entry, counts towards pressure and
  // interferes with %c, which dies before the guarded write.  The
  // per-point view merges instead, so the write is dead, %a is never live
  // and the refined interference graph gives it no edges.
  auto k = parse_kernel(R"(
.kernel split
.reg s32 %a
.reg s32 %b
.reg s32 %c
.reg pred %p
entry:
  mov.s32 %c, %tid.x
  mov.s32 %b, %c
  setp.lt.s32 %p, %b, 3
  @%p mov.s32 %a, 5
  st.global.s32 [%b], %b
  ret
)");
  Cfg cfg = build_cfg(k);
  const Dataflow df = compute_dataflow(k, cfg);
  const uint32_t a = k.find_reg("a"), b = k.find_reg("b"),
                 c = k.find_reg("c");
  EXPECT_EQ(df.undefined_uses, (std::vector<uint32_t>{a}));
  EXPECT_TRUE(df.live_in[0].test(a));
  EXPECT_EQ(df.max_pressure, 2u);  // %a beside %b or %c throughout
  EXPECT_TRUE(df.dst_dead(0, 3));
  EXPECT_FALSE(df.live_at(0, 3, a));
  EXPECT_FALSE(df.ever_live.test(a));
  const auto classic = build_interference(k, df, /*live_intervals=*/false);
  EXPECT_TRUE(classic[a].test(b));
  EXPECT_TRUE(classic[a].test(c));
  EXPECT_EQ(build_interference(k, df, /*live_intervals=*/true)[a].count(),
            0u);
}

TEST(Dataflow, UndefinedReadSurfacesInReport) {
  auto k = parse_kernel(R"(
.kernel u
.reg s32 %a
.reg s32 %never
entry:
  add.s32 %a, %never, 1
  st.global.s32 [%a], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  const Dataflow df = compute_dataflow(k, cfg);
  const KernelReport rep = build_kernel_report(k, cfg, df);
  ASSERT_EQ(rep.undefined_reads.size(), 1u);
  EXPECT_EQ(rep.undefined_reads[0], k.find_reg("never"));
  EXPECT_FALSE(rep.clean());
}

TEST(Dataflow, IntervalsCoverEveryLivePoint) {
  // Random fuzz-shaped kernels: wherever the per-point sets say a register
  // is live, its linear interval must cover that point (intervals are a
  // conservative over-approximation), and intervals exist exactly for
  // ever-live registers.
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    Pcg32 rng(seed, 0xDA7A);
    std::string s = ".kernel iv" + std::to_string(seed) + "\n.reg s32 %x\n"
                    ".reg s32 %y\n.reg s32 %z\n.reg pred %p\nentry:\n"
                    "  mov.s32 %x, %tid.x\n  mov.s32 %y, 3\n";
    for (int op = 0; op < int(3 + rng.next_below(8)); ++op)
      s += (rng.next_below(2) ? "  add.s32 %z, %x, %y\n"
                              : "  mul.s32 %y, %z, 2\n");
    s += "  setp.lt.s32 %p, %x, 9\n  @%p add.s32 %z, %z, 1\n"
         "  st.global.s32 [%x], %z\n  ret\n";
    auto k = parse_kernel(s);
    Cfg cfg = build_cfg(k);
    const Dataflow df = compute_dataflow(k, cfg);

    std::vector<const LiveInterval*> by_reg(k.num_regs(), nullptr);
    for (const auto& iv : df.intervals) by_reg[iv.reg] = &iv;
    for (uint32_t p = 0; p < df.num_points; ++p) {
      df.live_before[p].for_each_set([&](size_t r) {
        ASSERT_NE(by_reg[r], nullptr) << "reg " << r;
        EXPECT_LE(by_reg[r]->begin, p);
        EXPECT_LT(p, by_reg[r]->end);
      });
    }
    for (const auto& iv : df.intervals)
      EXPECT_TRUE(df.ever_live.test(iv.reg));
  }
}

TEST(Dataflow, LiveInterferenceIsSubgraph) {
  // The liveness-refined interference graph never adds an edge the classic
  // construction lacks, and a never-read register interferes with nothing.
  auto k = parse_kernel(R"(
.kernel sub
.reg s32 %a
.reg s32 %b
.reg s32 %scratch
entry:
  mov.s32 %a, %tid.x
  mov.s32 %b, 5
  mul.s32 %scratch, %a, %b
  add.s32 %a, %a, %b
  st.global.s32 [%a], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  const Dataflow df = compute_dataflow(k, cfg);
  const auto classic = build_interference(k, df, /*live_intervals=*/false);
  const auto refined = build_interference(k, df, /*live_intervals=*/true);
  const uint32_t scratch = k.find_reg("scratch");
  for (uint32_t r1 = 0; r1 < k.num_regs(); ++r1)
    for (uint32_t r2 = 0; r2 < k.num_regs(); ++r2)
      if (refined[r1].test(r2)) {
        EXPECT_TRUE(classic[r1].test(r2)) << r1 << " vs " << r2;
      }
  // classic gives the dead mul's destination edges to {a, b}; refined
  // drops them entirely.
  EXPECT_GT(classic[scratch].count(), 0u);
  EXPECT_EQ(refined[scratch].count(), 0u);
}


// ------------------------------------------------------------------------
// Golden digests of every bundled workload's static facts, built like
// sim_test's SimGolden: FNV-1a over a canonical text of the results.  The
// analysis layer is pure, so these pin the CFG, both liveness views, the
// interference graphs, range analysis and the memory prover at once.  A
// deliberate analysis change must update the digests; the failure message
// prints the new digest.

namespace wl = gpurf::workloads;

std::string fnv_digest(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct GoldenCase {
  const char* workload;
  const char* digest;
};

template <typename Fn>
void expect_golden_per_workload(const std::vector<GoldenCase>& cases,
                                Fn&& text_of) {
  const auto all = wl::make_all_workloads();
  ASSERT_EQ(all.size(), cases.size());
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i]->spec().name, cases[i].workload);
    EXPECT_EQ(fnv_digest(text_of(*all[i])), cases[i].digest)
        << cases[i].workload;
  }
}

std::string hulls_text(const std::vector<Interval>& hull) {
  std::string s;
  for (const Interval& h : hull) s += h.str() + ",";
  return s;
}

TEST(AnalysisGolden, EngineReports) {
  // Engine::analyze at the sample instance: pressures (static, classic
  // and refined colouring), undefined reads, dead writes, never-read
  // registers, live intervals, memory proofs and affine footprints, plus
  // the per-block footprint hulls and per-site proofs behind them.
  gpurf::Engine engine(
      gpurf::EngineOptions().with_threads(1).with_disk_cache(false));
  expect_golden_per_workload(
      {{"Deferred", "0x82ed73bb91377ac4"},
       {"SSAO", "0x48f488a269de2b94"},
       {"Elevated", "0x6ec6d5ae3b97d5ab"},
       {"Pathtracer", "0x051f45ba07516aaf"},
       {"CFD", "0x84868d975e019bbb"},
       {"DWT2D", "0x9f07e48b75d15259"},
       {"Hotspot", "0x914e200b7ddbed93"},
       {"Hotspot3D", "0x45005e2c2f943d5f"},
       {"IMGVF", "0xfd331fde631c60d8"},
       {"GICOV", "0x1b5ec6c051e2816c"},
       {"Hybridsort", "0xc51c033ef028c6e2"}},
      [&](const wl::Workload& w) {
        const auto rep = engine.analyze(w);
        EXPECT_TRUE(rep.ok()) << rep.status().to_string();
        std::string text = rep.ok() ? gpurf::api::to_json(*rep) : "";
        const auto inst = w.make_instance(wl::Scale::kSample, 0);
        const auto proofs = w.mem_proofs(inst, /*footprints=*/true);
        text += "|" + hulls_text(proofs->mem.store_hull) + "|" +
                hulls_text(proofs->mem.load_hull) + "|";
        for (uint8_t p : proofs->proven) text += char('0' + p);
        return text;
      });
}

TEST(AnalysisGolden, RangeWidths) {
  // Range analysis at the full-scale launch the pipeline analyses.
  expect_golden_per_workload(
      {{"Deferred", "0x2d439f8d391ee607"},
       {"SSAO", "0xa303d00235fd9661"},
       {"Elevated", "0x2eb31ec323d40aa2"},
       {"Pathtracer", "0x82a338a1b472be6b"},
       {"CFD", "0xeae0f8a2eea74980"},
       {"DWT2D", "0x216f5e06ed8c3e31"},
       {"Hotspot", "0x345cd9445f034bcd"},
       {"Hotspot3D", "0x227b0a2b2fc942e3"},
       {"IMGVF", "0x7ebbf1d205684416"},
       {"GICOV", "0x4980acadc3c5838a"},
       {"Hybridsort", "0x0b27c98278e04d12"}},
      [](const wl::Workload& w) {
        const auto inst = w.make_instance(wl::Scale::kFull, 0);
        const auto ranges = analyze_ranges(w.kernel(), inst.launch);
        std::string text;
        for (const IntWidthInfo& r : ranges.regs)
          text += std::to_string(r.bits) + (r.is_signed ? "s" : "u") +
                  (r.analyzed ? "a," : ",");
        return text;
      });
}

std::string table_text(const gpurf::alloc::AllocationResult& a) {
  std::string s = std::to_string(a.num_physical_regs) + "/" +
                  std::to_string(a.total_slices) + "/" +
                  std::to_string(a.split_operands) + ":";
  for (const auto& e : a.table) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%d%d%d%d%d%d%d %u.%02x %u.%02x %u;",
                  e.valid, e.split, e.is_signed, e.is_float, e.redirected,
                  e.spilled, e.slices, e.r0.phys_reg, e.r0.mask,
                  e.r1.phys_reg, e.r1.mask, e.float_bits);
    s += buf;
  }
  return s;
}

TEST(AnalysisGolden, PipelineAllocations) {
  // The pipeline's six allocate_slices calls (original, narrow ints,
  // narrow floats at both levels, both at both levels), each also under
  // live-range packing.  Two fixed Table-3 maps stand in for the tuned
  // ones so the digests pin the allocator and its interference graphs,
  // not the tuner.
  expect_golden_per_workload(
      {{"Deferred", "0xdb0d09f51f97bad9"},
       {"SSAO", "0x2ff0ed58ed68cfe5"},
       {"Elevated", "0x6950f71085c07d1d"},
       {"Pathtracer", "0x84f8316dc0ea11c3"},
       {"CFD", "0xac301e65f7e1ec13"},
       {"DWT2D", "0x8e3f92afe85b5053"},
       {"Hotspot", "0x91c7857c1ec14ded"},
       {"Hotspot3D", "0x964139371d7e3a5f"},
       {"IMGVF", "0xe6fa7754f77b29c3"},
       {"GICOV", "0x6fff51cd8588daaf"},
       {"Hybridsort", "0x42d2dc35ace2b107"}},
      [](const wl::Workload& w) {
        const auto& k = w.kernel();
        const auto inst = w.make_instance(wl::Scale::kFull, 0);
        const auto ranges = analyze_ranges(k, inst.launch);
        const auto& formats = gpurf::fp::table3_formats();
        exec::PrecisionMap perfect, high;
        for (uint32_t r = 0; r < k.num_regs(); ++r) {
          perfect.per_reg.push_back(formats[r % 3]);
          high.per_reg.push_back(formats[(3 * r + 1) % formats.size()]);
        }
        using gpurf::alloc::AllocOptions;
        const struct {
          AllocOptions opt;
          const exec::PrecisionMap* pmap;
        } calls[] = {{{false, false}, nullptr}, {{true, false}, nullptr},
                     {{false, true}, &perfect}, {{false, true}, &high},
                     {{true, true}, &perfect},  {{true, true}, &high}};
        std::string text;
        for (bool live : {false, true})
          for (const auto& c : calls) {
            AllocOptions opt = c.opt;
            opt.live_intervals = live;
            text += table_text(gpurf::alloc::allocate_slices(
                        k, opt.pack_ints ? &ranges : nullptr, c.pmap, opt)) +
                    "\n";
          }
        return text;
      });
}

}  // namespace
}  // namespace gpurf::analysis
