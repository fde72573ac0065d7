// Static memory-access analysis (ISSUE 10): address-bound proofs,
// footprint disjointness verdicts, bounds-check elision, OOB lint
// findings, and the Engine surfaces that consume them.

#include <gtest/gtest.h>

#include <cstring>

#include "analysis/dataflow.hpp"
#include "analysis/memory_access.hpp"
#include "api/engine.hpp"
#include "exec/interp.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "workloads/workload.hpp"

namespace gpurf {
namespace {

namespace analysis = gpurf::analysis;
namespace wl = gpurf::workloads;

/// gid = ctaid.x*32 + tid.x; stores out[gid], loads it back.  Perfectly
/// affine and block-disjoint at 32 threads/block.
constexpr const char* kAffine = R"(.kernel affine
.param s32 out_base
.reg s32 %gid
.reg s32 %a
.reg s32 %t
entry:
  mov.s32 %gid, %ctaid.x
  mad.s32 %gid, %gid, 32, %tid.x
  mad.s32 %a, %gid, 1, $out_base
  st.global.s32 [%a], %gid
  ld.global.s32 %t, [%a]
  st.global.s32 [%a], %t
  ret
)";

analysis::MemoryAccessAnalysis analyze(const ir::Kernel& k,
                                       const ir::LaunchConfig& lc,
                                       const std::vector<uint32_t>& params) {
  analysis::MemoryAccessOptions mo;
  mo.param_values = &params;
  const exec::KernelAnalysis ka(k);
  return analysis::analyze_memory_accesses(k, ka.cfg(), ka.dataflow(), lc, mo);
}

TEST(MemoryAccess, AffineKernelFullyProvenAndDisjoint) {
  ir::Kernel k = ir::parse_kernel(kAffine);
  ir::verify(k);
  const ir::LaunchConfig lc{4, 1, 32, 1};
  const std::vector<uint32_t> params{64};  // out_base = 64
  const auto ma = analyze(k, lc, params);
  EXPECT_EQ(ma.num_global, 3u);
  ASSERT_TRUE(ma.footprints_computed);
  EXPECT_TRUE(ma.stores_disjoint);
  EXPECT_TRUE(ma.loads_local);
  // Block footprints form the affine progression [64+32b, 95+32b].
  ASSERT_TRUE(ma.store_affine.valid);
  EXPECT_EQ(ma.store_affine.lo0, 64);
  EXPECT_EQ(ma.store_affine.hi0, 95);
  EXPECT_EQ(ma.store_affine.stride, 32);

  // 4*32 outputs after base 64: an image of 192 words proves every site;
  // one word short leaves the sites unproven (the last store could land
  // at 191).
  const auto proven =
      analysis::prove_in_bounds(ma, 192, analysis::shared_words(k));
  for (const auto& a : ma.accesses) EXPECT_TRUE(proven[a.flat]);
  const auto short_proven =
      analysis::prove_in_bounds(ma, 191, analysis::shared_words(k));
  uint32_t n = 0;
  for (const auto& a : ma.accesses) n += short_proven[a.flat] ? 1 : 0;
  EXPECT_EQ(n, 0u);
}

TEST(MemoryAccess, OverlappingStoresRefused) {
  // Every block stores the same [out, out+31] range: hulls collide, the
  // prover must refuse both verdicts.
  ir::Kernel k = ir::parse_kernel(R"(.kernel clash
.param s32 out_base
.reg s32 %a
entry:
  mad.s32 %a, %tid.x, 1, $out_base
  st.global.s32 [%a], %a
  ret
)");
  const auto ma = analyze(k, {4, 1, 32, 1}, {16});
  ASSERT_TRUE(ma.footprints_computed);
  EXPECT_FALSE(ma.stores_disjoint);
  // No loads at all: the block-parallel contract (no cross-block *read*)
  // holds vacuously — overlapping stores are legal there, the write-log
  // merge resolves them in grid order.  Only sharding must refuse.
  EXPECT_TRUE(ma.loads_local);
}

TEST(MemoryAccess, CrossBlockReadRefusesLoadsLocal) {
  // Disjoint stores, but each block also loads block 0's slot: the
  // block-parallel contract (no cross-block read) must fail while
  // stores_disjoint holds.
  ir::Kernel k = ir::parse_kernel(R"(.kernel crossread
.param s32 out_base
.reg s32 %gid
.reg s32 %a
.reg s32 %b
.reg s32 %t
entry:
  mov.s32 %gid, %ctaid.x
  mad.s32 %gid, %gid, 32, %tid.x
  mad.s32 %a, %gid, 1, $out_base
  st.global.s32 [%a], %gid
  mad.s32 %b, %tid.x, 0, $out_base
  ld.global.s32 %t, [%b]
  ret
)");
  const auto ma = analyze(k, {4, 1, 32, 1}, {16});
  ASSERT_TRUE(ma.footprints_computed);
  EXPECT_TRUE(ma.stores_disjoint);
  EXPECT_FALSE(ma.loads_local);
}

TEST(MemoryAccess, U32WrapStaysUnproven) {
  // A negative index reinterprets as a huge u32 address: the value
  // interval leaves [0, 2^32-1], so the site must widen and stay
  // unproven no matter the image size.
  ir::Kernel k = ir::parse_kernel(R"(.kernel wrap
.param s32 out_base
.reg s32 %a
entry:
  sub.s32 %a, %tid.x, 64
  st.global.s32 [%a], %a
  ret
)");
  const auto ma = analyze(k, {1, 1, 32, 1}, {0});
  ASSERT_EQ(ma.accesses.size(), 1u);
  EXPECT_FALSE(ma.accesses[0].addr_known);
  const auto proven =
      analysis::prove_in_bounds(ma, uint64_t(1) << 31, 2);
  EXPECT_FALSE(proven[ma.accesses[0].flat]);
}

TEST(MemoryAccess, DefiniteAndPossibleOobFindings) {
  // Site 1 always stores past a 16-word image (definite); site 2's range
  // straddles the boundary (possible).
  ir::Kernel k = ir::parse_kernel(R"(.kernel oob
.param s32 out_base
.reg s32 %a
entry:
  mad.s32 %a, %tid.x, 1, $out_base
  st.global.s32 [%a+100], %a
  st.global.s32 [%a+8], %a
  ret
)");
  const std::vector<uint32_t> params{0};
  const auto ma = analyze(k, {1, 1, 32, 1}, params);
  const auto proven = analysis::prove_in_bounds(ma, 16, 2);
  analysis::KernelReport rep;
  analysis::apply_memory_findings(rep, ma, proven, 16, 2, false);
  EXPECT_TRUE(rep.mem_analyzed);
  EXPECT_EQ(rep.mem_insts, 2u);
  EXPECT_EQ(rep.mem_proven, 0u);
  ASSERT_EQ(rep.oob_errors.size(), 1u);   // +100: [100,131], all >= 16
  ASSERT_EQ(rep.oob_warnings.size(), 1u); // +8: [8,39] straddles 16
  EXPECT_TRUE(rep.oob_errors[0].definite);
  EXPECT_FALSE(rep.oob_warnings[0].definite);
}

TEST(MemoryAccess, UnreachedSitesTriviallyProven) {
  ir::Kernel k = ir::parse_kernel(R"(.kernel unreached
.param s32 out_base
.reg s32 %a
entry:
  mad.s32 %a, %tid.x, 1, $out_base
  st.global.s32 [%a], %a
  ret
orphan:
  st.global.s32 [%a+100000], %a
  ret
)");
  const auto ma = analyze(k, {1, 1, 32, 1}, {0});
  ASSERT_EQ(ma.accesses.size(), 2u);
  const auto proven = analysis::prove_in_bounds(ma, 32, 2);
  EXPECT_TRUE(proven[ma.accesses[0].flat]);
  EXPECT_FALSE(ma.accesses[1].reached);
  EXPECT_TRUE(proven[ma.accesses[1].flat]);  // cannot execute
}

TEST(MemoryAccess, AnalysisIsDeterministic) {
  ir::Kernel k = ir::parse_kernel(kAffine);
  const std::vector<uint32_t> params{64};
  const auto a = analyze(k, {4, 1, 32, 1}, params);
  const auto b = analyze(k, {4, 1, 32, 1}, params);
  ASSERT_EQ(a.accesses.size(), b.accesses.size());
  for (size_t i = 0; i < a.accesses.size(); ++i) {
    EXPECT_EQ(a.accesses[i].addr, b.accesses[i].addr);
    EXPECT_EQ(a.accesses[i].addr_known, b.accesses[i].addr_known);
  }
  EXPECT_EQ(a.stores_disjoint, b.stores_disjoint);
  EXPECT_EQ(a.loads_local, b.loads_local);
  EXPECT_EQ(analysis::prove_in_bounds(a, 192, 2),
            analysis::prove_in_bounds(b, 192, 2));
}

// ------------------------------------------------------ workload proofs

TEST(MemoryAccess, WorkloadProofsGateParallelReplay) {
  // DWT2D is fully proven (no waiver); every bundled workload must end up
  // parallel-eligible one way or the other (proof or documented waiver) —
  // losing eligibility silently serialises replay.
  for (const auto& w : wl::make_all_workloads()) {
    auto inst = w->make_instance(wl::Scale::kSample, 0);
    const auto proofs = w->mem_proofs(inst, /*footprints=*/true);
    EXPECT_TRUE(proofs->parallel_ok) << w->spec().name;
    EXPECT_TRUE(proofs->shard_ok) << w->spec().name;
    if (w->spec().name == "DWT2D") {
      EXPECT_FALSE(w->spec().assume_disjoint);
      EXPECT_TRUE(proofs->mem.stores_disjoint);
      EXPECT_TRUE(proofs->mem.loads_local);
    }
  }
}

TEST(MemoryAccess, BoundsElisionBitIdenticalOnWorkloads) {
  // The elision consumer's end-to-end identity on a proven workload.
  const auto all = wl::make_all_workloads();
  for (const auto& w : all) {
    if (w->spec().name != "DWT2D" && w->spec().name != "GICOV") continue;
    wl::RunOptions off;
    off.block_parallel = false;
    off.elide_bounds_checks = false;
    wl::RunOptions on = off;
    on.elide_bounds_checks = true;
    auto i1 = w->make_instance(wl::Scale::kSample, 0);
    auto i2 = w->make_instance(wl::Scale::kSample, 0);
    const auto a = w->run(i1, nullptr, nullptr, off);
    const auto b = w->run(i2, nullptr, nullptr, on);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << w->spec().name;
  }
}

// ------------------------------------------------------- Engine surfaces

TEST(MemoryAccess, EngineAnalyzeReportsMemSection) {
  Engine eng{EngineOptions{}};
  const auto rep = eng.analyze("DWT2D");
  ASSERT_TRUE(rep.ok()) << rep.status().message();
  EXPECT_TRUE(rep->mem_analyzed);
  EXPECT_GT(rep->gmem_words, 0u);
  EXPECT_GT(rep->mem_insts, 0u);
  EXPECT_EQ(rep->mem_proven, rep->mem_insts);  // fully proven workload
  EXPECT_TRUE(rep->oob_errors.empty());
  EXPECT_TRUE(rep->footprints_computed);
  EXPECT_TRUE(rep->stores_disjoint);
  EXPECT_TRUE(rep->loads_local);
  EXPECT_FALSE(rep->disjoint_waived);

  const auto waived = eng.analyze("SSAO");
  ASSERT_TRUE(waived.ok());
  EXPECT_TRUE(waived->disjoint_waived);
  EXPECT_TRUE(waived->loads_local);

  // No bundled workload may carry a definite OOB: the lint gate's
  // invariant, pinned here without the CLI.
  for (const std::string& name : eng.workload_names()) {
    const auto r = eng.analyze(name);
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_TRUE(r->oob_errors.empty()) << name;
  }
}

TEST(MemoryAccess, BareKernelAnalyzeSkipsGlobalClassification) {
  // Without an instance there is no image size: global sites must not be
  // classified (no spurious findings), shared-memory analysis still runs.
  Engine eng{EngineOptions{}};
  ir::Kernel k = ir::parse_kernel(kAffine);
  const auto rep = eng.analyze(k);
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->mem_analyzed);
  EXPECT_EQ(rep->gmem_words, 0u);
  EXPECT_TRUE(rep->oob_errors.empty());
  EXPECT_TRUE(rep->oob_warnings.empty());
}

}  // namespace
}  // namespace gpurf
