// Tests for the timing simulator: occupancy calculator (§2 numbers),
// cache model, and end-to-end simulations of small kernels — including
// functional equivalence between timed and untimed execution and the
// basic performance orderings the paper's results rest on.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <string>

#include "alloc/slice_alloc.hpp"
#include "analysis/range_analysis.hpp"
#include "api/engine.hpp"
#include "api/json.hpp"
#include "common/error.hpp"
#include "ir/parser.hpp"
#include "sim/cache.hpp"
#include "sim/gpu.hpp"
#include "sim/occupancy.hpp"
#include "testing_util.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf::sim {
namespace {

using gpurf::ir::LaunchConfig;
using gpurf::ir::parse_kernel;

// ------------------------------------------------------------- occupancy

TEST(Occupancy, PaperImgvfNumbers) {
  const GpuConfig g = GpuConfig::fermi_gtx480();
  // §2: 52 regs x 32 threads x 10 warps = 16,640 -> one block, 10/48 warps.
  const auto orig = compute_occupancy(g, 52, 10, 14560);
  EXPECT_EQ(orig.blocks_per_sm, 1u);
  EXPECT_NEAR(orig.percent, 20.8, 0.1);
  EXPECT_EQ(orig.limiter, Occupancy::Limiter::kRegisters);

  // §2: at 29 registers three blocks fit -> 30/48 warps = 62.5 %.
  const auto comp = compute_occupancy(g, 29, 10, 14560);
  EXPECT_EQ(comp.blocks_per_sm, 3u);
  EXPECT_NEAR(comp.percent, 62.5, 0.01);

  // §6.1: at 24 registers the 14,560-byte shared memory caps at 3 blocks.
  const auto high = compute_occupancy(g, 24, 10, 14560);
  EXPECT_EQ(high.blocks_per_sm, 3u);
  EXPECT_EQ(high.limiter, Occupancy::Limiter::kSharedMem);
}

TEST(Occupancy, WarpAndBlockLimits) {
  const GpuConfig g = GpuConfig::fermi_gtx480();
  // Tiny pressure: 48 warps / 8 warps-per-block = 6 blocks (warp limit).
  const auto w = compute_occupancy(g, 4, 8, 0);
  EXPECT_EQ(w.blocks_per_sm, 6u);
  EXPECT_EQ(w.limiter, Occupancy::Limiter::kWarps);
  // 6 warps per block: 8 blocks would need 48 warps exactly; register
  // pressure 4 allows more than 8 -> block limit.
  const auto b = compute_occupancy(g, 4, 6, 0);
  EXPECT_EQ(b.blocks_per_sm, 8u);
  EXPECT_EQ(b.percent, 100.0);
}

TEST(Occupancy, RegisterGranularityMatchesPaperMath) {
  const GpuConfig g = GpuConfig::fermi_gtx480();
  // 34 regs x 320 threads = 10,880 -> exactly 3 blocks in 32,768.
  EXPECT_EQ(compute_occupancy(g, 34, 10, 0).blocks_per_sm, 3u);
  EXPECT_EQ(compute_occupancy(g, 35, 10, 0).blocks_per_sm, 2u);
}

// ------------------------------------------------------------------ cache

TEST(Cache, HitsAfterFill) {
  Cache c(CacheGeom{1024, 128, 2});
  EXPECT_FALSE(c.access(1));
  EXPECT_TRUE(c.access(1));
  EXPECT_EQ(c.stats().accesses, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEviction) {
  Cache c(CacheGeom{2 * 128, 128, 2});  // one set, two ways
  c.access(10);
  c.access(20);
  c.access(10);      // refresh 10
  c.access(30);      // evicts 20
  EXPECT_TRUE(c.access(10));
  EXPECT_FALSE(c.access(20));
}

TEST(Cache, SetIndexing) {
  Cache c(CacheGeom{4 * 128, 128, 1});  // four direct-mapped sets
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(1));
  EXPECT_TRUE(c.access(0));  // different sets: no conflict
  EXPECT_FALSE(c.access(4));  // same set as 0: evicts it
  EXPECT_FALSE(c.access(0));
}

TEST(Cache, CapacityThrashing) {
  Cache c(CacheGeom{8 * 128, 128, 4});
  for (int round = 0; round < 3; ++round)
    for (uint64_t line = 0; line < 64; ++line) c.access(line);
  EXPECT_GT(c.stats().miss_rate(), 0.9);
}

// ----------------------------------------------------------- simulation

struct SimRig {
  gpurf::ir::Kernel k;
  gpurf::exec::GlobalMemory gmem;
  std::vector<gpurf::exec::Texture> textures;
  KernelLaunchSpec spec;

  SimRig(std::string_view text, LaunchConfig lc) : k(parse_kernel(text)) {
    spec.kernel = &k;
    spec.launch = lc;
    spec.gmem = &gmem;
    spec.textures = &textures;
  }
};

constexpr std::string_view kAxpy = R"(
.kernel axpy
.param s32 x_base
.param s32 y_base
.param s32 n
.reg s32 %i
.reg s32 %a
.reg f32 %x
.reg f32 %y
.reg pred %p
entry:
  mov.s32 %i, %ctaid.x
  mad.s32 %i, %i, 128, %tid.x
  setp.ge.s32 %p, %i, $n
  @%p bra exit
body:
  add.s32 %a, %i, $x_base
  ld.global.f32 %x, [%a]
  add.s32 %a, %i, $y_base
  ld.global.f32 %y, [%a]
  mad.f32 %y, %x, 2.0, %y
  st.global.f32 [%a], %y
exit:
  ret
)";

TEST(Simulate, AxpyCompletesAndMatchesFunctional) {
  const uint32_t n = 128 * 30;
  SimRig rig(kAxpy, LaunchConfig{30, 1, 128, 1});
  std::vector<float> x(n, 1.5f), y(n, 0.25f);
  const uint32_t xb = rig.gmem.alloc_f32(x);
  const uint32_t yb = rig.gmem.alloc_f32(y);
  rig.spec.params = {xb, yb, n};
  rig.spec.regs_per_thread = 8;

  const auto res = simulate(GpuConfig::fermi_gtx480(),
                            CompressionConfig::baseline(), rig.spec);
  EXPECT_GT(res.stats.cycles, 0u);
  EXPECT_GT(res.stats.ipc(), 0.0);
  EXPECT_EQ(res.stats.blocks_run, 30u);
  // thread instructions: 30 blocks x 128 threads x 10 instructions
  EXPECT_EQ(res.stats.thread_insts, 30u * 128u * 10u);
  for (uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(rig.gmem.read_f32(yb + i, 1)[0], 1.5f * 2.0f + 0.25f);
}

TEST(Simulate, TimedOutputsMatchUntimedExecution) {
  // The timing model must not change functional results.
  const uint32_t n = 128 * 8;
  std::vector<float> x(n), y0(n);
  for (uint32_t i = 0; i < n; ++i) {
    x[i] = float(i % 32) * 0.125f;
    y0[i] = float(i % 7);
  }

  // Untimed reference.
  SimRig a(kAxpy, LaunchConfig{8, 1, 128, 1});
  const uint32_t xa = a.gmem.alloc_f32(x);
  const uint32_t ya = a.gmem.alloc_f32(y0);
  gpurf::exec::ExecContext ctx;
  ctx.kernel = &a.k;
  ctx.launch = a.spec.launch;
  ctx.gmem = &a.gmem;
  ctx.textures = &a.textures;
  ctx.params = {xa, ya, n};
  gpurf::exec::run_functional(ctx);

  // Timed run.
  SimRig b(kAxpy, LaunchConfig{8, 1, 128, 1});
  const uint32_t xb = b.gmem.alloc_f32(x);
  const uint32_t yb = b.gmem.alloc_f32(y0);
  b.spec.params = {xb, yb, n};
  b.spec.regs_per_thread = 8;
  simulate(GpuConfig::fermi_gtx480(), CompressionConfig::baseline(), b.spec);

  EXPECT_EQ(a.gmem.read_f32(ya, n), b.gmem.read_f32(yb, n));
}

// Launched with 64-thread blocks; each block stores its own 64 words, as
// the sharded simulator's memory contract requires (sim/gpu.hpp).
constexpr std::string_view kChain = R"(
.kernel chain
.param s32 out
.reg s32 %i
.reg s32 %a
.reg f32 %v
.reg pred %p
entry:
  mov.s32 %i, 0
  mov.f32 %v, 1.0
loop:
  setp.ge.s32 %p, %i, 64
  @%p bra done
body:
  mad.f32 %v, %v, 0.5, 0.25
  mad.f32 %v, %v, 0.5, 0.25
  mad.f32 %v, %v, 0.5, 0.25
  mad.f32 %v, %v, 0.5, 0.25
  add.s32 %i, %i, 1
  bra loop
done:
  mov.s32 %a, %ctaid.x
  mad.s32 %a, %a, 64, %tid.x
  add.s32 %a, %a, $out
  st.global.f32 [%a], %v
  ret
)";

TEST(Simulate, OccupancyImprovesLatencyBoundKernel) {
  // A pure dependency chain is latency bound: more warps -> higher IPC.
  auto run = [&](uint32_t regs) {
    SimRig rig(kChain, LaunchConfig{120, 1, 64, 1});
    const uint32_t out = rig.gmem.alloc(64 * 120);
    rig.spec.params = {out};
    rig.spec.regs_per_thread = regs;
    return simulate(GpuConfig::fermi_gtx480(),
                    CompressionConfig::baseline(), rig.spec);
  };
  const auto low = run(256);   // 2 warps per SM
  const auto high = run(32);   // many warps per SM
  EXPECT_GT(high.occupancy.warps_per_sm, low.occupancy.warps_per_sm);
  EXPECT_GT(high.stats.ipc(), 1.5 * low.stats.ipc());
}

TEST(Simulate, WritebackDelayCostsIpc) {
  // With compression enabled, a longer writeback delay can only slow the
  // dependency chain down.
  auto run = [&](uint32_t wb) {
    SimRig rig(kChain, LaunchConfig{30, 1, 64, 1});
    const uint32_t out = rig.gmem.alloc(64 * 30);
    rig.spec.params = {out};
    rig.spec.regs_per_thread = 64;
    return simulate(GpuConfig::fermi_gtx480(),
                    CompressionConfig::with_writeback_delay(wb), rig.spec);
  };
  const double ipc0 = run(0).stats.ipc();
  const double ipc8 = run(8).stats.ipc();
  EXPECT_GT(ipc0, ipc8);
}

TEST(Simulate, CompressedPipelineOverheadAtEqualOccupancy) {
  // Same occupancy, compression on vs. off: the deeper operand-collector
  // pipeline and writeback delay must not *help* (§6.2 Elevated effect).
  auto run = [&](bool compressed) {
    SimRig rig(kChain, LaunchConfig{30, 1, 64, 1});
    const uint32_t out = rig.gmem.alloc(64 * 30);
    rig.spec.params = {out};
    rig.spec.regs_per_thread = 64;
    return simulate(GpuConfig::fermi_gtx480(),
                    compressed ? CompressionConfig::paper_default()
                               : CompressionConfig::baseline(),
                    rig.spec);
  };
  EXPECT_LE(run(true).stats.ipc(), run(false).stats.ipc());
}

TEST(Simulate, BarrierKernelCompletes) {
  SimRig rig(R"(
.kernel barrier
.param s32 out
.reg s32 %x
.reg s32 %r
.reg s32 %a
entry:
  mov.s32 %x, %tid.x
  st.shared.s32 [%x], %x
  bar.sync
  mov.s32 %r, 63
  sub.s32 %r, %r, %x
  ld.shared.s32 %r, [%r]
  add.s32 %a, %x, $out
  st.global.s32 [%a], %r
  ret
)",
             LaunchConfig{15, 1, 64, 1});
  rig.k.shared_bytes = 256;
  const uint32_t out = rig.gmem.alloc(64 * 15);
  rig.spec.params = {out};
  rig.spec.regs_per_thread = 8;
  const auto res = simulate(GpuConfig::fermi_gtx480(),
                            CompressionConfig::baseline(), rig.spec);
  EXPECT_EQ(res.stats.blocks_run, 15u);
  EXPECT_EQ(rig.gmem.read(out + 0), 63u);
  EXPECT_EQ(rig.gmem.read(out + 63), 0u);
}

TEST(Simulate, SplitOperandsGenerateDoubleFetches) {
  // Force a split allocation and verify the bank-traffic statistics see it.
  SimRig rig(kChain, LaunchConfig{2, 1, 64, 1});
  const uint32_t out = rig.gmem.alloc(64 * 2);
  rig.spec.params = {out};
  rig.spec.regs_per_thread = 8;

  gpurf::alloc::AllocationResult alloc;
  alloc.table.assign(rig.k.num_regs(), {});
  for (uint32_t r = 0; r < rig.k.num_regs(); ++r) {
    auto& e = alloc.table[r];
    e.valid = true;
    e.slices = 8;
    e.r0 = {r, 0xf0};
    e.r1 = {r + 1, 0x0f};
    e.split = true;
  }
  alloc.num_physical_regs = rig.k.num_regs() + 1;
  rig.spec.allocation = &alloc;

  const auto res = simulate(GpuConfig::fermi_gtx480(),
                            CompressionConfig::paper_default(), rig.spec);
  EXPECT_GT(res.stats.double_fetches, 0u);
}

// ------------------------------------------------------ cycle accounting
//
// ISSUE 5: cycles must count exactly the ticks in which the machine could
// do work — the old loop always ran (and charged) at least one tick, so a
// degenerate launch cost a phantom cycle.

constexpr std::string_view kRetOnly = R"(
.kernel tiny
entry:
  ret
)";

TEST(Simulate, EmptyGridSimulatesInZeroCycles) {
  // Zero blocks is a legal degenerate launch: nothing runs, nothing is
  // charged.
  SimRig rig(kRetOnly, LaunchConfig{0, 1, 32, 1});
  rig.spec.regs_per_thread = 4;
  const auto res = simulate(GpuConfig::fermi_gtx480(),
                            CompressionConfig::baseline(), rig.spec);
  EXPECT_EQ(res.stats.cycles, 0u);
  EXPECT_EQ(res.stats.blocks_run, 0u);
  EXPECT_EQ(res.stats.warp_insts, 0u);
  EXPECT_EQ(res.stats.thread_insts, 0u);
  EXPECT_EQ(res.stats.ipc(), 0.0);
}

TEST(Simulate, OneInstructionKernelCountsExactCycles) {
  // A single warp issues its ret in cycle 0 and the machine is idle: one
  // cycle total, no drain tick.
  SimRig one(kRetOnly, LaunchConfig{1, 1, 32, 1});
  one.spec.regs_per_thread = 4;
  const auto r1 = simulate(GpuConfig::fermi_gtx480(),
                           CompressionConfig::baseline(), one.spec);
  EXPECT_EQ(r1.stats.cycles, 1u);
  EXPECT_EQ(r1.stats.warp_insts, 1u);

  // Four warps through two schedulers: two issue per cycle -> two cycles.
  SimRig four(kRetOnly, LaunchConfig{1, 1, 128, 1});
  four.spec.regs_per_thread = 4;
  const auto r4 = simulate(GpuConfig::fermi_gtx480(),
                           CompressionConfig::baseline(), four.spec);
  EXPECT_EQ(r4.stats.cycles, 2u);
  EXPECT_EQ(r4.stats.warp_insts, 4u);
}

TEST(Simulate, SharedBankConflictDegree) {
  // One warp loads shared word tid * stride under a tid < active guard,
  // and the add waits on the load.  Shared memory has 32 word-interleaved
  // banks, and the conflict degree (max distinct words in one bank) adds
  // degree - 1 cycles of latency.  Stride 1, a broadcast (stride 0) and
  // every mask spanning fewer than 32 words have degree 1; stride 33 spans
  // 1,024 words with one word per bank; stride 2 has degree 2; stride 32
  // puts every active lane in bank 0.
  constexpr std::string_view kStrided = R"(
.kernel shared_stride
.param s32 stride
.param s32 active
.reg s32 %t
.reg s32 %a
.reg s32 %r
.reg pred %p
entry:
  mov.s32 %t, %tid.x
  mul.s32 %a, %t, $stride
  setp.lt.s32 %p, %t, $active
  @%p ld.shared.s32 %r, [%a]
  add.s32 %r, %r, 1
  ret
)";
  const struct {
    uint32_t stride, active;
    uint64_t cycles;
  } cases[] = {
      {1, 32, 73},  {2, 32, 74}, {32, 32, 104}, {33, 32, 73},
      {0, 32, 73},  {2, 16, 73}, {32, 8, 80},
  };
  for (const auto& c : cases) {
    SimRig rig(kStrided, LaunchConfig{1, 1, 32, 1});
    rig.k.shared_bytes = 4 * 1024;
    rig.spec.params = {c.stride, c.active};
    rig.spec.regs_per_thread = 4;
    const auto res = simulate(GpuConfig::fermi_gtx480(),
                              CompressionConfig::baseline(), rig.spec);
    const std::string what = "stride " + std::to_string(c.stride) +
                             " active " + std::to_string(c.active);
    EXPECT_EQ(res.stats.cycles, c.cycles) << what;
    EXPECT_EQ(res.stats.warp_insts, 6u) << what;
  }
}

TEST(Simulate, StallClassPrecedence) {
  // One scheduler, one collector unit, two warps.  While one warp's mov
  // holds the only collector unit, the other warp's first instruction
  // finds no free unit; so does the first warp's independent second mov
  // (a no-free-unit stall), while its add waits on the first mov.  A
  // cycle in which one warp fails the scoreboard and another finds no
  // free collector unit counts as a scoreboard stall.
  constexpr std::string_view kPair = R"(
.kernel precedence
.param s32 base
.reg s32 %t
.reg s32 %a
.reg s32 %r
.reg s32 %s
.reg s32 %u
entry:
  mov.s32 %t, %tid.x
  mov.s32 %u, 1
  add.s32 %a, %t, $base
  ld.global.s32 %r, [%a]
  add.s32 %s, %r, %u
  add.s32 %s, %s, %t
  st.global.s32 [%a], %s
  ret
)";
  SimRig rig(kPair, LaunchConfig{1, 1, 64, 1});
  const uint32_t base = rig.gmem.alloc(64);
  rig.spec.params = {base};
  rig.spec.regs_per_thread = 8;
  GpuConfig g = GpuConfig::fermi_gtx480();
  g.collector_units = 1;
  g.warp_schedulers = 1;
  const auto res = simulate(g, CompressionConfig::baseline(), rig.spec);
  EXPECT_EQ(res.stats.cycles, 432u);
  EXPECT_EQ(res.stats.warp_insts, 16u);
  EXPECT_EQ(res.stats.stall_scoreboard, 415u);
  EXPECT_EQ(res.stats.stall_no_cu, 1u);
  for (uint32_t i = 0; i < 64; ++i) EXPECT_EQ(rig.gmem.read(base + i), i + 1);
}

TEST(Simulate, ZeroThreadBlockShapeIsRejected) {
  SimRig rig(kRetOnly, LaunchConfig{1, 1, 0, 1});
  rig.spec.regs_per_thread = 4;
  EXPECT_THROW(simulate(GpuConfig::fermi_gtx480(),
                        CompressionConfig::baseline(), rig.spec),
               gpurf::Error);
}

// ------------------------------------------------ GpuConfig validation
//
// GpuConfig is public API (EngineOptions::with_gpu).  The simulator sizes
// its per-SM scheduler, bank and collector-unit state by the
// GpuConfig::kMax* bounds, so fields outside them must be rejected before
// any state is built.

/// Simulate a small axpy under `g` (and `pmap`, when given); returns the
/// error message, or "" when the launch ran (and produced correct output).
std::string axpy_under(const GpuConfig& g,
                       const gpurf::exec::PrecisionMap* pmap = nullptr) {
  const uint32_t n = 128 * 8;
  SimRig rig(kAxpy, LaunchConfig{8, 1, 128, 1});
  std::vector<float> x(n, 1.5f), y(n, 0.25f);
  const uint32_t xb = rig.gmem.alloc_f32(x);
  const uint32_t yb = rig.gmem.alloc_f32(y);
  rig.spec.params = {xb, yb, n};
  rig.spec.regs_per_thread = 8;
  rig.spec.precision = pmap;
  try {
    simulate(g, CompressionConfig::baseline(), rig.spec);
  } catch (const gpurf::Error& e) {
    return e.what();
  }
  for (uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(rig.gmem.read_f32(yb + i, 1)[0], 1.5f * 2.0f + 0.25f);
  return "";
}

TEST(ValidateGpuConfig, RejectsZeroSms) {
  GpuConfig g;
  g.num_sms = 0;
  EXPECT_NE(axpy_under(g).find("SM"), std::string::npos);
}

TEST(ValidateGpuConfig, RejectsWarpSchedulersOutOfRange) {
  for (uint32_t v : {0u, GpuConfig::kMaxWarpSchedulers + 1}) {
    GpuConfig g;
    g.warp_schedulers = v;
    EXPECT_NE(axpy_under(g).find("warp_schedulers"), std::string::npos) << v;
  }
}

TEST(ValidateGpuConfig, RejectsRegisterBanksOutOfRange) {
  for (uint32_t v : {0u, GpuConfig::kMaxRegisterBanks + 1}) {
    GpuConfig g;
    g.register_banks = v;
    EXPECT_NE(axpy_under(g).find("register_banks"), std::string::npos) << v;
  }
}

TEST(ValidateGpuConfig, RejectsCollectorUnitsOutOfRange) {
  for (uint32_t v : {0u, GpuConfig::kMaxCollectorUnits + 1}) {
    GpuConfig g;
    g.collector_units = v;
    EXPECT_NE(axpy_under(g).find("collector_units"), std::string::npos)
        << v;
  }
}

TEST(ValidateGpuConfig, RejectsMaxWarpsPerSmOutOfRange) {
  // 0 would make Occupancy::percent NaN; above 64 the per-SM warp masks
  // overflow.
  for (uint32_t v : {0u, GpuConfig::kMaxWarpsPerSm + 1}) {
    GpuConfig g;
    g.max_warps_per_sm = v;
    EXPECT_NE(axpy_under(g).find("max_warps_per_sm"), std::string::npos)
        << v;
  }
}

TEST(ValidateGpuConfig, AcceptsTheUpperBounds) {
  GpuConfig g;
  g.warp_schedulers = GpuConfig::kMaxWarpSchedulers;
  g.register_banks = GpuConfig::kMaxRegisterBanks;
  g.collector_units = GpuConfig::kMaxCollectorUnits;
  g.max_warps_per_sm = GpuConfig::kMaxWarpsPerSm;
  g.max_blocks_per_sm = GpuConfig::kMaxWarpsPerSm;
  EXPECT_EQ(axpy_under(g), "");
  g.num_sms = 1;
  g.warp_schedulers = 1;
  g.register_banks = 1;
  g.collector_units = 1;
  g.max_warps_per_sm = 4;  // one 128-thread axpy block
  EXPECT_EQ(axpy_under(g), "");
}

// ------------------------------------------------ precision map validation
//
// The interpreter indexes the precision map unchecked on every f32 write,
// so a launch checks it once: empty, or one Table-3 format per register.

TEST(ValidatePrecisionMap, SimulateRejectsAShortMap) {
  gpurf::exec::PrecisionMap pmap;
  pmap.per_reg.assign(4, gpurf::fp::format_for_bits(16));  // axpy has 5
  const std::string err = axpy_under(GpuConfig::fermi_gtx480(), &pmap);
  EXPECT_NE(err.find("precision map has 4 entries for 5 registers"),
            std::string::npos)
      << err;
}

TEST(ValidatePrecisionMap, SimulateRejectsANonTable3Format) {
  gpurf::exec::PrecisionMap pmap;
  pmap.per_reg.assign(5, gpurf::fp::format_for_bits(16));
  pmap.per_reg[2] = gpurf::fp::FloatFormat{24, 0, 23};
  const std::string err = axpy_under(GpuConfig::fermi_gtx480(), &pmap);
  EXPECT_NE(err.find("precision map entry 2 (24 bits) is not a Table-3"),
            std::string::npos)
      << err;
}

TEST(ValidatePrecisionMap, SimulateAcceptsEmptyAndFullMaps) {
  gpurf::exec::PrecisionMap pmap;
  EXPECT_EQ(axpy_under(GpuConfig::fermi_gtx480(), &pmap), "");
  pmap.per_reg.assign(5, gpurf::fp::format_for_bits(16));  // 3.25 is exact
  EXPECT_EQ(axpy_under(GpuConfig::fermi_gtx480(), &pmap), "");
}

// -------------------------------------------------- multi-SM sharded sim

void expect_same_stats(const SimStats& a, const SimStats& b) {
  gpurf::testing::expect_same_sim_stats(a, b);
}

TEST(ShardedSimulate, AxpyStatsMatchSerialAtEveryShardCount) {
  gpurf::testing::PoolWidth width(8);
  const uint32_t n = 128 * 30;
  auto run = [&](int shards) {
    SimRig rig(kAxpy, LaunchConfig{30, 1, 128, 1});
    std::vector<float> x(n, 1.5f), y(n, 0.25f);
    const uint32_t xb = rig.gmem.alloc_f32(x);
    const uint32_t yb = rig.gmem.alloc_f32(y);
    rig.spec.params = {xb, yb, n};
    rig.spec.regs_per_thread = 8;
    SimOptions so;
    so.shards = shards;
    auto res = simulate(GpuConfig::fermi_gtx480(),
                        CompressionConfig::baseline(), rig.spec, nullptr, so);
    // The functional outputs stay correct under sharded ticking too.
    for (uint32_t i = 0; i < n; ++i)
      EXPECT_EQ(rig.gmem.read_f32(yb + i, 1)[0], 1.5f * 2.0f + 0.25f);
    return res;
  };
  const auto serial = run(1);
  for (int shards : {2, 4, 8}) {
    const auto sharded = run(shards);
    expect_same_stats(serial.stats, sharded.stats);
  }
}

TEST(ShardedSimulate, CompressedSplitAllocationMatchesSerial) {
  // Exercises the compressed-pipeline counters (double fetches,
  // conversions) and the deferred L2 replay under a split allocation.
  gpurf::testing::PoolWidth width(8);
  auto run = [&](int shards) {
    SimRig rig(kChain, LaunchConfig{16, 1, 64, 1});
    const uint32_t out = rig.gmem.alloc(64 * 16);
    rig.spec.params = {out};
    rig.spec.regs_per_thread = 8;
    gpurf::alloc::AllocationResult alloc;
    alloc.table.assign(rig.k.num_regs(), {});
    for (uint32_t r = 0; r < rig.k.num_regs(); ++r) {
      auto& e = alloc.table[r];
      e.valid = true;
      e.slices = 8;
      e.r0 = {r, 0xf0};
      e.r1 = {r + 1, 0x0f};
      e.split = true;
    }
    alloc.num_physical_regs = rig.k.num_regs() + 1;
    rig.spec.allocation = &alloc;
    SimOptions so;
    so.shards = shards;
    return simulate(GpuConfig::fermi_gtx480(),
                    CompressionConfig::paper_default(), rig.spec, nullptr,
                    so);
  };
  const auto serial = run(1);
  EXPECT_GT(serial.stats.double_fetches, 0u);
  for (int shards : {2, 8}) expect_same_stats(serial.stats, run(shards).stats);
}

// Per-block trip count (ctaid.x * 7) % 13 in 0..12, so blocks end at
// scattered cycles inside a window; global and shared traffic plus a
// barrier on the way out.  Each block touches only its own 64 words.
constexpr std::string_view kRagged = R"(
.kernel ragged
.param s32 out
.reg s32 %i
.reg s32 %n
.reg s32 %a
.reg s32 %t
.reg f32 %v
.reg f32 %w
.reg pred %p
entry:
  mov.s32 %n, %ctaid.x
  mul.s32 %n, %n, 7
  rem.s32 %n, %n, 13
  mov.s32 %i, 0
  mov.f32 %v, 1.0
  mov.s32 %a, %ctaid.x
  mad.s32 %a, %a, 64, %tid.x
  add.s32 %a, %a, $out
loop:
  setp.ge.s32 %p, %i, %n
  @%p bra done
body:
  ld.global.f32 %w, [%a]
  mad.f32 %v, %v, 0.5, %w
  st.global.f32 [%a], %v
  add.s32 %i, %i, 1
  bra loop
done:
  mov.s32 %t, %tid.x
  st.shared.s32 [%t], %t
  bar.sync
  st.global.f32 [%a], %v
  ret
)";

struct RaggedRun {
  SimResult res;
  std::vector<uint32_t> out;
};

RaggedRun run_ragged(const GpuConfig& g, const CompressionConfig& cc,
                     uint32_t blocks, int shards) {
  SimRig rig(kRagged, LaunchConfig{blocks, 1, 64, 1});
  rig.k.shared_bytes = 256;
  const uint32_t out = rig.gmem.alloc(64 * blocks);
  rig.spec.params = {out};
  rig.spec.regs_per_thread = 8;
  SimOptions so;
  so.shards = shards;
  RaggedRun r;
  r.res = simulate(g, cc, rig.spec, nullptr, so);
  for (uint32_t i = 0; i < 64 * blocks; ++i)
    r.out.push_back(rig.gmem.read(out + i));
  return r;
}

TEST(ShardedSimulate, WindowEdgeCasesMatchSerial) {
  // Sharded runs meet once per window of W = min(lat_l1_hit, lat_tex_hit)
  // cycles.  Grids of 1 and 7 blocks leave SMs idle from cycle 0, 15 and
  // 31 end blocks mid-window on every SM, and 200 blocks refill slots
  // and drain the dispatcher mid-window.
  gpurf::testing::PoolWidth width(8);
  GpuConfig w1, w7;
  w1.lat_l1_hit = w1.lat_tex_hit = 1;
  w7.lat_l1_hit = 7;
  w7.lat_tex_hit = 9;
  const struct {
    const char* name;
    GpuConfig gpu;
  } gpus[] = {{"W=60", GpuConfig::fermi_gtx480()}, {"W=1", w1}, {"W=7", w7}};
  const CompressionConfig ccs[] = {CompressionConfig::baseline(),
                                   CompressionConfig::paper_default()};
  for (const auto& g : gpus)
    for (const auto& cc : ccs)
      for (uint32_t blocks : {1u, 7u, 15u, 31u, 200u}) {
        const std::string what = std::string(g.name) +
                                 (cc.enabled ? " compressed" : " baseline") +
                                 " blocks=" + std::to_string(blocks);
        const RaggedRun serial = run_ragged(g.gpu, cc, blocks, 1);
        EXPECT_EQ(serial.res.stats.blocks_run, blocks) << what;
        for (int shards : {2, 4, 8}) {
          const RaggedRun sharded = run_ragged(g.gpu, cc, blocks, shards);
          gpurf::testing::expect_same_sim_stats(
              serial.res.stats, sharded.res.stats,
              what + " T=" + std::to_string(shards));
          EXPECT_EQ(serial.out, sharded.out) << what << " T=" << shards;
        }
      }
}

TEST(ShardedSimulate, MaxCyclesOverrunRaisesTheSameErrorAtEveryShardCount) {
  gpurf::testing::PoolWidth width(4);
  GpuConfig g;
  g.max_cycles = 1000;  // not a multiple of the 60-cycle window
  std::string msg[2];
  for (int i = 0; i < 2; ++i) {
    try {
      run_ragged(g, CompressionConfig::baseline(), 200, i == 0 ? 1 : 4);
      ADD_FAILURE() << "no max_cycles error at shards " << (i == 0 ? 1 : 4);
    } catch (const gpurf::Error& e) {
      msg[i] = e.what();
    }
  }
  EXPECT_NE(msg[0].find("max_cycles"), std::string::npos) << msg[0];
  EXPECT_EQ(msg[0], msg[1]);
}

TEST(ShardedSimulate, BusyPoolTakesTheSerialSchedule) {
  // A sharded simulation that finds its pool held by another fan-out does
  // not wait for it: it runs the serial schedule on its caller, with
  // results identical to a serial run.
  gpurf::testing::PoolWidth width(4);
  const GpuConfig g = GpuConfig::fermi_gtx480();
  const CompressionConfig cc = CompressionConfig::paper_default();
  const RaggedRun serial = run_ragged(g, cc, 31, 1);
  gpurf::testing::HeldPool hold(gpurf::common::ThreadPool::instance());
  auto busy = std::async(std::launch::async,
                         [&] { return run_ragged(g, cc, 31, 4); });
  const bool finished =
      busy.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  hold.release();
  ASSERT_TRUE(finished) << "the simulation waited for the busy pool";
  const RaggedRun held = busy.get();
  gpurf::testing::expect_same_sim_stats(serial.res.stats, held.res.stats);
  EXPECT_EQ(serial.out, held.out);
}

TEST(ShardedSimulate, ShardCountBeyondPoolDegradesGracefully) {
  // shards > pool width clamps; shards <= 0 resolves to the pool width.
  gpurf::testing::PoolWidth width(2);
  SimRig rig(kAxpy, LaunchConfig{8, 1, 128, 1});
  const uint32_t n = 128 * 8;
  std::vector<float> x(n, 1.0f), y(n, 2.0f);
  rig.spec.params = {rig.gmem.alloc_f32(x), rig.gmem.alloc_f32(y), n};
  rig.spec.regs_per_thread = 8;
  SimOptions serial;  // shards = 1
  SimRig rig2(kAxpy, LaunchConfig{8, 1, 128, 1});
  rig2.spec.params = {rig2.gmem.alloc_f32(x), rig2.gmem.alloc_f32(y), n};
  rig2.spec.regs_per_thread = 8;
  SimOptions wide;
  wide.shards = 64;  // clamped to min(pool, num_sms)
  const auto a = simulate(GpuConfig::fermi_gtx480(),
                          CompressionConfig::baseline(), rig.spec, nullptr,
                          serial);
  const auto b = simulate(GpuConfig::fermi_gtx480(),
                          CompressionConfig::baseline(), rig2.spec, nullptr,
                          wide);
  expect_same_stats(a.stats, b.stats);

  // shards <= 0 resolves to the pool width (the Engine default path).
  SimRig rig3(kAxpy, LaunchConfig{8, 1, 128, 1});
  rig3.spec.params = {rig3.gmem.alloc_f32(x), rig3.gmem.alloc_f32(y), n};
  rig3.spec.regs_per_thread = 8;
  SimOptions auto_width;
  auto_width.shards = 0;
  const auto c = simulate(GpuConfig::fermi_gtx480(),
                          CompressionConfig::baseline(), rig3.spec, nullptr,
                          auto_width);
  expect_same_stats(a.stats, c.stats);
}

TEST(Simulate, RejectsOversizedKernel) {
  SimRig rig(kChain, LaunchConfig{1, 1, 64, 1});
  rig.spec.params = {0};
  rig.spec.regs_per_thread = 2000;  // cannot fit a single block
  EXPECT_THROW(simulate(GpuConfig::fermi_gtx480(),
                        CompressionConfig::baseline(), rig.spec),
               gpurf::Error);
}

// ------------------------------------------------------ absolute goldens
//
// The sharded suites above compare two schedules inside one binary, so a
// timing-model drift that moves the serial and sharded runs alike passes
// them.  These pins fix every field of SimResult (occupancy, every
// SimStats counter, the fault and soft reports) for sample-scale launches
// as an FNV-1a digest of api::to_json(SimResult).  A deliberate
// timing-model change must update the digests; the failure message
// prints the new digest and the JSON it was taken over.

namespace wl = gpurf::workloads;

std::string golden_digest(const SimResult& r) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : gpurf::api::to_json(r)) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void expect_golden(const SimResult& r, const char* digest,
                   const std::string& what) {
  EXPECT_EQ(golden_digest(r), digest)
      << what << ": " << gpurf::api::to_json(r);
}

/// Simulates `workload`'s sample-scale launch, untuned, at its original
/// register pressure: the baseline pipeline, or the compressed pipeline's
/// extra stages with no allocation.
SimResult simulate_original_pressure(const std::string& workload,
                                     const GpuConfig& g, bool compressed) {
  std::unique_ptr<wl::Workload> w;
  for (auto& cand : wl::make_all_workloads())
    if (cand->spec().name == workload) w = std::move(cand);
  GPURF_CHECK(w, "no workload " << workload);
  wl::PipelineResult pr;
  pr.pressure.original = gpurf::alloc::allocate_slices(
                             w->kernel(), nullptr, nullptr, {false, false})
                             .num_physical_regs;
  auto inst = w->make_instance(wl::Scale::kSample, 0);
  const auto spec = wl::make_launch_spec(*w, inst, pr, wl::SimMode::kOriginal);
  return simulate(g,
                  compressed ? CompressionConfig::paper_default()
                             : CompressionConfig::baseline(),
                  spec);
}

TEST(SimGolden, OriginalPressureLaunches) {
  // No tuning: the launch runs at the original register pressure, under
  // both the baseline pipeline and the compressed pipeline's extra stages
  // (no allocation).  Hotspot covers barrier stalls, GICOV texture traffic,
  // Hybridsort no-free-collector-unit stalls and CFD a busy LD/ST unit.
  struct Case {
    const char* workload;
    bool compressed;
    const char* digest;
  };
  const Case cases[] = {
      {"DWT2D", false, "0xfb9965874c9b318b"},
      {"DWT2D", true, "0xec1e88557577f03b"},
      {"Hotspot", false, "0x3babb2a3ac6c12d5"},
      {"Hotspot", true, "0x8c77bc6cf41793b5"},
      {"GICOV", false, "0xec545061fe164cd7"},
      {"GICOV", true, "0x988a335137a17e0e"},
      {"CFD", false, "0xf86a768ae2d1eddb"},
      {"CFD", true, "0x573208d2fae1f429"},
      {"Hybridsort", false, "0x50cb03e9c72c3c06"},
      {"Hybridsort", true, "0x756fb3a1798bec93"},
  };
  for (const Case& c : cases)
    expect_golden(
        simulate_original_pressure(c.workload, GpuConfig::fermi_gtx480(),
                                   c.compressed),
        c.digest,
        std::string(c.workload) + (c.compressed ? " compressed" : " baseline"));
}

TEST(SimGolden, EdgeConfigs) {
  // The per-SM bank, collector-unit and scheduler state at the extremes
  // GpuConfig allows: one bank (every fetch conflicts) and 256 (bank ids
  // fill their 8 bits), one collector unit and 64 (a full 64-bit mask),
  // one warp scheduler and eight.
  struct Case {
    uint32_t banks, cus, scheds;
    const char* digest[4];  ///< DWT2D base/comp, GICOV base/comp
  };
  const Case cases[] = {
      {1, 1, 1,
       {"0x4f2c1f5ef407c56c", "0xbd6ed556810685a0",
        "0x4c8fe548842797b0", "0xd44e0e28f36d103e"}},
      {1, 1, 8,
       {"0xc7346d1737721d6b", "0x8e7afafc4e5e9d2f",
        "0xf76c4a09849be493", "0x726ea65cd0dbc144"}},
      {1, 64, 1,
       {"0xfeadfef35fb04516", "0xaeee408b46881e9e",
        "0xd81590512e19a1bc", "0xd487a2477adadf98"}},
      {1, 64, 8,
       {"0x2d0668a9cea8c3f8", "0xb5cb8478d0e525c6",
        "0x7f19f866c6b41c5d", "0xf66c43a76ab60e1a"}},
      {256, 1, 1,
       {"0xf6bfd79cd353c96a", "0xd074797a032bf3fc",
        "0xd18209444d59005c", "0x23b6f60fe186192d"}},
      {256, 1, 8,
       {"0x315c77c217f66f5b", "0xd6aca6617b7c6583",
        "0x71374506a34fc3f4", "0x5dbeb9ceda16ea63"}},
      {256, 64, 1,
       {"0xbfde37bc1eb5201e", "0x56a8e29a2cfbe196",
        "0x3a42b489263f1840", "0x02079d650d12b0ac"}},
      {256, 64, 8,
       {"0x82ff7d8241cc4c52", "0x2737132369889667",
        "0x8adf7e429bf77f04", "0x7c10156460376b88"}},
  };
  for (const Case& c : cases) {
    GpuConfig g = GpuConfig::fermi_gtx480();
    g.register_banks = c.banks;
    g.collector_units = c.cus;
    g.warp_schedulers = c.scheds;
    int i = 0;
    for (const char* workload : {"DWT2D", "GICOV"})
      for (bool compressed : {false, true})
        expect_golden(simulate_original_pressure(workload, g, compressed),
                      c.digest[i++],
                      std::string(workload) +
                          (compressed ? " compressed" : " baseline") +
                          " banks=" + std::to_string(c.banks) +
                          " cus=" + std::to_string(c.cus) +
                          " scheds=" + std::to_string(c.scheds));
  }
}

TEST(SimGolden, EngineTunedFaultAndSoftLaunches) {
  // Through the Engine with a freshly tuned pipeline (no disk cache, so a
  // stale cache entry can never stand in for the tuner): original mode, a
  // tuned split/narrow allocation, a fault map dense enough to both
  // redirect and spill, and a soft-error run with exposure tracking.
  // Each is pinned at the serial schedule and at two shards.
  gpurf::Engine engine(
      gpurf::EngineOptions().with_threads(2).with_disk_cache(false));
  gpurf::SimRequest orig;
  orig.scale = wl::Scale::kSample;
  gpurf::SimRequest high = orig;
  high.mode = wl::SimMode::kCompressedHigh;
  gpurf::SimRequest fault = high;
  fault.fault.seed = 7;
  fault.fault.density = 0.9;
  gpurf::SimRequest soft = high;
  soft.soft.flips_per_mcycle = 100000.0;
  soft.soft.seed = 3;
  soft.soft.track_exposure = true;

  struct Case {
    const char* what;
    const gpurf::SimRequest* req;
    const char* digest;
  };
  const Case cases[] = {
      {"original", &orig, "0xfb9965874c9b318b"},
      {"compressed-high", &high, "0xbd544c826ca90ea4"},
      {"fault", &fault, "0x856fa44c4bdd8900"},
      {"soft", &soft, "0x45e97d01b87a1ec6"},
  };
  for (const Case& c : cases) {
    for (int shards : {1, 2}) {
      gpurf::SimRequest req = *c.req;
      req.sim_shards = shards;
      auto res = engine.simulate("DWT2D", req);
      ASSERT_TRUE(res.ok()) << c.what << ": " << res.status().to_string();
      expect_golden(*res, c.digest,
                    std::string(c.what) + " T=" + std::to_string(shards));
      // Each case exercises the machinery it is named for.
      if (c.req == &high) {
        EXPECT_GT(res->stats.double_fetches, 0u);
      } else if (c.req == &fault) {
        EXPECT_GT(res->fault.registers_redirected, 0u);
        EXPECT_GT(res->fault.registers_spilled, 0u);
      } else if (c.req == &soft) {
        EXPECT_GT(res->soft.flips_injected, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace gpurf::sim
