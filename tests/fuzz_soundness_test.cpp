// Differential / property fuzzing: generate random (but well-formed)
// straight-line + loop kernels, then check cross-cutting invariants that
// no hand-written case can cover exhaustively:
//
//   1. range-analysis soundness — executing the kernel never writes an
//      integer outside its statically computed range;
//   2. interpreter determinism — two runs produce bit-identical outputs;
//   3. assembler/printer round-trip stability on generated programs;
//   4. slice-allocation validity on generated programs (covered widths,
//      no interfering overlap — reusing the alloc_test checker);
//   5. SoA/scalar equivalence — the warp-vectorized data path and the
//      per-lane reference path produce bit-identical memory images and
//      instruction counts, including float kernels with divergent control
//      flow, guards, and partially valid warps (ISSUE 2);
//   6. block-parallel determinism — sharding grid blocks across the thread
//      pool with write-combine buffers reproduces the serial schedule's
//      image exactly;
//   7. static memory-proof soundness (ISSUE 10) — per-block dynamic store
//      sets (captured through the write log) always lie inside the static
//      footprint hulls, the overlap prover never calls dynamically
//      overlapping kernels stores-disjoint, and bounds-check elision on
//      proven sites is bit-identical (no elided check could have fired).

#include <gtest/gtest.h>

#include <bit>

#include <algorithm>

#include "alloc/slice_alloc.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/memory_access.hpp"
#include "analysis/range_analysis.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "exec/interp.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "testing_util.hpp"

namespace gpurf {
namespace {

/// Generates a random kernel: a prologue defining N integer registers from
/// tids/constants, a bounded loop mixing arithmetic over them (with
/// occasional clamps and guarded ops), and stores of every register.
std::string generate_kernel(uint32_t seed) {
  Pcg32 rng(seed, 0xF22);
  const int nregs = 4 + int(rng.next_below(6));
  std::string s = ".kernel fuzz" + std::to_string(seed) + "\n";
  s += ".param s32 out_base\n";
  for (int r = 0; r < nregs; ++r)
    s += ".reg s32 %r" + std::to_string(r) + "\n";
  s += ".reg s32 %i\n.reg pred %p\n.reg pred %q\nentry:\n";

  auto reg = [&](int r) { return "%r" + std::to_string(r); };
  // Prologue: every register defined.
  for (int r = 0; r < nregs; ++r) {
    switch (rng.next_below(3)) {
      case 0:
        s += "  mov.s32 " + reg(r) + ", %tid.x\n";
        break;
      case 1:
        s += "  mov.s32 " + reg(r) + ", " +
             std::to_string(int(rng.next_below(200)) - 100) + "\n";
        break;
      default:
        s += "  mov.s32 " + reg(r) + ", %ctaid.x\n";
        break;
    }
  }
  const int trip = 2 + int(rng.next_below(6));
  s += "  mov.s32 %i, 0\nhead:\n";
  s += "  setp.ge.s32 %p, %i, " + std::to_string(trip) + "\n";
  s += "  @%p bra done\nbody:\n";

  const int nops = 3 + int(rng.next_below(10));
  for (int op = 0; op < nops; ++op) {
    const int d = int(rng.next_below(nregs));
    const int a = int(rng.next_below(nregs));
    const int b = int(rng.next_below(nregs));
    const bool guarded = rng.next_below(5) == 0;
    std::string pre;
    if (guarded) {
      s += "  setp.lt.s32 %q, " + reg(a) + ", 17\n";
      pre = "  @%q ";
    } else {
      pre = "  ";
    }
    switch (rng.next_below(8)) {
      case 0: s += pre + "add.s32 " + reg(d) + ", " + reg(a) + ", " + reg(b) + "\n"; break;
      case 1: s += pre + "sub.s32 " + reg(d) + ", " + reg(a) + ", " + reg(b) + "\n"; break;
      case 2: s += pre + "mul.s32 " + reg(d) + ", " + reg(a) + ", " +
                   std::to_string(rng.next_below(7)) + "\n"; break;
      case 3: s += pre + "min.s32 " + reg(d) + ", " + reg(a) + ", " +
                   std::to_string(int(rng.next_below(64))) + "\n"; break;
      case 4: s += pre + "max.s32 " + reg(d) + ", " + reg(a) + ", " +
                   std::to_string(-int(rng.next_below(64))) + "\n"; break;
      case 5: s += pre + "and.s32 " + reg(d) + ", " + reg(a) + ", " +
                   std::to_string((1u << (1 + rng.next_below(10))) - 1) + "\n"; break;
      case 6: s += pre + "shr.s32 " + reg(d) + ", " + reg(a) + ", " +
                   std::to_string(rng.next_below(8)) + "\n"; break;
      default: s += pre + "selp.s32 " + reg(d) + ", " + reg(a) + ", " +
                    reg(b) + ", %p\n"; break;
    }
  }
  s += "  add.s32 %i, %i, 1\n  bra head\ndone:\n";
  // Epilogue: store every register so everything is live and observable.
  s += "  mov.s32 %i, %tid.x\n";
  for (int r = 0; r < nregs; ++r) {
    s += "  mad.s32 %i, %i, 1, $out_base\n";
    s += "  st.global.s32 [%i+" + std::to_string(r * 64) + "], " + reg(r) +
         "\n";
    s += "  mov.s32 %i, %tid.x\n";
  }
  s += "  ret\n";
  return s;
}

/// Mixed int/float generator with *divergent* control flow: like
/// generate_kernel, plus f32 registers seeded from the integer state and a
/// per-iteration if/else diamond predicated on lane-dependent data, so the
/// SIMT stack actually splits and reconverges.  Launched with 48 threads
/// per block the second warp also runs with a partially valid mask.
std::string generate_divergent_kernel(uint32_t seed) {
  Pcg32 rng(seed, 0xD1F);
  const int nregs = 3 + int(rng.next_below(4));
  const int nfregs = 2 + int(rng.next_below(4));
  std::string s = ".kernel fuzzdiv" + std::to_string(seed) + "\n";
  s += ".param s32 out_base\n";
  for (int r = 0; r < nregs; ++r)
    s += ".reg s32 %r" + std::to_string(r) + "\n";
  for (int f = 0; f < nfregs; ++f)
    s += ".reg f32 %f" + std::to_string(f) + "\n";
  s += ".reg s32 %i\n.reg pred %p\n.reg pred %q\nentry:\n";

  auto reg = [&](int r) { return "%r" + std::to_string(r); };
  auto freg = [&](int f) { return "%f" + std::to_string(f); };
  for (int r = 0; r < nregs; ++r) {
    switch (rng.next_below(3)) {
      case 0: s += "  mov.s32 " + reg(r) + ", %tid.x\n"; break;
      case 1:
        s += "  mov.s32 " + reg(r) + ", " +
             std::to_string(int(rng.next_below(200)) - 100) + "\n";
        break;
      default: s += "  mov.s32 " + reg(r) + ", %ctaid.x\n"; break;
    }
  }
  for (int f = 0; f < nfregs; ++f)
    s += "  cvt.f32.s32 " + freg(f) + ", " + reg(int(rng.next_below(nregs))) +
         "\n";

  const int trip = 2 + int(rng.next_below(5));
  s += "  mov.s32 %i, 0\nhead:\n";
  s += "  setp.ge.s32 %p, %i, " + std::to_string(trip) + "\n";
  s += "  @%p bra done\nbody:\n";

  int label = 0;
  auto emit_float_op = [&](const std::string& pre) {
    const int d = int(rng.next_below(nfregs));
    const int a = int(rng.next_below(nfregs));
    const int b = int(rng.next_below(nfregs));
    switch (rng.next_below(8)) {
      case 0: s += pre + "add.f32 " + freg(d) + ", " + freg(a) + ", " + freg(b) + "\n"; break;
      case 1: s += pre + "sub.f32 " + freg(d) + ", " + freg(a) + ", " + freg(b) + "\n"; break;
      case 2: s += pre + "mul.f32 " + freg(d) + ", " + freg(a) + ", 0.5\n"; break;
      case 3: s += pre + "mad.f32 " + freg(d) + ", " + freg(a) + ", 0.25, " + freg(b) + "\n"; break;
      case 4: s += pre + "min.f32 " + freg(d) + ", " + freg(a) + ", 64.0\n"; break;
      case 5: s += pre + "max.f32 " + freg(d) + ", " + freg(a) + ", -64.0\n"; break;
      case 6: s += pre + "div.f32 " + freg(d) + ", " + freg(a) + ", " + freg(b) + "\n"; break;
      default: s += pre + "sqrt.f32 " + freg(d) + ", " + freg(a) + "\n"; break;
    }
  };
  auto emit_int_op = [&](const std::string& pre) {
    const int d = int(rng.next_below(nregs));
    const int a = int(rng.next_below(nregs));
    const int b = int(rng.next_below(nregs));
    switch (rng.next_below(4)) {
      case 0: s += pre + "add.s32 " + reg(d) + ", " + reg(a) + ", " + reg(b) + "\n"; break;
      case 1: s += pre + "sub.s32 " + reg(d) + ", " + reg(a) + ", " + reg(b) + "\n"; break;
      case 2: s += pre + "and.s32 " + reg(d) + ", " + reg(a) + ", 255\n"; break;
      default: s += pre + "min.s32 " + reg(d) + ", " + reg(a) + ", 63\n"; break;
    }
  };

  const int nops = 2 + int(rng.next_below(5));
  for (int op = 0; op < nops; ++op) {
    const bool guarded = rng.next_below(4) == 0;
    std::string pre = "  ";
    if (guarded) {
      s += "  setp.lt.s32 %q, " + reg(int(rng.next_below(nregs))) + ", 17\n";
      pre = "  @%q ";
    }
    if (rng.next_below(2)) emit_float_op(pre); else emit_int_op(pre);
  }

  // Divergent diamond: threads split on lane-dependent data and reconverge.
  const std::string t = std::to_string(label++);
  s += "  setp.lt.s32 %q, " + reg(int(rng.next_below(nregs))) + ", " +
       std::to_string(int(rng.next_below(40))) + "\n";
  s += "  @%q bra then" + t + "\nelse" + t + ":\n";
  emit_float_op("  ");
  emit_int_op("  ");
  s += "  bra join" + t + "\nthen" + t + ":\n";
  emit_float_op("  ");
  emit_float_op("  ");
  s += "join" + t + ":\n";

  s += "  add.s32 %i, %i, 1\n  bra head\ndone:\n";
  s += "  mov.s32 %i, %tid.x\n";
  for (int r = 0; r < nregs; ++r) {
    s += "  mad.s32 %i, %i, 1, $out_base\n";
    s += "  st.global.s32 [%i+" + std::to_string(r * 64) + "], " + reg(r) +
         "\n";
    s += "  mov.s32 %i, %tid.x\n";
  }
  for (int f = 0; f < nfregs; ++f) {
    s += "  mad.s32 %i, %i, 1, $out_base\n";
    s += "  st.global.f32 [%i+" + std::to_string((nregs + f) * 64) + "], " +
         freg(f) + "\n";
    s += "  mov.s32 %i, %tid.x\n";
  }
  s += "  ret\n";
  return s;
}

struct RunOutput {
  std::vector<uint32_t> words;
  uint64_t thread_insts = 0;

  bool operator==(const RunOutput& o) const {
    return words == o.words && thread_insts == o.thread_insts;
  }
};

RunOutput run_kernel_cfg(const ir::Kernel& k,
                         const analysis::RangeAnalysisResult* rc,
                         const ir::LaunchConfig& launch, bool use_soa,
                         bool block_parallel, bool elide_dead_writes = false) {
  exec::GlobalMemory gmem;
  const uint32_t out = gmem.alloc(64 * 32 + 1024);
  exec::ExecContext ctx;
  ctx.kernel = &k;
  ctx.launch = launch;
  ctx.gmem = &gmem;
  ctx.params = {out};
  ctx.range_check = rc;
  ctx.use_soa = use_soa;
  ctx.block_parallel = block_parallel;
  ctx.elide_dead_writes = elide_dead_writes;
  RunOutput r;
  r.thread_insts = exec::run_functional(ctx);
  // Compare raw words (outputs are integers; float reinterpretation would
  // make NaN bit patterns compare unequal to themselves).
  const auto view = gmem.view(out, 64 * 32);
  r.words = {view.begin(), view.end()};
  return r;
}

std::vector<uint32_t> run_kernel(const ir::Kernel& k,
                                 const analysis::RangeAnalysisResult* rc) {
  return run_kernel_cfg(k, rc, ir::LaunchConfig{2, 1, 32, 1},
                        /*use_soa=*/true, /*block_parallel=*/false)
      .words;
}

using gpurf::testing::PoolWidth;

class FuzzSoundness : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzSoundness, RangeAnalysisNeverViolated) {
  const std::string text = generate_kernel(GetParam());
  ir::Kernel k = ir::parse_kernel(text);
  ASSERT_NO_THROW(ir::verify(k)) << text;
  const auto ranges =
      analysis::analyze_ranges(k, ir::LaunchConfig{2, 1, 32, 1});
  // A range violation aborts via GPURF_ASSERT; completing is the pass.
  EXPECT_NO_FATAL_FAILURE(run_kernel(k, &ranges)) << text;
}

TEST_P(FuzzSoundness, DeterministicExecution) {
  ir::Kernel k = ir::parse_kernel(generate_kernel(GetParam()));
  EXPECT_EQ(run_kernel(k, nullptr), run_kernel(k, nullptr));
}

TEST_P(FuzzSoundness, PrinterRoundTripStable) {
  ir::Kernel k1 = ir::parse_kernel(generate_kernel(GetParam()));
  const std::string p1 = ir::print_kernel(k1);
  ir::Kernel k2 = ir::parse_kernel(p1);
  EXPECT_EQ(p1, ir::print_kernel(k2));
  // Round-tripped kernels execute identically.
  EXPECT_EQ(run_kernel(k1, nullptr), run_kernel(k2, nullptr));
}

TEST_P(FuzzSoundness, SliceAllocationValid) {
  ir::Kernel k = ir::parse_kernel(generate_kernel(GetParam()));
  const auto ranges =
      analysis::analyze_ranges(k, ir::LaunchConfig{2, 1, 32, 1});
  alloc::AllocOptions opt{true, false};
  const auto res = alloc::allocate_slices(k, &ranges, nullptr, opt);
  EXPECT_LE(res.num_physical_regs, alloc::baseline_pressure(k));

  const exec::KernelAnalysis ka(k);
  const auto adj = analysis::build_interference(k, ka.dataflow(),
                                                /*live_intervals=*/false);
  for (uint32_t r1 = 0; r1 < k.num_regs(); ++r1) {
    if (!res.table[r1].valid) continue;
    const int covered = std::popcount(res.table[r1].r0.mask) +
                        (res.table[r1].split
                             ? std::popcount(res.table[r1].r1.mask)
                             : 0);
    EXPECT_EQ(covered, res.table[r1].slices);
    for (uint32_t r2 = r1 + 1; r2 < k.num_regs(); ++r2) {
      if (!res.table[r2].valid || !adj[r1].test(r2)) continue;
      auto overlap = [](const alloc::SliceLoc& a, const alloc::SliceLoc& b) {
        return a.phys_reg == b.phys_reg && (a.mask & b.mask) != 0;
      };
      const auto& e1 = res.table[r1];
      const auto& e2 = res.table[r2];
      bool conflict = overlap(e1.r0, e2.r0);
      if (e1.split) conflict |= overlap(e1.r1, e2.r0);
      if (e2.split) conflict |= overlap(e1.r0, e2.r1);
      if (e1.split && e2.split) conflict |= overlap(e1.r1, e2.r1);
      EXPECT_FALSE(conflict);
    }
  }
}

TEST_P(FuzzSoundness, SoaMatchesScalarReference) {
  ir::Kernel k = ir::parse_kernel(generate_kernel(GetParam()));
  const ir::LaunchConfig lc{2, 1, 32, 1};
  const auto soa = run_kernel_cfg(k, nullptr, lc, true, false);
  const auto scalar = run_kernel_cfg(k, nullptr, lc, false, false);
  EXPECT_EQ(soa.words, scalar.words);
  EXPECT_EQ(soa.thread_insts, scalar.thread_insts);
}

TEST_P(FuzzSoundness, BlockParallelMatchesSerial) {
  ir::Kernel k = ir::parse_kernel(generate_kernel(GetParam()));
  const ir::LaunchConfig lc{4, 2, 32, 1};  // 8 blocks to shard
  const auto serial = run_kernel_cfg(k, nullptr, lc, true, false);
  PoolWidth width(4);
  const auto parallel = run_kernel_cfg(k, nullptr, lc, true, true);
  EXPECT_EQ(serial.words, parallel.words);
  EXPECT_EQ(serial.thread_insts, parallel.thread_insts);
}

TEST_P(FuzzSoundness, DeadWriteElisionBitIdentical) {
  // Elision consumes the static dead-dst flags (PR 9): replay with
  // elide_dead_writes on must reproduce the off image bit-for-bit and
  // execute the same thread-instruction count, in both dispatch modes.
  ir::Kernel k = ir::parse_kernel(generate_kernel(GetParam()));
  const ir::LaunchConfig lc{2, 1, 32, 1};
  const auto off = run_kernel_cfg(k, nullptr, lc, true, false, false);
  const auto on = run_kernel_cfg(k, nullptr, lc, true, false, true);
  EXPECT_TRUE(off == on);
  const auto scalar_off = run_kernel_cfg(k, nullptr, lc, false, false, false);
  const auto scalar_on = run_kernel_cfg(k, nullptr, lc, false, false, true);
  EXPECT_TRUE(scalar_off == scalar_on);
  EXPECT_TRUE(off == scalar_on);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSoundness,
                         ::testing::Range(1u, 26u));  // 25 random programs

// Divergent float kernels: the SIMT stack splits, guards mask lanes, the
// second warp runs partially valid (48 threads), and several blocks write
// overlapping addresses (every block stores the same out-range), which
// exercises the grid-order write-combine merge.
class FuzzDivergent : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzDivergent, SoaMatchesScalarReference) {
  const std::string text = generate_divergent_kernel(GetParam());
  ir::Kernel k = ir::parse_kernel(text);
  ASSERT_NO_THROW(ir::verify(k)) << text;
  const ir::LaunchConfig lc{3, 1, 48, 1};
  const auto soa = run_kernel_cfg(k, nullptr, lc, true, false);
  const auto scalar = run_kernel_cfg(k, nullptr, lc, false, false);
  EXPECT_EQ(soa.words, scalar.words) << text;
  EXPECT_EQ(soa.thread_insts, scalar.thread_insts);
}

TEST_P(FuzzDivergent, BlockParallelMatchesSerialScalar) {
  ir::Kernel k = ir::parse_kernel(generate_divergent_kernel(GetParam()));
  const ir::LaunchConfig lc{5, 1, 48, 1};
  const auto serial = run_kernel_cfg(k, nullptr, lc, false, false);
  PoolWidth width(4);
  const auto parallel = run_kernel_cfg(k, nullptr, lc, true, true);
  EXPECT_EQ(serial.words, parallel.words);
  EXPECT_EQ(serial.thread_insts, parallel.thread_insts);
}

TEST_P(FuzzDivergent, DeterministicExecution) {
  ir::Kernel k = ir::parse_kernel(generate_divergent_kernel(GetParam()));
  const ir::LaunchConfig lc{3, 1, 48, 1};
  EXPECT_TRUE(run_kernel_cfg(k, nullptr, lc, true, false) ==
              run_kernel_cfg(k, nullptr, lc, true, false));
}

TEST_P(FuzzDivergent, DeadWriteElisionBitIdentical) {
  // Divergent diamonds + partially valid warps: the dead-dst flags are
  // per instruction, not per lane, so elision must stay sound when the
  // SIMT stack splits.  Serial and block-parallel schedules both pin it.
  ir::Kernel k = ir::parse_kernel(generate_divergent_kernel(GetParam()));
  const ir::LaunchConfig lc{3, 1, 48, 1};
  const auto off = run_kernel_cfg(k, nullptr, lc, true, false, false);
  const auto on = run_kernel_cfg(k, nullptr, lc, true, false, true);
  EXPECT_TRUE(off == on);
  PoolWidth width(4);
  const auto par_on = run_kernel_cfg(k, nullptr, lc, true, true, true);
  EXPECT_TRUE(off == par_on);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDivergent,
                         ::testing::Range(100u, 125u));  // 25 programs

/// Like generate_kernel, but the loop body also writes a rotating set of
/// scratch registers that are never read anywhere — every such write is
/// statically dead (some guarded, exercising partial-def dead writes), so
/// the dataflow pass must flag them and elision must skip real work.
std::string generate_dead_write_kernel(uint32_t seed) {
  Pcg32 rng(seed, 0xDEAD);
  const int nregs = 3 + int(rng.next_below(4));
  const int nscratch = 2 + int(rng.next_below(3));
  std::string s = ".kernel dead" + std::to_string(seed) + "\n";
  s += ".param s32 out_base\n";
  for (int r = 0; r < nregs; ++r)
    s += ".reg s32 %r" + std::to_string(r) + "\n";
  for (int d = 0; d < nscratch; ++d)
    s += ".reg s32 %dw" + std::to_string(d) + "\n";
  s += ".reg s32 %i\n.reg pred %p\n.reg pred %q\nentry:\n";
  auto reg = [&](int r) { return "%r" + std::to_string(r); };
  for (int r = 0; r < nregs; ++r)
    s += "  mov.s32 " + reg(r) + ", " +
         (rng.next_below(2) ? "%tid.x" : "%ctaid.x") + "\n";
  // Scratch regs must be initialized before any guarded (partial) write:
  // a partial def merges the old value, so an uninitialized guarded dst
  // would be a genuine undefined read.  These inits are dead writes too.
  for (int d = 0; d < nscratch; ++d)
    s += "  mov.s32 %dw" + std::to_string(d) + ", 0\n";
  const int trip = 2 + int(rng.next_below(5));
  s += "  mov.s32 %i, 0\nhead:\n";
  s += "  setp.ge.s32 %p, %i, " + std::to_string(trip) + "\n";
  s += "  @%p bra done\nbody:\n";
  const int nops = 4 + int(rng.next_below(8));
  for (int op = 0; op < nops; ++op) {
    const int a = int(rng.next_below(nregs));
    const int b = int(rng.next_below(nregs));
    if (rng.next_below(2)) {
      // Dead scratch write, sometimes guarded (a partial dead def).
      const std::string dst = "%dw" + std::to_string(rng.next_below(
                                          uint32_t(nscratch)));
      std::string pre = "  ";
      if (rng.next_below(3) == 0) {
        s += "  setp.lt.s32 %q, " + reg(a) + ", 21\n";
        pre = "  @%q ";
      }
      s += pre + "mad.s32 " + dst + ", " + reg(a) + ", 7, " + reg(b) + "\n";
    } else {
      const int d = int(rng.next_below(nregs));
      s += "  add.s32 " + reg(d) + ", " + reg(a) + ", " + reg(b) + "\n";
    }
  }
  s += "  add.s32 %i, %i, 1\n  bra head\ndone:\n";
  s += "  mov.s32 %i, %tid.x\n";
  for (int r = 0; r < nregs; ++r) {
    s += "  mad.s32 %i, %i, 1, $out_base\n";
    s += "  st.global.s32 [%i+" + std::to_string(r * 64) + "], " + reg(r) +
         "\n";
    s += "  mov.s32 %i, %tid.x\n";
  }
  s += "  ret\n";
  return s;
}

class FuzzDeadWrites : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzDeadWrites, StaticallyDeadWritesAreUnobservable) {
  const std::string text = generate_dead_write_kernel(GetParam());
  ir::Kernel k = ir::parse_kernel(text);
  ASSERT_NO_THROW(ir::verify(k)) << text;

  // The pass must actually find the planted dead writes (every %dw write).
  const auto cfg = analysis::build_cfg(k);
  const auto df = analysis::compute_dataflow(k, cfg);
  const auto rep = analysis::build_kernel_report(k, cfg, df);
  EXPECT_FALSE(rep.dead_writes.empty()) << text;
  EXPECT_TRUE(rep.clean());

  // Skipping them is unobservable: the scalar reference replay with
  // elision matches both non-elided replays bit-for-bit.
  const ir::LaunchConfig lc{2, 1, 32, 1};
  const auto scalar_off = run_kernel_cfg(k, nullptr, lc, false, false, false);
  const auto scalar_on = run_kernel_cfg(k, nullptr, lc, false, false, true);
  const auto soa_on = run_kernel_cfg(k, nullptr, lc, true, false, true);
  EXPECT_TRUE(scalar_off == scalar_on) << text;
  EXPECT_TRUE(scalar_off == soa_on) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDeadWrites,
                         ::testing::Range(500u, 515u));  // 15 programs

// -------------------------------------------------- memory-proof oracles

constexpr uint32_t kMemGrid = 4;       ///< blocks per fuzz launch
constexpr uint32_t kMemWords = 8192;   ///< global image, covers every seed

/// Memory-pattern generator (ISSUE 10): each thread computes
/// gid = ctaid.x * span + tid.x and stores through affine chains of gid —
/// seed-dependent span/stride make some launches truly block-disjoint
/// (span >= 32 keeps gid ranges apart) and others genuinely colliding
/// (span < 32 repeats gid across blocks), so the overlap prover sees both
/// verdicts.  Some seeds add a masked data-dependent store (bounded but
/// block-overlapping by construction) and a load from the thread's own
/// slot, exercising unproven-overlap and loads_local paths.
std::string generate_mem_kernel(uint32_t seed) {
  Pcg32 rng(seed, 0x3E3);
  const int span = int(8u << rng.next_below(4));   // 8,16,32,64
  const int stride = 1 + int(rng.next_below(2));   // 1,2
  const int off = int(rng.next_below(16));
  const bool masked_store = rng.next_below(3) == 0;
  const bool self_load = rng.next_below(2) == 0;
  std::string s = ".kernel mem" + std::to_string(seed) + "\n";
  s += ".param s32 out_base\n";
  s += ".reg s32 %gid\n.reg s32 %a\n.reg s32 %t\nentry:\n";
  s += "  mov.s32 %gid, %ctaid.x\n";
  s += "  mad.s32 %gid, %gid, " + std::to_string(span) + ", %tid.x\n";
  s += "  mad.s32 %a, %gid, " + std::to_string(stride) + ", $out_base\n";
  s += "  st.global.s32 [%a+" + std::to_string(off) + "], %gid\n";
  if (self_load) {
    s += "  ld.global.s32 %t, [%a+" + std::to_string(off) + "]\n";
    s += "  st.global.s32 [%a+" + std::to_string(off) + "], %t\n";
  }
  if (masked_store) {
    // Bounded by the mask but identical across blocks: hulls overlap, so
    // the prover must refuse stores_disjoint for this seed.
    s += "  and.s32 %t, %gid, 255\n";
    s += "  mad.s32 %t, %t, 1, $out_base\n";
    s += "  st.global.s32 [%t+4096], %gid\n";
  }
  s += "  ret\n";
  return s;
}

/// Dynamic per-block store sets: run each block alone (every %ctaid.x
/// occurrence substituted with the concrete block id, grid = 1) against a
/// fresh image with the write log armed.  The same alloc sequence as the
/// static side keeps addresses comparable.
std::vector<std::vector<uint32_t>> per_block_store_sets(
    const std::string& text) {
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t b = 0; b < kMemGrid; ++b) {
    std::string spec = text;
    const std::string needle = "%ctaid.x";
    for (size_t pos; (pos = spec.find(needle)) != std::string::npos;)
      spec.replace(pos, needle.size(), std::to_string(b));
    ir::Kernel k = ir::parse_kernel(spec);
    exec::GlobalMemory gmem;
    const uint32_t out = gmem.alloc(kMemWords);
    gmem.begin_write_log();
    exec::ExecContext ctx;
    ctx.kernel = &k;
    ctx.launch = ir::LaunchConfig{1, 1, 32, 1};
    ctx.gmem = &gmem;
    ctx.params = {out};
    ctx.use_soa = true;
    ctx.block_parallel = false;
    exec::run_functional(ctx);
    sets.push_back(gmem.written_words());
  }
  return sets;
}

class FuzzMemProofs : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzMemProofs, StaticFootprintsCoverDynamicStores) {
  // Trace oracle: every dynamically executed store address must lie inside
  // the block's static store hull — an address the solver missed would be
  // an unsound footprint (and could unsoundly prove disjointness).
  const std::string text = generate_mem_kernel(GetParam());
  ir::Kernel k = ir::parse_kernel(text);
  ASSERT_NO_THROW(ir::verify(k)) << text;
  const ir::LaunchConfig lc{kMemGrid, 1, 32, 1};
  exec::GlobalMemory ref;
  const uint32_t out = ref.alloc(kMemWords);
  const std::vector<uint32_t> params{out};
  analysis::MemoryAccessOptions mo;
  mo.param_values = &params;
  const exec::KernelAnalysis ka(k);
  const auto ma =
      analysis::analyze_memory_accesses(k, ka.cfg(), ka.dataflow(), lc, mo);
  ASSERT_TRUE(ma.footprints_computed) << text;
  ASSERT_EQ(ma.store_hull.size(), kMemGrid);

  const auto dyn = per_block_store_sets(text);
  for (uint32_t b = 0; b < kMemGrid; ++b) {
    for (const uint32_t addr : dyn[b]) {
      EXPECT_TRUE(ma.store_hull[b].contains(int64_t(addr)))
          << text << "block " << b << " stored @" << addr << " outside hull "
          << ma.store_hull[b].str();
    }
  }
}

TEST_P(FuzzMemProofs, OverlapProverSoundVsWriteLog) {
  // The prover may be incomplete (call a disjoint kernel overlapping) but
  // never unsound: a stores_disjoint verdict with dynamically intersecting
  // per-block write logs would let the sharded simulator reorder real
  // cross-block write conflicts.
  const std::string text = generate_mem_kernel(GetParam());
  ir::Kernel k = ir::parse_kernel(text);
  const ir::LaunchConfig lc{kMemGrid, 1, 32, 1};
  exec::GlobalMemory ref;
  const uint32_t out = ref.alloc(kMemWords);
  const std::vector<uint32_t> params{out};
  analysis::MemoryAccessOptions mo;
  mo.param_values = &params;
  const exec::KernelAnalysis ka(k);
  const auto ma =
      analysis::analyze_memory_accesses(k, ka.cfg(), ka.dataflow(), lc, mo);
  if (!ma.stores_disjoint) return;  // overlap claimed: nothing to refute

  const auto dyn = per_block_store_sets(text);  // each set is ascending
  for (uint32_t a = 0; a < kMemGrid; ++a) {
    for (uint32_t b = a + 1; b < kMemGrid; ++b) {
      std::vector<uint32_t> common;
      std::set_intersection(dyn[a].begin(), dyn[a].end(), dyn[b].begin(),
                            dyn[b].end(), std::back_inserter(common));
      EXPECT_TRUE(common.empty())
          << text << "blocks " << a << " and " << b << " both stored @"
          << (common.empty() ? 0 : common[0])
          << " yet the prover claimed stores_disjoint";
    }
  }
}

TEST_P(FuzzMemProofs, ElidedBoundsChecksNeverObservable) {
  // Proven sites skip GPURF_CHECK entirely; if a proof were wrong the
  // elided replay would touch memory the checked replay faulted on.  Both
  // replays completing bit-identically (words and instruction count, SoA
  // and scalar) pins that no elided check would ever have fired.
  const std::string text = generate_mem_kernel(GetParam());
  ir::Kernel k = ir::parse_kernel(text);
  const ir::LaunchConfig lc{kMemGrid, 1, 32, 1};
  exec::GlobalMemory ref;
  const uint32_t out = ref.alloc(kMemWords);
  const std::vector<uint32_t> params{out};
  analysis::MemoryAccessOptions mo;
  mo.param_values = &params;
  const exec::KernelAnalysis ka(k);
  const auto ma =
      analysis::analyze_memory_accesses(k, ka.cfg(), ka.dataflow(), lc, mo);
  const auto proven =
      analysis::prove_in_bounds(ma, kMemWords, analysis::shared_words(k));
  // Every seed's straight-line affine stores must be provable — coverage
  // collapsing to zero would silently devolve this family into a no-op.
  uint32_t nproven = 0;
  for (const auto& a : ma.accesses) nproven += proven[a.flat] ? 1 : 0;
  EXPECT_GT(nproven, 0u) << text;

  auto run = [&](bool elide, bool soa) {
    exec::GlobalMemory gmem;
    const uint32_t o = gmem.alloc(kMemWords);
    exec::ExecContext ctx;
    ctx.kernel = &k;
    ctx.launch = lc;
    ctx.gmem = &gmem;
    ctx.params = {o};
    ctx.use_soa = soa;
    ctx.block_parallel = false;
    ctx.elide_bounds_checks = elide;
    ctx.mem_proven = elide ? proven.data() : nullptr;
    RunOutput r;
    r.thread_insts = exec::run_functional(ctx);
    const auto view = gmem.view(o, kMemWords);
    r.words = {view.begin(), view.end()};
    return r;
  };
  const auto off = run(false, true);
  const auto on = run(true, true);
  EXPECT_TRUE(off == on) << text;
  const auto scalar_on = run(true, false);
  EXPECT_TRUE(off == scalar_on) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMemProofs,
                         ::testing::Range(900u, 925u));  // 25 programs

}  // namespace
}  // namespace gpurf
