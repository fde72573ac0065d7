// Tests for the functional SIMT interpreter: arithmetic semantics,
// divergence/reconvergence, barriers + shared memory, memory traces,
// predication, and the precision-map / range-check hooks.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/range_analysis.hpp"
#include "common/bitutil.hpp"
#include "exec/interp.hpp"
#include "ir/parser.hpp"

namespace gpurf::exec {
namespace {

using gpurf::ir::LaunchConfig;
using gpurf::ir::parse_kernel;

struct Rig {
  gpurf::ir::Kernel k;
  GlobalMemory gmem;
  std::vector<Texture> textures;
  ExecContext ctx;

  Rig(std::string_view text, LaunchConfig lc, std::vector<uint32_t> params)
      : k(parse_kernel(text)) {
    ctx.kernel = &k;
    ctx.launch = lc;
    ctx.gmem = &gmem;
    ctx.textures = &textures;
    ctx.params = std::move(params);
  }
};

TEST(Interp, ThreadIdsAndStore) {
  Rig rig(R"(
.kernel tid
.param s32 out
.reg s32 %x
.reg s32 %a
entry:
  mov.s32 %x, %tid.x
  add.s32 %a, %x, $out
  st.global.s32 [%a], %x
  ret
)",
          LaunchConfig{1, 1, 64, 1}, {});
  const uint32_t out = rig.gmem.alloc(64);
  rig.ctx.params = {out};
  run_functional(rig.ctx);
  for (uint32_t i = 0; i < 64; ++i) EXPECT_EQ(rig.gmem.read(out + i), i);
}

TEST(Interp, IntegerArithmeticSemantics) {
  Rig rig(R"(
.kernel arith
.param s32 out
.reg s32 %x
.reg s32 %r
.reg s32 %a
entry:
  mov.s32 %x, %tid.x
  sub.s32 %r, %x, 5
  mul.s32 %r, %r, %r
  div.s32 %r, %r, 3
  rem.s32 %r, %r, 7
  add.s32 %a, %x, $out
  st.global.s32 [%a], %r
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  const uint32_t out = rig.gmem.alloc(32);
  rig.ctx.params = {out};
  run_functional(rig.ctx);
  for (int i = 0; i < 32; ++i) {
    const int expect = (((i - 5) * (i - 5)) / 3) % 7;
    EXPECT_EQ(int32_t(rig.gmem.read(out + i)), expect) << i;
  }
}

TEST(Interp, DivRemByZeroAreDeterministic) {
  Rig rig(R"(
.kernel dz
.param s32 out
.reg s32 %x
.reg s32 %q
.reg s32 %r
.reg s32 %a
entry:
  mov.s32 %x, %tid.x
  div.s32 %q, %x, 0
  rem.s32 %r, %x, 0
  add.s32 %q, %q, %r
  add.s32 %a, %x, $out
  st.global.s32 [%a], %q
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  const uint32_t out = rig.gmem.alloc(32);
  rig.ctx.params = {out};
  run_functional(rig.ctx);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rig.gmem.read(out + i), 0u);
}

TEST(Interp, FloatOpsMatchLibm) {
  Rig rig(R"(
.kernel fl
.param s32 out
.reg s32 %x
.reg s32 %a
.reg f32 %f
.reg f32 %g
entry:
  mov.s32 %x, %tid.x
  cvt.f32.s32 %f, %x
  mul.f32 %f, %f, 0.125
  sin.f32 %g, %f
  mad.f32 %g, %g, %g, %f
  sqrt.f32 %g, %g
  add.s32 %a, %x, $out
  st.global.f32 [%a], %g
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  const uint32_t out = rig.gmem.alloc(32);
  rig.ctx.params = {out};
  run_functional(rig.ctx);
  for (int i = 0; i < 32; ++i) {
    const float f = float(i) * 0.125f;
    const float expect = std::sqrt(std::sin(f) * std::sin(f) + f);
    EXPECT_EQ(bits_float(rig.gmem.read(out + i)), expect) << i;
  }
}

TEST(Interp, DivergenceReconverges) {
  // Divergent if/else: even lanes add 10, odd lanes add 100, everyone
  // then adds 1 after reconvergence.
  Rig rig(R"(
.kernel div
.param s32 out
.reg s32 %x
.reg s32 %r
.reg s32 %a
.reg pred %p
entry:
  mov.s32 %x, %tid.x
  and.s32 %r, %x, 1
  setp.eq.s32 %p, %r, 0
  @%p bra even
odd:
  add.s32 %r, %x, 100
  bra join
even:
  add.s32 %r, %x, 10
join:
  add.s32 %r, %r, 1
  add.s32 %a, %x, $out
  st.global.s32 [%a], %r
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  const uint32_t out = rig.gmem.alloc(32);
  rig.ctx.params = {out};
  run_functional(rig.ctx);
  for (int i = 0; i < 32; ++i) {
    const int expect = i + (i % 2 == 0 ? 10 : 100) + 1;
    EXPECT_EQ(int32_t(rig.gmem.read(out + i)), expect) << i;
  }
}

TEST(Interp, DataDependentLoopTripCounts) {
  // Each lane loops tid times: a classic divergence stress.
  Rig rig(R"(
.kernel loop
.param s32 out
.reg s32 %x
.reg s32 %i
.reg s32 %acc
.reg s32 %a
.reg pred %p
entry:
  mov.s32 %x, %tid.x
  mov.s32 %i, 0
  mov.s32 %acc, 0
head:
  setp.ge.s32 %p, %i, %x
  @%p bra done
body:
  add.s32 %acc, %acc, %i
  add.s32 %i, %i, 1
  bra head
done:
  add.s32 %a, %x, $out
  st.global.s32 [%a], %acc
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  const uint32_t out = rig.gmem.alloc(32);
  rig.ctx.params = {out};
  run_functional(rig.ctx);
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(int32_t(rig.gmem.read(out + i)), i * (i - 1) / 2) << i;
}

TEST(Interp, BarrierAndSharedMemory) {
  // Reverse a 64-element block through shared memory.
  Rig rig(R"(
.kernel rev
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
          LaunchConfig{1, 1, 64, 1}, {});
  // shared_bytes defaults to 0 but the interpreter pads; declare properly:
  rig.k.shared_bytes = 64 * 4;
  const uint32_t out = rig.gmem.alloc(64);
  rig.ctx.params = {out};
  run_functional(rig.ctx);
  for (uint32_t i = 0; i < 64; ++i)
    EXPECT_EQ(rig.gmem.read(out + i), 63 - i);
}

TEST(Interp, NegatedGuard) {
  Rig rig(R"(
.kernel ng
.param s32 out
.reg s32 %x
.reg s32 %r
.reg s32 %a
.reg pred %p
entry:
  mov.s32 %x, %tid.x
  mov.s32 %r, 0
  setp.lt.s32 %p, %x, 16
  @%p mov.s32 %r, 1
  @!%p mov.s32 %r, 2
  add.s32 %a, %x, $out
  st.global.s32 [%a], %r
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  const uint32_t out = rig.gmem.alloc(32);
  rig.ctx.params = {out};
  run_functional(rig.ctx);
  for (uint32_t i = 0; i < 32; ++i)
    EXPECT_EQ(rig.gmem.read(out + i), i < 16 ? 1u : 2u);
}

TEST(Interp, PartialWarpValidMask) {
  Rig rig(R"(
.kernel pw
.param s32 out
.reg s32 %x
.reg s32 %a
entry:
  mov.s32 %x, %tid.x
  add.s32 %a, %x, $out
  st.global.s32 [%a], %x
  ret
)",
          LaunchConfig{1, 1, 40, 1}, {});  // 40 threads: 1.25 warps
  const uint32_t out = rig.gmem.alloc(64);
  rig.ctx.params = {out};
  const uint64_t insts = run_functional(rig.ctx);
  EXPECT_EQ(insts, 40u * 4u);  // lanes beyond 40 never execute
  for (uint32_t i = 0; i < 40; ++i) EXPECT_EQ(rig.gmem.read(out + i), i);
  for (uint32_t i = 40; i < 64; ++i) EXPECT_EQ(rig.gmem.read(out + i), 0u);
}

TEST(Interp, TextureClampAndFetch) {
  Rig rig(R"(
.kernel tex
.param s32 out
.tex img
.reg s32 %x
.reg s32 %u
.reg s32 %a
.reg f32 %v
entry:
  mov.s32 %x, %tid.x
  sub.s32 %u, %x, 4
  tex.2d.f32 %v, img, %u, %u
  add.s32 %a, %x, $out
  st.global.f32 [%a], %v
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  Texture t;
  t.width = 8;
  t.height = 8;
  t.texels.resize(64);
  for (int i = 0; i < 64; ++i) t.texels[i] = float(i);
  rig.textures.push_back(std::move(t));
  const uint32_t out = rig.gmem.alloc(32);
  rig.ctx.params = {out};
  run_functional(rig.ctx);
  // Lane 0 samples (-4,-4) -> clamped to (0,0) = 0; lane 11 -> (7,7) = 63.
  EXPECT_EQ(bits_float(rig.gmem.read(out + 0)), 0.f);
  EXPECT_EQ(bits_float(rig.gmem.read(out + 11)), 63.f);
  EXPECT_EQ(bits_float(rig.gmem.read(out + 31)), 63.f);  // clamped high
}

TEST(Interp, StepResultMemoryTrace) {
  Rig rig(R"(
.kernel tr
.param s32 base
.reg s32 %x
.reg s32 %a
.reg f32 %v
entry:
  mov.s32 %x, %tid.x
  add.s32 %a, %x, $base
  ld.global.f32 %v, [%a+2]
  st.global.f32 [%a], %v
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  const uint32_t base = rig.gmem.alloc(64);
  rig.ctx.params = {base};
  BlockExec be(rig.ctx, 0, 0);
  StepResult r;
  do {
    be.step(0, r);
  } while (r.inst->op != gpurf::ir::Opcode::LD_GLOBAL);
  EXPECT_EQ(r.active_mask, 0xffffffffu);
  for (uint32_t l = 0; l < 4; ++l) EXPECT_EQ(r.addr[l], base + l + 2);
}

TEST(Interp, PrecisionMapQuantizesWrites) {
  Rig rig(R"(
.kernel pm
.param s32 out
.reg s32 %x
.reg s32 %a
.reg f32 %v
entry:
  mov.s32 %x, %tid.x
  mov.f32 %v, 0.3
  add.s32 %a, %x, $out
  st.global.f32 [%a], %v
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  const uint32_t out = rig.gmem.alloc(32);
  rig.ctx.params = {out};

  PrecisionMap pmap;
  pmap.per_reg.assign(rig.k.num_regs(), gpurf::fp::format_for_bits(32));
  pmap.per_reg[rig.k.find_reg("v")] = gpurf::fp::format_for_bits(16);
  rig.ctx.precision = &pmap;

  run_functional(rig.ctx);
  const float stored = bits_float(rig.gmem.read(out));
  EXPECT_EQ(stored, gpurf::fp::quantize(0.3f, gpurf::fp::format_for_bits(16)));
  EXPECT_NE(stored, 0.3f);
}

TEST(Interp, RunFunctionalRejectsAMalformedPrecisionMap) {
  Rig rig(R"(
.kernel pm
.param s32 out
.reg s32 %x
.reg s32 %a
.reg f32 %v
entry:
  mov.s32 %x, %tid.x
  mov.f32 %v, 0.3
  add.s32 %a, %x, $out
  st.global.f32 [%a], %v
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  rig.ctx.params = {rig.gmem.alloc(32)};
  PrecisionMap pmap;
  rig.ctx.precision = &pmap;
  pmap.per_reg.assign(rig.k.num_regs() - 1, gpurf::fp::format_for_bits(16));
  EXPECT_THROW(run_functional(rig.ctx), gpurf::Error);  // short
  pmap.per_reg.assign(rig.k.num_regs(), gpurf::fp::format_for_bits(16));
  pmap.per_reg[rig.k.find_reg("v")] = gpurf::fp::FloatFormat{24, 0, 23};
  EXPECT_THROW(run_functional(rig.ctx), gpurf::Error);  // not Table-3
  pmap.per_reg[rig.k.find_reg("v")] = gpurf::fp::format_for_bits(12);
  EXPECT_NO_THROW(run_functional(rig.ctx));
}

TEST(Interp, RangeCheckAcceptsSoundRanges) {
  auto text = R"(
.kernel rc
.param s32 out
.reg s32 %x
.reg s32 %c
.reg s32 %a
entry:
  mov.s32 %x, %tid.x
  and.s32 %c, %x, 7
  add.s32 %a, %x, $out
  st.global.s32 [%a], %c
  ret
)";
  Rig rig(text, LaunchConfig{1, 1, 32, 1}, {});
  const uint32_t out = rig.gmem.alloc(32);
  rig.ctx.params = {out};
  const auto ranges = analysis::analyze_ranges(rig.k, rig.ctx.launch);
  rig.ctx.range_check = &ranges;
  EXPECT_NO_THROW(run_functional(rig.ctx));
}

TEST(Interp, SharedMemoryOutOfBoundsCaught) {
  Rig rig(R"(
.kernel oob
.reg s32 %x
entry:
  mov.s32 %x, 100000
  st.shared.s32 [%x], %x
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  // Recoverable gpurf::Error since PR 7 (soft-error injection can push a
  // corrupted address out of bounds; that must not abort the process).
  EXPECT_THROW(run_functional(rig.ctx), gpurf::Error);
}

TEST(Interp, InstructionCountMatchesActiveLanes) {
  Rig rig(R"(
.kernel cnt
.param s32 out
.reg s32 %x
.reg s32 %a
.reg pred %p
entry:
  mov.s32 %x, %tid.x
  setp.lt.s32 %p, %x, 8
  @%p add.s32 %x, %x, 1
  add.s32 %a, %x, $out
  st.global.s32 [%a], %x
  ret
)",
          LaunchConfig{1, 1, 32, 1}, {});
  const uint32_t out = rig.gmem.alloc(64);
  rig.ctx.params = {out};
  const uint64_t insts = run_functional(rig.ctx);
  // mov(32) + setp(32) + guarded add(8) + add(32) + st(32) + ret(32)
  EXPECT_EQ(insts, 32u + 32u + 8u + 32u + 32u + 32u);
}

}  // namespace
}  // namespace gpurf::exec
