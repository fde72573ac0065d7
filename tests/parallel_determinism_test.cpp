// Determinism of the parallel tuning/simulation engine (ISSUE 1).
//
// The contract of the speculative-batch tuner and the parallel probe is
// that parallelism is an implementation detail: a multi-threaded pipeline
// run must produce byte-identical precision maps, scores, and slice
// allocations to a forced single-thread (GPURF_THREADS=1-equivalent) run.
// These tests pin that contract in-process by resizing the shared pool and
// varying the tuner batch width.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "common/bitutil.hpp"
#include "common/thread_pool.hpp"
#include "rf/value_extractor.hpp"
#include "rf/value_truncator.hpp"
#include "sim/gpu.hpp"
#include "testing_util.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {
namespace {

void expect_same_pmap(const gpurf::exec::PrecisionMap& a,
                      const gpurf::exec::PrecisionMap& b) {
  ASSERT_EQ(a.per_reg.size(), b.per_reg.size());
  for (size_t r = 0; r < a.per_reg.size(); ++r) {
    EXPECT_EQ(a.per_reg[r].total_bits, b.per_reg[r].total_bits) << "reg " << r;
    EXPECT_TRUE(a.per_reg[r] == b.per_reg[r]) << "reg " << r;
  }
}

void expect_same_alloc(const gpurf::alloc::AllocationResult& a,
                       const gpurf::alloc::AllocationResult& b) {
  EXPECT_EQ(a.num_physical_regs, b.num_physical_regs);
  EXPECT_EQ(a.total_slices, b.total_slices);
  EXPECT_EQ(a.split_operands, b.split_operands);
  ASSERT_EQ(a.table.size(), b.table.size());
  for (size_t r = 0; r < a.table.size(); ++r) {
    const auto& x = a.table[r];
    const auto& y = b.table[r];
    EXPECT_EQ(x.valid, y.valid) << "reg " << r;
    EXPECT_EQ(x.r0.phys_reg, y.r0.phys_reg) << "reg " << r;
    EXPECT_EQ(x.r0.mask, y.r0.mask) << "reg " << r;
    EXPECT_EQ(x.r1.phys_reg, y.r1.phys_reg) << "reg " << r;
    EXPECT_EQ(x.r1.mask, y.r1.mask) << "reg " << r;
    EXPECT_EQ(x.split, y.split) << "reg " << r;
    EXPECT_EQ(x.slices, y.slices) << "reg " << r;
    EXPECT_EQ(x.is_signed, y.is_signed) << "reg " << r;
    EXPECT_EQ(x.is_float, y.is_float) << "reg " << r;
    EXPECT_EQ(x.float_bits, y.float_bits) << "reg " << r;
  }
}

void expect_same_pipeline(const PipelineResult& serial,
                          const PipelineResult& parallel) {
  expect_same_pmap(serial.tune_perfect.pmap, parallel.tune_perfect.pmap);
  expect_same_pmap(serial.tune_high.pmap, parallel.tune_high.pmap);
  EXPECT_EQ(serial.tune_perfect.final_score, parallel.tune_perfect.final_score);
  EXPECT_EQ(serial.tune_high.final_score, parallel.tune_high.final_score);

  EXPECT_EQ(serial.pressure.original, parallel.pressure.original);
  EXPECT_EQ(serial.pressure.narrow_int, parallel.pressure.narrow_int);
  EXPECT_EQ(serial.pressure.narrow_float_perfect,
            parallel.pressure.narrow_float_perfect);
  EXPECT_EQ(serial.pressure.narrow_float_high,
            parallel.pressure.narrow_float_high);
  EXPECT_EQ(serial.pressure.both_perfect, parallel.pressure.both_perfect);
  EXPECT_EQ(serial.pressure.both_high, parallel.pressure.both_high);

  expect_same_alloc(serial.alloc_both_perfect, parallel.alloc_both_perfect);
  expect_same_alloc(serial.alloc_both_high, parallel.alloc_both_high);
}

using gpurf::testing::PoolWidth;

PipelineResult pipeline_with_width(const Workload& w, int threads,
                                   int batch) {
  PoolWidth width(threads);
  PipelineOptions opt;
  opt.use_disk_cache = false;  // force fresh tuning
  opt.tuner_batch = batch;
  return compute_pipeline(w, opt);
}

TEST(ParallelDeterminism, Dwt2dPipelineMatchesSingleThread) {
  const auto w = make_dwt2d();
  const auto serial = pipeline_with_width(*w, 1, 1);
  const auto parallel = pipeline_with_width(*w, 4, 4);
  expect_same_pipeline(serial, parallel);
}

TEST(ParallelDeterminism, GicovPipelineMatchesSingleThread) {
  const auto w = make_gicov();
  const auto serial = pipeline_with_width(*w, 1, 1);
  const auto parallel = pipeline_with_width(*w, 4, 4);
  expect_same_pipeline(serial, parallel);
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreIdentical) {
  const auto w = make_dwt2d();
  const auto a = pipeline_with_width(*w, 4, 4);
  const auto b = pipeline_with_width(*w, 4, 4);
  expect_same_pipeline(a, b);
}

// The adaptive speculative batch (shrink on rejection, grow on full
// acceptance) must be bit-identical for every width sequence: different
// initial K values may only change how many probes are wasted.
TEST(ParallelDeterminism, AdaptiveBatchWidthDoesNotChangeResults) {
  const auto w = make_gicov();
  const auto serial = pipeline_with_width(*w, 1, 1);
  const auto k3 = pipeline_with_width(*w, 4, 3);
  const auto k8 = pipeline_with_width(*w, 4, 8);
  expect_same_pipeline(serial, k3);
  expect_same_pipeline(serial, k8);
}

// ------------------------------------------- block-parallel run_functional

/// One functional replay of a workload instance under the given knobs.
struct RunOut {
  std::vector<float> out;
  uint64_t insts = 0;
};

RunOut replay(const Workload& w, uint32_t variant, const RunOptions& opt,
              const gpurf::exec::PrecisionMap* pmap = nullptr) {
  RunOut r;
  RunOptions o = opt;
  o.thread_insts = &r.insts;
  auto inst = w.make_instance(Scale::kSample, variant);
  r.out = w.run(inst, pmap, nullptr, o);
  return r;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(gpurf::float_bits(a[i]), gpurf::float_bits(b[i])) << "word " << i;
}

TEST(BlockParallelDeterminism, GmemImageAndInstCountMatchSerial) {
  for (const auto& make : {make_dwt2d, make_hotspot, make_deferred}) {
    const auto w = make();
    // Reference: serial blocks on the scalar data path.
    const auto ref =
        replay(*w, 0, RunOptions{/*use_soa=*/false, /*block_parallel=*/false});
    // Block-parallel SoA across a 4-wide pool.
    PoolWidth width(4);
    const auto par =
        replay(*w, 0, RunOptions{/*use_soa=*/true, /*block_parallel=*/true});
    expect_bitwise_equal(ref.out, par.out);
    EXPECT_EQ(ref.insts, par.insts) << w->spec().name;
  }
}

TEST(BlockParallelDeterminism, NarrowMapReplayMatchesScalarSerial) {
  // Every f32 write quantized through a uniform 12- or 16-bit map: the
  // scalar per-lane path and the SoA warp quantizer must agree.  These
  // kernels branch divergently, so partial masks reach the quantizer.
  for (const auto& make : {make_dwt2d, make_hotspot, make_deferred}) {
    const auto w = make();
    const auto exact =
        replay(*w, 0, RunOptions{/*use_soa=*/true, /*block_parallel=*/false});
    for (int bits : {12, 16}) {
      gpurf::exec::PrecisionMap pmap;
      pmap.per_reg.assign(w->kernel().num_regs(),
                          gpurf::fp::format_for_bits(bits));
      const auto ref = replay(
          *w, 0, RunOptions{/*use_soa=*/false, /*block_parallel=*/false},
          &pmap);
      PoolWidth width(4);
      const auto par = replay(
          *w, 0, RunOptions{/*use_soa=*/true, /*block_parallel=*/true},
          &pmap);
      expect_bitwise_equal(ref.out, par.out);
      EXPECT_EQ(ref.insts, par.insts) << w->spec().name << " " << bits;
      if (bits == 12) {  // DWT2D's values are exact at 16 bits
        EXPECT_NE(ref.out, exact.out) << w->spec().name << ": map unused";
      }
    }
  }
}

TEST(BlockParallelDeterminism, RepeatedParallelReplaysAreIdentical) {
  const auto w = make_hotspot3d();
  PoolWidth width(4);
  const auto a =
      replay(*w, 1, RunOptions{/*use_soa=*/true, /*block_parallel=*/true});
  const auto b =
      replay(*w, 1, RunOptions{/*use_soa=*/true, /*block_parallel=*/true});
  expect_bitwise_equal(a.out, b.out);
  EXPECT_EQ(a.insts, b.insts);
}

// ------------------------------------------------- multi-SM sharded sim
//
// ISSUE 5 contract: sim::simulate with SimOptions::shards > 1 ticks SM
// index ranges in parallel with a per-cycle barrier, and every SimStats
// field is bit-identical to the serial schedule at every shard count —
// for every bundled workload.  The L2 stream replays in SM-index order at
// the barrier and per-SM stats merge in SM-index order, so nothing about
// the result depends on thread scheduling.

using gpurf::testing::expect_same_sim_stats;

/// One sample-scale timing simulation of `w` with the given shard count.
/// The launch uses the original register pressure (a cheap
/// allocate_slices call — no tuning), so the whole 11-workload sweep
/// stays fast enough for tier-1.
gpurf::sim::SimStats sharded_sim_stats(const Workload& w,
                                       const gpurf::sim::CompressionConfig& cc,
                                       int shards) {
  PipelineResult pr;
  pr.pressure.original =
      gpurf::alloc::allocate_slices(w.kernel(), nullptr, nullptr,
                                    {false, false})
          .num_physical_regs;
  auto inst = w.make_instance(Scale::kSample, 0);
  auto spec = make_launch_spec(w, inst, pr, SimMode::kOriginal);
  gpurf::sim::SimOptions so;
  so.shards = shards;
  return gpurf::sim::simulate(gpurf::sim::GpuConfig::fermi_gtx480(), cc,
                              spec, nullptr, so)
      .stats;
}

TEST(ShardedSimDeterminism, AllWorkloadsBitIdenticalAcrossShardCounts) {
  PoolWidth width(8);
  for (const auto& w : make_all_workloads()) {
    const auto serial =
        sharded_sim_stats(*w, gpurf::sim::CompressionConfig::baseline(), 1);
    for (int shards : {2, 8})
      expect_same_sim_stats(
          serial,
          sharded_sim_stats(*w, gpurf::sim::CompressionConfig::baseline(),
                            shards),
          w->spec().name + " baseline T=" + std::to_string(shards));
  }
}

TEST(ShardedSimDeterminism, CompressedPipelineBitIdenticalAcrossShardCounts) {
  // Compression enables the deeper operand-collector pipeline (writeback
  // delay, indirection stage) without needing a tuned allocation — the
  // cheap way to cover the compressed timing path for every workload.
  PoolWidth width(8);
  for (const auto& w : make_all_workloads()) {
    const auto serial = sharded_sim_stats(
        *w, gpurf::sim::CompressionConfig::paper_default(), 1);
    for (int shards : {2, 8})
      expect_same_sim_stats(
          serial,
          sharded_sim_stats(
              *w, gpurf::sim::CompressionConfig::paper_default(), shards),
          w->spec().name + " compressed T=" + std::to_string(shards));
  }
}

TEST(ShardedSimDeterminism, RepeatedShardedRunsAreIdentical) {
  PoolWidth width(4);
  const auto w = make_gicov();
  const auto a =
      sharded_sim_stats(*w, gpurf::sim::CompressionConfig::baseline(), 4);
  const auto b =
      sharded_sim_stats(*w, gpurf::sim::CompressionConfig::baseline(), 4);
  expect_same_sim_stats(a, b, "GICOV repeat");
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  PoolWidth width(4);
  std::vector<std::atomic<int>> hits(1000);
  gpurf::common::parallel_for(hits.size(),
                              [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  PoolWidth width(4);
  std::vector<std::atomic<int>> hits(64);
  gpurf::common::parallel_for(8, [&](size_t i) {
    gpurf::common::parallel_for(8, [&](size_t j) {
      hits[i * 8 + j].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  PoolWidth width(4);
  EXPECT_THROW(
      gpurf::common::parallel_for(
          100,
          [](size_t i) {
            if (i == 57) throw std::runtime_error("boom");
          }),
      std::runtime_error);
}

TEST(ThreadPool, CycleBarrierRunsCompletionExactlyOncePerEpoch) {
  // Four participants, many epochs: the completion function must run
  // exactly once per epoch, with every participant's pre-barrier writes
  // visible, and its own writes visible to every participant afterwards.
  constexpr int kParts = 4;
  constexpr int kEpochs = 200;
  PoolWidth width(kParts);
  gpurf::common::CycleBarrier barrier(kParts);
  std::vector<int> contributions(kParts, 0);
  int completions = 0;
  int total = 0;
  std::atomic<int> mismatches{0};
  gpurf::common::parallel_for(kParts, [&](size_t p) {
    for (int e = 0; e < kEpochs; ++e) {
      contributions[p] = e + 1;  // pre-barrier write, distinct slot
      barrier.arrive_and_wait([&] {
        ++completions;
        total = 0;
        for (int c : contributions) total += c;
      });
      // Post-barrier: the completion's aggregate must reflect all four
      // contributions of this epoch.
      if (total != kParts * (e + 1)) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(completions, kEpochs);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPool, SmallerIterationCountThanThreads) {
  PoolWidth width(8);
  std::vector<std::atomic<int>> hits(3);
  gpurf::common::parallel_for(hits.size(),
                              [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

// --------------------------------------------- warp-wide RF path equality

TEST(WarpSlicePaths, ExtractMatchesScalarReference) {
  for (uint32_t mask = 1; mask < 256; mask += 7) {
    gpurf::rf::ExtractSpec spec;
    spec.mask = static_cast<uint8_t>(mask);
    spec.first_slice = 1;
    spec.data_slices =
        static_cast<uint8_t>(std::popcount(mask) + spec.first_slice);
    if (spec.data_slices > 8) continue;
    spec.is_signed = (mask % 3) == 0;

    std::array<uint32_t, 32> fetched;
    for (int l = 0; l < 32; ++l)
      fetched[l] = 0x9e3779b9u * static_cast<uint32_t>(l + 1) + mask;

    const auto warp = gpurf::rf::warp_extract_piece(fetched, spec);
    const auto padded = gpurf::rf::warp_finalize(warp, spec);
    const auto whole = gpurf::rf::warp_extract(fetched, spec);
    for (int l = 0; l < 32; ++l) {
      EXPECT_EQ(warp[l], gpurf::rf::tve_extract_piece(fetched[l], spec))
          << "mask " << mask << " lane " << l;
      EXPECT_EQ(padded[l], gpurf::rf::tve_extract(fetched[l], spec))
          << "mask " << mask << " lane " << l;
      EXPECT_EQ(whole[l], padded[l]) << "mask " << mask << " lane " << l;
    }
  }
}

TEST(WarpSlicePaths, TruncateMatchesScalarReference) {
  for (uint32_t m0 = 1; m0 < 256; m0 += 11) {
    gpurf::rf::TruncateSpec spec;
    spec.mask0 = static_cast<uint8_t>(m0);
    spec.mask1 = static_cast<uint8_t>((m0 * 5) & 0x3u);  // small second piece
    spec.data_slices =
        static_cast<uint8_t>(std::popcount(m0) + std::popcount(spec.mask1));
    if (spec.data_slices > 8) continue;
    spec.is_float = false;

    std::array<uint32_t, 32> values;
    for (int l = 0; l < 32; ++l)
      values[l] = 0x85ebca6bu * static_cast<uint32_t>(l + 3) + m0;

    const auto warp = gpurf::rf::warp_truncate(values, spec);
    for (int l = 0; l < 32; ++l) {
      const auto ref = gpurf::rf::tvt_truncate(values[l], spec);
      EXPECT_EQ(warp[l].data0, ref.data0) << "m0 " << m0 << " lane " << l;
      EXPECT_EQ(warp[l].bitmask0, ref.bitmask0) << "m0 " << m0;
      EXPECT_EQ(warp[l].data1, ref.data1) << "m0 " << m0 << " lane " << l;
      EXPECT_EQ(warp[l].bitmask1, ref.bitmask1) << "m0 " << m0;
    }
  }
}

}  // namespace
}  // namespace gpurf::workloads
