// Workload-level tests: every bundled kernel parses, verifies, matches its
// Table-4 register pressure exactly, executes soundly under range checking,
// and reproduces its own reference deterministically.  Parameterized over
// the eleven kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "alloc/slice_alloc.hpp"
#include "analysis/range_analysis.hpp"
#include "common/thread_pool.hpp"
#include "ir/verifier.hpp"
#include "quality/metrics.hpp"
#include "testing_util.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {
namespace {

using gpurf::quality::QualityLevel;

class WorkloadSuite : public ::testing::TestWithParam<int> {
 protected:
  const Workload& workload() {
    static const auto all = make_all_workloads();
    return *all[static_cast<size_t>(GetParam())];
  }
};

TEST_P(WorkloadSuite, KernelVerifies) {
  const auto& w = workload();
  EXPECT_NO_THROW(gpurf::ir::verify(w.kernel()));
  EXPECT_GT(w.kernel().num_insts(), 50u);  // substantial programs
}

TEST_P(WorkloadSuite, PressureMatchesTable4Exactly) {
  const auto& w = workload();
  EXPECT_EQ(gpurf::alloc::baseline_pressure(w.kernel()),
            w.spec().paper_regs)
      << w.spec().name;
}

TEST_P(WorkloadSuite, DeterministicInstances) {
  const auto& w = workload();
  auto a = w.make_instance(Scale::kSample, 0);
  auto b = w.make_instance(Scale::kSample, 0);
  EXPECT_EQ(a.launch.num_blocks(), b.launch.num_blocks());
  EXPECT_EQ(a.gmem.size(), b.gmem.size());
  const auto ra = w.run(a, nullptr);
  const auto rb = w.run(b, nullptr);
  EXPECT_EQ(ra, rb);
}

TEST_P(WorkloadSuite, VariantsDiffer) {
  const auto& w = workload();
  if (w.num_sample_variants() < 2) GTEST_SKIP() << "single-variant workload";
  auto a = w.make_instance(Scale::kSample, 0);
  auto b = w.make_instance(Scale::kSample, 1);
  EXPECT_NE(w.run(a, nullptr), w.run(b, nullptr));
}

TEST_P(WorkloadSuite, RangeAnalysisIsSound) {
  // Integer range-analysis results are *proofs*: executing the kernel with
  // per-write range assertions must not fire.
  const auto& w = workload();
  auto inst = w.make_instance(Scale::kSample, 0);
  const auto ranges =
      gpurf::analysis::analyze_ranges(w.kernel(), inst.launch);
  EXPECT_NO_THROW(w.run(inst, nullptr, &ranges));
}

TEST_P(WorkloadSuite, PerfectQualityAgainstSelf) {
  const auto& w = workload();
  auto inst = w.make_instance(Scale::kSample, 0);
  auto metric = w.make_metric(inst);
  const auto ref = w.run(inst, nullptr);
  const double s = metric->score(ref, ref);
  EXPECT_TRUE(metric->meets(s, gpurf::quality::QualityLevel::kPerfect));
}

TEST_P(WorkloadSuite, IntPackingReducesOrKeepsPressure) {
  const auto& w = workload();
  auto inst = w.make_instance(Scale::kSample, 0);
  const auto ranges =
      gpurf::analysis::analyze_ranges(w.kernel(), inst.launch);
  gpurf::alloc::AllocOptions ints{true, false};
  const auto res =
      gpurf::alloc::allocate_slices(w.kernel(), &ranges, nullptr, ints);
  EXPECT_LE(res.num_physical_regs, w.spec().paper_regs);
  EXPECT_GT(res.num_physical_regs, 0u);
}

TEST_P(WorkloadSuite, FullScaleLoadsAllSms) {
  // Full-scale instances must provide enough blocks to occupy 15 SMs.
  const auto& w = workload();
  const auto inst = w.make_instance(Scale::kFull, 0);
  EXPECT_GE(inst.launch.num_blocks(), 90u) << w.spec().name;
  EXPECT_EQ(inst.launch.warps_per_block(), w.spec().warps_per_block);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSuite, ::testing::Range(0, 11),
                         [](const ::testing::TestParamInfo<int>& i) {
                           static const auto all = make_all_workloads();
                           return all[i.param]->spec().name;
                         });

TEST(Workloads, ImgvfMatchesPaperTable1Sharedmem) {
  const auto w = make_imgvf();
  EXPECT_EQ(w->kernel().shared_bytes, 14560u);  // §6.1 occupancy cap
  EXPECT_EQ(w->spec().warps_per_block, 10u);
}

TEST(Workloads, MetricsMatchTable4) {
  using gpurf::quality::MetricKind;
  const auto all = make_all_workloads();
  EXPECT_EQ(all[0]->spec().metric, MetricKind::kSsim);       // Deferred
  EXPECT_EQ(all[4]->spec().metric, MetricKind::kDeviation);  // CFD
  EXPECT_EQ(all[10]->spec().metric, MetricKind::kBinary);    // Hybridsort
}

TEST(Workloads, ElevenKernelsInPaperOrder) {
  const auto all = make_all_workloads();
  ASSERT_EQ(all.size(), 11u);
  const char* names[] = {"Deferred",  "SSAO",    "Elevated", "Pathtracer",
                         "CFD",       "DWT2D",   "Hotspot",  "Hotspot3D",
                         "IMGVF",     "GICOV",   "Hybridsort"};
  for (size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i]->spec().name, names[i]);
}


// Block b reads the word block b-1 stored, so the launch breaks the
// block-parallel contract: a sharded replay reads stale words at every
// shard boundary.  The prover sees the overlap (no waiver), so replay
// must stay serial on whatever pool run_functional fans out on.
class ChainWorkload final : public Workload {
 public:
  static constexpr uint32_t kBlocks = 8;

  ChainWorkload()
      : Workload(WorkloadSpec{"Chain", gpurf::quality::MetricKind::kDeviation},
                 R"(
.kernel chain
.param s32 buf
.reg s32 %a
.reg s32 %v
entry:
  mov.s32 %a, %ctaid.x
  add.s32 %a, %a, $buf
  ld.global.s32 %v, [%a]
  add.s32 %v, %v, 1
  st.global.s32 [%a+1], %v
  ret
)") {}

  Instance make_instance(Scale, uint32_t) const override {
    Instance inst;
    inst.launch.grid_x = kBlocks;
    inst.launch.block_x = 1;
    inst.out_base = inst.gmem.alloc(kBlocks + 1);
    inst.out_words = kBlocks + 1;
    inst.params = {inst.out_base};
    return inst;
  }
};

TEST(Workloads, ProofGateFollowsTheBoundPool) {
  ChainWorkload w;
  RunOptions serial;
  serial.block_parallel = false;
  auto ref_inst = w.make_instance(Scale::kSample, 0);
  const auto ref = w.run(ref_inst, nullptr, nullptr, serial);
  std::vector<uint32_t> words(ref.size());
  std::memcpy(words.data(), ref.data(), ref.size() * sizeof(float));
  EXPECT_EQ(words.back(), ChainWorkload::kBlocks);  // the chain ran in order

  // A serial process pool must not hide a 4-wide Engine pool: the proof
  // runs, finds the cross-block read and keeps the replay serial.
  {
    gpurf::testing::PoolWidth process(1);
    gpurf::common::ThreadPool wide(4);
    gpurf::common::ScopedPool bind(&wide);
    auto inst = w.make_instance(Scale::kSample, 0);
    EXPECT_EQ(w.run(inst, nullptr), ref);
    EXPECT_TRUE(w.mem_proofs(inst, /*footprints=*/false)->mem.footprints_computed);
  }

  // Nor may a wide process pool make a serial Engine pool pay for the
  // per-block footprint solves.
  {
    ChainWorkload fresh;
    gpurf::testing::PoolWidth process(4);
    gpurf::common::ThreadPool narrow(1);
    gpurf::common::ScopedPool bind(&narrow);
    auto inst = fresh.make_instance(Scale::kSample, 0);
    EXPECT_EQ(fresh.run(inst, nullptr), ref);
    EXPECT_FALSE(
        fresh.mem_proofs(inst, /*footprints=*/false)->mem.footprints_computed);
  }
}

// ------------------------------------------------- speculative probe chains

/// Every f32 register of `w` at `bits` wide, the rest at 32.
gpurf::exec::PrecisionMap uniform_pmap(const Workload& w, int bits) {
  const auto& k = w.kernel();
  gpurf::exec::PrecisionMap pm;
  pm.per_reg.assign(k.num_regs(), gpurf::fp::format_for_bits(32));
  for (uint32_t r = 0; r < k.num_regs(); ++r)
    if (k.regs[r].type == gpurf::ir::Type::F32)
      pm.per_reg[r] = gpurf::fp::format_for_bits(bits);
  return pm;
}

/// Reference prefix: evaluate_batch() scores, first index that fails.
size_t reference_prefix(gpurf::tuning::QualityProbe& probe,
                        const std::vector<const gpurf::exec::PrecisionMap*>& c,
                        std::vector<double>& scores) {
  scores = probe.evaluate_batch(c);
  size_t n = 0;
  while (n < scores.size() && probe.meets(scores[n], QualityLevel::kPerfect))
    ++n;
  return n;
}

// accept_prefix may skip or abandon candidates past a chain's first
// failure, but the accepted count and every score up to and including
// that failure must equal evaluate_batch() + meets(), at every pool width.
TEST(WorkloadProbe, AcceptPrefixMatchesEvaluateBatch) {
  for (auto make : {make_dwt2d, make_gicov}) {
    const auto w = make();
    const auto full = uniform_pmap(*w, 32), half = uniform_pmap(*w, 16),
               tiny = uniform_pmap(*w, 8);
    const std::vector<std::pair<std::vector<const gpurf::exec::PrecisionMap*>,
                                size_t>>
        chains = {
            {{&tiny, &full, &half, &full, &tiny, &full}, 0},  // fails first
            {{&full, &full, &full, &tiny, &half, &full, &tiny}, 3},
            {{&full, &full, &full, &full}, 4},  // never fails
        };
    for (int width : {1, 2, 4}) {
      gpurf::testing::PoolWidth pool(width);
      const auto probe = make_workload_probe(*w, RunOptions{});
      for (const auto& [chain, first_fail] : chains) {
        std::vector<double> ref, got;
        ASSERT_EQ(reference_prefix(*probe, chain, ref), first_fail)
            << w->spec().name << ": chain shape changed";
        const size_t accepted =
            probe->accept_prefix(chain, QualityLevel::kPerfect, got);
        EXPECT_EQ(accepted, first_fail) << w->spec().name << " T=" << width;
        ASSERT_EQ(got.size(), chain.size());
        for (size_t i = 0; i <= std::min(accepted, chain.size() - 1); ++i)
          EXPECT_EQ(got[i], ref[i])
              << w->spec().name << " T=" << width << " candidate " << i;
      }
    }
  }
}

// On a serial pool the claim loop runs the chain in order and stops at
// the first failure: nothing past candidate 0 is replayed.
TEST(WorkloadProbe, SerialChainStopsAtTheFirstFailure) {
  const auto w = make_dwt2d();
  const auto full = uniform_pmap(*w, 32), tiny = uniform_pmap(*w, 8);
  gpurf::testing::PoolWidth pool(1);
  PipelineStats stats;
  const auto probe = make_workload_probe(*w, RunOptions{}, &stats);
  std::vector<double> scores;
  EXPECT_EQ(probe->accept_prefix({&tiny, &full, &full, &full},
                                 QualityLevel::kPerfect, scores),
            0u);
  EXPECT_EQ(stats.tuner_candidates.load(), 4u);
  EXPECT_EQ(stats.tuner_candidates_doomed.load(), 3u);

  // Batches without a level score every candidate.
  (void)probe->evaluate_batch({&tiny, &full});
  (void)probe->evaluate(full);
  EXPECT_EQ(stats.tuner_candidates.load(), 7u);
  EXPECT_EQ(stats.tuner_candidates_doomed.load(), 3u);
}

// A fresh tune counts every submitted candidate: the session counter
// equals the two tunes' evaluations (chains, full-precision probes and
// the deferred validations).
TEST(WorkloadProbe, PipelineCountsEverySubmittedCandidate) {
  const auto w = make_dwt2d();
  gpurf::testing::PoolWidth pool(2);
  PipelineStats stats;
  PipelineOptions opt;
  opt.use_disk_cache = false;
  opt.stats = &stats;
  const auto pr = compute_pipeline(*w, opt);
  EXPECT_EQ(stats.tuner_candidates.load(),
            static_cast<uint64_t>(pr.tune_perfect.evaluations +
                                  pr.tune_high.evaluations));
  EXPECT_LE(stats.tuner_candidates_doomed.load(),
            stats.tuner_candidates.load());
}

// A raised abandon flag stops a replay before its next thread block.
TEST(Workloads, AbandonedReplaySkipsRemainingBlocks) {
  const auto w = make_dwt2d();
  const std::atomic<bool> raised{true};
  uint64_t insts = 1;
  RunOptions ro;
  ro.abandon = &raised;
  ro.thread_insts = &insts;
  auto inst = w->make_instance(Scale::kSample, 0);
  (void)w->run(inst, nullptr, nullptr, ro);
  EXPECT_EQ(insts, 0u);
}

}  // namespace
}  // namespace gpurf::workloads
