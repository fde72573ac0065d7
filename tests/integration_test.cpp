// End-to-end integration tests across the module boundaries: the full
// static framework on fast workloads, compressed functional equivalence,
// and small-scale timing runs with the generated allocations.

#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "quality/metrics.hpp"
#include "sim/gpu.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {
namespace {

using gpurf::quality::QualityLevel;

// DWT2D and GICOV are the fastest kernels to tune; the pipeline memoizes
// in the file's one Engine, and tuned precision maps are cached on disk
// across processes.
const PipelineResult& pipeline_for(const Workload& w) {
  static Engine engine;
  return *engine.pipeline(w).value();
}

TEST(Pipeline, Dwt2dEndToEnd) {
  const auto w = make_dwt2d();
  const auto& pr = pipeline_for(*w);

  // Structural expectations (also covered by bench_fig9).
  EXPECT_EQ(pr.pressure.original, 38u);
  EXPECT_LT(pr.pressure.narrow_int, 25u);         // int framework dominates
  EXPECT_EQ(pr.pressure.narrow_float_perfect, 38u);  // floats don't matter
  EXPECT_LE(pr.pressure.both_perfect, 20u);
  // Binary-ish behaviour of its normalised outputs: perfect == lossless.
  EXPECT_GE(pr.tune_perfect.final_score, 0.0);
}

TEST(Pipeline, QualityLevelsAreOrdered) {
  const auto w = make_gicov();
  const auto& pr = pipeline_for(*w);
  // High quality can never need MORE registers than perfect quality.
  EXPECT_LE(pr.pressure.both_high, pr.pressure.both_perfect);
  EXPECT_LE(pr.pressure.both_perfect, pr.pressure.original);
  EXPECT_LE(pr.pressure.narrow_int, pr.pressure.original);
}

TEST(Pipeline, CompressedRunMeetsQualityOnFreshInputs) {
  // The tuner trained on the sample variants; validate the accepted
  // high-quality assignment on the variant it saw.
  const auto w = make_dwt2d();
  const auto& pr = pipeline_for(*w);

  auto ref_inst = w->make_instance(Scale::kSample, 0);
  const auto ref = w->run(ref_inst, nullptr);
  auto test_inst = w->make_instance(Scale::kSample, 0);
  const auto out = w->run(test_inst, &pr.tune_high.pmap);

  auto metric = w->make_metric(ref_inst);
  EXPECT_TRUE(metric->meets(metric->score(ref, out), QualityLevel::kHigh));
}

TEST(Pipeline, PerfectAssignmentIsLosslessOnSamples) {
  const auto w = make_dwt2d();
  const auto& pr = pipeline_for(*w);
  auto a = w->make_instance(Scale::kSample, 0);
  auto b = w->make_instance(Scale::kSample, 0);
  EXPECT_EQ(w->run(a, nullptr), w->run(b, &pr.tune_perfect.pmap));
}

TEST(Pipeline, TimingRunWithGeneratedAllocation) {
  // Drive the cycle-level simulator with the pipeline's real allocation on
  // a small instance; the run must complete and show compression traffic.
  const auto w = make_gicov();
  const auto& pr = pipeline_for(*w);
  auto inst = w->make_instance(Scale::kSample, 0);
  auto spec = make_launch_spec(*w, inst, pr, SimMode::kCompressedHigh);
  const auto res = gpurf::sim::simulate(
      gpurf::sim::GpuConfig::fermi_gtx480(),
      make_compression_config(SimMode::kCompressedHigh), spec);
  EXPECT_GT(res.stats.ipc(), 0.0);
  EXPECT_GT(res.stats.operand_fetches, 0u);
  EXPECT_GT(res.occupancy.blocks_per_sm,
            compute_occupancy(gpurf::sim::GpuConfig::fermi_gtx480(),
                              pr.pressure.original,
                              w->spec().warps_per_block,
                              w->kernel().shared_bytes)
                .blocks_per_sm -
                1u);
}

TEST(Pipeline, BaselineAndCompressedComputeSameOutputsModuloQuantization) {
  // For an integer-only-output kernel (Hybridsort histogram counts with a
  // lossless float assignment), baseline and compressed timing runs must
  // produce bit-identical results.
  const auto w = make_hybridsort();
  const auto& pr = pipeline_for(*w);

  auto run = [&](SimMode mode) {
    auto inst = w->make_instance(Scale::kSample, 0);
    auto spec = make_launch_spec(*w, inst, pr, mode);
    gpurf::sim::simulate(gpurf::sim::GpuConfig::fermi_gtx480(),
                         make_compression_config(mode), spec);
    return inst.gmem.read_f32(inst.out_base, inst.out_words);
  };
  // Binary metric: the tuner only accepted lossless formats, so even the
  // compressed run's outputs are identical.
  EXPECT_EQ(run(SimMode::kOriginal), run(SimMode::kCompressedHigh));
}

TEST(Pipeline, LaunchSpecWiring) {
  const auto w = make_dwt2d();
  const auto& pr = pipeline_for(*w);
  auto inst = w->make_instance(Scale::kSample, 0);

  auto orig = make_launch_spec(*w, inst, pr, SimMode::kOriginal);
  EXPECT_EQ(orig.regs_per_thread, pr.pressure.original);
  EXPECT_EQ(orig.precision, nullptr);
  EXPECT_EQ(orig.allocation, nullptr);

  auto comp = make_launch_spec(*w, inst, pr, SimMode::kCompressedPerfect);
  EXPECT_EQ(comp.regs_per_thread, pr.pressure.both_perfect);
  EXPECT_EQ(comp.precision, &pr.tune_perfect.pmap);
  EXPECT_EQ(comp.allocation, &pr.alloc_both_perfect);

  EXPECT_FALSE(make_compression_config(SimMode::kOriginal).enabled);
  EXPECT_TRUE(make_compression_config(SimMode::kCompressedHigh).enabled);
}

}  // namespace
}  // namespace gpurf::workloads
