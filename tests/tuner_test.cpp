// Tests for the precision tuner (§4.1) against synthetic quality probes
// with known answers.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>

#include "common/thread_pool.hpp"
#include "ir/parser.hpp"
#include "tuning/tuner.hpp"

namespace gpurf::tuning {
namespace {

using gpurf::quality::QualityLevel;

gpurf::ir::Kernel float_kernel() {
  return gpurf::ir::parse_kernel(R"(
.kernel t
.reg f32 %a
.reg f32 %b
.reg f32 %c
.reg f32 %unused
entry:
  mov.f32 %a, 1.0
  mov.f32 %b, 2.0
  add.f32 %c, %a, %b
  st.global.f32 [%c], %c
  ret
)");
}

/// Probe with a per-register minimum acceptable width: quality passes iff
/// every register is at least as wide as its floor.
class FloorProbe final : public QualityProbe {
 public:
  explicit FloorProbe(std::vector<int> floors) : floors_(std::move(floors)) {}

  double evaluate(const gpurf::exec::PrecisionMap& pmap) override {
    ++evals;
    for (size_t r = 0; r < floors_.size(); ++r)
      if (floors_[r] > 0 && pmap.per_reg[r].total_bits < floors_[r])
        return 0.0;
    return 1.0;
  }
  bool meets(double score, QualityLevel) const override {
    return score >= 1.0;
  }

  /// evaluate_batch scores candidates on several pool threads.
  std::atomic<int> evals{0};

 private:
  std::vector<int> floors_;
};

TEST(Tuner, FindsPerRegisterFloors) {
  auto k = float_kernel();
  // floors: %a >= 16, %b >= 24, %c >= 8 (anything), %unused ignored.
  FloorProbe probe({16, 24, 8, 0});
  TunerOptions opt;
  const auto res = tune_precision(k, probe, opt);
  EXPECT_EQ(res.pmap.per_reg[0].total_bits, 16);
  EXPECT_EQ(res.pmap.per_reg[1].total_bits, 24);
  EXPECT_EQ(res.pmap.per_reg[2].total_bits, 8);
  EXPECT_GT(probe.evals.load(), 3);
}

TEST(Tuner, UnusedRegistersNotTuned) {
  auto k = float_kernel();
  FloorProbe probe({8, 8, 8, 0});
  const auto res = tune_precision(k, probe, TunerOptions{});
  // %unused never appears in the program: left at 32 bits and excluded
  // from the slice accounting.
  EXPECT_EQ(res.pmap.per_reg[3].total_bits, 32);
  EXPECT_EQ(res.f32_regs, 3);
  EXPECT_EQ(res.slices_before, 24);
  EXPECT_EQ(res.slices_after, 6);  // three registers at 8 bits
}

TEST(Tuner, AllAt32WhenNothingPasses) {
  auto k = float_kernel();
  FloorProbe probe({32, 32, 32, 0});
  const auto res = tune_precision(k, probe, TunerOptions{});
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(res.pmap.per_reg[r].total_bits, 32);
  EXPECT_EQ(res.slices_after, res.slices_before);
}

TEST(Tuner, ThrowsWhenFullPrecisionFails) {
  auto k = float_kernel();
  class NeverProbe final : public QualityProbe {
    double evaluate(const gpurf::exec::PrecisionMap&) override { return 0; }
    bool meets(double, QualityLevel) const override { return false; }
  } probe;
  EXPECT_THROW(tune_precision(k, probe, TunerOptions{}), gpurf::Error);
}

TEST(Tuner, InteractionsResolvedByFixpoint) {
  // Budget probe: the *sum* of widths must stay >= 56 — the tuner must
  // stop narrowing once the budget is tight, wherever it started.
  auto k = float_kernel();
  class BudgetProbe final : public QualityProbe {
   public:
    double evaluate(const gpurf::exec::PrecisionMap& pmap) override {
      int total = 0;
      for (int r = 0; r < 3; ++r) total += pmap.per_reg[r].total_bits;
      return total >= 56 ? 1.0 : 0.0;
    }
    bool meets(double s, QualityLevel) const override { return s >= 1.0; }
  } probe;
  const auto res = tune_precision(k, probe, TunerOptions{});
  int total = 0;
  for (int r = 0; r < 3; ++r) total += res.pmap.per_reg[r].total_bits;
  EXPECT_GE(total, 56);
  EXPECT_LT(total, 96);  // meaningfully narrowed
  EXPECT_GE(res.final_score, 1.0);
}

TEST(Tuner, ResultFormatsAreTable3) {
  auto k = float_kernel();
  FloorProbe probe({14, 9, 21, 0});  // floors between format widths
  const auto res = tune_precision(k, probe, TunerOptions{});
  // The tuner only assigns Table-3 widths: floors round up to 16/12/24.
  EXPECT_EQ(res.pmap.per_reg[0].total_bits, 16);
  EXPECT_EQ(res.pmap.per_reg[1].total_bits, 12);
  EXPECT_EQ(res.pmap.per_reg[2].total_bits, 24);
}

// A probe that scores a chain serially and stops at its first failure,
// leaving every later candidate unscored (NaN), as accept_prefix allows.
// The tuner must accept exactly what the serial descent accepts, for
// every speculative width.
TEST(Tuner, EarlyExitAcceptPrefixMatchesSerialDescent) {
  class EarlyExitProbe final : public QualityProbe {
   public:
    double evaluate(const gpurf::exec::PrecisionMap& pmap) override {
      ++evals;
      const int floors[] = {16, 24, 12};
      for (int r = 0; r < 3; ++r)
        if (pmap.per_reg[r].total_bits < floors[r]) return 0.0;
      return 1.0;
    }
    bool meets(double s, QualityLevel) const override { return s >= 1.0; }
    size_t accept_prefix(const std::vector<const gpurf::exec::PrecisionMap*>& c,
                         QualityLevel level,
                         std::vector<double>& scores) override {
      ++chains;
      scores.assign(c.size(), std::numeric_limits<double>::quiet_NaN());
      for (size_t i = 0; i < c.size(); ++i)
        if (!meets(scores[i] = evaluate(*c[i]), level)) return i;
      return c.size();
    }
    int evals = 0;
    int chains = 0;
  };

  auto k = float_kernel();
  gpurf::common::ThreadPool pool(4);
  gpurf::common::ScopedPool bind(&pool);
  TunerOptions opt;
  opt.speculate_batch = 1;
  EarlyExitProbe serial_probe;
  const auto serial = tune_precision(k, serial_probe, opt);
  EXPECT_EQ(serial_probe.chains, 0);  // K = 1 is the plain serial loop
  for (int batch : {1, 2, 4, 16}) {
    opt.speculate_batch = batch;
    EarlyExitProbe probe;
    const auto res = tune_precision(k, probe, opt);
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(res.pmap.per_reg[r].total_bits,
                serial.pmap.per_reg[r].total_bits)
          << "K=" << batch << " reg " << r;
    EXPECT_EQ(res.final_score, serial.final_score) << "K=" << batch;
    EXPECT_FALSE(std::isnan(res.final_score)) << "K=" << batch;
    if (batch > 1) {
      EXPECT_GT(probe.chains, 0) << "K=" << batch;
    }
    // Every submitted candidate counts, scored or not.
    EXPECT_GE(res.evaluations, probe.evals) << "K=" << batch;
  }
}

}  // namespace
}  // namespace gpurf::tuning
