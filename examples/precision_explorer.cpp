// precision_explorer — the floating-point side of the framework on a
// custom kernel with a custom quality probe, through the gpurf::Engine API.
//
// Defines a small Horner-evaluation kernel, builds a deviation-metric
// probe over its outputs (the user's stand-in for a domain expert's
// quality function, §4.1), and shows what the tuner assigns at the two
// paper thresholds.  Parsing and tuning go through an Engine, so
// malformed kernel text or an unattainable quality threshold come back as
// Status values instead of exceptions.  Also prints the Table-3
// quantization behaviour of a few representative values.

#include <cstdio>

#include "api/engine.hpp"
#include "exec/interp.hpp"
#include "fp/format.hpp"
#include "quality/metrics.hpp"

namespace ir = gpurf::ir;
namespace exec = gpurf::exec;
namespace fp = gpurf::fp;

constexpr std::string_view kHorner = R"(
.kernel horner
.param s32 x_base
.param s32 out_base
.reg s32 %gid
.reg s32 %a
.reg f32 %x
.reg f32 %acc
.reg f32 %c3
.reg f32 %c2
.reg f32 %c1
.reg f32 %c0

entry:
  mov.s32 %gid, %ctaid.x
  mad.s32 %gid, %gid, 64, %tid.x
  add.s32 %a, %gid, $x_base
  ld.global.f32 %x, [%a]
  mov.f32 %c3, 0.125
  mov.f32 %c2, -0.5
  mov.f32 %c1, 0.75
  mov.f32 %c0, 1.0
  mov.f32 %acc, 0.0
  mad.f32 %acc, %x, %c3, %c2
  mad.f32 %acc, %acc, %x, %c1
  mad.f32 %acc, %acc, %x, %c0
  add.s32 %a, %gid, $out_base
  st.global.f32 [%a], %acc
  ret
)";

namespace {

/// Quality probe: run the kernel with the candidate precision map and
/// score the polynomial outputs against the exact run (% deviation).
class HornerProbe final : public gpurf::tuning::QualityProbe {
 public:
  explicit HornerProbe(const ir::Kernel& k)
      : k_(k), ka_(std::make_shared<const exec::KernelAnalysis>(k)) {
    metric_ = gpurf::quality::make_deviation_metric();
    ref_ = run(nullptr);
  }

  std::vector<float> run(const exec::PrecisionMap* pmap) {
    exec::GlobalMemory gmem;
    std::vector<float> xs(512);
    for (size_t i = 0; i < xs.size(); ++i)
      xs[i] = float(i % 256) / 128.0f - 1.0f;  // quantized inputs in [-1,1)
    const uint32_t xb = gmem.alloc_f32(xs);
    const uint32_t ob = gmem.alloc(xs.size());
    exec::ExecContext ctx;
    ctx.kernel = &k_;
    ctx.analysis = ka_;
    ctx.launch = ir::LaunchConfig{8, 1, 64, 1};
    ctx.gmem = &gmem;
    ctx.params = {xb, ob};
    ctx.precision = pmap;
    exec::run_functional(ctx);
    return gmem.read_f32(ob, xs.size());
  }

  double evaluate(const exec::PrecisionMap& pmap) override {
    return metric_->score(ref_, run(&pmap));
  }
  bool meets(double s, gpurf::quality::QualityLevel l) const override {
    return metric_->meets(s, l);
  }

 private:
  const ir::Kernel& k_;
  std::shared_ptr<const exec::KernelAnalysis> ka_;  ///< shared by every run
  std::unique_ptr<gpurf::quality::QualityMetric> metric_;
  std::vector<float> ref_;
};

}  // namespace

int main() {
  // Table-3 quantization behaviour on representative values.
  std::printf("Table 3 quantization (value -> stored value per format):\n");
  const float samples[] = {0.3f, 0.5f, 3.14159f, 100.0f};
  std::printf("%10s", "bits:");
  for (const auto& f : fp::table3_formats()) std::printf(" %10d", f.total_bits);
  std::printf("\n");
  for (float v : samples) {
    std::printf("%10.5f", v);
    for (const auto& f : fp::table3_formats())
      std::printf(" %10.5f", fp::quantize(v, f));
    std::printf("\n");
  }

  // Tune the Horner kernel at both thresholds through an Engine session.
  gpurf::Engine engine;
  auto parsed = engine.parse_kernel(kHorner);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
    return 1;
  }
  const ir::Kernel& k = *parsed;
  if (auto st = engine.verify_kernel(k); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  HornerProbe probe(k);

  for (auto level : {gpurf::quality::QualityLevel::kPerfect,
                     gpurf::quality::QualityLevel::kHigh}) {
    auto tuned = engine.tune(k, probe, level);
    if (!tuned.ok()) {
      std::fprintf(stderr, "%s\n", tuned.status().to_string().c_str());
      return 1;
    }
    const auto& res = *tuned;
    std::printf("\n%s quality (%d probes, final deviation %.4f%%):\n",
                std::string(level_name(level)).c_str(), res.evaluations,
                res.final_score);
    for (uint32_t r = 0; r < k.num_regs(); ++r) {
      if (k.regs[r].type != ir::Type::F32) continue;
      std::printf("  %%%-4s -> %2d bits\n", k.regs[r].name.c_str(),
                  res.pmap.per_reg[r].total_bits);
    }
    std::printf("  f32 slices: %d -> %d\n", res.slices_before,
                res.slices_after);
  }
  return 0;
}
