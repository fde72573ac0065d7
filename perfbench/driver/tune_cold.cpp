// tune-cold: a fresh Engine (threads = nproc, disk cache off) runs the full
// static pipeline on five kernels that cover all three quality metrics.
// Almost all of the time is tuner probes: functional replay plus quality
// scoring on the Engine's thread pool.
//
// Untraced: Engine::compute_pipeline per kernel, in a seeded order.
// Traced: the benchmark's own composition of the pipeline's public steps
// (analyze_ranges -> tune_precision x2 -> deferred validation ->
// allocate_slices x6) with a span around each call, then per-layer probes
// that the composition does not cover (memory proofs, lint report, replay
// throughput, one score call per metric kind).  Both must reproduce the
// reference PipelineResult.

#include <unistd.h>

#include <algorithm>
#include <optional>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "workloads/pipeline.hpp"

namespace pb {
namespace {

using gpurf::quality::QualityLevel;
namespace wl = gpurf::workloads;

const std::vector<std::string> kKernels = {"SSAO", "Hotspot", "GICOV",
                                           "Hybridsort", "DWT2D"};

/// Decorates the workload probe: times every probe call and counts
/// speculative waste (candidates scored after the first rejection of their
/// batch, which the tuner throws away).
class TimedProbe final : public gpurf::tuning::QualityProbe {
 public:
  explicit TimedProbe(gpurf::tuning::QualityProbe& inner) : inner_(inner) {}

  void set_level(QualityLevel l) { level_ = l; }

  double evaluate(const gpurf::exec::PrecisionMap& pmap) override {
    Span s("tuning.probe");
    const double score = inner_.evaluate(pmap);
    ++candidates;
    return score;
  }

  bool meets(double score, QualityLevel level) const override {
    return inner_.meets(score, level);
  }

  std::vector<double> evaluate_batch(
      const std::vector<const gpurf::exec::PrecisionMap*>& pmaps) override {
    Span s("tuning.probe");
    auto scores = inner_.evaluate_batch(pmaps);
    candidates += pmaps.size();
    for (size_t i = 0; i < scores.size(); ++i)
      if (!inner_.meets(scores[i], level_)) {
        wasted += scores.size() - i - 1;
        break;
      }
    return scores;
  }

  uint64_t candidates = 0;
  uint64_t wasted = 0;

 private:
  gpurf::tuning::QualityProbe& inner_;
  QualityLevel level_ = QualityLevel::kPerfect;
};

/// The pipeline's public steps, composed as compute_pipeline composes them.
/// `inner` and `probe` receive the workload probe and its decorator, which
/// the caller reads the counters from.
wl::PipelineResult compose_pipeline(
    const wl::Workload& w, const gpurf::EngineOptions& eo,
    std::unique_ptr<gpurf::tuning::QualityProbe>& inner,
    std::unique_ptr<TimedProbe>& probe) {
  Span whole("workloads.pipeline");
  wl::PipelineResult pr;
  const auto& k = w.kernel();
  wl::Workload::Instance inst;
  {
    Span s("workloads.make_instance");
    inst = w.make_instance(wl::Scale::kFull, 0);
  }
  {
    Span s("analysis.analyze_ranges");
    pr.ranges = gpurf::analysis::analyze_ranges(k, inst.launch);
  }
  {
    Span s("tuning.make_probe");
    inner = wl::make_workload_probe(w, eo.run);
  }
  probe = std::make_unique<TimedProbe>(*inner);
  gpurf::tuning::TunerOptions topt = eo.tuner;
  topt.defer_validation = true;
  for (QualityLevel level : {QualityLevel::kPerfect, QualityLevel::kHigh}) {
    topt.level = level;
    probe->set_level(level);
    Span s("tuning.tune_precision");
    (level == QualityLevel::kPerfect ? pr.tune_perfect : pr.tune_high) =
        gpurf::tuning::tune_precision(k, *probe, topt);
  }
  {
    Span s("tuning.probe");
    const auto scores = inner->evaluate_batch(
        {&pr.tune_perfect.pmap, &pr.tune_high.pmap});
    pr.tune_perfect.final_score = scores[0];
    pr.tune_high.final_score = scores[1];
    ++pr.tune_perfect.evaluations;
    ++pr.tune_high.evaluations;
  }
  using gpurf::alloc::AllocOptions;
  const auto alloc = [&](const gpurf::analysis::RangeAnalysisResult* r,
                         const gpurf::exec::PrecisionMap* p,
                         AllocOptions opt) {
    Span s("alloc.allocate_slices");
    return gpurf::alloc::allocate_slices(k, r, p, opt);
  };
  const AllocOptions none{false, false}, ints{true, false},
      floats{false, true}, both{true, true};
  pr.pressure.original = alloc(nullptr, nullptr, none).num_physical_regs;
  pr.pressure.narrow_int = alloc(&pr.ranges, nullptr, ints).num_physical_regs;
  pr.pressure.narrow_float_perfect =
      alloc(nullptr, &pr.tune_perfect.pmap, floats).num_physical_regs;
  pr.pressure.narrow_float_high =
      alloc(nullptr, &pr.tune_high.pmap, floats).num_physical_regs;
  pr.alloc_both_perfect = alloc(&pr.ranges, &pr.tune_perfect.pmap, both);
  pr.alloc_both_high = alloc(&pr.ranges, &pr.tune_high.pmap, both);
  pr.pressure.both_perfect = pr.alloc_both_perfect.num_physical_regs;
  pr.pressure.both_high = pr.alloc_both_high.num_physical_regs;
  return pr;
}

/// Check a pipeline result against the reference: the pressures as
/// readable numbers, everything else (pmaps, allocations, scores) as a
/// digest of its canonical JSON.  The tuner's evaluation counters are left
/// out: they count speculative probes, which depend on the thread count.
void check_pipeline(References& refs, Report& rep, const std::string& name,
                    const wl::PipelineResult& pr) {
  const auto& p = pr.pressure;
  const std::string pressure =
      std::to_string(p.original) + "," + std::to_string(p.narrow_int) + "," +
      std::to_string(p.narrow_float_perfect) + "," +
      std::to_string(p.narrow_float_high) + "," +
      std::to_string(p.both_perfect) + "," + std::to_string(p.both_high);
  std::string err = refs.expect("pressure/" + name, pressure);
  auto parsed = gpurf::api::parse_json(gpurf::api::to_json(pr));
  if (err.empty())
    err = parsed.ok() ? refs.expect("pipeline/" + name,
                                    digest(canonical_json(*parsed, "evaluations")))
                      : "pipeline JSON does not parse";
  rep.op(err);
}

/// Per-layer probes the composition does not reach.
void layer_probes(Report& rep, const wl::Workload& w,
                  const wl::PipelineResult& pr, gpurf::Engine& engine) {
  auto inst = w.make_instance(wl::Scale::kFull, 0);
  {
    Span s("analysis.mem_proofs");
    (void)w.mem_proofs(inst, /*footprints=*/true);
  }
  {
    Span s("analysis.report");
    auto r = engine.analyze(w);
    rep.op(r.ok() ? "" : "analyze " + w.spec().name + ": " +
                             r.status().to_string());
  }
  // Replay throughput: the tuner's probes replay sample instances.
  wl::RunOptions ro = engine.options().run;
  uint64_t insts = 0;
  double secs = 0.0;
  std::vector<float> ref, tuned;
  for (uint32_t v = 0; v < w.num_sample_variants(); ++v) {
    auto a = w.make_instance(wl::Scale::kSample, v);
    auto b = a;
    uint64_t n = 0;
    ro.thread_insts = &n;
    Span s("exec.run");
    auto out = w.run(a, nullptr, nullptr, ro);
    secs += s.stop();
    insts += n;
    ro.thread_insts = nullptr;
    if (v == 0) {
      ref = std::move(out);
      tuned = w.run(b, &pr.tune_high.pmap, nullptr, ro);
    }
  }
  rep.samples["exec.thread_insts"].push_back(static_cast<double>(insts));
  rep.samples["exec.run_s"].push_back(secs);
  auto inst0 = w.make_instance(wl::Scale::kSample, 0);
  const auto metric = w.make_metric(inst0);
  using gpurf::quality::MetricKind;
  const MetricKind kind = w.spec().metric;
  const char* span = kind == MetricKind::kSsim        ? "quality.score.ssim"
                     : kind == MetricKind::kDeviation ? "quality.score.deviation"
                                                      : "quality.score.binary";
  for (int i = 0; i < 5; ++i) {
    Span s(span);
    (void)metric->score(ref, tuned);
  }
}

}  // namespace

Report run_tune_cold(const Options& o) {
  Report rep;
  const int threads = nproc();
  gpurf::Engine engine(
      gpurf::EngineOptions().with_threads(threads).with_disk_cache(false));
  std::vector<const wl::Workload*> kernels;
  for (const auto& name : kKernels) {
    auto w = engine.workload(name);
    if (!w.ok()) {
      rep.op("workload " + name + ": " + w.status().to_string());
      continue;
    }
    kernels.push_back(*w);
  }
  rep.setup_s = now_s() - o.t0;
  if (o.setup_only) return rep;

  // The seed sets the order of the kernels.
  Rng rng(o.seed);
  for (size_t i = kernels.size(); i > 1; --i)
    std::swap(kernels[i - 1], kernels[rng.below(i)]);

  References refs(o, "tune-cold");
  // The traced composition runs on a pool of the Engine's width (the
  // Engine's own pool is private to it).
  std::optional<gpurf::common::ThreadPool> pool;
  if (o.trace) pool.emplace(threads);
  // One op per kernel, between host-speed probes.
  ProbedOps ops(rep, threads, ProbeShape::kJoin,
                [] { return self_usage().cpu_s; });
  CpuSampler sampler(::getpid());
  ops.exclude_from(sampler);
  std::vector<std::pair<const wl::Workload*, wl::PipelineResult>> results;
  uint64_t candidates = 0, wasted = 0;
  for (const wl::Workload* w : kernels) {
    ops.begin();
    if (!o.trace) {
      auto pr = engine.compute_pipeline(*w);
      ops.end();
      if (!pr.ok()) {
        rep.op(w->spec().name + ": " + pr.status().to_string());
        continue;
      }
      results.emplace_back(w, std::move(*pr));
      continue;
    }
    gpurf::common::ScopedPool bind(&*pool);
    std::unique_ptr<gpurf::tuning::QualityProbe> inner;
    std::unique_ptr<TimedProbe> probe;
    auto pr = compose_pipeline(*w, engine.options(), inner, probe);
    ops.end();
    candidates += probe->candidates;
    wasted += probe->wasted;
    // Each tune's evaluations are its candidates plus the validation.
    if (probe->candidates + 2 !=
        static_cast<uint64_t>(pr.tune_perfect.evaluations +
                              pr.tune_high.evaluations))
      rep.op(w->spec().name + ": probe count disagrees with the tuner");
    results.emplace_back(w, std::move(pr));
  }
  rep.wall_s = ops.wall_s();
  sampler.stop();
  rep.cpu_util = ops.cpu_s() / rep.wall_s;
  rep.cpus_used = sampler.cpus_used();

  for (const auto& [w, pr] : results)
    check_pipeline(refs, rep, w->spec().name, pr);

  if (o.trace) {
    rep.layers["tuning.candidates"] = static_cast<double>(candidates);
    rep.layers["tuning.spec_waste_ratio"] =
        candidates ? static_cast<double>(wasted) / candidates : 0.0;
    gpurf::common::ScopedPool bind(&*pool);
    for (const auto& [w, pr] : results) layer_probes(rep, *w, pr, engine);
  }
  if (o.bless && !refs.save()) rep.op("cannot write tune-cold references");
  const Usage u = self_usage();
  rep.cpu_s = u.cpu_s;
  rep.peak_rss_mb = u.peak_rss_mb;
  return rep;
}

}  // namespace pb
