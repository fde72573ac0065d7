#include "workloads/pipeline.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fp/format.hpp"
#include "ir/printer.hpp"

namespace gpurf::workloads {

namespace {

using gpurf::quality::MetricKind;
using gpurf::quality::QualityLevel;

/// Probe: run the kernel on every sample variant with the candidate
/// precision map and combine the per-variant scores pessimistically
/// (worst case over the sample set, as the tuner must satisfy all
/// representative inputs).
///
/// The pristine sample instances are built once at construction; each
/// evaluation copies one (memory images only) instead of regenerating it.
/// evaluate() is safe to call concurrently (required by the tuner's
/// speculative batch mode) and itself fans the variants out across the
/// current thread pool when called from the serial path.
class WorkloadProbe final : public gpurf::tuning::QualityProbe {
 public:
  WorkloadProbe(const Workload& w, const RunOptions& run) : w_(w), run_(run) {
    run_.thread_insts = nullptr;
    const uint32_t nv = w.num_sample_variants();
    protos_.reserve(nv);
    for (uint32_t v = 0; v < nv; ++v) {
      protos_.push_back(w.make_instance(Scale::kSample, v));
      metrics_.push_back(w.make_metric(protos_.back()));
      Workload::Instance inst = protos_[v];  // run() mutates the memory
      refs_.push_back(w_.run(inst, nullptr, nullptr, run_));
    }
  }

  double evaluate(const gpurf::exec::PrecisionMap& pmap) override {
    const size_t nv = protos_.size();
    std::vector<double> scores(nv, 0.0);
    gpurf::common::parallel_for(nv, [&](size_t v) {
      scores[v] = score_variant(pmap, v);
    });
    // Ordered pessimistic fold — identical to the serial loop regardless
    // of which thread scored which variant.
    double combined = scores[0];
    for (size_t v = 1; v < nv; ++v) combined = worse(combined, scores[v]);
    return combined;
  }

  /// Batch fan-out at (candidate x variant) granularity: the tuner's
  /// speculative chain of K candidates becomes K * num_variants
  /// independent functional replays, so the pool stays saturated even when
  /// K is smaller than the thread count (e.g. right after the adaptive
  /// width shrank).  The per-candidate pessimistic fold runs in variant
  /// order, identical to evaluate().
  std::vector<double> evaluate_batch(
      const std::vector<const gpurf::exec::PrecisionMap*>& pmaps) override {
    const size_t nv = protos_.size();
    const size_t nc = pmaps.size();
    std::vector<double> grid(nc * nv, 0.0);
    gpurf::common::parallel_for(nc * nv, [&](size_t i) {
      grid[i] = score_variant(*pmaps[i / nv], i % nv);
    });
    std::vector<double> scores(nc, 0.0);
    for (size_t c = 0; c < nc; ++c) {
      double combined = grid[c * nv];
      for (size_t v = 1; v < nv; ++v)
        combined = worse(combined, grid[c * nv + v]);
      scores[c] = combined;
    }
    return scores;
  }

  bool meets(double score, QualityLevel level) const override {
    return metrics_[0]->meets(score, level);
  }

 private:
  /// One functional replay: candidate pmap on sample variant v.
  double score_variant(const gpurf::exec::PrecisionMap& pmap, size_t v) {
    Workload::Instance inst = protos_[v];  // fresh copy per evaluation
    const auto out = w_.run(inst, &pmap, nullptr, run_);
    return metrics_[v]->score(refs_[v], out);
  }

  double worse(double a, double b) const {
    // Deviation grows with error; SSIM and binary shrink.
    return metrics_[0]->kind() == MetricKind::kDeviation ? std::max(a, b)
                                                         : std::min(a, b);
  }

  const Workload& w_;
  RunOptions run_;
  std::vector<Workload::Instance> protos_;
  std::vector<std::unique_ptr<gpurf::quality::QualityMetric>> metrics_;
  std::vector<std::vector<float>> refs_;
};

/// Cache schema version.  v1 files (headerless "bp bh" rows) are rejected
/// as unversioned; bump this when the row layout changes.
constexpr int kPmapCacheVersion = 2;

constexpr const char kPmapMagic[] = "gpurf-pmap";

bool is_table3_width(int bits) {
  for (const auto& f : gpurf::fp::table3_formats())
    if (f.total_bits == bits) return true;
  return false;
}

}  // namespace

std::unique_ptr<gpurf::tuning::QualityProbe> make_workload_probe(
    const Workload& w, const RunOptions& run) {
  return std::make_unique<WorkloadProbe>(w, run);
}

const std::string& default_cache_dir() {
  // Environment read exactly once per process (env-var-as-default rule).
  static const std::string dir = [] {
    if (const char* env = std::getenv("GPURF_CACHE_DIR"))
      if (env[0] != '\0') return std::string(env);
    return std::string(".gpurf_cache");
  }();
  return dir;
}

uint64_t kernel_cache_fingerprint(const Workload& w) {
  // FNV-1a over the printed kernel text.  Deliberately NOT
  // std::hash<std::string>: the fingerprint lives in on-disk cache
  // filenames and headers, so it must be identical across standard-library
  // implementations and releases.
  const std::string text = gpurf::ir::print_kernel(w.kernel());
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string pmap_cache_path(const Workload& w, const std::string& dir) {
  const std::string& d = dir.empty() ? default_cache_dir() : dir;
  return d + "/" + w.spec().name + "_" +
         std::to_string(kernel_cache_fingerprint(w)) + ".pmap";
}

gpurf::Status load_pmap_cache(const Workload& w, const std::string& dir,
                              gpurf::tuning::TuneResult& perfect,
                              gpurf::tuning::TuneResult& high) {
  const std::string path = pmap_cache_path(w, dir);
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return gpurf::Status::NotFound("no cache entry at " + path);

  auto data_loss = [&](const std::string& why) {
    std::fclose(f);
    return gpurf::Status::DataLoss("cache entry " + path + ": " + why);
  };

  // Header: magic, schema version, format-table version, kernel
  // fingerprint, register count.  Any mismatch means the entry was tuned
  // by an incompatible build (or is not a cache file at all); the caller
  // must re-tune rather than trust it.
  char magic[16] = {0};
  int schema = 0, fmtver = 0;
  uint64_t fp = 0;
  uint32_t nregs = 0;
  if (std::fscanf(f, "%15s %d %d %" SCNu64 " %" SCNu32, magic, &schema,
                  &fmtver, &fp, &nregs) != 5)
    return data_loss("unversioned or malformed header");
  if (std::string(magic) != kPmapMagic)
    return data_loss("bad magic '" + std::string(magic) + "'");
  if (schema != kPmapCacheVersion)
    return data_loss("schema version " + std::to_string(schema) +
                     " != " + std::to_string(kPmapCacheVersion));
  if (fmtver != gpurf::fp::kFormatTableVersion)
    return data_loss("format-table version " + std::to_string(fmtver) +
                     " != " + std::to_string(gpurf::fp::kFormatTableVersion));
  if (fp != kernel_cache_fingerprint(w))
    return data_loss("kernel fingerprint mismatch (stale entry)");
  if (nregs != w.kernel().num_regs())
    return data_loss("register count mismatch");

  perfect.pmap.per_reg.assign(nregs, gpurf::fp::format_for_bits(32));
  high.pmap.per_reg.assign(nregs, gpurf::fp::format_for_bits(32));
  for (uint32_t r = 0; r < nregs; ++r) {
    int bp = 0, bh = 0;
    if (std::fscanf(f, "%d %d", &bp, &bh) != 2)
      return data_loss("truncated at row " + std::to_string(r));
    if (!is_table3_width(bp) || !is_table3_width(bh))
      return data_loss("non-Table-3 width at row " + std::to_string(r));
    perfect.pmap.per_reg[r] = gpurf::fp::format_for_bits(bp);
    high.pmap.per_reg[r] = gpurf::fp::format_for_bits(bh);
  }
  std::fclose(f);
  return gpurf::Status::Ok();
}

gpurf::Status store_pmap_cache(const Workload& w, const std::string& dir,
                               const gpurf::tuning::TuneResult& perfect,
                               const gpurf::tuning::TuneResult& high) {
  const std::string& d = dir.empty() ? default_cache_dir() : dir;
  std::error_code ec;
  std::filesystem::create_directories(d, ec);
  if (ec)
    return gpurf::Status::Internal("cannot create cache dir " + d + ": " +
                                   ec.message());
  // Write-then-rename: the entry appears at its final path only complete.
  // Readers (and crashed/cancelled writers) can therefore never observe a
  // half-written cache file — they see either the old entry or the new
  // one.  rename(2) is atomic within a filesystem and the temp file sits
  // in the cache dir itself.
  const std::string path = pmap_cache_path(w, d);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return gpurf::Status::Internal("cannot open " + tmp);
  std::fprintf(f, "%s %d %d %" PRIu64 " %u\n", kPmapMagic, kPmapCacheVersion,
               gpurf::fp::kFormatTableVersion, kernel_cache_fingerprint(w),
               w.kernel().num_regs());
  for (uint32_t r = 0; r < w.kernel().num_regs(); ++r)
    std::fprintf(f, "%d %d\n", perfect.pmap.per_reg[r].total_bits,
                 high.pmap.per_reg[r].total_bits);
  if (std::fclose(f) != 0 || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return gpurf::Status::Internal("cannot commit " + path);
  }
  return gpurf::Status::Ok();
}

PipelineResult compute_pipeline(const Workload& w,
                                const PipelineOptions& opt) {
  PipelineResult pr;
  const auto& k = w.kernel();

  // Per-job control channel: stage transitions double as cancellation/
  // deadline checkpoints, so a stop request takes effect *between* the
  // Fig.-7 stages (the tuner adds its own per-batch checkpoints inside
  // stage 2).  The unwound exception leaves pr on the stack — no shared
  // structure has been touched yet when it escapes.
  gpurf::common::CancelToken* tok = opt.tuner.cancel;
  auto enter_stage = [&](gpurf::common::JobStage s) {
    if (!tok) return;
    tok->set_stage(s);
    tok->checkpoint();
  };

  // Launch geometry of the full-scale run drives the special-register
  // ranges; sample and full instances share block dimensions.
  const auto inst = w.make_instance(Scale::kFull, 0);

  // 1. Integer range analysis (§4.2).
  enter_stage(gpurf::common::JobStage::kRanges);
  const auto& ka = *w.kernel_analysis();
  pr.ranges = analysis::analyze_ranges(k, ka.cfg(), ka.dataflow(), inst.launch);

  // 2. Float precision tuning (§4.1), two thresholds (§6.1).  A stale or
  // corrupt disk-cache entry (non-OK, non-NotFound load) falls through to
  // a fresh tune — the entry is overwritten with a current one below.
  enter_stage(gpurf::common::JobStage::kTuning);
  // A session whose cache dir proved unwritable stops touching the disk
  // entirely (loads too: a dir that rejects writes often rejects reads,
  // and a disabled cache should behave like --no-disk-cache).
  const auto disk_ok = [&] {
    return opt.use_disk_cache &&
           !(opt.stats && opt.stats->disk_cache_disabled.load(
                              std::memory_order_relaxed));
  };
  bool cached = false;
  if (disk_ok()) {
    const gpurf::Status loaded =
        load_pmap_cache(w, opt.cache_dir, pr.tune_perfect, pr.tune_high);
    cached = loaded.ok();
    if (opt.stats) {
      if (loaded.ok())
        opt.stats->disk_cache_hits.fetch_add(1, std::memory_order_relaxed);
      else if (loaded.code() == gpurf::StatusCode::kDataLoss)
        opt.stats->disk_cache_stale_rejections.fetch_add(
            1, std::memory_order_relaxed);
    }
  }
  if (!cached) {
    WorkloadProbe probe(w, opt.run);
    gpurf::tuning::TunerOptions topt = opt.tuner;
    // speculate_batch <= 0 resolves to the current pool width inside
    // tune_precision.
    // Both final validation probes run as one batch after the second tune
    // instead of serially inside each call (they are independent replays,
    // so the pool overlaps them).  Scores are bit-identical to the serial
    // path: evaluate() is a pure function of the pmap.
    topt.defer_validation = true;
    topt.level = QualityLevel::kPerfect;
    pr.tune_perfect = gpurf::tuning::tune_precision(k, probe, topt);
    topt.level = QualityLevel::kHigh;
    pr.tune_high = gpurf::tuning::tune_precision(k, probe, topt);

    enter_stage(gpurf::common::JobStage::kValidating);
    const std::vector<const gpurf::exec::PrecisionMap*> finals = {
        &pr.tune_perfect.pmap, &pr.tune_high.pmap};
    const std::vector<double> scores = probe.evaluate_batch(finals);
    pr.tune_perfect.final_score = scores[0];
    pr.tune_high.final_score = scores[1];
    ++pr.tune_perfect.evaluations;
    ++pr.tune_high.evaluations;
    GPURF_ASSERT(probe.meets(scores[0], QualityLevel::kPerfect) &&
                     probe.meets(scores[1], QualityLevel::kHigh),
                 "accepted assignment fails validation");

    // Past this point the result is complete; the store is atomic
    // (write-then-rename) and no checkpoint runs between validation and
    // store, so the disk cache only ever holds fully-validated entries.
    // A failed store (read-only dir, disk full) degrades gracefully: log
    // once, latch the cache off for this session, keep serving from
    // memory — it must never escape as an error from a submit path.
    if (disk_ok()) {
      const gpurf::Status stored =
          store_pmap_cache(w, opt.cache_dir, pr.tune_perfect, pr.tune_high);
      if (!stored.ok() && opt.stats) {
        opt.stats->disk_cache_write_failures.fetch_add(
            1, std::memory_order_relaxed);
        if (!opt.stats->disk_cache_disabled.exchange(
                true, std::memory_order_relaxed))
          std::fprintf(stderr,
                       "gpurf: disk cache disabled for this session (%s)\n",
                       stored.to_string().c_str());
      }
    }
  }

  // 3. Slice allocation (§4.3) under each framework combination.
  enter_stage(gpurf::common::JobStage::kAllocating);
  using gpurf::alloc::AllocOptions;
  using gpurf::alloc::allocate_slices;
  AllocOptions none{false, false}, ints{true, false}, floats{false, true},
      both{true, true};

  pr.pressure.original =
      allocate_slices(k, nullptr, nullptr, none).num_physical_regs;
  pr.pressure.narrow_int =
      allocate_slices(k, &pr.ranges, nullptr, ints).num_physical_regs;
  pr.pressure.narrow_float_perfect =
      allocate_slices(k, nullptr, &pr.tune_perfect.pmap, floats)
          .num_physical_regs;
  pr.pressure.narrow_float_high =
      allocate_slices(k, nullptr, &pr.tune_high.pmap, floats)
          .num_physical_regs;
  pr.alloc_both_perfect =
      allocate_slices(k, &pr.ranges, &pr.tune_perfect.pmap, both);
  pr.alloc_both_high =
      allocate_slices(k, &pr.ranges, &pr.tune_high.pmap, both);
  pr.pressure.both_perfect = pr.alloc_both_perfect.num_physical_regs;
  pr.pressure.both_high = pr.alloc_both_high.num_physical_regs;
  return pr;
}

const PipelineResult& PipelineCache::get(const Workload& w,
                                         gpurf::common::CancelToken* cancel) {
  // Per-workload once-entries instead of one cache-wide lock: independent
  // workloads requested from different threads tune concurrently, while
  // each workload's pipeline still runs exactly once per cache instance.
  Entry* e;
  {
    gpurf::common::MutexLock lock(mu_);
    e = &cache_[w.spec().name];
  }
  // Win the computing latch or wait out the current winner.  If the
  // winner publishes, every waiter returns its result (a memo hit); if it
  // unwinds (cancelled / deadline / core error), nothing partial is
  // memoized and exactly one waiter is woken to recompute with its own
  // token — see the header for why this is not a std::once_flag.
  gpurf::common::MutexLock lk(e->mu);
  while (true) {
    if (e->result) {
      if (opt_.stats)
        opt_.stats->memo_hits.fetch_add(1, std::memory_order_relaxed);
      return *e->result;
    }
    if (!e->computing) break;
    e->cv.wait(lk.native());
  }
  e->computing = true;
  lk.unlock();
  if (opt_.stats)
    opt_.stats->memo_misses.fetch_add(1, std::memory_order_relaxed);
  PipelineOptions o = opt_;
  o.tuner.cancel = cancel;
  o.run.cancel = cancel;
  std::unique_ptr<PipelineResult> fresh;
  try {
    fresh = std::make_unique<PipelineResult>(compute_pipeline(w, o));
  } catch (...) {
    lk.lock();
    e->computing = false;
    e->cv.notify_one();
    throw;
  }
  lk.lock();
  e->result = std::move(fresh);
  e->computing = false;
  e->cv.notify_all();
  return *e->result;
}

gpurf::sim::CompressionConfig make_compression_config(SimMode mode) {
  return mode == SimMode::kOriginal
             ? gpurf::sim::CompressionConfig::baseline()
             : gpurf::sim::CompressionConfig::paper_default();
}

gpurf::sim::KernelLaunchSpec make_launch_spec(const Workload& w,
                                              Workload::Instance& inst,
                                              const PipelineResult& pr,
                                              SimMode mode) {
  gpurf::sim::KernelLaunchSpec spec;
  spec.kernel = &w.kernel();
  spec.launch = inst.launch;
  spec.gmem = &inst.gmem;
  spec.textures = &inst.textures;
  spec.params = inst.params;
  switch (mode) {
    case SimMode::kOriginal:
      spec.regs_per_thread = pr.pressure.original;
      break;
    case SimMode::kCompressedPerfect:
      spec.regs_per_thread = pr.pressure.both_perfect;
      spec.precision = &pr.tune_perfect.pmap;
      spec.allocation = &pr.alloc_both_perfect;
      break;
    case SimMode::kCompressedHigh:
      spec.regs_per_thread = pr.pressure.both_high;
      spec.precision = &pr.tune_high.pmap;
      spec.allocation = &pr.alloc_both_high;
      break;
  }
  return spec;
}

}  // namespace gpurf::workloads
