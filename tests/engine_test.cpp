// gpurf::Engine (ISSUE 3): session isolation, Status-based error paths,
// versioned disk cache, async submission, JSON snapshots.
//
// The acceptance contract: two concurrently-live Engines with different
// EngineOptions (thread counts, cache dirs, tuner widths) produce results
// bit-identical to the legacy global-path computation, and every error
// path (unknown workload, malformed kernel, corrupt cache entry) comes
// back as a non-OK Status without terminating the process.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "testing_util.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf {
namespace {

namespace wl = gpurf::workloads;
namespace fs = std::filesystem;

/// Fresh scratch directory under the cwd; removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::path(".") / name).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

void expect_same_pipeline(const wl::PipelineResult& a,
                          const wl::PipelineResult& b) {
  ASSERT_EQ(a.tune_perfect.pmap.per_reg.size(),
            b.tune_perfect.pmap.per_reg.size());
  for (size_t r = 0; r < a.tune_perfect.pmap.per_reg.size(); ++r) {
    EXPECT_TRUE(a.tune_perfect.pmap.per_reg[r] ==
                b.tune_perfect.pmap.per_reg[r])
        << "perfect reg " << r;
    EXPECT_TRUE(a.tune_high.pmap.per_reg[r] == b.tune_high.pmap.per_reg[r])
        << "high reg " << r;
  }
  EXPECT_EQ(a.tune_perfect.final_score, b.tune_perfect.final_score);
  EXPECT_EQ(a.tune_high.final_score, b.tune_high.final_score);
  EXPECT_EQ(a.pressure.original, b.pressure.original);
  EXPECT_EQ(a.pressure.narrow_int, b.pressure.narrow_int);
  EXPECT_EQ(a.pressure.both_perfect, b.pressure.both_perfect);
  EXPECT_EQ(a.pressure.both_high, b.pressure.both_high);
  EXPECT_EQ(a.alloc_both_perfect.num_physical_regs,
            b.alloc_both_perfect.num_physical_regs);
  EXPECT_EQ(a.alloc_both_perfect.total_slices,
            b.alloc_both_perfect.total_slices);
  EXPECT_EQ(a.alloc_both_high.num_physical_regs,
            b.alloc_both_high.num_physical_regs);
  EXPECT_EQ(a.alloc_both_high.split_operands,
            b.alloc_both_high.split_operands);
}

// ------------------------------------------------------------- StatusOr

TEST(Status, StatusOrHoldsValueOrError) {
  StatusOr<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  StatusOr<int> bad = Status::NotFound("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_THROW(bad.value(), gpurf::Error);

  StatusOr<int> copy = bad;
  EXPECT_EQ(copy.status().code(), StatusCode::kNotFound);
  copy = ok;
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(*copy, 42);
}

// ---------------------------------------------------------- workload API

TEST(Engine, WorkloadRegistry) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  const auto names = engine.workload_names();
  EXPECT_EQ(names.size(), 11u);  // the Table-4 set
  EXPECT_TRUE(engine.workload(names.front()).ok());

  auto missing = engine.workload("NoSuchKernel");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(Engine, OptionsAreResolvedAtConstruction) {
  Engine engine(EngineOptions().with_threads(3).with_cache_dir("xyz"));
  EXPECT_EQ(engine.options().threads, 3);
  EXPECT_EQ(engine.options().cache_dir, "xyz");
  EXPECT_EQ(engine.options().tuner.speculate_batch, 3);  // defaulted

  // Unset fields resolve to process defaults (env read once, not empty).
  Engine dflt;
  EXPECT_GE(dflt.options().threads, 1);
  EXPECT_FALSE(dflt.options().cache_dir.empty());
}

// --------------------------------------------------- isolation (tentpole)

TEST(Engine, ConcurrentEnginesMatchLegacyGlobalPath) {
  const auto w = wl::make_dwt2d();

  // Legacy global path, forced serial: the bit-exactness reference.
  wl::PipelineResult ref;
  {
    gpurf::testing::PoolWidth width(1);
    wl::PipelineOptions opt;
    opt.use_disk_cache = false;
    opt.tuner.speculate_batch = 1;
    ref = wl::compute_pipeline(*w, opt);
  }

  // Two concurrently-live Engines with different thread counts, tuner
  // widths and cache directories, each computing the pipeline fresh.
  TempDir dir_a("gpurf_test_cache_a"), dir_b("gpurf_test_cache_b");
  Engine a(EngineOptions().with_threads(1).with_cache_dir(dir_a.path));
  Engine b(EngineOptions()
               .with_threads(4)
               .with_cache_dir(dir_b.path)
               .with_tuner([] {
                 tuning::TunerOptions t;
                 t.speculate_batch = 4;
                 return t;
               }()));

  StatusOr<wl::PipelineResult> ra = Status::Internal("unset");
  StatusOr<wl::PipelineResult> rb = Status::Internal("unset");
  std::thread ta([&] { ra = a.compute_pipeline(*w); });
  std::thread tb([&] { rb = b.compute_pipeline(*w); });
  ta.join();
  tb.join();

  ASSERT_TRUE(ra.ok()) << ra.status().to_string();
  ASSERT_TRUE(rb.ok()) << rb.status().to_string();
  expect_same_pipeline(ref, *ra);
  expect_same_pipeline(ref, *rb);
}

TEST(Engine, MemoizedPipelineIsStablePerEngine) {
  TempDir dir("gpurf_test_cache_memo");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  auto p1 = engine.pipeline("DWT2D");
  auto p2 = engine.pipeline("DWT2D");
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p1, *p2);  // same memo entry, not a recomputation
}

// ------------------------------------------------- versioned disk cache

TEST(Engine, DiskCacheRoundTripAndCorruptionIsStatus) {
  const auto w = wl::make_dwt2d();
  TempDir dir("gpurf_test_cache_disk");

  {
    Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
    ASSERT_TRUE(engine.pipeline(*w).ok());
  }
  const std::string path = wl::pmap_cache_path(*w, dir.path);
  ASSERT_TRUE(fs::exists(path));

  // Round trip.
  tuning::TuneResult perfect, high;
  EXPECT_TRUE(wl::load_pmap_cache(*w, dir.path, perfect, high).ok());
  EXPECT_EQ(perfect.pmap.per_reg.size(), w->kernel().num_regs());

  // Corrupt entry -> kDataLoss, not a crash, and not silently loaded.
  { std::ofstream(path) << "gpurf-pmap 2 1 12345 999999\n1 2\n"; }
  auto st = wl::load_pmap_cache(*w, dir.path, perfect, high);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);

  // Unversioned (pre-ISSUE-3) entry -> kDataLoss.
  { std::ofstream(path) << "32 32\n32 32\n"; }
  st = wl::load_pmap_cache(*w, dir.path, perfect, high);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);

  // Rows outside the Table-3 width set -> kDataLoss.
  {
    std::ofstream out(path);
    out << "gpurf-pmap 2 " << fp::kFormatTableVersion << " "
        << wl::kernel_cache_fingerprint(*w) << " " << w->kernel().num_regs()
        << "\n";
    for (uint32_t r = 0; r < w->kernel().num_regs(); ++r) out << "31 33\n";
  }
  st = wl::load_pmap_cache(*w, dir.path, perfect, high);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);

  // A fresh Engine on the corrupted dir re-tunes and repairs the entry.
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  ASSERT_TRUE(engine.pipeline(*w).ok());
  EXPECT_TRUE(wl::load_pmap_cache(*w, dir.path, perfect, high).ok());
}

// ------------------------------------------------------------ error paths

TEST(Engine, ErrorPathsReturnStatusWithoutTerminating) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));

  auto pr = engine.pipeline("NoSuchKernel");
  ASSERT_FALSE(pr.ok());
  EXPECT_EQ(pr.status().code(), StatusCode::kNotFound);

  auto sim = engine.simulate("NoSuchKernel", wl::SimMode::kOriginal);
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.status().code(), StatusCode::kNotFound);

  auto parsed = engine.parse_kernel("this is not a kernel");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);

  // A kernel that assembles but is ill-typed (s32 source in a float add)
  // fails verification with FailedPrecondition instead of throwing.
  auto k = engine.parse_kernel(R"(
.kernel illtyped
.reg s32 %i
.reg f32 %f
entry:
  add.f32 %f, %i, %i
  ret
)");
  ASSERT_TRUE(k.ok()) << k.status().to_string();
  auto st = engine.verify_kernel(*k);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(Engine, OutOfBoundGpuConfigIsStatus) {
  // EngineOptions::with_gpu is public: a GpuConfig the simulator cannot
  // size its per-SM state for (here more warp schedulers than
  // GpuConfig::kMaxWarpSchedulers) comes back as a Status.
  sim::GpuConfig g = sim::GpuConfig::fermi_gtx480();
  g.warp_schedulers = sim::GpuConfig::kMaxWarpSchedulers + 1;
  Engine engine(
      EngineOptions().with_threads(1).with_disk_cache(false).with_gpu(g));
  SimRequest req;
  req.scale = wl::Scale::kSample;
  auto r = engine.simulate("DWT2D", req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().to_string().find("warp_schedulers"),
            std::string::npos)
      << r.status().to_string();
}

/// A tuner probe that replays a workload's sample instance under a
/// corrupted copy of every candidate map.
class CorruptingProbe final : public tuning::QualityProbe {
 public:
  CorruptingProbe(const wl::Workload& w,
                  std::function<void(exec::PrecisionMap&)> corrupt)
      : w_(w), corrupt_(std::move(corrupt)) {}

  double evaluate(const exec::PrecisionMap& pmap) override {
    exec::PrecisionMap bad = pmap;
    corrupt_(bad);
    auto inst = w_.make_instance(wl::Scale::kSample, 0);
    w_.run(inst, &bad);
    return 0.0;
  }
  bool meets(double, quality::QualityLevel) const override { return true; }

 private:
  const wl::Workload& w_;
  std::function<void(exec::PrecisionMap&)> corrupt_;
};

TEST(Engine, MalformedPrecisionMapIsFailedPrecondition) {
  // The replay checks the map once per launch: a short map or a
  // non-Table-3 format is a precondition failure, not an out-of-range
  // read mid-replay.
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  auto w = engine.workload("DWT2D");
  ASSERT_TRUE(w.ok());
  const std::function<void(exec::PrecisionMap&)> corruptions[] = {
      [](exec::PrecisionMap& m) { m.per_reg.pop_back(); },
      [](exec::PrecisionMap& m) { m.per_reg[0] = fp::FloatFormat{24, 0, 23}; },
  };
  for (const auto& corrupt : corruptions) {
    CorruptingProbe probe(**w, corrupt);
    auto r = engine.tune((*w)->kernel(), probe, quality::QualityLevel::kHigh);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(r.status().to_string().find("precision map"), std::string::npos)
        << r.status().to_string();
  }
}

TEST(Engine, VerifyRejectsUndefinedReadsUnlessWaived) {
  // PR 9: verify_kernel folds the liveness pass in — a register read on
  // some path before any definition is a FailedPrecondition naming the
  // register, with an explicit opt-out for intentionally partial kernels.
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  auto k = engine.parse_kernel(R"(
.kernel undef
.reg s32 %a
.reg s32 %never
entry:
  add.s32 %a, %never, 1
  st.global.s32 [%a], %a
  ret
)");
  ASSERT_TRUE(k.ok()) << k.status().to_string();
  const auto st = engine.verify_kernel(*k);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("never"), std::string::npos) << st.to_string();
  EXPECT_TRUE(engine.verify_kernel(*k, /*allow_undefined_reads=*/true).ok());

  // A clean kernel still verifies, and Engine::analyze agrees on both.
  auto clean = engine.parse_kernel(
      ".kernel ok\n.reg s32 %a\nentry:\n  mov.s32 %a, %tid.x\n"
      "  st.global.s32 [%a], %a\n  ret\n");
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(engine.verify_kernel(*clean).ok());
  auto rep = engine.analyze(*clean);
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  EXPECT_TRUE(rep->clean());
  EXPECT_GT(rep->alloc_pressure, 0u);
  auto bad_rep = engine.analyze(*k);
  ASSERT_TRUE(bad_rep.ok()) << bad_rep.status().to_string();
  ASSERT_EQ(bad_rep->undefined_reads.size(), 1u);
  EXPECT_EQ(bad_rep->reg_names[bad_rep->undefined_reads[0]], "never");

  // The JSON snapshot of a report is well-formed.
  EXPECT_TRUE(api::parse_json(api::to_json(*bad_rep)).ok());
}

// -------------------------------------------------------------- async API

TEST(Engine, AsyncSubmissionsMatchSyncResults) {
  TempDir dir("gpurf_test_cache_async");
  Engine engine(EngineOptions()
                    .with_threads(2)
                    .with_cache_dir(dir.path)
                    .with_async_workers(2)
                    .with_max_inflight(4));

  Job pr_job = engine.submit(JobRequest::pipeline("DWT2D"));
  SimRequest req;
  req.mode = wl::SimMode::kCompressedHigh;
  req.scale = wl::Scale::kSample;
  Job sim_job = engine.submit(JobRequest::simulate("DWT2D", req));
  Job bad_job = engine.submit(JobRequest::pipeline("NoSuchKernel"));
  for (const Job* j : {&pr_job, &sim_job, &bad_job}) j->wait();

  auto async_pr = pr_job.pipeline_result();
  ASSERT_TRUE(async_pr.ok()) << async_pr.status().to_string();
  auto sync_pr = engine.pipeline("DWT2D");
  ASSERT_TRUE(sync_pr.ok());
  expect_same_pipeline(**sync_pr, *async_pr);

  auto async_sim = sim_job.sim_result();
  ASSERT_TRUE(async_sim.ok()) << async_sim.status().to_string();
  EXPECT_GT(async_sim->stats.ipc(), 0.0);
  auto sync_sim = engine.simulate("DWT2D", req);
  ASSERT_TRUE(sync_sim.ok()) << sync_sim.status().to_string();
  EXPECT_EQ(api::to_json(*sync_sim), api::to_json(*async_sim));

  auto bad = bad_job.pipeline_result();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad_job.state(), JobState::kDone);

  EXPECT_EQ(engine.inflight(), 0u);
}

// ---------------------------------------------------------- JSON snapshots

TEST(Engine, JsonSnapshots) {
  TempDir dir("gpurf_test_cache_json");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));

  auto js = engine.pipeline_json("DWT2D");
  ASSERT_TRUE(js.ok()) << js.status().to_string();
  EXPECT_NE(js->find("\"pressure\""), std::string::npos);
  EXPECT_NE(js->find("\"tune_perfect\""), std::string::npos);
  EXPECT_NE(js->find("\"per_reg_bits\""), std::string::npos);
  EXPECT_EQ(js->front(), '{');
  EXPECT_EQ(js->back(), '}');

  SimRequest req;
  req.mode = wl::SimMode::kCompressedHigh;
  req.scale = wl::Scale::kSample;
  auto sim = engine.simulate("DWT2D", req);
  ASSERT_TRUE(sim.ok());
  const std::string sj = api::to_json(*sim);
  EXPECT_NE(sj.find("\"occupancy\""), std::string::npos);
  EXPECT_NE(sj.find("\"ipc\""), std::string::npos);
  EXPECT_NE(sj.find("\"stalls\""), std::string::npos);
}

}  // namespace
}  // namespace gpurf
