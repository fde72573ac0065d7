// Permanent-fault injection (PR 6): the FaultMap model, the allocator's
// compression-directed redirection + graceful spill, the simulator's
// degradation accounting, and the Engine's fault-campaign orchestration.
//
// The two contracts that matter most:
//   * an all-zero fault map is *inert* — allocation and SimStats are
//     bit-identical to the fault-free path at every shard count;
//   * the same seed reproduces the same map, the same allocation and the
//     same SimStats at every shard count (campaigns are reproducible).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "api/engine.hpp"
#include "api/json.hpp"
#include "rf/compressed_rf.hpp"
#include "rf/fault_map.hpp"
#include "sim/gpu.hpp"
#include "testing_util.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf {
namespace {

namespace wl = gpurf::workloads;
namespace fs = std::filesystem;
using gpurf::testing::expect_same_sim_stats;
using gpurf::testing::PoolWidth;

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

// ------------------------------------------------------------- FaultMap

TEST(FaultMap, GenerateIsDeterministicAndSized) {
  const auto a = rf::FaultMap::generate(42, 0.05);
  const auto b = rf::FaultMap::generate(42, 0.05);
  EXPECT_TRUE(a == b);
  // round(0.05 * 2048) sites, all distinct and in canonical order.
  EXPECT_EQ(a.num_faults(), size_t(0.05 * a.total_slice_sites() + 0.5));
  for (size_t i = 1; i < a.faults().size(); ++i) {
    const auto& p = a.faults()[i - 1];
    const auto& q = a.faults()[i];
    EXPECT_TRUE(std::tuple(p.bank, p.row, p.slice) <
                std::tuple(q.bank, q.row, q.slice));
  }
  const auto c = rf::FaultMap::generate(43, 0.05);
  EXPECT_FALSE(a == c) << "different seeds drew identical maps";
  EXPECT_TRUE(rf::FaultMap::generate(42, 0.0).empty());
}

TEST(FaultMap, FaultyMaskMatchesSites) {
  rf::FaultMap fm;
  fm.add_fault(3, 2, 5);  // phys reg = row * banks + bank = 2 * 16 + 3
  fm.add_fault(3, 2, 5);  // idempotent
  fm.add_fault(3, 2, 0);
  EXPECT_EQ(fm.num_faults(), 2u);
  EXPECT_EQ(fm.faulty_mask(2 * 16 + 3), uint8_t((1u << 5) | 1u));
  EXPECT_EQ(fm.faulty_mask(0), 0u);
  EXPECT_EQ(fm.faulty_mask(100000), 0u) << "beyond geometry = fault-free";
  EXPECT_TRUE(fm.is_faulty(3, 2, 5));
  EXPECT_FALSE(fm.is_faulty(3, 2, 1));
}

TEST(FaultMap, JsonRoundTrip) {
  const auto fm = rf::FaultMap::generate(7, 0.1);
  const auto back = rf::FaultMap::from_json(fm.to_json());
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(fm == *back);
  EXPECT_EQ(back->seed(), 7u);

  EXPECT_FALSE(rf::FaultMap::from_json("{}").ok());
  EXPECT_FALSE(rf::FaultMap::from_json("[1,2,3]").ok());
  // Out-of-geometry site must be rejected, not crash later.
  EXPECT_FALSE(rf::FaultMap::from_json(
                   R"({"version":1,"banks":2,"rows":2,"seed":0,)"
                   R"("density":0.1,"faults":[[5,0,0]]})")
                   .ok());
}

// ------------------------------------------- zero-fault map is inert

TEST(FaultAlloc, EmptyMapBitIdenticalForAllWorkloads) {
  const rf::FaultMap empty_map;
  const auto zero_map = rf::FaultMap::generate(99, 0.0);
  for (const auto& w : wl::make_all_workloads()) {
    const auto plain = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                              {false, false});
    const auto with_empty = alloc::allocate_slices(
        w->kernel(), nullptr, nullptr, {false, false, &empty_map});
    const auto with_zero = alloc::allocate_slices(
        w->kernel(), nullptr, nullptr, {false, false, &zero_map});
    EXPECT_TRUE(plain == with_empty) << w->spec().name;
    EXPECT_TRUE(plain == with_zero) << w->spec().name;
    EXPECT_EQ(with_empty.registers_redirected, 0u) << w->spec().name;
    EXPECT_EQ(with_empty.registers_spilled, 0u) << w->spec().name;
  }
}

/// Sample-scale compressed-path timing run with an (optionally
/// fault-aware) untuned slice allocation — the cheap way to drive the
/// redirection/spill timing machinery for every workload without the
/// precision tuner.
sim::SimStats fault_sim_stats(const wl::Workload& w, const rf::FaultMap* fm,
                              int shards) {
  const auto alloc = alloc::allocate_slices(w.kernel(), nullptr, nullptr,
                                            {false, false, fm});
  auto inst = w.make_instance(wl::Scale::kSample, 0);
  wl::PipelineResult pr;
  auto spec = wl::make_launch_spec(w, inst, pr, wl::SimMode::kOriginal);
  spec.regs_per_thread = alloc.total_phys_regs();
  spec.allocation = &alloc;
  sim::SimOptions so;
  so.shards = shards;
  return sim::simulate(sim::GpuConfig::fermi_gtx480(),
                       sim::CompressionConfig::paper_default(), spec, nullptr,
                       so)
      .stats;
}

TEST(FaultSim, ZeroFaultBitIdenticalForAllWorkloadsAndShardCounts) {
  PoolWidth width(4);
  const rf::FaultMap empty_map;
  for (const auto& w : wl::make_all_workloads()) {
    const auto ref = fault_sim_stats(*w, nullptr, 1);
    EXPECT_EQ(ref.fault_redirected_fetches, 0u) << w->spec().name;
    EXPECT_EQ(ref.fault_spill_fetches, 0u) << w->spec().name;
    for (int shards : {1, 4})
      expect_same_sim_stats(
          ref, fault_sim_stats(*w, &empty_map, shards),
          w->spec().name + " empty map T=" + std::to_string(shards));
  }
}

TEST(FaultSim, SameSeedSameStatsAtEveryShardCount) {
  PoolWidth width(4);
  for (const char* name : {"DWT2D", "Hotspot"}) {
    std::unique_ptr<wl::Workload> w;
    for (auto& cand : wl::make_all_workloads())
      if (cand->spec().name == name) w = std::move(cand);
    ASSERT_TRUE(w) << name;
    const auto fm = rf::FaultMap::generate(7, 0.05);
    const auto fm_again = rf::FaultMap::generate(7, 0.05);
    const auto ref = fault_sim_stats(*w, &fm, 1);
    for (int shards : {2, 4})
      expect_same_sim_stats(ref, fault_sim_stats(*w, &fm_again, shards),
                            std::string(name) + " T=" +
                                std::to_string(shards));
  }
}

TEST(FaultSim, RedirectionChargesCyclesNeverCorrupts) {
  // Fix one faulty allocation and vary only the redirection penalty: the
  // schedule must be identical except for the charged cycles, which can
  // only grow with the penalty.  (Comparing against the *fault-free*
  // allocation instead would be unsound — redirection changes register
  // pressure and thus occupancy, which legally moves cycles either way.)
  auto w = wl::make_dwt2d();
  const auto fm = rf::FaultMap::generate(11, 0.10);
  const auto alloc = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                            {false, false, &fm});
  ASSERT_GT(alloc.registers_redirected + alloc.registers_spilled, 0u);
  const auto run = [&](uint32_t penalty) {
    auto inst = w->make_instance(wl::Scale::kSample, 0);
    wl::PipelineResult pr;
    auto spec = wl::make_launch_spec(*w, inst, pr, wl::SimMode::kOriginal);
    spec.regs_per_thread = alloc.total_phys_regs();
    spec.allocation = &alloc;
    auto cc = sim::CompressionConfig::paper_default();
    cc.fault_redirection_cycles = penalty;
    return sim::simulate(sim::GpuConfig::fermi_gtx480(), cc, spec, nullptr,
                         sim::SimOptions{})
        .stats;
  };
  const auto p0 = run(0);
  const auto p4 = run(4);
  EXPECT_GT(p0.fault_redirected_fetches + p0.fault_spill_fetches, 0u);
  EXPECT_GE(p4.cycles, p0.cycles);
  // Functional results are untouched by the penalty: instruction counts
  // and memory traffic match exactly.
  EXPECT_EQ(p4.thread_insts, p0.thread_insts);
  EXPECT_EQ(p4.warp_insts, p0.warp_insts);
  EXPECT_EQ(p4.l1.accesses, p0.l1.accesses);
  EXPECT_EQ(p4.fault_redirected_fetches, p0.fault_redirected_fetches);
  EXPECT_EQ(p4.fault_spill_fetches, p0.fault_spill_fetches);
}

TEST(FaultSim, SpillPortWidthBoundsContention) {
  // Fully-spilled launch (density 1.0): instructions reading several
  // spilled sources contend for the spill store's read ports.  Widening
  // the port count can only reduce the serialization penalty; functional
  // behaviour and spill traffic are untouched.
  auto w = wl::make_dwt2d();
  const auto fm = rf::FaultMap::generate(1, 1.0);
  const auto alloc = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                            {false, false, &fm});
  ASSERT_GT(alloc.registers_spilled, 0u);
  const auto run = [&](uint32_t ports) {
    auto inst = w->make_instance(wl::Scale::kSample, 0);
    wl::PipelineResult pr;
    auto spec = wl::make_launch_spec(*w, inst, pr, wl::SimMode::kOriginal);
    spec.regs_per_thread = alloc.total_phys_regs();
    spec.allocation = &alloc;
    auto cc = sim::CompressionConfig::paper_default();
    cc.spill_ports = ports;
    return sim::simulate(sim::GpuConfig::fermi_gtx480(), cc, spec, nullptr,
                         sim::SimOptions{})
        .stats;
  };
  const auto p1 = run(1);
  const auto p4 = run(4);
  EXPECT_GT(p1.spill_port_conflicts, 0u);
  EXPECT_LT(p4.spill_port_conflicts, p1.spill_port_conflicts);
  EXPECT_LE(p4.cycles, p1.cycles);
  EXPECT_EQ(p4.thread_insts, p1.thread_insts);
  EXPECT_EQ(p4.warp_insts, p1.warp_insts);
  EXPECT_EQ(p4.fault_spill_fetches, p1.fault_spill_fetches);
  // Values < 1 behave as a single port.
  expect_same_sim_stats(p1, run(0), "spill_ports 0 == 1");
}

// --------------------------------------------- allocator fault handling

TEST(FaultAlloc, SaturatedMapSpillsEverythingGracefully) {
  // Density 1.0: every compressed slice is broken — nothing can be
  // placed, everything must degrade to the spill store, nothing aborts.
  auto w = wl::make_dwt2d();
  const auto fm = rf::FaultMap::generate(1, 1.0);
  const auto a = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                        {false, false, &fm});
  EXPECT_EQ(a.registers_redirected, 0u);
  EXPECT_GT(a.registers_spilled, 0u);
  EXPECT_EQ(a.spill_regs, a.registers_spilled);
  EXPECT_EQ(a.fault_coverage_pct(), 0.0);
  for (const auto& e : a.table)
    if (e.valid) {
      EXPECT_TRUE(e.spilled);
      EXPECT_EQ(e.r0.mask, 0xffu);
      EXPECT_EQ(e.float_bits, 32u);
    }
  // The fully-spilled launch still simulates (degraded, not dead).
  const auto st = fault_sim_stats(*w, &fm, 1);
  EXPECT_GT(st.fault_spill_fetches, 0u);
  EXPECT_GT(st.cycles, 0u);
}

TEST(FaultAlloc, ModerateMapPrefersRedirectionOverSpill) {
  auto w = wl::make_dwt2d();
  const auto fm = rf::FaultMap::generate(3, 0.05);
  const auto plain = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                            {false, false});
  const auto a = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                        {false, false, &fm});
  // At 5% faulty slices the freed space absorbs the faults in place.
  EXPECT_GT(a.registers_redirected, 0u);
  EXPECT_GE(a.fault_coverage_pct(), 50.0);
  EXPECT_GE(a.num_physical_regs, plain.num_physical_regs);
  // No operand may sit on a faulty slice.
  for (const auto& e : a.table) {
    if (!e.valid || e.spilled) continue;
    EXPECT_EQ(e.r0.mask & fm.faulty_mask(e.r0.phys_reg), 0u);
    if (e.split) {
      EXPECT_EQ(e.r1.mask & fm.faulty_mask(e.r1.phys_reg), 0u);
    }
  }
}

// --------------------------------------------------- spill-store RF path

TEST(CompressedRfSpill, SpilledOperandRoundTripsFullWidth) {
  std::vector<alloc::IndirectionEntry> table(2);
  // Entry 0: a normal full-width resident of physical register 0.
  table[0] = {true, {0, 0xff}, {}, false, 8, false, false, 32};
  // Entry 1: spilled to slot 0 of the uncompressed store.
  table[1] = {true, {0, 0xff}, {}, false, 8, false, false, 32,
              /*redirected=*/false, /*spilled=*/true};
  rf::CompressedRegisterFile crf(table, 1, 2);

  rf::WarpRegister a{}, b{};
  for (int l = 0; l < 32; ++l) {
    a[l] = 0xAAAA0000u + uint32_t(l);
    b[l] = 0xDEAD0000u + uint32_t(l);  // full 32-bit payload, no narrowing
  }
  crf.write_operand(0, 0, a);
  crf.write_operand(0, 1, b);
  crf.write_operand(1, 1, a);  // per-warp spill copies are independent
  const auto ra = crf.read_operand(0, 0);
  const auto rb = crf.read_operand(0, 1);
  const auto rc = crf.read_operand(1, 1);
  for (int l = 0; l < 32; ++l) {
    EXPECT_EQ(ra[l], a[l]) << "resident lane " << l;
    EXPECT_EQ(rb[l], b[l]) << "spilled lane " << l;
    EXPECT_EQ(rc[l], a[l]) << "warp-1 spilled lane " << l;
  }
  EXPECT_EQ(crf.stats().spill_accesses, 4u);  // 2 writes + 2 reads
}

// -------------------------------------------------- Engine fault path

TEST(EngineFault, ZeroDensityBitIdenticalAndOriginalModeRejected) {
  TempDir dir("gpurf_test_cache_fault0");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  SimRequest req;
  req.mode = wl::SimMode::kCompressedPerfect;
  req.scale = wl::Scale::kSample;
  auto plain = engine.simulate("DWT2D", req);
  ASSERT_TRUE(plain.ok()) << plain.status().to_string();

  req.fault.seed = 5;
  req.fault.density = 0.0;  // zero density = injection disabled
  auto zero = engine.simulate("DWT2D", req);
  ASSERT_TRUE(zero.ok());
  expect_same_sim_stats(plain->stats, zero->stats, "zero-density");
  EXPECT_FALSE(zero->fault.active);

  req.fault.density = 0.05;
  req.mode = wl::SimMode::kOriginal;
  auto bad = engine.simulate("DWT2D", req);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineFault, InjectionReportsDegradationDeterministically) {
  TempDir dir("gpurf_test_cache_fault1");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  SimRequest req;
  req.mode = wl::SimMode::kCompressedPerfect;
  req.scale = wl::Scale::kSample;
  req.fault.seed = 13;
  req.fault.density = 0.05;
  auto a = engine.simulate("DWT2D", req);
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  EXPECT_TRUE(a->fault.active);
  EXPECT_EQ(a->fault.seed, 13u);
  EXPECT_GT(a->fault.faults_total, 0u);
  EXPECT_GE(a->fault.coverage_pct, 0.0);
  EXPECT_LE(a->fault.coverage_pct, 100.0);

  // Same seed, different shard count: identical map, identical stats.
  req.sim_shards = 4;
  auto b = engine.simulate("DWT2D", req);
  ASSERT_TRUE(b.ok());
  expect_same_sim_stats(a->stats, b->stats, "faulty T=4");
  EXPECT_TRUE(a->fault == b->fault);

  // The JSON snapshot carries the report and stays well-formed.
  const std::string js = api::to_json(*a);
  EXPECT_NE(js.find("\"fault\""), std::string::npos);
  EXPECT_NE(js.find("\"coverage_pct\""), std::string::npos);
  EXPECT_TRUE(api::parse_json(js).ok());
}

// ------------------------------------------------------ fault campaigns

TEST(FaultCampaign, SweepCompletesWithProgressAndMonotoneDensities) {
  TempDir dir("gpurf_test_cache_camp");
  Engine engine(EngineOptions()
                    .with_threads(2)
                    .with_cache_dir(dir.path)
                    .with_async_workers(2)
                    .with_max_inflight(4));
  FaultCampaignRequest creq;
  creq.sim.mode = wl::SimMode::kCompressedPerfect;
  creq.sim.scale = wl::Scale::kSample;
  creq.densities = {0.01, 0.05};
  creq.maps_per_density = 2;
  creq.base_seed = 21;
  Job job = engine.submit(JobRequest::fault_campaign("DWT2D", creq));
  EXPECT_EQ(job.kind(), JobKind::kFaultCampaign);
  job.wait();
  ASSERT_EQ(job.state(), JobState::kDone) << job.status().to_string();

  const JobProgress p = job.progress();
  EXPECT_EQ(p.campaign_maps_total, 4);
  EXPECT_EQ(p.campaign_maps_done, 4);

  auto res = job.campaign_result();
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  ASSERT_EQ(res->points.size(), 4u);
  uint32_t prev_faults = 0;
  for (size_t i = 0; i < res->points.size(); ++i) {
    const auto& pt = res->points[i];
    EXPECT_EQ(pt.state, JobState::kDone) << pt.error;
    EXPECT_TRUE(pt.fault.active);
    EXPECT_GT(pt.cycles, 0u);
    if (i >= 2) {  // density-major order: the 0.05 points inject more
      EXPECT_GE(pt.fault.faults_total, prev_faults);
      prev_faults = pt.fault.faults_total;
    }
  }
  // Two maps at one density must differ (distinct derived seeds).
  EXPECT_NE(res->points[0].seed, res->points[1].seed);

  const std::string js = api::to_json(*res);
  EXPECT_NE(js.find("\"points\""), std::string::npos);
  EXPECT_TRUE(api::parse_json(js).ok());

  // A campaign over the baseline RF is rejected, not run.
  FaultCampaignRequest orig = creq;
  orig.sim.mode = wl::SimMode::kOriginal;
  Job bad = engine.submit(JobRequest::fault_campaign("DWT2D", orig));
  bad.wait();
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultCampaign, QualityFloorTruncatesTheSweep) {
  // With re-tuning on, dense maps trade precision for placement, so the
  // perfect-quality delta turns strictly positive; an (absurdly low)
  // quality floor must then stop the sweep at the first density and mark
  // the result truncated.  Whether the higher-density children were still
  // cancellable is a race we deliberately don't pin down — truncation
  // metadata is the contract.
  TempDir dir("gpurf_test_cache_camp_floor");
  Engine engine(EngineOptions()
                    .with_threads(2)
                    .with_cache_dir(dir.path)
                    .with_async_workers(1)
                    .with_max_inflight(2));
  FaultCampaignRequest creq;
  creq.sim.mode = wl::SimMode::kCompressedPerfect;
  creq.sim.scale = wl::Scale::kSample;
  creq.sim.retune_on_faults = true;
  creq.densities = {0.9, 0.95};
  creq.maps_per_density = 2;
  creq.base_seed = 33;
  creq.quality_floor = 1e-12;
  Job job = engine.submit(JobRequest::fault_campaign("SSAO", creq));
  job.wait();
  ASSERT_EQ(job.state(), JobState::kDone) << job.status().to_string();
  auto res = job.campaign_result();
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  ASSERT_EQ(res->points.size(), 4u);
  // The floor forces quality scoring on even though the request didn't.
  ASSERT_EQ(res->points[0].state, JobState::kDone) << res->points[0].error;
  EXPECT_TRUE(res->points[0].fault.quality_scored);
  EXPECT_TRUE(res->truncated);
  EXPECT_EQ(res->truncated_at_density, 0.9);
  const std::string js = api::to_json(*res);
  EXPECT_NE(js.find("\"truncated\":true"), std::string::npos) << js;
  EXPECT_NE(js.find("\"truncated_at_density\""), std::string::npos);
  EXPECT_TRUE(api::parse_json(js).ok());

  // Without a floor the same sweep runs to completion untruncated (some
  // points may individually fail at these extreme densities — that's a
  // per-point outcome, not a truncation).
  creq.quality_floor = 0.0;
  Job all = engine.submit(JobRequest::fault_campaign("SSAO", creq));
  all.wait();
  ASSERT_EQ(all.state(), JobState::kDone) << all.status().to_string();
  auto full = all.campaign_result();
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated);
  EXPECT_EQ(full->points.size(), 4u);
}

TEST(FaultCampaign, EmptyDensityListIsInvalidArgument) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  FaultCampaignRequest creq;
  creq.sim.mode = wl::SimMode::kCompressedPerfect;
  creq.densities.clear();
  Job job = engine.submit(JobRequest::fault_campaign("DWT2D", creq));
  job.wait();
  EXPECT_EQ(job.state(), JobState::kDone);
  EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(job.status().message(),
            "fault campaign 'DWT2D' has no density points");
  EXPECT_EQ(job.progress().campaign_maps_total, 0);
  EXPECT_EQ(engine.metrics_snapshot().jobs_submitted, 1u);  // no children
}

TEST(FaultCampaign, OverPointCapIsRejectedBeforeAnyChild) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  FaultCampaignRequest creq;
  creq.sim.mode = wl::SimMode::kCompressedPerfect;
  creq.sim.scale = wl::Scale::kSample;
  creq.densities = {0.01, 0.02};
  creq.maps_per_density = static_cast<int>(kMaxCampaignPoints / 2 + 1);
  // The deadline only bounds the run should the cap ever stop holding.
  Job job = engine.submit(
      JobRequest::fault_campaign("DWT2D", creq).with_deadline_ms(2000));
  job.wait();
  EXPECT_EQ(job.state(), JobState::kDone);
  EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(job.status().message(),
            "fault campaign 'DWT2D' has " +
                std::to_string(kMaxCampaignPoints + 2) + " points (at most " +
                std::to_string(kMaxCampaignPoints) + ")");
  EXPECT_EQ(job.progress().campaign_maps_total, 0);
  EXPECT_EQ(engine.metrics_snapshot().jobs_submitted, 1u);  // no children
  creq.densities.clear();
  Job next = engine.submit(JobRequest::fault_campaign("DWT2D", creq));
  EXPECT_EQ(next.id(), job.id() + 1);  // no child took an id
  next.wait();
}

TEST(FaultCampaign, CancelLeavesNoPartialCacheState) {
  TempDir dir("gpurf_test_cache_camp_cancel");
  {
    Engine engine(EngineOptions()
                      .with_threads(2)
                      .with_cache_dir(dir.path)
                      .with_async_workers(2)
                      .with_max_inflight(2));
    FaultCampaignRequest creq;
    creq.sim.mode = wl::SimMode::kCompressedPerfect;
    creq.sim.scale = wl::Scale::kSample;
    creq.densities = {0.01, 0.02, 0.05};
    creq.maps_per_density = 4;
    Job job = engine.submit(JobRequest::fault_campaign("DWT2D", creq));
    job.cancel();
    job.wait();
    EXPECT_TRUE(job.state() == JobState::kCancelled ||
                job.state() == JobState::kDone);
    EXPECT_EQ(engine.inflight(), 0u);
  }
  // Whatever the cancel interrupted, the disk cache holds no half-written
  // entries: stores go through a rename from a .tmp that is cleaned up.
  for (const auto& entry : fs::recursive_directory_iterator(dir.path))
    EXPECT_EQ(entry.path().extension(), ".pmap")
        << "unexpected cache residue: " << entry.path();
}

// ------------------------------------------- degraded disk-cache dir

TEST(EngineFault, UnwritableCacheDirDegradesToMemoryOnce) {
  // A regular *file* where the cache directory should be: every store
  // fails, the Engine must latch the cache off and keep serving.
  const std::string bogus = "./gpurf_test_cache_not_a_dir";
  std::remove(bogus.c_str());
  { std::ofstream f(bogus); f << "occupied"; }
  {
    Engine engine(EngineOptions().with_threads(2).with_cache_dir(bogus));
    auto pr = engine.pipeline("DWT2D");
    ASSERT_TRUE(pr.ok()) << pr.status().to_string();
    const std::string m = engine.metrics_json();
    EXPECT_NE(m.find("\"disk_cache_disabled\":true"), std::string::npos) << m;
    EXPECT_EQ(m.find("\"disk_cache_write_failures\":0"), std::string::npos)
        << m;
    // Still serving: a second pipeline (memoized) and a simulation.
    SimRequest req;
    req.mode = wl::SimMode::kCompressedPerfect;
    req.scale = wl::Scale::kSample;
    auto sim = engine.simulate("DWT2D", req);
    EXPECT_TRUE(sim.ok()) << sim.status().to_string();
  }
  std::remove(bogus.c_str());
}

}  // namespace
}  // namespace gpurf
