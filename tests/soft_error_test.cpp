// Transient soft-error injection (PR 7): the Poisson flip process, the
// static vulnerability model, the simulator's flip application, the
// Engine's AVF report and transient campaigns.
//
// The contracts that matter most:
//   * flip-rate 0 draws no random numbers — such runs are bit-identical
//     to fault-free references at every shard count;
//   * the same (rate, seed) reproduces the same flip trace, the same
//     SimStats and the same SoftErrorReport at shard counts {1, 2, 4};
//   * flips on dead registers are provably masked — they never become
//     architecturally visible and leave the output untouched.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "api/engine.hpp"
#include "api/json.hpp"
#include "exec/kernel_analysis.hpp"
#include "sim/gpu.hpp"
#include "sim/soft_error.hpp"
#include "testing_util.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf {
namespace {

namespace wl = gpurf::workloads;
namespace fs = std::filesystem;
using gpurf::testing::expect_same_sim_stats;

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

// ------------------------------------------------------ SoftErrorProcess

TEST(SoftErrorProcess, ZeroRateDrawsNothing) {
  sim::SoftErrorSpec spec;  // flips_per_mcycle = 0
  spec.seed = 12345;
  sim::SoftErrorProcess p(spec, 15, 48);
  sim::FlipSite f;
  for (uint64_t c = 0; c < 100000; ++c) EXPECT_FALSE(p.next_flip(c, &f));
}

TEST(SoftErrorProcess, DeterministicTraceWithinGeometry) {
  sim::SoftErrorSpec spec;
  spec.flips_per_mcycle = 100000.0;  // 0.1 flips/cycle
  spec.seed = 7;
  const uint32_t sms = 15, slots = 48, cycles = 20000;
  sim::SoftErrorProcess a(spec, sms, slots), b(spec, sms, slots);
  uint64_t n = 0;
  for (uint64_t c = 0; c < cycles; ++c) {
    sim::FlipSite fa, fb;
    while (a.next_flip(c, &fa)) {
      ASSERT_TRUE(b.next_flip(c, &fb)) << "trace diverged at cycle " << c;
      EXPECT_EQ(fa.sm, fb.sm);
      EXPECT_EQ(fa.warp_slot, fb.warp_slot);
      EXPECT_EQ(fa.phys_reg, fb.phys_reg);
      EXPECT_EQ(fa.slice, fb.slice);
      EXPECT_EQ(fa.lane, fb.lane);
      EXPECT_EQ(fa.bit, fb.bit);
      EXPECT_LT(fa.sm, sms);
      EXPECT_LT(fa.warp_slot, slots);
      EXPECT_LT(fa.phys_reg, sim::kSoftPhysRegSpace);
      EXPECT_LT(fa.slice, sim::kSoftSlicesPerReg);
      EXPECT_LT(fa.lane, 32u);
      EXPECT_LT(fa.bit, sim::kSoftBitsPerSlice);
      ++n;
    }
    sim::FlipSite unused;
    EXPECT_FALSE(b.next_flip(c, &unused));
  }
  // Poisson with mean 2000: a +/- 50% band is > 20 standard deviations.
  EXPECT_GT(n, 1000u);
  EXPECT_LT(n, 3000u);

  // A different seed draws a different trace.
  const auto trace = [&](uint64_t seed) {
    sim::SoftErrorSpec s = spec;
    s.seed = seed;
    sim::SoftErrorProcess p(s, sms, slots);
    std::vector<uint32_t> sites;
    sim::FlipSite f;
    for (uint64_t c = 0; c < 1000 && sites.size() < 50; ++c)
      while (p.next_flip(c, &f))
        sites.push_back((f.phys_reg << 8) | (f.lane << 3) | (f.slice & 7));
    return sites;
  };
  EXPECT_NE(trace(7), trace(8));
}

// -------------------------------------------------------- SoftErrorModel

TEST(SoftErrorModel, BaselineCorruptIsRawBitFlip) {
  auto w = wl::make_dwt2d();
  exec::KernelAnalysis ka(w->kernel());
  sim::SoftErrorModel m(w->kernel(), ka, nullptr);
  const uint32_t v = 0x3f8a5c3eu;
  for (uint32_t slice = 0; slice < sim::kSoftSlicesPerReg; ++slice)
    for (uint32_t bit = 0; bit < sim::kSoftBitsPerSlice; ++bit)
      EXPECT_EQ(m.corrupt(v, 0, false, slice, bit),
                v ^ (1u << (slice * 4 + bit)));
}

TEST(SoftErrorModel, CompressedOwnersRespectAllocationMasks) {
  auto w = wl::make_dwt2d();
  exec::KernelAnalysis ka(w->kernel());
  const auto alloc =
      alloc::allocate_slices(w->kernel(), nullptr, nullptr, {false, false});
  sim::SoftErrorModel m(w->kernel(), ka, &alloc);
  // Every (site -> owner) edge must point back to a slice the owner's
  // allocation mask actually covers.
  for (uint32_t pr = 0; pr < sim::kSoftPhysRegSpace; ++pr) {
    for (uint32_t s = 0; s < sim::kSoftSlicesPerReg; ++s) {
      for (const auto& o : m.owners(pr, s)) {
        ASSERT_LT(o.reg, alloc.table.size());
        const auto& e = alloc.table[o.reg];
        ASSERT_TRUE(e.valid && !e.spilled);
        const auto& loc = o.second_piece ? e.r1 : e.r0;
        EXPECT_EQ(loc.phys_reg, pr);
        EXPECT_NE(loc.mask & (1u << s), 0u);
      }
    }
  }
  // The corruption round-trip only ever changes the value through the
  // stored encoding: re-flipping the same bit restores the original when
  // the register is stored full-width.
  for (uint32_t r = 0; r < alloc.table.size(); ++r) {
    const auto& e = alloc.table[r];
    if (!e.valid || e.spilled || e.float_bits != 32 || e.split) continue;
    const uint32_t v = 0xc0ffee42u;
    const uint32_t c = m.corrupt(v, r, false, 0, 1);
    EXPECT_NE(c, v);
    EXPECT_EQ(m.corrupt(c, r, false, 0, 1), v);
    break;
  }
}

// ----------------------------------------------------- Engine: soft runs

TEST(SoftSim, ZeroRateBitIdenticalAtEveryShardCount) {
  TempDir dir("gpurf_test_cache_soft0");
  Engine engine(EngineOptions().with_threads(4).with_cache_dir(dir.path));
  for (auto mode : {wl::SimMode::kOriginal, wl::SimMode::kCompressedPerfect}) {
    SimRequest req;
    req.mode = mode;
    req.scale = wl::Scale::kSample;
    auto ref = engine.simulate("DWT2D", req);
    ASSERT_TRUE(ref.ok()) << ref.status().to_string();
    EXPECT_FALSE(ref->soft.active);
    for (int shards : {1, 2, 4}) {
      SimRequest z = req;
      z.sim_shards = shards;
      z.soft.seed = 99;  // the seed alone must not matter at rate 0
      auto zr = engine.simulate("DWT2D", z);
      ASSERT_TRUE(zr.ok());
      expect_same_sim_stats(ref->stats, zr->stats,
                            "rate 0 T=" + std::to_string(shards));
      EXPECT_FALSE(zr->soft.active);
    }
  }
}

TEST(SoftSim, ExposureTrackingDoesNotPerturbTheRun) {
  TempDir dir("gpurf_test_cache_softexp");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  SimRequest req;
  req.mode = wl::SimMode::kCompressedPerfect;
  req.scale = wl::Scale::kSample;
  auto ref = engine.simulate("DWT2D", req);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();

  req.soft.track_exposure = true;
  auto e = engine.simulate("DWT2D", req);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->soft.active);
  EXPECT_EQ(e->soft.flips_injected, 0u);
  EXPECT_GT(e->soft.live_bit_cycles, 0u);
  sim::SimStats masked = e->stats;
  masked.soft_live_bit_cycles = 0;
  masked.soft_static_live_bit_cycles = 0;
  expect_same_sim_stats(ref->stats, masked, "exposure tracking");

  // The exposure integral itself is shard-invariant.
  for (int shards : {2, 4}) {
    SimRequest s = req;
    s.sim_shards = shards;
    auto r = engine.simulate("DWT2D", s);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->soft.live_bit_cycles, e->soft.live_bit_cycles)
        << "T=" << shards;
  }
}

TEST(SoftSim, SameSeedSameTraceAndStatsAtShards124) {
  TempDir dir("gpurf_test_cache_softdet");
  Engine engine(EngineOptions().with_threads(4).with_cache_dir(dir.path));
  SimRequest req;
  req.mode = wl::SimMode::kCompressedPerfect;
  req.scale = wl::Scale::kSample;
  req.soft.flips_per_mcycle = 100000.0;
  req.soft.seed = 3;
  req.sim_shards = 1;
  auto ref = engine.simulate("DWT2D", req);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  EXPECT_TRUE(ref->soft.active);
  EXPECT_GT(ref->soft.flips_injected, 0u);
  EXPECT_EQ(ref->soft.flips_injected,
            ref->soft.flips_on_live + ref->soft.flips_masked_dead);
  EXPECT_LE(ref->soft.flips_visible, ref->soft.flips_on_live);
  // Static classification (PR 9): provably-dead strikes are a subset of
  // the dynamically masked ones, and the static exposure integral is an
  // upper bound of the dynamic live-bit integral.
  EXPECT_LE(ref->soft.flips_static_dead, ref->soft.flips_masked_dead);
  EXPECT_GE(ref->soft.static_live_bit_cycles, ref->soft.live_bit_cycles);
  EXPECT_GT(ref->soft.static_live_bit_cycles, 0u);
  EXPECT_EQ(ref->soft.seed, 3u);

  for (int shards : {2, 4}) {
    SimRequest s = req;
    s.sim_shards = shards;
    auto r = engine.simulate("DWT2D", s);
    ASSERT_TRUE(r.ok());
    expect_same_sim_stats(ref->stats, r->stats,
                          "soft T=" + std::to_string(shards));
    EXPECT_TRUE(ref->soft == r->soft) << "T=" << shards;
    EXPECT_LE(r->soft.flips_static_dead, r->soft.flips_masked_dead)
        << "T=" << shards;
  }

  // A different seed lands a different trace (counters almost surely
  // differ; at minimum the report does).
  SimRequest other = req;
  other.soft.seed = 4;
  auto r4 = engine.simulate("DWT2D", other);
  ASSERT_TRUE(r4.ok());
  EXPECT_FALSE(ref->soft == r4->soft);

  // The JSON snapshot carries the soft report and stays well-formed.
  const std::string js = api::to_json(*ref);
  EXPECT_NE(js.find("\"soft\""), std::string::npos);
  EXPECT_NE(js.find("\"flips_injected\""), std::string::npos);
  EXPECT_TRUE(api::parse_json(js).ok());
}

TEST(SoftSim, DeadRegisterFlipsProvablyMasked) {
  // Find a deterministic run whose every flip lands on dead bits: such a
  // run must report zero visible flips and an output bit-identical to the
  // flip-free replay (quality delta exactly 0).
  TempDir dir("gpurf_test_cache_softdead");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  bool found = false;
  for (uint64_t seed = 1; seed <= 20 && !found; ++seed) {
    SimRequest req;
    req.mode = wl::SimMode::kOriginal;
    req.scale = wl::Scale::kSample;
    req.soft.flips_per_mcycle = 10000.0;
    req.soft.seed = seed;
    req.soft_score_quality = true;
    auto r = engine.simulate("DWT2D", req);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    if (r->soft.flips_injected == 0 || r->soft.flips_on_live != 0) continue;
    found = true;
    EXPECT_EQ(r->soft.flips_masked_dead, r->soft.flips_injected);
    EXPECT_EQ(r->soft.flips_visible, 0u);
    ASSERT_TRUE(r->soft.quality_scored);
    EXPECT_EQ(r->soft.quality_delta, 0.0)
        << "dead flips changed the output (seed " << seed << ")";
    EXPECT_EQ(r->soft.quality_faulty, r->soft.quality_fault_free);
  }
  EXPECT_TRUE(found)
      << "no all-dead flip trace among seeds 1..20 — geometry changed?";
}

// ------------------------------------------------- transient campaigns

TEST(TransientCampaign, SweepCompletesDeterministicallyAndSerializes) {
  TempDir dir("gpurf_test_cache_tcamp");
  Engine engine(EngineOptions()
                    .with_threads(2)
                    .with_cache_dir(dir.path)
                    .with_async_workers(2)
                    .with_max_inflight(4));
  TransientCampaignRequest creq;
  creq.sim.mode = wl::SimMode::kCompressedPerfect;
  creq.sim.scale = wl::Scale::kSample;
  creq.flip_rates = {5000.0, 20000.0};
  creq.seeds_per_rate = 2;
  creq.base_seed = 17;
  Job job = engine.submit(JobRequest::transient_campaign("DWT2D", creq));
  EXPECT_EQ(job.kind(), JobKind::kTransientCampaign);
  job.wait();
  ASSERT_EQ(job.state(), JobState::kDone) << job.status().to_string();

  const JobProgress p = job.progress();
  EXPECT_EQ(p.campaign_maps_total, 4);
  EXPECT_EQ(p.campaign_maps_done, 4);

  auto res = job.transient_result();
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(res->workload, "DWT2D");
  ASSERT_EQ(res->points.size(), 4u);
  // Rate-major order with distinct derived seeds.
  EXPECT_EQ(res->points[0].flips_per_mcycle, 5000.0);
  EXPECT_EQ(res->points[3].flips_per_mcycle, 20000.0);
  EXPECT_NE(res->points[0].seed, res->points[1].seed);
  for (const auto& pt : res->points) {
    EXPECT_EQ(pt.state, JobState::kDone) << pt.error;
    EXPECT_TRUE(pt.soft.active);
    EXPECT_EQ(pt.soft.flips_injected,
              pt.soft.flips_on_live + pt.soft.flips_masked_dead);
    // Static classification (PR 9): a flip the dataflow pass proves dead
    // is a subset of what the dynamic model masks, and the static
    // exposure integral upper-bounds the dynamic one.
    EXPECT_LE(pt.soft.flips_static_dead, pt.soft.flips_masked_dead);
    EXPECT_GE(pt.soft.static_live_bit_cycles, pt.soft.live_bit_cycles);
    EXPECT_GT(pt.cycles, 0u);
  }

  const std::string js = api::to_json(*res);
  EXPECT_NE(js.find("\"points\""), std::string::npos);
  EXPECT_NE(js.find("\"flips_per_mcycle\""), std::string::npos);
  EXPECT_TRUE(api::parse_json(js).ok());

  // The accessor is typed: a transient campaign has no fault-campaign
  // result and vice versa.
  EXPECT_FALSE(job.campaign_result().ok());
}

TEST(TransientCampaign, EmptyRateListIsInvalidArgument) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  TransientCampaignRequest creq;
  creq.flip_rates.clear();
  Job job = engine.submit(JobRequest::transient_campaign("DWT2D", creq));
  job.wait();
  EXPECT_EQ(job.state(), JobState::kDone);
  EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(job.status().message(),
            "transient campaign 'DWT2D' has no flip-rate points");
  EXPECT_EQ(job.progress().campaign_maps_total, 0);
  EXPECT_EQ(engine.metrics_snapshot().jobs_submitted, 1u);  // no children
}

TEST(TransientCampaign, OverPointCapIsRejectedBeforeAnyChild) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  TransientCampaignRequest creq;
  creq.sim.mode = wl::SimMode::kCompressedPerfect;
  creq.sim.scale = wl::Scale::kSample;
  creq.flip_rates = {10.0};
  creq.seeds_per_rate = static_cast<int>(kMaxCampaignPoints + 1);
  // The deadline only bounds the run should the cap ever stop holding.
  Job job = engine.submit(
      JobRequest::transient_campaign("DWT2D", creq).with_deadline_ms(2000));
  job.wait();
  EXPECT_EQ(job.state(), JobState::kDone);
  EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(job.status().message(),
            "transient campaign 'DWT2D' has " +
                std::to_string(kMaxCampaignPoints + 1) + " points (at most " +
                std::to_string(kMaxCampaignPoints) + ")");
  EXPECT_EQ(job.progress().campaign_maps_total, 0);
  EXPECT_EQ(engine.metrics_snapshot().jobs_submitted, 1u);  // no children
  creq.flip_rates.clear();
  Job next = engine.submit(JobRequest::transient_campaign("DWT2D", creq));
  EXPECT_EQ(next.id(), job.id() + 1);  // no child took an id
  next.wait();

  // A sweep exactly at the cap is accepted (cancelled here before it
  // gets far).
  creq.flip_rates = {10.0};
  creq.seeds_per_rate = static_cast<int>(kMaxCampaignPoints);
  Job at_cap = engine.submit(JobRequest::transient_campaign("DWT2D", creq));
  while (at_cap.progress().campaign_maps_total == 0 && !at_cap.done())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(at_cap.progress().campaign_maps_total, kMaxCampaignPoints);
  at_cap.cancel();
  at_cap.wait();
  EXPECT_EQ(at_cap.state(), JobState::kCancelled);
}

TEST(TransientCampaign, CancelStopsEveryChild) {
  // A fresh Engine with no disk cache: the first child spends its time
  // tuning, so the cancel lands while every child is queued or running.
  Engine engine(EngineOptions()
                    .with_threads(2)
                    .with_disk_cache(false)
                    .with_async_workers(1)
                    .with_max_inflight(32));
  TransientCampaignRequest creq;
  creq.sim.mode = wl::SimMode::kCompressedPerfect;
  creq.sim.scale = wl::Scale::kSample;
  creq.flip_rates = {10.0, 100.0, 1000.0};
  creq.seeds_per_rate = 4;
  Job job = engine.submit(JobRequest::transient_campaign("SSAO", creq));
  // Cancel once the sweep has started (not before the orchestrator runs).
  while (job.progress().campaign_maps_total == 0 && !job.done())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  job.cancel();
  job.wait();
  EXPECT_EQ(job.state(), JobState::kCancelled) << job.status().to_string();
  EXPECT_EQ(job.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(job.transient_result().ok());

  // Ids are dense, so the children are the ids after the parent's.  The
  // parent finalizes only after every child it submitted is terminal.
  int children = 0;
  for (uint64_t id = job.id() + 1;; ++id) {
    auto child = engine.find_job(id);
    if (!child.ok()) break;
    ++children;
    EXPECT_EQ(child->kind(), JobKind::kSimulate);
    EXPECT_EQ(child->state(), JobState::kCancelled) << "child " << id;
  }
  EXPECT_GE(children, 1);
  EXPECT_LE(children, 12);
  // Cancelled-while-queued children hand their slot back when the
  // executor pops them; nothing is left running.
  for (int i = 0; i < 500 && engine.inflight() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(engine.inflight(), 0u);
}

}  // namespace
}  // namespace gpurf
