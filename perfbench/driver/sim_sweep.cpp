// sim-sweep: a warm-start Engine (precision maps from the benchmark's own
// disk cache) runs a batch of full-scale timing simulations, then four
// sample-scale campaigns.  The time goes to the cycle-level simulator, the
// register-file model and the campaign driver; the tuner does nothing.
//
// The seed picks the full-scale instance variant and the campaigns'
// base_seed.  Every SimResult and campaign result must match its reference.
//
// The Engine, and so every job, runs on half the CPUs (sim_threads).
//
// Traced: spans around each job and campaign, plus direct sim::simulate
// calls on one launch at shards = sim_threads() and shards = 1 (which must
// give bit-identical SimStats) for the simulator's per-cycle cost.

#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "workloads/pipeline.hpp"

namespace pb {
namespace {

namespace wl = gpurf::workloads;
using wl::SimMode;

const std::vector<std::string> kKernels = {"IMGVF", "CFD", "Hybridsort",
                                           "SSAO"};
const std::vector<std::string> kCampaignKernels = {"SSAO", "CFD"};
const std::vector<std::pair<SimMode, const char*>> kModes = {
    {SimMode::kOriginal, "original"},
    {SimMode::kCompressedPerfect, "perfect"},
    {SimMode::kCompressedHigh, "high"}};

/// The sweep's Engine width, and so every job's shard count: half the CPUs.
/// The simulator's shards meet at a spin-then-yield barrier every cycle, so
/// one preempted shard stalls them all.  On a 4-vCPU host with shards =
/// nproc, one other busy thread made the sweep 4x slower and two 8x; at
/// half the CPUs the same load cost 1% and 11%.
int sim_threads() { return std::max(1, nproc() / 2); }

/// Launch used for the serial-vs-sharded comparison in the traced run
/// (compressed-high mode).
constexpr const char* kShardProbeKernel = "CFD";

std::string sim_value(const gpurf::sim::SimResult& r) {
  return std::to_string(r.stats.cycles) + ":" +
         digest(gpurf::api::to_json(r));
}

}  // namespace

Report run_sim_sweep(const Options& o) {
  Report rep;
  const int threads = sim_threads();
  const std::string cache_dir = o.work_dir + "/pmap_cache";
  gpurf::Engine engine(gpurf::EngineOptions()
                           .with_threads(threads)
                           .with_cache_dir(cache_dir)
                           .with_disk_cache(true));
  for (const auto& name : kKernels) {
    Span s("workloads.pipeline");
    auto pr = engine.pipeline(name);
    if (!pr.ok()) rep.op("pipeline " + name + ": " + pr.status().to_string());
  }
  rep.setup_s = now_s() - o.t0;
  if (o.setup_only) return rep;

  // Two full-scale variants x four campaign seeds: eight input sets, so
  // seeds 0..7 cover every reference value.
  const uint32_t variant = static_cast<uint32_t>(o.seed % 2);
  const uint64_t base_seed = 1 + (o.seed / 2) % 4;

  References refs(o, "sim-sweep");
  // One op per job and per campaign, between host-speed probes.
  ProbedOps ops(rep, threads, ProbeShape::kJoin,
                [] { return self_usage().cpu_s; });
  CpuSampler sampler(::getpid());
  ops.exclude_from(sampler);

  // Full-scale jobs, one in flight at a time: each already spreads over
  // the Engine's threads, and concurrent sharded jobs only contend.
  struct Submitted {
    std::string key;
    std::string kernel;
    SimMode mode;
    gpurf::Job job;
  };
  std::vector<Submitted> jobs;
  for (const auto& name : kKernels)
    for (const auto& [mode, mode_name] : kModes) {
      gpurf::SimRequest req;
      req.mode = mode;
      req.scale = wl::Scale::kFull;
      req.variant = variant;
      ops.begin();
      jobs.push_back({"sim/" + name + "/" + mode_name + "/v" +
                          std::to_string(variant),
                      name, mode,
                      engine.submit(gpurf::JobRequest::simulate(name, req))});
      jobs.back().job.wait();
      ops.end();
    }
  const double full_scale_s = ops.wall_s();
  uint64_t cycles = 0;
  std::map<std::string, double> ns_per_cycle;  // key -> host ns per cycle
  for (auto& j : jobs) {
    j.job.wait();
    auto r = j.job.sim_result();
    if (!r.ok()) {
      rep.op(j.key + ": " + r.status().to_string());
      continue;
    }
    rep.op(refs.expect(j.key, sim_value(*r)));
    cycles += r->stats.cycles;
    const double exec_ms = j.job.progress().exec_ms;
    if (r->stats.cycles)
      ns_per_cycle[j.kernel + "/" + std::to_string(int(j.mode))] =
          exec_ms * 1e6 / static_cast<double>(r->stats.cycles);
  }

  // Campaigns, one at a time so each has a clean duration.
  double fault_s = 0.0, transient_s = 0.0;
  struct Campaign {
    std::string kernel;
    bool transient;
    double secs;
    int children;
  };
  std::vector<Campaign> campaigns;
  for (const auto& name : kCampaignKernels)
    for (const bool transient : {false, true}) {
      gpurf::SimRequest tmpl;
      tmpl.mode = SimMode::kCompressedPerfect;
      tmpl.scale = wl::Scale::kSample;
      gpurf::JobRequest req;
      if (transient) {
        gpurf::TransientCampaignRequest t;
        t.sim = tmpl;
        t.base_seed = base_seed;
        req = gpurf::JobRequest::transient_campaign(name, t);
      } else {
        gpurf::FaultCampaignRequest f;
        f.sim = tmpl;
        f.base_seed = base_seed;
        req = gpurf::JobRequest::fault_campaign(name, f);
      }
      const std::string key = std::string(transient ? "transient/" : "fault/") +
                              name + "/s" + std::to_string(base_seed);
      ops.begin();
      Span s(transient ? "api.campaign.transient" : "api.campaign.fault");
      gpurf::Job job = engine.submit(req);
      job.wait();
      const double secs = s.stop();
      ops.end();
      (transient ? transient_s : fault_s) += secs;
      std::string text;
      int children = 0;
      if (transient) {
        auto r = job.transient_result();
        if (r.ok()) {
          text = gpurf::api::to_json(*r);
          children = static_cast<int>(r->points.size());
        } else {
          rep.op(key + ": " + r.status().to_string());
          continue;
        }
      } else {
        auto r = job.campaign_result();
        if (r.ok()) {
          text = gpurf::api::to_json(*r);
          children = static_cast<int>(r->points.size());
        } else {
          rep.op(key + ": " + r.status().to_string());
          continue;
        }
      }
      rep.op(refs.expect(key, std::to_string(children) + ":" + digest(text)));
      if (children > 0) campaigns.push_back({name, transient, secs, children});
    }
  rep.wall_s = ops.wall_s();
  sampler.stop();
  rep.cpu_util = ops.cpu_s() / rep.wall_s;
  rep.cpus_used = sampler.cpus_used();

  rep.layers["sim.mcycles_per_s"] =
      full_scale_s > 0 ? static_cast<double>(cycles) / full_scale_s / 1e6 : 0;
  if (o.trace) {
    rep.layers["api.campaign_fault_s"] = fault_s;
    rep.layers["api.campaign_transient_s"] = transient_s;
    // Campaign time over children x one child-equivalent simulate, averaged
    // over the four campaigns.
    double overhead_sum = 0.0;
    for (const auto& c : campaigns) {
      gpurf::SimRequest one;
      one.mode = SimMode::kCompressedPerfect;
      one.scale = wl::Scale::kSample;
      if (c.transient) {
        one.soft.flips_per_mcycle =
            gpurf::TransientCampaignRequest{}.flip_rates[0];
        one.soft.seed = base_seed;
      } else {
        one.fault.density = gpurf::FaultCampaignRequest{}.densities[0];
        one.fault.seed = base_seed;
      }
      const double t = now_s();
      auto r = engine.simulate(c.kernel, one);
      const double single = now_s() - t;
      if (!r.ok()) rep.op("single simulate " + c.kernel + ": " +
                          r.status().to_string());
      overhead_sum += c.secs / (c.children * single);
    }
    if (!campaigns.empty())
      rep.layers["api.campaign_overhead_ratio"] =
          overhead_sum / static_cast<double>(campaigns.size());
    // Compressed-high over original host cost per cycle, geometric mean
    // over the kernels.
    double log_sum = 0.0;
    int n = 0;
    for (const auto& name : kKernels) {
      auto hi = ns_per_cycle.find(name + "/" +
                                  std::to_string(int(SimMode::kCompressedHigh)));
      auto lo = ns_per_cycle.find(name + "/" +
                                  std::to_string(int(SimMode::kOriginal)));
      if (hi == ns_per_cycle.end() || lo == ns_per_cycle.end()) continue;
      log_sum += std::log(hi->second / lo->second);
      ++n;
    }
    if (n) rep.layers["rf.compressed_cost_ratio"] = std::exp(log_sum / n);

    // Per-layer probes outside the timed op set.
    auto w = engine.workload(kShardProbeKernel);
    auto pr = engine.pipeline(kShardProbeKernel);
    if (w.ok() && pr.ok()) {
      gpurf::tuning::TuneResult perfect, high;
      {
        Span s("workloads.load_pmap_cache");
        rep.op(wl::load_pmap_cache(**w, cache_dir, perfect, high).ok()
                   ? ""
                   : std::string(kShardProbeKernel) +
                         ": pmap cache entry does not load");
      }
      wl::Workload::Instance inst;
      {
        Span s("workloads.make_instance");
        inst = (*w)->make_instance(wl::Scale::kFull, variant);
      }
      gpurf::common::ThreadPool pool(threads);
      gpurf::common::ScopedPool bind(&pool);
      const auto run = [&](int shards, const char* span) {
        auto copy = inst;
        auto spec = wl::make_launch_spec(**w, copy, **pr,
                                         SimMode::kCompressedHigh);
        gpurf::sim::SimOptions so;
        so.shards = shards;
        Span s(span);
        auto r = gpurf::sim::simulate(
            engine.options().gpu,
            wl::make_compression_config(SimMode::kCompressedHigh), spec,
            nullptr, so);
        return std::make_pair(r, s.stop());
      };
      const auto [sharded, t_sharded] = run(threads, "sim.simulate");
      const auto [serial, t_serial] = run(1, "sim.simulate_serial");
      // The direct call must agree with the Engine's job, and the serial
      // schedule with the sharded one.
      const std::string key = std::string("sim/") + kShardProbeKernel +
                              "/high/v" + std::to_string(variant);
      rep.op(refs.expect(key, sim_value(sharded)));
      rep.op(sharded.stats == serial.stats
                 ? ""
                 : key + ": serial and sharded SimStats differ");
      const double c = static_cast<double>(sharded.stats.cycles);
      if (c > 0) {
        rep.layers["sim.ns_per_cycle"] = t_sharded / c * 1e9;
        rep.layers["sim.ns_per_cycle_serial"] = t_serial / c * 1e9;
        rep.layers["sim.shard_speedup"] = t_serial / t_sharded;
        rep.layers["sim.ns_per_warp_inst"] =
            t_sharded / static_cast<double>(sharded.stats.warp_insts) * 1e9;
      }
    }
  }
  if (o.bless && !refs.save()) rep.op("cannot write sim-sweep references");
  const Usage u = self_usage();
  rep.cpu_s = u.cpu_s;
  rep.peak_rss_mb = u.peak_rss_mb;
  return rep;
}

}  // namespace pb
