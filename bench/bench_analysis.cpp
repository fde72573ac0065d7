// bench_analysis — cost and payoff of the instruction-granular static
// analysis (PR 9).
//
// Per Table-4 workload:
//   * analysis time — compute_dataflow() over the prebuilt CFG (best of
//     GPURF_BENCH_REPS, default 3);
//   * lint facts — dead-write count, never-read registers, undefined reads
//     (always zero on the shipped workloads; the lint gate pins that);
//   * pressure — static liveness bound vs. baseline colouring vs. the
//     live-interval colouring (the delta is what AllocOptions::
//     live_intervals buys before any slice compression);
//   * elision — functional-replay time with dead-write elision off vs. on,
//     outputs verified bit-identical first.
//
// The shipped kernels are hand-tight (few dead writes), so a synthetic
// family of dead-write-heavy kernels is benched too — rotating writes into
// never-read scratch registers inside a hot loop — where elision must show
// a real speedup.  BENCH_analysis.json records everything.
//
// PR 10 adds the static memory pass: per Table-4 workload the bench
// reports memory-proof coverage (sites proven in bounds / total memory
// sites, the disjointness verdicts and whether the workload carries an
// assume_disjoint waiver) plus bounds-check-elision replay throughput
// (checks on vs. proven checks elided, outputs verified bit-identical
// first).  A "memory" summary object lands in BENCH_analysis.json.
//
// Usage: bench_analysis [--smoke] [--out PATH] [workload ...]
//   --smoke: CI tripwire — exit nonzero if any elision run (dead-write or
//            bounds-check) is not bit-identical, any workload has
//            undefined reads, the live-interval pressure exceeds baseline,
//            the synthetic kernels fail to speed up under elision
//            (generous margin so timer noise can't flake the build), the
//            fleet-wide memory-proof coverage drops below 85%, or any
//            workload loses block-parallel eligibility (proofs + waivers
//            must keep every bundled workload parallel-replayable).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/memory_access.hpp"
#include "common/thread_pool.hpp"
#include "exec/interp.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "workloads/workload.hpp"

namespace wl = gpurf::workloads;
namespace analysis = gpurf::analysis;
namespace alloc = gpurf::alloc;
namespace exec = gpurf::exec;
namespace ir = gpurf::ir;

namespace {

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ReplayResult {
  double secs = 0.0;
  std::vector<float> out;
};

ReplayResult run_workload(const wl::Workload& w, bool elide_dead,
                          bool elide_bounds, int reps) {
  ReplayResult r;
  r.secs = 1e30;
  for (int i = 0; i < reps; ++i) {
    auto inst = w.make_instance(wl::Scale::kSample, 0);
    wl::RunOptions o;
    o.use_soa = true;
    o.block_parallel = false;
    o.elide_dead_writes = elide_dead;
    o.elide_bounds_checks = elide_bounds;
    const double t0 = now_secs();
    r.out = w.run(inst, nullptr, nullptr, o);
    r.secs = std::min(r.secs, now_secs() - t0);
  }
  return r;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Dead-write-heavy synthetic: a hot loop whose body writes `width`
/// scratch registers that are never read (every such write is statically
/// dead) around one live accumulator chain.  Elision skips the scratch
/// instructions' whole data path, so replay time must drop.
std::string make_dead_heavy(int width, int trip) {
  std::string s = ".kernel deadheavy" + std::to_string(width) + "\n";
  s += ".param s32 out_base\n.reg s32 %gid\n.reg s32 %i\n.reg s32 %acc\n";
  for (int d = 0; d < width; ++d)
    s += ".reg s32 %scratch" + std::to_string(d) + "\n";
  s += ".reg pred %p\nentry:\n";
  s += "  mov.s32 %gid, %ctaid.x\n";
  s += "  mad.s32 %gid, %gid, 32, %tid.x\n";
  s += "  mov.s32 %acc, 0\n  mov.s32 %i, 0\nhead:\n";
  s += "  setp.ge.s32 %p, %i, " + std::to_string(trip) + "\n";
  s += "  @%p bra done\nbody:\n";
  for (int d = 0; d < width; ++d) {
    const std::string r = "%scratch" + std::to_string(d);
    s += "  mad.s32 " + r + ", %i, " + std::to_string(3 + d) + ", %gid\n";
  }
  s += "  add.s32 %acc, %acc, %i\n";
  s += "  add.s32 %i, %i, 1\n  bra head\ndone:\n";
  s += "  add.s32 %i, %gid, $out_base\n";
  s += "  st.global.s32 [%i], %acc\n  ret\n";
  return s;
}

struct RawReplay {
  double secs = 0.0;
  std::vector<uint32_t> words;
  uint64_t thread_insts = 0;
};

RawReplay run_raw(const ir::Kernel& k, bool elide, int reps) {
  RawReplay r;
  r.secs = 1e30;
  const ir::LaunchConfig launch{4, 1, 32, 1};
  // Built outside the timed region, which measures replay alone.
  const auto ka = std::make_shared<const exec::KernelAnalysis>(k);
  for (int i = 0; i < reps; ++i) {
    exec::GlobalMemory gmem;
    const uint32_t out = gmem.alloc(4 * 32 + 64);
    exec::ExecContext ctx;
    ctx.kernel = &k;
    ctx.analysis = ka;
    ctx.launch = launch;
    ctx.gmem = &gmem;
    ctx.params = {out};
    ctx.use_soa = true;
    ctx.block_parallel = false;
    ctx.elide_dead_writes = elide;
    const double t0 = now_secs();
    r.thread_insts = exec::run_functional(ctx);
    r.secs = std::min(r.secs, now_secs() - t0);
    const auto view = gmem.view(out, 4 * 32);
    r.words = {view.begin(), view.end()};
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_analysis.json";
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else if (std::string(argv[i]) == "--out" && i + 1 < argc)
      out_path = argv[++i];
    else
      names.emplace_back(argv[i]);
  }
  int reps = 3;
  if (const char* env = std::getenv("GPURF_BENCH_REPS")) {
    const int n = std::atoi(env);
    if (n >= 1) reps = n;
  }
  gpurf::common::ThreadPool::instance().resize(1);

  std::printf("bench_analysis: static dataflow cost + payoff (best of %d)\n",
              reps);
  std::printf("%-12s %9s %5s %5s  %6s %6s %6s  %9s %9s %7s  %s\n", "Kernel",
              "analyze", "dead", "nread", "static", "alloc", "intvl",
              "off(ms)", "on(ms)", "speedup", "identical");

  // Memory-proof coverage accumulators (PR 10), summarised after the
  // per-workload table and gated in --smoke.
  uint64_t mem_sites_total = 0, mem_sites_proven = 0;
  int mem_workloads = 0, mem_fully_proven = 0, mem_waived = 0;
  int mem_parallel_ok = 0, mem_shard_ok = 0;

  std::FILE* json = std::fopen(out_path, "w");
  if (json) std::fprintf(json, "{\n  \"workloads\": [");

  int failures = 0;
  bool first_row = true;
  auto emit_row = [&](const std::string& name, double analyze_secs,
                      const analysis::KernelReport& rep, double off_secs,
                      double on_secs, bool identical, bool synthetic,
                      const std::string& extra_json = {}) {
    const double speedup = on_secs > 0 ? off_secs / on_secs : 0.0;
    std::printf("%-12s %7.1fus %5zu %5zu  %6u %6u %6u  %9.3f %9.3f %6.2fx  %s\n",
                name.c_str(), analyze_secs * 1e6, rep.dead_writes.size(),
                rep.never_read.size(), rep.static_pressure, rep.alloc_pressure,
                rep.live_interval_pressure, off_secs * 1e3, on_secs * 1e3,
                speedup, identical ? "yes" : "NO <-- bug");
    if (json) {
      std::fprintf(
          json,
          "%s\n    {\"name\": \"%s\", \"synthetic\": %s, "
          "\"analysis_us\": %.2f, \"dead_writes\": %zu, \"never_read\": %zu, "
          "\"undefined_reads\": %zu, \"static_pressure\": %u, "
          "\"alloc_pressure\": %u, \"live_interval_pressure\": %u, "
          "\"replay_off_ms\": %.4f, \"replay_on_ms\": %.4f, "
          "\"elide_speedup\": %.3f, \"identical\": %s%s}",
          first_row ? "" : ",", name.c_str(), synthetic ? "true" : "false",
          analyze_secs * 1e6, rep.dead_writes.size(), rep.never_read.size(),
          rep.undefined_reads.size(), rep.static_pressure, rep.alloc_pressure,
          rep.live_interval_pressure, off_secs * 1e3, on_secs * 1e3, speedup,
          identical ? "true" : "false", extra_json.c_str());
      first_row = false;
    }
    if (!identical) ++failures;
    if (!rep.undefined_reads.empty()) ++failures;
    if (rep.live_interval_pressure > rep.alloc_pressure) ++failures;
  };

  for (const auto& w : wl::make_all_workloads()) {
    if (!names.empty()) {
      bool wanted = false;
      for (const auto& n : names) wanted |= (n == w->spec().name);
      if (!wanted) continue;
    }
    const ir::Kernel& k = w->kernel();
    const auto cfg = analysis::build_cfg(k);
    double analyze_secs = 1e30;
    analysis::Dataflow df;
    for (int i = 0; i < reps; ++i) {
      const double t0 = now_secs();
      df = analysis::compute_dataflow(k, cfg);
      analyze_secs = std::min(analyze_secs, now_secs() - t0);
    }
    auto rep = analysis::build_kernel_report(k, cfg, df);
    rep.alloc_pressure = alloc::baseline_pressure(k);
    rep.live_interval_pressure = alloc::live_interval_pressure(k);

    const auto off = run_workload(*w, /*dead=*/false, /*bounds=*/false, reps);
    const auto on = run_workload(*w, /*dead=*/true, /*bounds=*/false, reps);

    // Static memory pass (PR 10): solve cost, proof coverage and the
    // disjointness verdicts for the sample instance, then bounds-check
    // elision throughput (dead-write elision held on in both runs so the
    // delta isolates the checks).
    auto inst = w->make_instance(wl::Scale::kSample, 0);
    double mem_secs = 1e30;
    const auto& ka = *w->kernel_analysis();
    for (int i = 0; i < reps; ++i) {
      analysis::MemoryAccessOptions mo;
      mo.param_values = &inst.params;
      const double t0 = now_secs();
      auto ma = analysis::analyze_memory_accesses(k, ka.cfg(), ka.dataflow(),
                                                  inst.launch, mo);
      mem_secs = std::min(mem_secs, now_secs() - t0);
    }
    const auto proofs = w->mem_proofs(inst, /*footprints=*/true);
    const uint32_t sites = static_cast<uint32_t>(proofs->mem.accesses.size());
    const bool waived = w->spec().assume_disjoint;
    mem_sites_total += sites;
    mem_sites_proven += proofs->proven_sites;
    ++mem_workloads;
    if (proofs->proven_sites == sites) ++mem_fully_proven;
    if (waived) ++mem_waived;
    if (proofs->parallel_ok) ++mem_parallel_ok;
    if (proofs->shard_ok) ++mem_shard_ok;
    if (smoke && !proofs->parallel_ok) ++failures;

    const auto boff = run_workload(*w, /*dead=*/true, /*bounds=*/false, reps);
    const auto bon = run_workload(*w, /*dead=*/true, /*bounds=*/true, reps);
    const bool bident = bits_equal(boff.out, bon.out);
    if (!bident) ++failures;
    const double bspeed = bon.secs > 0 ? boff.secs / bon.secs : 0.0;

    char extra[512];
    std::snprintf(
        extra, sizeof(extra),
        ", \"mem_analysis_us\": %.2f, \"mem_sites\": %u, "
        "\"mem_proven\": %u, \"stores_disjoint\": %s, \"loads_local\": %s, "
        "\"disjoint_waived\": %s, \"parallel_ok\": %s, \"shard_ok\": %s, "
        "\"bounds_off_ms\": %.4f, \"bounds_on_ms\": %.4f, "
        "\"bounds_elide_speedup\": %.3f, \"bounds_identical\": %s",
        mem_secs * 1e6, sites, proofs->proven_sites,
        proofs->mem.stores_disjoint ? "true" : "false",
        proofs->mem.loads_local ? "true" : "false", waived ? "true" : "false",
        proofs->parallel_ok ? "true" : "false",
        proofs->shard_ok ? "true" : "false", boff.secs * 1e3, bon.secs * 1e3,
        bspeed, bident ? "true" : "false");

    emit_row(w->spec().name, analyze_secs, rep, off.secs, on.secs,
             bits_equal(off.out, on.out), /*synthetic=*/false, extra);
    std::printf("%-12s   mem: %u/%u proven (%.1fus)  %s%s%s  "
                "checks %7.3f  elided %7.3f  %5.2fx  %s\n",
                "", proofs->proven_sites, sites, mem_secs * 1e6,
                proofs->mem.stores_disjoint ? "stores-disjoint " : "",
                proofs->mem.loads_local ? "loads-local " : "",
                waived ? "[waived]" : "", boff.secs * 1e3, bon.secs * 1e3,
                bspeed, bident ? "yes" : "NO <-- bug");
  }

  // Fleet-wide proof coverage: the smoke gate holds the floor at 85% so a
  // solver regression (or a new workload with unproven accesses and no
  // waiver) fails CI instead of silently serialising replays.
  const double coverage =
      mem_sites_total > 0
          ? static_cast<double>(mem_sites_proven) /
                static_cast<double>(mem_sites_total)
          : 1.0;
  if (mem_workloads > 0) {
    std::printf(
        "\nmemory proofs: %llu/%llu sites proven (%.1f%%), "
        "%d/%d workloads fully proven, %d waived, "
        "%d parallel-ok, %d shard-ok\n",
        static_cast<unsigned long long>(mem_sites_proven),
        static_cast<unsigned long long>(mem_sites_total), coverage * 100.0,
        mem_fully_proven, mem_workloads, mem_waived, mem_parallel_ok,
        mem_shard_ok);
    if (smoke && coverage < 0.85) {
      std::printf("memory-proof coverage below the 85%% floor\n");
      ++failures;
    }
  }

  // Synthetic dead-write-heavy family: here elision has real work to skip,
  // so the smoke gate can demand an actual speedup.
  if (names.empty()) {
    for (const int width : {4, 8, 16}) {
      ir::Kernel k = ir::parse_kernel(make_dead_heavy(width, 4096));
      ir::verify(k);
      const auto cfg = analysis::build_cfg(k);
      double analyze_secs = 1e30;
      analysis::Dataflow df;
      for (int i = 0; i < reps; ++i) {
        const double t0 = now_secs();
        df = analysis::compute_dataflow(k, cfg);
        analyze_secs = std::min(analyze_secs, now_secs() - t0);
      }
      auto rep = analysis::build_kernel_report(k, cfg, df);
      rep.alloc_pressure = alloc::baseline_pressure(k);
      rep.live_interval_pressure = alloc::live_interval_pressure(k);

      const auto off = run_raw(k, /*elide=*/false, reps);
      const auto on = run_raw(k, /*elide=*/true, reps);
      const bool identical =
          off.words == on.words && off.thread_insts == on.thread_insts;
      emit_row(k.name, analyze_secs, rep, off.secs, on.secs, identical,
               /*synthetic=*/true);
      // Every loop iteration is `width` dead scratch writes around 3 live
      // instructions; even with timer noise elision must win clearly.
      if (smoke && on.secs > 0 && off.secs / on.secs < 1.05) ++failures;
    }
  }

  if (json) {
    std::fprintf(json,
                 "\n  ],\n  \"memory\": {\"sites\": %llu, \"proven\": %llu, "
                 "\"coverage\": %.4f, \"workloads\": %d, "
                 "\"fully_proven\": %d, \"waived\": %d, "
                 "\"parallel_ok\": %d, \"shard_ok\": %d}\n}\n",
                 static_cast<unsigned long long>(mem_sites_total),
                 static_cast<unsigned long long>(mem_sites_proven), coverage,
                 mem_workloads, mem_fully_proven, mem_waived, mem_parallel_ok,
                 mem_shard_ok);
    std::fclose(json);
  }
  if (failures) {
    std::printf("\n%d check(s) failed\n", failures);
    return 1;
  }
  return 0;
}
