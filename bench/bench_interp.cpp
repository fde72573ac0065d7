// bench_interp — functional-replay throughput of the interpreter (ISSUE 2).
//
// The tuner and the Fig. 9-12 benches replay kernels functionally thousands
// of times, so insts/sec of run_functional() is the pipeline's governing
// metric.  This bench measures it per workload in five modes:
//
//   scalar  — per-lane reference dispatch (exec_lane), serial blocks;
//   soa     — warp-vectorized SoA dispatch, serial blocks;
//   soa-Tn  — SoA dispatch, grid blocks sharded over n pool threads;
//   sc-16 / soa-16 — scalar and SoA, serial blocks, with every f32 write
//            quantized through a uniform 16-bit precision map (the tuner's
//            probe path).
//
// Every unquantized mode's output buffer and thread-instruction count are
// checked bit-identical against the scalar reference, and soa-16 against
// sc-16, before timing is reported; the results land in BENCH_interp.json.
//
// Usage: bench_interp [--smoke] [workload ...]
//   default workloads: all Table-4 kernels
//   --smoke: CI tripwire — exit nonzero on any cross-mode mismatch (either
//            pair) or if
//            SoA throughput regresses below the scalar reference (timing
//            stays min-of-3 so one scheduler hiccup can't flake the build).
//   GPURF_BENCH_REPS: timing repetitions per mode (default 3)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace wl = gpurf::workloads;

namespace {

struct ModeResult {
  double secs = 0.0;
  uint64_t insts = 0;
  std::vector<float> out;

  double insts_per_sec() const { return secs > 0 ? insts / secs : 0.0; }
};

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Run `reps` functional replays; returns the best (minimum) wall time of a
/// single replay plus the outputs of the last one.
ModeResult run_mode(const wl::Workload& w, const wl::RunOptions& opt,
                    int threads, int reps,
                    const gpurf::exec::PrecisionMap* pmap = nullptr) {
  gpurf::common::ThreadPool::instance().resize(threads);
  ModeResult r;
  r.secs = 1e30;
  for (int i = 0; i < reps; ++i) {
    auto inst = w.make_instance(wl::Scale::kSample, 0);
    wl::RunOptions o = opt;
    o.thread_insts = &r.insts;
    const double t0 = now_secs();
    r.out = w.run(inst, pmap, nullptr, o);
    const double t1 = now_secs();
    r.secs = std::min(r.secs, t1 - t0);
  }
  return r;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_interp.json";
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
  const int nthreads = gpurf::common::default_thread_count();

  std::printf("bench_interp: functional replay throughput (Minsts/sec, "
              "best of %d)\n", reps);
  std::printf("%-11s %10s %10s %10s %8s %8s %10s %10s   %s\n", "Kernel",
              "scalar", "soa", nthreads > 1 ? "soa-par" : "soa-T1", "soa/sc",
              "par/sc", "sc-16", "soa-16", "identical");

  std::FILE* json = std::fopen(out_path, "w");
  if (json) std::fprintf(json, "{\n  \"threads\": %d,\n  \"workloads\": [", nthreads);

  int failures = 0;
  bool first_row = true;
  for (const auto& w : wl::make_all_workloads()) {
    if (!names.empty()) {
      bool wanted = false;
      for (const auto& n : names) wanted |= (n == w->spec().name);
      if (!wanted) continue;
    }

    wl::RunOptions scalar_opt{/*use_soa=*/false, /*block_parallel=*/false};
    wl::RunOptions soa_opt{/*use_soa=*/true, /*block_parallel=*/false};
    wl::RunOptions par_opt{/*use_soa=*/true, /*block_parallel=*/true};

    const auto scalar = run_mode(*w, scalar_opt, 1, reps);
    const auto soa = run_mode(*w, soa_opt, 1, reps);
    const auto par = run_mode(*w, par_opt, nthreads, reps);
    gpurf::exec::PrecisionMap fp16;
    fp16.per_reg.assign(w->kernel().num_regs(),
                        gpurf::fp::format_for_bits(16));
    const auto scalar16 = run_mode(*w, scalar_opt, 1, reps, &fp16);
    const auto soa16 = run_mode(*w, soa_opt, 1, reps, &fp16);

    const bool identical = bits_equal(scalar.out, soa.out) &&
                           bits_equal(scalar.out, par.out) &&
                           scalar.insts == soa.insts &&
                           scalar.insts == par.insts;
    const bool identical16 = bits_equal(scalar16.out, soa16.out) &&
                             scalar16.insts == soa16.insts;
    if (!identical || !identical16) ++failures;

    const double sc = scalar.insts_per_sec();
    const double so = soa.insts_per_sec();
    const double pa = par.insts_per_sec();
    // Smoke tripwire: the SoA path must never fall behind the scalar
    // reference it replaced (generous margin for CI timer noise).
    if (smoke && so < 0.9 * sc) ++failures;

    const double sc16 = scalar16.insts_per_sec();
    const double so16 = soa16.insts_per_sec();
    std::printf("%-11s %10.1f %10.1f %10.1f %7.2fx %7.2fx %10.1f %10.1f   %s\n",
                w->spec().name.c_str(), sc / 1e6, so / 1e6, pa / 1e6,
                sc > 0 ? so / sc : 0.0, sc > 0 ? pa / sc : 0.0, sc16 / 1e6,
                so16 / 1e6,
                identical && identical16 ? "yes" : "NO <-- bug");

    if (json) {
      std::fprintf(json,
                   "%s\n    {\"name\": \"%s\", \"thread_insts\": %llu, "
                   "\"scalar_ips\": %.0f, \"soa_ips\": %.0f, "
                   "\"soa_parallel_ips\": %.0f, \"identical\": %s, "
                   "\"scalar_fp16_ips\": %.0f, \"soa_fp16_ips\": %.0f, "
                   "\"identical_fp16\": %s}",
                   first_row ? "" : ",", w->spec().name.c_str(),
                   static_cast<unsigned long long>(scalar.insts), sc, so, pa,
                   identical ? "true" : "false", sc16, so16,
                   identical16 ? "true" : "false");
      first_row = false;
    }
  }
  if (json) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
  }

  if (failures) {
    std::printf("\n%d workload(s) failed cross-mode verification\n", failures);
    return 1;
  }
  return 0;
}
