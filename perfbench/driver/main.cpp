// perfbench_driver — one measured process of the repo benchmark.
//
//   perfbench_driver --workload tune-cold|sim-sweep|serve-mixed|prime --seed N
//                    --seconds S --work-dir DIR --ref-dir DIR
//                    [--t0 MONOTONIC_S] [--trace] [--spans FILE]
//                    [--gpurfd PATH] [--setup-only] [--bless]
//
// Prints one JSON line: set-up and wall time, CPU and memory, the ops
// attempted and failed (with the first failure messages), host context,
// per-layer counters and the raw samples perfbench/run.py turns into
// metrics.  --trace records spans and writes them to --spans.  --bless
// writes the reference values instead of checking them.  "prime" is not a
// workload: it tunes every bundled kernel into the benchmark's own
// precision-map cache, which sim-sweep and serve-mixed start warm from.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <exception>

#include "api/engine.hpp"
#include "harness.hpp"

namespace {

pb::Report prime(const pb::Options& o) {
  pb::Report rep;
  gpurf::Engine engine(gpurf::EngineOptions()
                           .with_threads(pb::nproc())
                           .with_cache_dir(o.work_dir + "/pmap_cache")
                           .with_disk_cache(true));
  std::vector<gpurf::Job> jobs;
  for (const auto& name : engine.workload_names())
    jobs.push_back(engine.submit(gpurf::JobRequest::pipeline(name)));
  for (auto& j : jobs) {
    j.wait();
    const gpurf::Status st = j.status();
    rep.op(st.ok() ? "" : j.workload() + ": " + st.to_string());
  }
  return rep;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--work-dir DIR --ref-dir DIR [--t0 T] [--trace] "
               "[--spans FILE] [--gpurfd PATH] [--setup-only] [--bless]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  o.t0 = pb::now_s();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      o.trace = true;
    } else if (flag == "--setup-only") {
      o.setup_only = true;
    } else if (flag == "--bless") {
      o.bless = true;
    } else {
      if (i + 1 >= argc) return usage();
      const char* v = argv[++i];
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::strtoull(v, nullptr, 10);
      else if (flag == "--seconds") o.seconds = std::atof(v);
      else if (flag == "--t0") o.t0 = std::atof(v);
      else if (flag == "--work-dir") o.work_dir = v;
      else if (flag == "--ref-dir") o.ref_dir = v;
      else if (flag == "--gpurfd") o.gpurfd = v;
      else if (flag == "--spans") o.spans_path = v;
      else return usage();
    }
  }
  if (o.work_dir.empty() || o.ref_dir.empty() || o.seconds <= 0)
    return usage();
  if (o.trace) pb::Tracer::get().enable();

  pb::Report rep;
  try {
    if (o.workload == "tune-cold") rep = pb::run_tune_cold(o);
    else if (o.workload == "sim-sweep") rep = pb::run_sim_sweep(o);
    else if (o.workload == "serve-mixed") rep = pb::run_serve_mixed(o);
    else if (o.workload == "prime") rep = prime(o);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  if (o.trace && !o.spans_path.empty() &&
      !pb::Tracer::get().write(o.spans_path))
    rep.op("cannot write spans to " + o.spans_path);
  std::printf("%s\n", rep.to_json(o).c_str());
  return 0;
}
