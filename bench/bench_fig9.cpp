// bench_fig9 — regenerates Figure 9: per-kernel register pressure under
// the six framework configurations (original; narrow integers; narrow
// floats at perfect / high quality; both at perfect / high quality).
// Every value is computed: range analysis -> precision tuning -> slice
// allocation.
//
// Driven through one gpurf::Engine session: the warm-up fan-out submits
// pipeline Jobs (bounded, engine-owned executor) and the printed rows read
// the engine's memo.

#include <cstdio>
#include <vector>

#include "api/engine.hpp"

namespace wl = gpurf::workloads;

int main() {
  std::printf("Figure 9: register pressure per framework configuration\n");
  std::printf("%-11s %9s %9s %9s %9s %9s %9s\n", "Kernel", "Original",
              "NarrowInt", "Float(p)", "Float(h)", "Both(p)", "Both(h)");
  gpurf::Engine engine;
  const auto names = engine.workload_names();

  // Warm the engine's pipeline memo concurrently; results print in the
  // paper's order afterwards regardless of completion order.
  std::vector<gpurf::Job> warm;
  warm.reserve(names.size());
  for (const auto& n : names)
    warm.push_back(engine.submit(gpurf::JobRequest::pipeline(n)));
  for (const auto& j : warm) j.wait();

  for (const auto& n : names) {
    auto pr = engine.pipeline(n);
    if (!pr.ok()) {
      std::fprintf(stderr, "%s\n", pr.status().to_string().c_str());
      return 1;
    }
    const auto& p = (*pr)->pressure;
    std::printf("%-11s %9u %9u %9u %9u %9u %9u\n", n.c_str(), p.original,
                p.narrow_int, p.narrow_float_perfect, p.narrow_float_high,
                p.both_perfect, p.both_high);
  }
  std::printf("\n(p) = perfect output quality, (h) = high output quality "
              "(SSIM 0.9 / 10%% deviation / binary-correct)\n");
  return 0;
}
