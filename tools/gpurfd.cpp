// gpurfd — long-lived daemon serving one gpurf Engine over a local
// AF_UNIX socket.
// Clients speak newline-delimited JSON (see api/server.hpp for the wire
// protocol): expensive tuning pipelines and timing simulations become
// first-class jobs with deadlines, priorities, cancellation, progress and
// watch subscriptions, and every response carries the Engine's metrics
// snapshot.
//
// Usage:
//   gpurfd --socket PATH [--threads N] [--cache-dir DIR]
//          [--async-workers N] [--max-inflight N] [--no-disk-cache]
//          [--drain-ms N]
//
// Runs until a client sends {"op":"shutdown"} or the process receives
// SIGINT/SIGTERM.  Shutdown is graceful: the listener
// closes first (no new requests), then still-queued jobs are cancelled
// and running jobs get up to --drain-ms (default 5000) to finish before
// being cancelled cooperatively; only then does the process exit.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "api/engine.hpp"
#include "api/server.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH [--threads N] [--cache-dir DIR]\n"
      "          [--async-workers N] [--max-inflight N] [--no-disk-cache]\n"
      "          [--drain-ms N]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gpurf::api::ServerOptions sopts;
  gpurf::EngineOptions opts;
  long drain_ms = 5000;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0;
    };
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg("--socket")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      sopts.socket_path = v;
    } else if (arg("--threads")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.threads = std::atoi(v);
    } else if (arg("--cache-dir")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.cache_dir = v;
    } else if (arg("--async-workers")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.async_workers = std::atoi(v);
    } else if (arg("--max-inflight")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.max_inflight = static_cast<size_t>(std::atoll(v));
    } else if (arg("--no-disk-cache")) {
      opts.use_disk_cache = false;
    } else if (arg("--drain-ms")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      drain_ms = std::atol(v);
    } else {
      return usage(argv[0]);
    }
  }
  if (sopts.socket_path.empty()) return usage(argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  gpurf::Engine engine(opts);
  gpurf::api::Server server(engine, sopts);
  const gpurf::Status st = server.start();
  if (!st.ok()) {
    std::fprintf(stderr, "gpurfd: %s\n", st.to_string().c_str());
    return 1;
  }
  const gpurf::EngineOptions& eo = engine.options();
  std::printf("gpurfd listening on %s (threads=%d, async_workers=%d, "
              "max_inflight=%zu)\n",
              sopts.socket_path.c_str(), eo.threads, eo.async_workers,
              eo.max_inflight);
  std::fflush(stdout);

  // Wait for a client shutdown request or a signal.
  while (server.running() && !server.shutdown_requested() && !g_signal)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Stop accepting first, then drain the Engine: queued jobs are
  // cancelled outright, running jobs share the --drain-ms budget,
  // stragglers are cancelled cooperatively.  The Engine destructor then
  // has nothing left to wait on.
  std::printf("gpurfd: shutting down (drain budget %ld ms)\n", drain_ms);
  std::fflush(stdout);
  server.stop();
  const gpurf::Status drained = engine.drain(drain_ms);
  if (!drained.ok())
    std::fprintf(stderr, "gpurfd: drain: %s\n", drained.to_string().c_str());
  return 0;
}
