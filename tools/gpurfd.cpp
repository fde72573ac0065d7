// gpurfd — long-lived daemon serving one gpurf Engine over a local
// AF_UNIX socket and/or TCP (ISSUE 4; TCP, auth and quotas since ISSUE 8).
// Clients speak newline-delimited JSON (see api/server.hpp for the wire
// protocol): expensive tuning pipelines and timing simulations become
// first-class jobs with deadlines, priorities, cancellation, progress and
// watch subscriptions, and every response carries the Engine's metrics
// snapshot.
//
// Usage:
//   gpurfd [--socket PATH] [--listen HOST:PORT]
//          [--threads N] [--cache-dir DIR] [--async-workers N]
//          [--max-inflight N] [--no-disk-cache] [--drain-ms N]
//          [--auth-token TOK]... [--token-max-inflight N]
//          [--token-rate R] [--token-burst B]
//          [--max-request-bytes N] [--idle-timeout-ms N]
//
// At least one of --socket / --listen is required.  --auth-token may
// repeat; once any token is set, every request must
// carry a matching "token" field.
//
// Runs until a client sends {"op":"shutdown"} or the process receives
// SIGINT/SIGTERM.  Shutdown is graceful (PR 6 satellite): the listeners
// close first (no new requests), then still-queued jobs are cancelled
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
      "usage: %s [--socket PATH] [--listen HOST:PORT]\n"
      "          [--threads N] [--cache-dir DIR] [--async-workers N]\n"
      "          [--max-inflight N] [--no-disk-cache] [--drain-ms N]\n"
      "          [--auth-token TOK]... [--token-max-inflight N]\n"
      "          [--token-rate R] [--token-burst B]\n"
      "          [--max-request-bytes N] [--idle-timeout-ms N]\n"
      "(at least one of --socket / --listen)\n",
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
    } else if (arg("--listen")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      // HOST:PORT, with a bare ":PORT" (or "PORT") binding the default
      // loopback host.
      const std::string hp = v;
      const size_t colon = hp.rfind(':');
      std::string port_str;
      if (colon == std::string::npos) {
        port_str = hp;
      } else {
        if (colon > 0) sopts.listen_host = hp.substr(0, colon);
        port_str = hp.substr(colon + 1);
      }
      char* end = nullptr;
      const long port = std::strtol(port_str.c_str(), &end, 10);
      if (port_str.empty() || *end != '\0' || port < 0 || port > 65535) {
        std::fprintf(stderr, "gpurfd: bad --listen '%s' (HOST:PORT)\n", v);
        return 2;
      }
      sopts.listen_port = static_cast<int>(port);
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
    } else if (arg("--auth-token")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      sopts.auth_tokens.push_back(v);
    } else if (arg("--token-max-inflight")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      sopts.token_max_inflight = static_cast<size_t>(std::atoll(v));
    } else if (arg("--token-rate")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      sopts.token_rate = std::atof(v);
    } else if (arg("--token-burst")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      sopts.token_burst = std::atof(v);
    } else if (arg("--max-request-bytes")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      sopts.max_request_bytes = static_cast<size_t>(std::atoll(v));
    } else if (arg("--idle-timeout-ms")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      sopts.idle_timeout_ms = std::atoi(v);
    } else {
      return usage(argv[0]);
    }
  }
  if (sopts.socket_path.empty() && sopts.listen_port < 0)
    return usage(argv[0]);

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
  if (!sopts.socket_path.empty())
    std::printf("gpurfd listening on %s", sopts.socket_path.c_str());
  if (server.tcp_port() >= 0)
    std::printf("%s%s:%d", sopts.socket_path.empty() ? "gpurfd listening on "
                                                     : " and ",
                sopts.listen_host.c_str(), server.tcp_port());
  std::printf(" (threads=%d, async_workers=%d, max_inflight=%zu%s)\n",
              eo.threads, eo.async_workers, eo.max_inflight,
              sopts.auth_tokens.empty() ? "" : ", auth on");
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
