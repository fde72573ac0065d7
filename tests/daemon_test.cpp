// gpurfd wire protocol (ISSUE 4): request parsing, the response envelope
// (ok/error + embedded metrics), and a full round-trip over a real AF_UNIX
// socket — submit, wait, result payload, cancel semantics, shutdown.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <clocale>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "api/server.hpp"

namespace gpurf {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::path(".") / name).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

api::ServerOptions unix_opts(std::string path) {
  api::ServerOptions o;
  o.socket_path = std::move(path);
  return o;
}

api::JsonValue parse_ok(const std::string& text) {
  auto v = api::parse_json(text);
  EXPECT_TRUE(v.ok()) << v.status().to_string() << "\n" << text;
  return v.ok() ? *v : api::JsonValue{};
}

// --------------------------------------------------------- JSON parser

TEST(JsonParse, ValuesRoundTrip) {
  auto v = parse_ok(R"({"a":1,"b":-2.5e1,"s":"x\n\"yA","t":true,)"
                    R"("n":null,"arr":[1,"two",{"k":3}]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(v.get("b")->as_double(), -25.0);
  EXPECT_EQ(v.get("s")->as_string(), "x\n\"yA");
  EXPECT_TRUE(v.get("t")->as_bool());
  EXPECT_TRUE(v.get("n")->is_null());
  ASSERT_TRUE(v.get("arr")->is_array());
  ASSERT_EQ(v.get("arr")->items.size(), 3u);
  EXPECT_EQ(v.get("arr")->items[2].get("k")->as_int(), 3);

  EXPECT_FALSE(api::parse_json("{\"a\":}").ok());
  EXPECT_FALSE(api::parse_json("[1,2").ok());
  EXPECT_FALSE(api::parse_json("{} trailing").ok());
  EXPECT_FALSE(api::parse_json("nul").ok());
  EXPECT_TRUE(api::parse_json("  [1, 2, 3]  ").ok());
}

TEST(JsonParse, FractionalAndExponentLiteralsAreLocaleIndependent) {
  // ISSUE 5: parse_json used strtod, which consults LC_NUMERIC — under a
  // comma-decimal locale "1.5" failed to parse and the daemon's wire
  // protocol broke.  std::from_chars is locale-independent; these
  // literals must round-trip regardless of the process locale.
  const struct { const char* text; double want; } cases[] = {
      {"1.5", 1.5},          {"-2.25", -2.25},
      {"0.125", 0.125},      {"1e3", 1000.0},
      {"1.5e3", 1500.0},     {"-4.5E-2", -0.045},
      {"2e+8", 2e8},         {"123456.789", 123456.789},
      {"0.0", 0.0},          {"-0.5e0", -0.5},
  };
  for (const auto& c : cases) {
    auto v = api::parse_json(c.text);
    ASSERT_TRUE(v.ok()) << c.text << ": " << v.status().to_string();
    EXPECT_DOUBLE_EQ(v->as_double(), c.want) << c.text;
  }

  // Writer side of the same bug class: doubles must serialise with a '.'
  // decimal separator (to_chars, C-locale semantics) and re-parse.
  api::JsonWriter w;
  w.begin_object();
  w.field("x", 1.5);
  w.field("y", -0.045);
  w.end_object();
  auto round = parse_ok(w.str());
  EXPECT_DOUBLE_EQ(round.get("x")->as_double(), 1.5);
  EXPECT_DOUBLE_EQ(round.get("y")->as_double(), -0.045);

  // If a comma-decimal locale is installed, pin the independence for
  // real; otherwise the C-locale assertions above still cover the
  // from_chars/to_chars contract.
  const char* saved = std::setlocale(LC_NUMERIC, nullptr);
  std::string saved_name = saved ? saved : "C";
  for (const char* loc : {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8"}) {
    if (!std::setlocale(LC_NUMERIC, loc)) continue;
    auto v = api::parse_json("1.5");
    EXPECT_TRUE(v.ok()) << "under locale " << loc;
    if (v.ok()) {
      EXPECT_DOUBLE_EQ(v->as_double(), 1.5);
    }
    api::JsonWriter lw;
    lw.begin_object();
    lw.field("x", 2.5);
    lw.end_object();
    EXPECT_EQ(lw.str(), "{\"x\":2.5}") << "under locale " << loc;
    break;
  }
  std::setlocale(LC_NUMERIC, saved_name.c_str());
}

TEST(JsonParse, EveryEmittedSnapshotParses) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  EXPECT_TRUE(api::parse_json(engine.metrics_json()).ok());

  SimRequest req;
  req.scale = workloads::Scale::kSample;
  auto sim = engine.simulate("Hotspot", req);
  ASSERT_TRUE(sim.ok()) << sim.status().to_string();
  EXPECT_TRUE(api::parse_json(api::to_json(*sim)).ok());
  auto pj = engine.pipeline_json("Hotspot");
  ASSERT_TRUE(pj.ok());
  EXPECT_TRUE(api::parse_json(*pj).ok());
}

TEST(JsonParse, AsIntSaturatesOutOfRangeNumbers) {
  // A double outside the int64 range must saturate: the plain conversion
  // is undefined behaviour (UBSan's float-cast-overflow).
  auto v = parse_ok(R"({"big":1e30,"small":-1e30,"max":9223372036854775807,)"
                    R"("min":-9223372036854775808,"frac":-2.7,"s":"7"})");
  EXPECT_EQ(v.get("big")->as_int(), INT64_MAX);
  EXPECT_EQ(v.get("small")->as_int(), INT64_MIN);
  EXPECT_EQ(v.get("max")->as_int(), INT64_MAX);  // 2^63 once a double
  EXPECT_EQ(v.get("min")->as_int(), INT64_MIN);
  EXPECT_EQ(v.get("frac")->as_int(), -2);  // truncates toward zero
  EXPECT_EQ(v.get("s")->as_int(5), 5);     // not a number: the default
}

// ------------------------------------------------ request handling seam

TEST(Daemon, HandlesRequestsWithoutSocket) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  api::Server server(engine, api::ServerOptions{});  // never started

  // Envelope shape: ok + metrics on every response, success or error.
  auto pong = parse_ok(server.handle_request_line(R"({"op":"ping"})"));
  EXPECT_TRUE(pong.get("ok")->as_bool());
  ASSERT_NE(pong.get("metrics"), nullptr);
  EXPECT_TRUE(pong.get("metrics")->is_object());

  auto list = parse_ok(server.handle_request_line(R"({"op":"list"})"));
  ASSERT_TRUE(list.get("workloads")->is_array());
  EXPECT_EQ(list.get("workloads")->items.size(), 11u);

  // Error mapping to Status codes.
  auto bad = parse_ok(server.handle_request_line("this is not json"));
  EXPECT_FALSE(bad.get("ok")->as_bool());
  EXPECT_EQ(bad.get("error")->get("code")->as_string(), "INVALID_ARGUMENT");
  ASSERT_NE(bad.get("metrics"), nullptr);

  auto unknown_op =
      parse_ok(server.handle_request_line(R"({"op":"frobnicate"})"));
  EXPECT_EQ(unknown_op.get("error")->get("code")->as_string(),
            "INVALID_ARGUMENT");

  auto unknown_wl = parse_ok(server.handle_request_line(
      R"({"op":"submit","kind":"pipeline","workload":"NoSuchKernel"})"));
  EXPECT_FALSE(unknown_wl.get("ok")->as_bool());
  EXPECT_EQ(unknown_wl.get("error")->get("code")->as_string(), "NOT_FOUND");

  auto no_job = parse_ok(
      server.handle_request_line(R"({"op":"status","job":424242})"));
  EXPECT_EQ(no_job.get("error")->get("code")->as_string(), "NOT_FOUND");

  auto bad_mode = parse_ok(server.handle_request_line(
      R"({"op":"submit","kind":"simulate","workload":"DWT2D",)"
      R"("mode":"ultra"})"));
  EXPECT_EQ(bad_mode.get("error")->get("code")->as_string(),
            "INVALID_ARGUMENT");
}

TEST(Daemon, AnalyzeOpReturnsKernelReport) {
  // {"op":"analyze"} (PR 9): a registered workload or inline asm comes
  // back as an embedded KernelReport object.
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  api::Server server(engine, api::ServerOptions{});  // never started

  auto rep = parse_ok(
      server.handle_request_line(R"({"op":"analyze","workload":"DWT2D"})"));
  ASSERT_TRUE(rep.get("ok")->as_bool());
  const api::JsonValue* r = rep.get("report");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->get("kernel")->as_string(), "dwt2d");
  EXPECT_TRUE(r->get("clean")->as_bool());
  EXPECT_TRUE(r->get("undefined_reads")->items.empty());
  EXPECT_GT(r->get("static_pressure")->as_int(), 0);
  EXPECT_GT(r->get("alloc_pressure")->as_int(), 0);
  EXPECT_GT(r->get("live_interval_pressure")->as_int(), 0);
  EXPECT_FALSE(r->get("intervals")->items.empty());

  // Inline kernel with an undefined read: the analysis itself succeeds
  // and the report carries the finding.
  auto inline_rep = parse_ok(server.handle_request_line(
      R"({"op":"analyze","kernel":".kernel u\n.reg s32 %a\n)"
      R"(.reg s32 %n\nentry:\n  add.s32 %a, %n, 1\n)"
      R"(  st.global.s32 [%a], %a\n  ret\n"})"));
  ASSERT_TRUE(inline_rep.get("ok")->as_bool());
  EXPECT_FALSE(inline_rep.get("report")->get("clean")->as_bool());
  ASSERT_EQ(inline_rep.get("report")->get("undefined_reads")->items.size(),
            1u);

  // Error mapping: no target, unknown workload, unparsable inline asm.
  auto miss = parse_ok(server.handle_request_line(R"({"op":"analyze"})"));
  EXPECT_EQ(miss.get("error")->get("code")->as_string(), "INVALID_ARGUMENT");
  auto nf = parse_ok(server.handle_request_line(
      R"({"op":"analyze","workload":"NoSuchKernel"})"));
  EXPECT_EQ(nf.get("error")->get("code")->as_string(), "NOT_FOUND");
  auto garbled = parse_ok(server.handle_request_line(
      R"({"op":"analyze","kernel":"this is not asm"})"));
  EXPECT_EQ(garbled.get("error")->get("code")->as_string(),
            "INVALID_ARGUMENT");
}

// PR 6 regression: a missing "mode" keeps the per-kind default — original
// for simulate (so injecting faults without naming a mode is rejected,
// proving the default), perfect for fault_campaign (which would otherwise
// be rejected outright) — and the campaign wait attaches the result.
TEST(Daemon, ModeDefaultsPerKindAndCampaignWaitAttachesResult) {
  TempDir dir("gpurf_daemon_campaign_cache");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  api::Server server(engine, api::ServerOptions{});  // never started

  // simulate without "mode" == original: fault injection must bounce.
  auto sim = parse_ok(server.handle_request_line(
      R"({"op":"submit","kind":"simulate","workload":"DWT2D",)"
      R"("scale":"sample","fault_density":0.05,"fault_seed":7})"));
  ASSERT_TRUE(sim.get("ok")->as_bool());
  auto sim_done = parse_ok(server.handle_request_line(
      R"({"op":"wait","job":)" +
      std::to_string(sim.get("job")->as_int()) + R"(,"timeout_ms":600000})"));
  ASSERT_NE(sim_done.get("job_error"), nullptr);
  EXPECT_EQ(sim_done.get("job_error")->get("code")->as_string(),
            "INVALID_ARGUMENT");

  // fault_campaign without "mode" == perfect: runs to completion and the
  // wait response carries the campaign result snapshot.
  auto sub = parse_ok(server.handle_request_line(
      R"({"op":"submit","kind":"fault_campaign","workload":"DWT2D",)"
      R"("scale":"sample","densities":[0.0,0.05],"maps_per_density":1,)"
      R"("base_seed":42})"));
  ASSERT_TRUE(sub.get("ok")->as_bool()) << "campaign submit rejected";
  auto done = parse_ok(server.handle_request_line(
      R"({"op":"wait","job":)" +
      std::to_string(sub.get("job")->as_int()) + R"(,"timeout_ms":600000})"));
  ASSERT_TRUE(done.get("ok")->as_bool());
  EXPECT_EQ(done.get("state")->as_string(), "done");
  EXPECT_EQ(done.get("status_code")->as_string(), "OK");
  ASSERT_NE(done.get("result"), nullptr) << "wait lost the campaign result";
  const api::JsonValue* pts = done.get("result")->get("points");
  ASSERT_NE(pts, nullptr);
  ASSERT_TRUE(pts->is_array());
  EXPECT_EQ(pts->items.size(), 2u);
}

// Wire integers out of range: a huge job id is just an unknown job, and a
// campaign count that does not fit an int is rejected, not wrapped or
// overflowed, before any child job is submitted.
TEST(Daemon, OutOfRangeWireIntegersAreRejectedNotWrapped) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  api::Server server(engine, api::ServerOptions{});  // never started
  const auto code = [](const api::JsonValue& env) {
    return env.get("error") ? env.get("error")->get("code")->as_string()
                            : std::string("OK");
  };
  const auto submitted = [&] {
    auto m = parse_ok(server.handle_request_line(R"({"op":"metrics"})"));
    return m.get("metrics")->get("jobs_submitted")->as_int();
  };

  for (const char* id : {"1e30", "-1e30", "1e300"}) {
    auto st = parse_ok(server.handle_request_line(
        std::string(R"({"op":"status","job":)") + id + "}"));
    EXPECT_EQ(code(st), "NOT_FOUND") << id;
  }

  // Counts above INT_MAX are refused at the server: no job is created.
  auto maps = parse_ok(server.handle_request_line(
      R"({"op":"submit","kind":"fault_campaign","workload":"DWT2D",)"
      R"("densities":[0.01],"maps_per_density":1e10})"));
  EXPECT_EQ(code(maps), "INVALID_ARGUMENT");
  auto seeds = parse_ok(server.handle_request_line(
      R"({"op":"submit","kind":"transient_campaign","workload":"DWT2D",)"
      R"("flip_rates":[10],"seeds_per_rate":3e9})"));
  EXPECT_EQ(code(seeds), "INVALID_ARGUMENT");
  EXPECT_EQ(submitted(), 0);

  // Each count fits an int but the product does not: the campaign fails
  // with INVALID_ARGUMENT and never submits a child.
  for (const char* kind : {
           R"("kind":"fault_campaign","densities":[0.01,0.02,0.03],)"
           R"("maps_per_density":1e9)",
           R"("kind":"transient_campaign","flip_rates":[1,2,3],)"
           R"("seeds_per_rate":1e9)"}) {
    const int64_t before = submitted();
    auto sub = parse_ok(server.handle_request_line(
        std::string(R"({"op":"submit","workload":"DWT2D",)") + kind + "}"));
    ASSERT_TRUE(sub.get("ok")->as_bool()) << kind;
    auto done = parse_ok(server.handle_request_line(
        R"({"op":"wait","job":)" + std::to_string(sub.get("job")->as_int()) +
        R"(,"timeout_ms":600000})"));
    ASSERT_NE(done.get("job_error"), nullptr) << kind;
    EXPECT_EQ(done.get("job_error")->get("code")->as_string(),
              "INVALID_ARGUMENT");
    EXPECT_NE(done.get("job_error")->get("message")->as_string().find(
                  "3000000000 points"),
              std::string::npos);
    EXPECT_EQ(submitted(), before + 1) << "a child was submitted";
  }
}

// ------------------------------------------------- socket round-trip

TEST(Daemon, SocketRoundTripSubmitWaitResultShutdown) {
  TempDir dir("gpurf_daemon_cache");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  const std::string sock = "./gpurfd_test.sock";
  api::Server server(engine, unix_opts(sock));
  ASSERT_TRUE(server.start().ok());
  ASSERT_TRUE(server.running());

  api::Client client(sock);
  ASSERT_TRUE(client.status().ok()) << client.status().to_string();

  auto pong = client.call_json(R"({"op":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status().to_string();
  EXPECT_TRUE(pong->get("ok")->as_bool());

  // Submit a sample-scale simulate job (tunes the pipeline on the way)
  // and wait for it over the wire.
  auto sub = client.call_json(
      R"({"op":"submit","kind":"simulate","workload":"DWT2D",)"
      R"("mode":"high","scale":"sample","priority":3})");
  ASSERT_TRUE(sub.ok()) << sub.status().to_string();
  ASSERT_TRUE(sub->get("ok")->as_bool());
  ASSERT_NE(sub->get("job"), nullptr);
  const int64_t id = sub->get("job")->as_int();
  EXPECT_GT(id, 0);
  EXPECT_EQ(sub->get("priority")->as_int(), 3);

  auto done = client.call_json(R"({"op":"wait","job":)" +
                               std::to_string(id) +
                               R"(,"timeout_ms":600000})");
  ASSERT_TRUE(done.ok()) << done.status().to_string();
  ASSERT_TRUE(done->get("ok")->as_bool());
  EXPECT_EQ(done->get("state")->as_string(), "done");
  EXPECT_EQ(done->get("status_code")->as_string(), "OK");
  const api::JsonValue* result = done->get("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->get("stats"), nullptr);
  EXPECT_GT(result->get("stats")->get("ipc")->as_double(), 0.0);
  const api::JsonValue* progress = done->get("progress");
  ASSERT_NE(progress, nullptr);
  EXPECT_GT(progress->get("wall_ms")->as_double(), 0.0);

  // A second status query still finds the job; cancel on a terminal job
  // is a no-op that reports the final state.
  auto cancelled = client.call_json(R"({"op":"cancel","job":)" +
                                    std::to_string(id) + "}");
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->get("state")->as_string(), "done");

  // Metrics envelope: non-zero counters after the round trip.
  auto metrics = client.call_json(R"({"op":"metrics"})");
  ASSERT_TRUE(metrics.ok());
  const api::JsonValue* m = metrics->get("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_GE(m->get("jobs_done")->as_int(), 1);
  EXPECT_GE(m->get("jobs_submitted")->as_int(), 1);
  EXPECT_GE(m->get("pipeline_memo_misses")->as_int(), 1);
  EXPECT_GT(m->get("job_wall_ms_total")->as_double(), 0.0);

  // Cooperative shutdown over the wire.
  auto bye = client.call_json(R"({"op":"shutdown"})");
  ASSERT_TRUE(bye.ok());
  EXPECT_TRUE(bye->get("shutting_down")->as_bool());
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(fs::exists(sock));
}

// ----------------------------------------------------- shutdown stress
//
// ISSUE 5: connection handlers used to run on *detached* threads tracked
// only by a counter, so Server destruction could free state the last few
// instructions of a handler still touched.  Handlers are joinable now and
// stop() joins them all; this test hammers the shutdown path with
// concurrent clients — under TSan/ASan the old race is a hard failure,
// and even without sanitizers the mid-traffic stop()+destruction would
// crash intermittently.

TEST(Daemon, ShutdownUnderConcurrentClients) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  for (int round = 0; round < 3; ++round) {
    const std::string sock =
        "./gpurfd_stress_" + std::to_string(round) + ".sock";
    constexpr int kClients = 8;
    std::atomic<bool> go{false};
    std::atomic<int> responses{0};
    std::atomic<int> settled{0};  // clients connected or failed to
    {
      api::Server server(engine, unix_opts(sock));
      ASSERT_TRUE(server.start().ok());

      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          api::Client client(sock);
          settled.fetch_add(1, std::memory_order_release);
          if (!client.status().ok()) return;
          while (!go.load(std::memory_order_acquire)) {}
          for (int i = 0; i < 50; ++i) {
            // Mix cheap round trips with job waits on nonexistent ids so
            // some handlers sit inside the sliced-wait path when stop()
            // lands; any response (or a clean connection error once the
            // server is gone) is acceptable.
            const std::string req =
                (c + i) % 4 == 0
                    ? R"({"op":"wait","job":999999,"timeout_ms":50})"
                    : R"({"op":"ping"})";
            auto resp = client.call(req);
            if (!resp.ok()) return;  // server went down mid-call
            responses.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      // Start the clock only once every client has connected (or given
      // up), so slow thread start-up under load cannot eat the window.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (settled.load(std::memory_order_acquire) < kClients &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      go.store(true, std::memory_order_release);
      // Let the traffic overlap the stop: some requests complete, some
      // race the shutdown.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      server.stop();
      // The Server object is destroyed at this scope's end while client
      // threads may still be draining their last call() — the joinable
      // registry guarantees no handler outlives stop().
      for (auto& t : clients) t.join();
    }
    EXPECT_GT(responses.load(), 0) << "round " << round;
  }
}

// ------------------------------------- client timeouts + bounded retry
//
// PR 6 satellite: transient transport failures (nothing listening yet, a
// wedged daemon) surface as kUnavailable — the retryable code — instead
// of a generic Internal, and no call can hang forever.

TEST(ClientRetry, NoDaemonSurfacesUnavailableAfterBoundedRetries) {
  api::ClientOptions copts;
  copts.retries = 2;
  copts.connect_timeout_ms = 200;
  const auto t0 = std::chrono::steady_clock::now();
  api::Client client("./gpurfd_nobody_home.sock", copts);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(client.status().ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable)
      << client.status().to_string();
  // Bounded: 3 attempts with two jittered backoffs (<= 25 ms, then
  // <= 50 ms), not an endless loop.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 2.0);
  // A call on a never-connected client reports the connect failure.
  auto resp = client.call(R"({"op":"ping"})");
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
}

TEST(ClientRetry, RetriesUntilLateStartingServerAppears) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  const std::string sock = "./gpurfd_late.sock";
  api::Server server(engine, unix_opts(sock));
  // Start the server *after* the client begins connecting: the client's
  // retry loop must absorb the ECONNREFUSED/ENOENT window.
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(server.start().ok());
  });
  api::ClientOptions copts;
  copts.retries = 20;
  api::Client client(sock, copts);
  starter.join();
  ASSERT_TRUE(client.status().ok()) << client.status().to_string();
  auto pong = client.call_json(R"({"op":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status().to_string();
  EXPECT_TRUE(pong->get("ok")->as_bool());
  server.stop();
}

TEST(ClientRetry, SilentServerReadTimesOutAsUnavailable) {
  // A listener that accepts connections into its backlog but never
  // responds: connect succeeds, the response read must hit SO_RCVTIMEO.
  const std::string sock = "./gpurfd_silent.sock";
  ::unlink(sock.c_str());
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);

  api::ClientOptions copts;
  copts.read_timeout_ms = 100;
  copts.retries = 0;
  api::Client client(sock, copts);
  ASSERT_TRUE(client.status().ok()) << client.status().to_string();
  auto resp = client.call(R"({"op":"ping"})");
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable)
      << resp.status().to_string();
  ::close(lfd);
  ::unlink(sock.c_str());
}

TEST(ClientRetry, FullBacklogIsUnavailableNotAFalseConnect) {
  // A listener that never accepts, with its backlog already full: the
  // connect can only wait for room, and its deadline must surface as
  // kUnavailable rather than a Client that reports OK on a socket that
  // never connected.
  const std::string sock = "./gpurfd_full_backlog.sock";
  ::unlink(sock.c_str());
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 0), 0);
  const int queued = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(queued, 0);
  ASSERT_EQ(::connect(queued, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  api::ClientOptions copts;
  copts.retries = 0;
  copts.connect_timeout_ms = 100;
  api::Client client(sock, copts);
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable)
      << client.status().to_string();
  ::close(queued);
  ::close(lfd);
  ::unlink(sock.c_str());
}

// ------------------------------------------------------ graceful drain
//
// PR 6 satellite: gpurfd's shutdown sequence is server.stop() followed by
// Engine::drain(budget) — still-queued jobs are cancelled outright,
// running jobs get the budget, stragglers are cancelled cooperatively.

TEST(Daemon, DrainCancelsQueuedJobsAndStaysUsable) {
  TempDir dir("gpurf_daemon_drain");
  Engine engine(EngineOptions()
                    .with_threads(2)
                    .with_cache_dir(dir.path)
                    .with_async_workers(1)   // one executor: rest stay queued
                    .with_max_inflight(8));
  // One long tuning job hogs the single executor; the rest sit queued.
  std::vector<Job> jobs;
  jobs.push_back(engine.submit(JobRequest::pipeline("DWT2D")));
  jobs.push_back(engine.submit(JobRequest::pipeline("Hotspot")));
  jobs.push_back(engine.submit(JobRequest::pipeline("Hybridsort")));

  const Status st = engine.drain(150);
  if (!st.ok()) {
    EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.to_string();
  }
  for (auto& j : jobs) {
    EXPECT_TRUE(job_state_terminal(j.state()))
        << job_state_name(j.state());
  }
  // At least the queued jobs were shed as cancelled; the running one
  // either finished inside the budget (OK) or was cancelled at it (the
  // drain then reports DeadlineExceeded).
  int cancelled = 0;
  for (auto& j : jobs)
    if (j.state() == JobState::kCancelled) ++cancelled;
  EXPECT_GE(cancelled, 2);

  // Drain is not shutdown: the Engine keeps serving afterwards.
  auto names = engine.workload_names();
  EXPECT_EQ(names.size(), 11u);
  SimRequest again_req;
  again_req.mode = workloads::SimMode::kOriginal;
  again_req.scale = workloads::Scale::kSample;
  Job again = engine.submit(JobRequest::simulate("Hotspot", again_req));
  again.wait();
  EXPECT_EQ(again.state(), JobState::kDone) << again.status().to_string();
}

// ------------------------------------------- socket path validation pin
//
// ISSUE 8 satellite: an AF_UNIX path that does not fit sun_path must be
// InvalidArgument on both ends — binding a silently-truncated path puts
// the socket somewhere no client ever looks.

TEST(Daemon, OverlongSocketPathIsInvalidArgumentOnBothEnds) {
  const std::string too_long = "./" + std::string(200, 'p') + ".sock";
  ASSERT_GE(too_long.size(), sizeof(sockaddr_un{}.sun_path));

  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  api::Server server(engine, unix_opts(too_long));
  const Status st = server.start();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.to_string();
  EXPECT_FALSE(server.running());

  api::ClientOptions copts;
  copts.retries = 0;  // fail fast — nothing will ever listen there
  api::Client client(too_long, copts);
  ASSERT_FALSE(client.status().ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument)
      << client.status().to_string();

  // A server with NO listener at all is rejected too.
  api::Server none(engine, api::ServerOptions{});
  const Status st2 = none.start();
  ASSERT_FALSE(st2.ok());
  EXPECT_EQ(st2.code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ shutdown stress
//
// The ShutdownUnderConcurrentClients scenario with the watch and cancel
// ops in the mix.  Run under TSan this is the tripwire for races between
// the watch push path and the joinable-thread shutdown sequence.

TEST(Daemon, ShutdownStressWithSubmitCancelWatch) {
  Engine engine(EngineOptions().with_threads(2).with_disk_cache(false));
  const std::string sock = "./gpurfd_stress.sock";
  for (int round = 0; round < 3; ++round) {
    constexpr int kClients = 8;
    std::atomic<bool> go{false};
    std::atomic<int> responses{0};
    std::atomic<int> settled{0};  // clients connected or failed to
    {
      api::Server server(engine, unix_opts(sock));
      ASSERT_TRUE(server.start().ok());

      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          api::Client client(sock);
          settled.fetch_add(1, std::memory_order_release);
          if (!client.status().ok()) return;
          while (!go.load(std::memory_order_acquire)) {}
          uint64_t last_id = 1;
          for (int i = 0; i < 24; ++i) {
            // Rotate submit / cancel / watch / wait / ping so handlers
            // sit in every code path when stop() lands mid-round.
            const int pick = (c + i) % 6;
            if (pick == 0) {
              auto sub = client.call_json(
                  R"({"op":"submit","kind":"simulate","workload":"SSAO",)"
                  R"("scale":"sample"})");
              if (!sub.ok()) return;
              if (sub->get("job")) last_id = sub->get("job")->as_int();
            } else if (pick == 1) {
              if (!client.call(R"({"op":"cancel","job":)" +
                               std::to_string(last_id) + "}")
                       .ok())
                return;
            } else if (pick == 2) {
              if (!client.watch(last_id, 40).ok()) return;
            } else if (pick == 3) {
              if (!client.call(R"({"op":"wait","job":)" +
                               std::to_string(last_id) +
                               R"(,"timeout_ms":40})")
                       .ok())
                return;
            } else {
              if (!client.call(R"({"op":"ping"})").ok()) return;
            }
            responses.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      go.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      server.stop();
      for (auto& t : clients) t.join();
    }
    EXPECT_GT(responses.load(), 0) << "round " << round;
    // The Engine survives each server generation; drain between rounds so
    // cancelled stragglers do not pile up.
    engine.drain(5000);
  }
}

// ------------------------------------------------- accept-loop resilience
//
// accept() failing with EMFILE (the process is out of descriptors) must
// not end the accept thread: the pending connection stays in the backlog,
// so once descriptors free up the daemon accepts it and every later one.

TEST(Daemon, AcceptLoopSurvivesDescriptorExhaustion) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  const std::string sock = "./gpurfd_emfile.sock";
  api::Server server(engine, unix_opts(sock));
  ASSERT_TRUE(server.start().ok());

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  const int pending = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(pending, 0);

  // Cap the soft descriptor limit just above the highest open fd and fill
  // every free slot below it, so the server's next accept() hits EMFILE.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  int max_fd = pending;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd"))
    max_fd = std::max(max_fd, std::atoi(entry.path().filename().c_str()));
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(max_fd) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> fillers;
  for (int fd; (fd = ::dup(pending)) >= 0;) fillers.push_back(fd);
  const int dup_errno = errno;

  // The connect needs no new descriptor; it parks in the backlog while
  // the accept thread fails with EMFILE.
  const int rc = ::connect(pending, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  const int connect_errno = errno;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(dup_errno, EMFILE);
  ASSERT_EQ(rc, 0) << std::strerror(connect_errno);

  api::ClientOptions copts;
  copts.retries = 0;
  copts.connect_timeout_ms = 2000;
  copts.read_timeout_ms = 3000;
  const auto t0 = std::chrono::steady_clock::now();
  api::Client client(sock, copts);
  ASSERT_TRUE(client.status().ok()) << client.status().to_string();
  auto pong = client.call_json(R"({"op":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status().to_string();
  EXPECT_TRUE(pong->get("ok")->as_bool());
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            3.0);
  ::close(pending);
  server.stop();
}

}  // namespace
}  // namespace gpurf
