// Serving (ISSUE 8): latency histograms, the TCP transport, watch
// subscriptions, chunked result streaming, auth tokens and per-token
// quotas.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "api/metrics.hpp"
#include "api/server.hpp"

namespace gpurf {
namespace {

EngineOptions test_engine_opts() {
  return EngineOptions().with_threads(1).with_disk_cache(false);
}

std::string submit_line(const std::string& workload,
                        const std::string& extra = "") {
  return R"({"op":"submit","kind":"simulate","workload":")" + workload +
         R"(","scale":"sample")" + extra + "}";
}

// ------------------------------------------------------ log2 histograms

TEST(Histogram, BucketMappingAndPercentiles) {
  LatencyHistogram h;
  h.record_us(0);    // bucket 0
  h.record_us(1);    // bit_width 1 -> bucket 1, le 1
  h.record_us(3);    // bit_width 2 -> bucket 2, le 3
  h.record_us(4);    // bit_width 3 -> bucket 3, le 7
  h.record_us(100);  // bit_width 7 -> bucket 7, le 127
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum_us, 108u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.buckets[7], 1u);

  // Percentiles return the containing bucket's upper bound: at most 2x
  // above the true sample, never below it.
  EXPECT_EQ(s.percentile_us(0.0), 0u);
  EXPECT_EQ(s.percentile_us(0.5), 3u);
  EXPECT_EQ(s.percentile_us(0.99), 127u);
  EXPECT_EQ(s.percentile_us(1.0), 127u);
  EXPECT_DOUBLE_EQ(s.mean_us(), 108.0 / 5.0);

  // Values past the last bucket boundary land in the open-ended bucket.
  LatencyHistogram big;
  big.record_us(~uint64_t{0});
  EXPECT_EQ(big.snapshot().buckets[HistogramSnapshot::kBuckets - 1], 1u);
  EXPECT_EQ(big.snapshot().percentile_us(0.5), ~uint64_t{0});
}

TEST(Histogram, EmptySnapshotIsZero) {
  const HistogramSnapshot s = LatencyHistogram().snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.percentile_us(0.5), 0u);
  EXPECT_DOUBLE_EQ(s.mean_us(), 0.0);
}

// ------------------------------------------------------- TCP transport

TEST(ServeTcp, RoundTripMatchesUnixBitForBit) {
  Engine engine(test_engine_opts().with_threads(2));
  api::ServerOptions sopts;
  sopts.socket_path = "./serve_tcp_test.sock";
  sopts.listen_port = 0;  // ephemeral
  api::Server server(engine, sopts);
  ASSERT_TRUE(server.start().ok());
  ASSERT_GT(server.tcp_port(), 0);

  api::Client unix_c(sopts.socket_path);
  api::Client tcp_c("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(unix_c.status().ok()) << unix_c.status().to_string();
  ASSERT_TRUE(tcp_c.status().ok()) << tcp_c.status().to_string();

  // Same deterministic simulation through both transports; results must
  // deep-compare equal (chunked on TCP to also cover reassembly).
  auto submit_and_wait = [](api::Client& c, const std::string& req,
                            bool stream) {
    auto sub = c.call_json(req);
    EXPECT_TRUE(sub.ok());
    const uint64_t id = static_cast<uint64_t>(sub->get("job")->as_int());
    const std::string wait =
        R"({"op":"wait","job":)" + std::to_string(id) +
        R"(,"timeout_ms":600000)" +
        (stream ? R"(,"stream":true,"chunk_bytes":300})" : "}");
    return c.call_json(wait);
  };
  auto via_unix = submit_and_wait(unix_c, submit_line("DWT2D"), false);
  auto via_tcp = submit_and_wait(tcp_c, submit_line("DWT2D"), true);
  ASSERT_TRUE(via_unix.ok()) << via_unix.status().to_string();
  ASSERT_TRUE(via_tcp.ok()) << via_tcp.status().to_string();
  EXPECT_EQ(via_unix->get("state")->as_string(), "done");
  EXPECT_EQ(via_tcp->get("state")->as_string(), "done");
  // The chunked envelope advertised its framing...
  ASSERT_NE(via_tcp->get("result_chunks"), nullptr);
  EXPECT_GT(via_tcp->get("result_chunks")->as_int(), 1);
  // ...and the reassembled payload is identical to the inline one.
  ASSERT_NE(via_unix->get("result"), nullptr);
  ASSERT_NE(via_tcp->get("result"), nullptr);
  EXPECT_TRUE(api::deep_equal(*via_unix->get("result"),
                              *via_tcp->get("result")));
  server.stop();
}

TEST(ServeTcp, WatchStreamsProgressAndAgreesWithWait) {
  Engine engine(test_engine_opts());
  api::ServerOptions sopts;
  sopts.listen_port = 0;  // TCP only — no unix socket at all
  api::Server server(engine, sopts);
  ASSERT_TRUE(server.start().ok());

  api::Client c("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(c.status().ok()) << c.status().to_string();
  auto sub = c.call_json(submit_line("SSAO"));
  ASSERT_TRUE(sub.ok());
  const uint64_t id = static_cast<uint64_t>(sub->get("job")->as_int());

  std::vector<std::string> events;
  auto terminal = c.watch(id, 600000, [&](const api::JsonValue& ev) {
    events.push_back(ev.get("state") ? ev.get("state")->as_string() : "?");
  });
  ASSERT_TRUE(terminal.ok()) << terminal.status().to_string();
  EXPECT_EQ(terminal->get("event")->as_string(), "terminal");
  EXPECT_EQ(terminal->get("state")->as_string(), "done");
  ASSERT_NE(terminal->get("result"), nullptr);

  // The terminal state watch saw is the state a poll sees.
  auto polled = c.call_json(R"({"op":"status","job":)" + std::to_string(id) +
                            "}");
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->get("state")->as_string(), "done");
  // Progress events (if any fired for this fast sample job) were all
  // non-terminal.
  for (const std::string& s : events) EXPECT_NE(s, "done");
  server.stop();
}

TEST(ServeTcp, AuthTokensGateEveryOp) {
  Engine engine(test_engine_opts());
  api::ServerOptions sopts;
  sopts.listen_port = 0;
  sopts.auth_tokens = {"secret-a", "secret-b"};
  api::Server server(engine, sopts);
  ASSERT_TRUE(server.start().ok());

  api::Client c("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(c.status().ok());
  auto anon = c.call_json(R"({"op":"ping"})");
  ASSERT_TRUE(anon.ok());
  EXPECT_FALSE(anon->get("ok")->as_bool());
  EXPECT_EQ(anon->get("error")->get("code")->as_string(), "UNAUTHENTICATED");

  auto bad = c.call_json(R"({"op":"ping","token":"wrong"})");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->get("error")->get("code")->as_string(), "UNAUTHENTICATED");

  auto good = c.call_json(R"({"op":"ping","token":"secret-b"})");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->get("ok")->as_bool());
  server.stop();
}

TEST(ServeTcp, QuotaRejectionsCarryRetryAfter) {
  Engine engine(test_engine_opts());
  api::ServerOptions sopts;
  sopts.listen_port = 0;
  sopts.token_rate = 0.5;  // one submit per 2s sustained...
  sopts.token_burst = 1.0;  // ...with a burst budget of exactly one
  api::Server server(engine, sopts);
  ASSERT_TRUE(server.start().ok());
  api::Client c("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(c.status().ok());

  auto first = c.call_json(submit_line("DWT2D"));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->get("ok")->as_bool());

  auto second = c.call_json(submit_line("DWT2D"));
  ASSERT_TRUE(second.ok());
  ASSERT_FALSE(second->get("ok")->as_bool());
  EXPECT_EQ(second->get("error")->get("code")->as_string(),
            "RESOURCE_EXHAUSTED");
  // The structured back-off hint is where a client learns when to come
  // back: with rate 0.5/s and an empty bucket that is ~2000ms out.
  const int64_t retry = api::envelope_retry_after_ms(*second);
  EXPECT_GE(retry, 1);
  EXPECT_LE(retry, 2100);
  // Non-quota errors carry no hint.
  auto miss = c.call_json(R"({"op":"status","job":999999})");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(api::envelope_retry_after_ms(*miss), -1);
  // Ping is not rate limited — only submit consumes quota.
  auto pong = c.call_json(R"({"op":"ping"})");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->get("ok")->as_bool());
  server.stop();
}

TEST(ServeTcp, InflightQuotaReleasesOnTerminal) {
  Engine engine(test_engine_opts());
  api::ServerOptions sopts;
  sopts.listen_port = 0;
  sopts.token_max_inflight = 1;
  api::Server server(engine, sopts);
  ASSERT_TRUE(server.start().ok());
  api::Client c("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(c.status().ok());

  auto first = c.call_json(submit_line("DWT2D"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->get("ok")->as_bool());
  const uint64_t id = static_cast<uint64_t>(first->get("job")->as_int());

  // While the first job is unfinished a second submit is rejected with
  // the structured hint; if the first already finished, the second is
  // simply accepted and becomes the in-flight job instead.
  uint64_t inflight_id = id;
  auto second = c.call_json(submit_line("DWT2D"));
  ASSERT_TRUE(second.ok());
  if (!second->get("ok")->as_bool()) {
    EXPECT_EQ(second->get("error")->get("code")->as_string(),
              "RESOURCE_EXHAUSTED");
    EXPECT_GE(api::envelope_retry_after_ms(*second), 0);
  } else {
    inflight_id = static_cast<uint64_t>(second->get("job")->as_int());
  }
  // Once every submitted job is terminal, the slot MUST be free again.
  auto done = c.call_json(R"({"op":"wait","job":)" +
                          std::to_string(inflight_id) +
                          R"(,"timeout_ms":600000})");
  ASSERT_TRUE(done.ok());
  auto third = c.call_json(submit_line("DWT2D"));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->get("ok")->as_bool()) << "in-flight slot not released";
  server.stop();
}

TEST(ServeTcp, OversizedRequestRejectedAndConnectionClosed) {
  Engine engine(test_engine_opts());
  api::ServerOptions sopts;
  sopts.listen_port = 0;
  sopts.max_request_bytes = 256;
  api::Server server(engine, sopts);
  ASSERT_TRUE(server.start().ok());
  api::Client c("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(c.status().ok());

  std::string huge = R"({"op":"ping","pad":")";
  huge.append(1024, 'x');
  huge += R"("})";
  auto resp = c.call_json(huge);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  EXPECT_FALSE(resp->get("ok")->as_bool());
  EXPECT_EQ(resp->get("error")->get("code")->as_string(), "INVALID_ARGUMENT");
  // The stream cannot be resynchronised; the server hangs up.
  auto after = c.call("{\"op\":\"ping\"}");
  EXPECT_FALSE(after.ok());
  server.stop();
}

TEST(ServeTcp, IdleConnectionsAreDropped) {
  Engine engine(test_engine_opts());
  api::ServerOptions sopts;
  sopts.listen_port = 0;
  sopts.idle_timeout_ms = 100;
  api::Server server(engine, sopts);
  ASSERT_TRUE(server.start().ok());
  api::Client c("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(c.status().ok());
  ASSERT_TRUE(c.call("{\"op\":\"ping\"}").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto resp = c.call("{\"op\":\"ping\"}");
  EXPECT_FALSE(resp.ok()) << "idle connection survived the timeout";
  server.stop();
}

TEST(Serve, HistogramsOpExportsAllStages) {
  Engine engine(test_engine_opts());
  api::ServerOptions sopts;
  sopts.socket_path = "./serve_hist_test.sock";
  api::Server server(engine, sopts);
  ASSERT_TRUE(server.start().ok());
  api::Client c(server.socket_path());
  ASSERT_TRUE(c.status().ok());

  auto sub = c.call_json(submit_line("DWT2D"));
  ASSERT_TRUE(sub.ok());
  const uint64_t id = static_cast<uint64_t>(sub->get("job")->as_int());
  ASSERT_TRUE(c.call_json(R"({"op":"wait","job":)" + std::to_string(id) +
                          R"(,"timeout_ms":600000})")
                  .ok());

  auto h = c.call_json(R"({"op":"histograms"})");
  ASSERT_TRUE(h.ok());
  const api::JsonValue* hh = h->get("histograms");
  ASSERT_NE(hh, nullptr);
  for (const char* stage : {"queue_wait", "tune", "sim", "serialize"}) {
    const api::JsonValue* s = hh->get(stage);
    ASSERT_NE(s, nullptr) << stage;
    EXPECT_NE(s->get("count"), nullptr) << stage;
    EXPECT_NE(s->get("p99_us"), nullptr) << stage;
    EXPECT_NE(s->get("buckets"), nullptr) << stage;
  }
  // The engine stages saw the job; serialize saw these requests.
  EXPECT_GE(hh->get("queue_wait")->get("count")->as_int(), 1);
  EXPECT_GE(hh->get("serialize")->get("count")->as_int(), 1);
  // Envelope metrics carry the summary form.
  const api::JsonValue* lat = h->get("metrics")->get("latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_NE(lat->get("sim"), nullptr);
  server.stop();
}

TEST(Serve, DeepEqualIgnoresObjectOrderButNotValues) {
  auto a = api::parse_json(R"({"x":1,"y":[1,2,{"k":true}],"z":"s"})");
  auto b = api::parse_json(R"({"z":"s","x":1,"y":[1,2,{"k":true}]})");
  auto c = api::parse_json(R"({"z":"s","x":1,"y":[2,1,{"k":true}]})");
  auto d = api::parse_json(R"({"x":1,"y":[1,2,{"k":true}]})");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_TRUE(api::deep_equal(*a, *b));
  EXPECT_FALSE(api::deep_equal(*a, *c));  // array order matters
  EXPECT_FALSE(api::deep_equal(*a, *d));  // missing member matters
  EXPECT_TRUE(api::deep_equal(*a, *a));
}

}  // namespace
}  // namespace gpurf
