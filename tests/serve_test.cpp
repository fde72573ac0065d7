// Serving: latency histograms, watch subscriptions, the oversized-request
// guard and tolerance of request fields older clients still send.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
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

// ------------------------------------------------- watch + request guard

TEST(Serve, WatchStreamsProgressAndAgreesWithWait) {
  Engine engine(test_engine_opts());
  api::ServerOptions sopts;
  sopts.socket_path = "./serve_watch_test.sock";
  api::Server server(engine, sopts);
  ASSERT_TRUE(server.start().ok());

  api::Client c(server.socket_path());
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

TEST(Serve, OversizedRequestRejectedAndConnectionClosed) {
  Engine engine(test_engine_opts());
  api::ServerOptions sopts;
  sopts.socket_path = "./serve_oversize_test.sock";
  api::Server server(engine, sopts);
  ASSERT_TRUE(server.start().ok());
  api::Client c(server.socket_path());
  ASSERT_TRUE(c.status().ok());

  // Just over the daemon's 1 MiB request-line limit.
  std::string huge = R"({"op":"ping","pad":")";
  huge.append(size_t{1} << 20, 'x');
  huge += R"("})";
  auto resp = c.call_json(huge);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  EXPECT_FALSE(resp->get("ok")->as_bool());
  EXPECT_EQ(resp->get("error")->get("code")->as_string(), "INVALID_ARGUMENT");
  // The stream cannot be resynchronised; the server hangs up.
  auto after = c.call("{\"op\":\"ping\"}");
  EXPECT_FALSE(after.ok());

  // A request a little under the limit is still served.
  api::Client ok_c(server.socket_path());
  std::string big = R"({"op":"ping","pad":")";
  big.append((size_t{1} << 20) - 64, 'x');
  big += R"("})";
  auto pong = ok_c.call_json(big);
  ASSERT_TRUE(pong.ok()) << pong.status().to_string();
  EXPECT_TRUE(pong->get("ok")->as_bool());
  server.stop();
}

TEST(Serve, WritebackDelayIsBounded) {
  // A negative delay is rejected at submit; one above the Engine's limit
  // fails the job before any tuning or simulation.
  const auto t0 = std::chrono::steady_clock::now();
  Engine engine(test_engine_opts());
  api::Server server(engine, api::ServerOptions{});
  auto neg = api::parse_json(server.handle_request_line(
      submit_line("DWT2D", R"(,"writeback_delay":-1)")));
  ASSERT_TRUE(neg.ok());
  EXPECT_FALSE(neg->get("ok")->as_bool());
  EXPECT_EQ(neg->get("error")->get("code")->as_string(), "INVALID_ARGUMENT");

  auto big = api::parse_json(server.handle_request_line(
      submit_line("DWT2D", R"(,"writeback_delay":4294967296)")));
  ASSERT_TRUE(big.ok());
  ASSERT_NE(big->get("job"), nullptr);
  auto done = api::parse_json(server.handle_request_line(
      R"({"op":"wait","job":)" + std::to_string(big->get("job")->as_int()) +
      R"(,"timeout_ms":600000})"));
  ASSERT_TRUE(done.ok()) << done.status().to_string();
  EXPECT_EQ(done->get("state")->as_string(), "done");
  EXPECT_EQ(done->get("job_error")->get("code")->as_string(),
            "INVALID_ARGUMENT");
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            1.0);
}

TEST(Serve, LegacyTokenAndStreamFieldsAreIgnored) {
  // Older clients may still send "token", "stream", "retune_on_faults"
  // and "quality_floor"; like any unknown field they are ignored and the
  // result comes inline.
  Engine engine(test_engine_opts());
  api::Server server(engine, api::ServerOptions{});
  auto pong = api::parse_json(
      server.handle_request_line(R"({"op":"ping","token":"t"})"));
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->get("ok")->as_bool());

  auto sub = api::parse_json(server.handle_request_line(
      submit_line("DWT2D", R"(,"token":"t","retune_on_faults":true)")));
  ASSERT_TRUE(sub.ok());
  ASSERT_NE(sub->get("job"), nullptr);
  const std::string id = std::to_string(sub->get("job")->as_int());
  const std::string resp = server.handle_request_line(
      R"({"op":"wait","job":)" + id +
      R"(,"timeout_ms":600000,"stream":true})");
  EXPECT_EQ(resp.find('\n'), std::string::npos);
  auto done = api::parse_json(resp);
  ASSERT_TRUE(done.ok()) << done.status().to_string();
  EXPECT_EQ(done->get("state")->as_string(), "done");
  EXPECT_NE(done->get("result"), nullptr);

  // A floor would have forced quality scoring on; ignored, it does not.
  auto camp = api::parse_json(server.handle_request_line(
      R"({"op":"submit","kind":"fault_campaign","workload":"DWT2D",)"
      R"("scale":"sample","densities":[0.01],"maps_per_density":1,)"
      R"("retune_on_faults":true,"quality_floor":1e-12})"));
  ASSERT_TRUE(camp.ok());
  ASSERT_NE(camp->get("job"), nullptr);
  auto cdone = api::parse_json(server.handle_request_line(
      R"({"op":"wait","job":)" + std::to_string(camp->get("job")->as_int()) +
      R"(,"timeout_ms":600000})"));
  ASSERT_TRUE(cdone.ok()) << cdone.status().to_string();
  EXPECT_EQ(cdone->get("state")->as_string(), "done");
  const api::JsonValue* result = cdone->get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_FALSE(result->get("truncated")->as_bool(true));
  const api::JsonValue* points = result->get("points");
  ASSERT_TRUE(points && points->items.size() == 1u);
  const api::JsonValue* fault = points->items[0].get("fault");
  ASSERT_NE(fault, nullptr);
  EXPECT_TRUE(fault->get("active")->as_bool());
  EXPECT_FALSE(fault->get("quality_scored")->as_bool(true));
  EXPECT_FALSE(fault->get("retuned")->as_bool(true));
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
