// Job API (ISSUE 4): state machine, cooperative cancellation, deadlines
// (queue wait and execution), priority scheduling, metrics, and the
// cache-consistency guarantee — a cancelled job leaves no partial memo or
// disk-cache entry, and an un-cancelled re-run of the same workload is
// bit-identical to a never-cancelled baseline.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "common/cancel.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf {
namespace {

namespace wl = gpurf::workloads;
namespace fs = std::filesystem;
using std::chrono::milliseconds;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::path(".") / name).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

void expect_same_pipeline(const wl::PipelineResult& a,
                          const wl::PipelineResult& b) {
  ASSERT_EQ(a.tune_perfect.pmap.per_reg.size(),
            b.tune_perfect.pmap.per_reg.size());
  for (size_t r = 0; r < a.tune_perfect.pmap.per_reg.size(); ++r) {
    EXPECT_TRUE(a.tune_perfect.pmap.per_reg[r] ==
                b.tune_perfect.pmap.per_reg[r])
        << "perfect reg " << r;
    EXPECT_TRUE(a.tune_high.pmap.per_reg[r] == b.tune_high.pmap.per_reg[r])
        << "high reg " << r;
  }
  EXPECT_EQ(a.tune_perfect.final_score, b.tune_perfect.final_score);
  EXPECT_EQ(a.tune_high.final_score, b.tune_high.final_score);
  EXPECT_EQ(a.pressure.original, b.pressure.original);
  EXPECT_EQ(a.pressure.both_perfect, b.pressure.both_perfect);
  EXPECT_EQ(a.pressure.both_high, b.pressure.both_high);
}

// ----------------------------------------------------------- CancelToken

TEST(CancelToken, CancelAndDeadlineCheckpoints) {
  common::CancelToken t;
  EXPECT_EQ(t.stop_reason(), common::StopReason::kNone);
  EXPECT_NO_THROW(t.checkpoint());

  t.cancel();
  EXPECT_EQ(t.stop_reason(), common::StopReason::kCancelled);
  EXPECT_THROW(t.checkpoint(), common::CancelledError);
  try {
    t.checkpoint();
    FAIL() << "checkpoint did not throw";
  } catch (const common::CancelledError& e) {
    EXPECT_EQ(e.reason(), common::StopReason::kCancelled);
  }

  common::CancelToken d;
  d.set_deadline(common::CancelToken::Clock::now() - milliseconds(1));
  EXPECT_EQ(d.stop_reason(), common::StopReason::kDeadline);
  try {
    d.checkpoint();
    FAIL() << "checkpoint did not throw";
  } catch (const common::CancelledError& e) {
    EXPECT_EQ(e.reason(), common::StopReason::kDeadline);
  }

  // Explicit cancellation wins over an elapsed deadline.
  d.cancel();
  EXPECT_EQ(d.stop_reason(), common::StopReason::kCancelled);
}

// ------------------------------------------------------- state machine

TEST(Job, CompletesWithResultAndProgress) {
  TempDir dir("gpurf_job_cache_done");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));

  Job job = engine.submit(JobRequest::pipeline("DWT2D"));
  ASSERT_TRUE(job.valid());
  EXPECT_GT(job.id(), 0u);
  job.wait();
  EXPECT_EQ(job.state(), JobState::kDone);
  EXPECT_TRUE(job.status().ok()) << job.status().to_string();

  auto pr = job.pipeline_result();
  ASSERT_TRUE(pr.ok()) << pr.status().to_string();
  EXPECT_GT(pr->pressure.original, 0u);

  const JobProgress p = job.progress();
  EXPECT_EQ(p.state, JobState::kDone);
  EXPECT_EQ(p.stage, common::JobStage::kFinished);
  EXPECT_GT(p.tuner_evaluations, 0);  // it really tuned
  EXPECT_GT(p.run_seq, 0u);
  EXPECT_GT(p.wall_ms, 0.0);

  // Kind mismatch is an error, not a crash.
  EXPECT_FALSE(job.sim_result().ok());

  // The registry still knows the job.
  auto found = engine.find_job(job.id());
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->id(), job.id());
  EXPECT_FALSE(engine.find_job(99999u).ok());
}

TEST(Job, UnknownWorkloadFailsWithStatus) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  Job job = engine.submit(JobRequest::pipeline("NoSuchKernel"));
  job.wait();
  EXPECT_EQ(job.state(), JobState::kDone);
  EXPECT_EQ(job.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(job.pipeline_result().ok());
}

// ------------------------------------------- cancellation (acceptance)

TEST(Job, CancelMidTuneLeavesCachesConsistent) {
  // Reference: a never-cancelled pipeline, computed on an isolated engine.
  const auto w = wl::make_gicov();
  wl::PipelineResult ref;
  {
    Engine baseline(EngineOptions().with_threads(2).with_disk_cache(false));
    auto r = baseline.compute_pipeline(*w);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    ref = *r;
  }

  TempDir dir("gpurf_job_cache_cancel");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));

  // GICOV's tune takes seconds, so the cancel below lands mid-tune with a
  // wide margin.  Wait until the job is observably inside the tuner (at
  // least one probe evaluated) before cancelling.
  Job job = engine.submit(JobRequest::pipeline("GICOV"));
  const auto t0 = std::chrono::steady_clock::now();
  while (job.progress().tuner_evaluations < 1 && !job.done()) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::minutes(5));
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_FALSE(job.done()) << "tune finished before the cancel could land";
  const auto cancel_at = std::chrono::steady_clock::now();
  job.cancel();
  job.wait();
  const auto cancelled_after =
      std::chrono::steady_clock::now() - cancel_at;
  EXPECT_EQ(job.state(), JobState::kCancelled);
  EXPECT_EQ(job.status().code(), StatusCode::kCancelled);
  // "Within one probe batch": generous absolute bound so slow CI machines
  // pass, but far below the multi-second full tune this interrupted.
  EXPECT_LT(cancelled_after, std::chrono::seconds(30));

  // No partial disk-cache entry: the cancelled tune stored nothing.
  tuning::TuneResult perfect, high;
  EXPECT_EQ(wl::load_pmap_cache(*w, dir.path, perfect, high).code(),
            StatusCode::kNotFound);

  // No poisoned memo: a fresh, un-cancelled request on the SAME engine
  // recomputes from scratch and is bit-identical to the baseline.
  auto rerun = engine.pipeline("GICOV");
  ASSERT_TRUE(rerun.ok()) << rerun.status().to_string();
  expect_same_pipeline(ref, **rerun);

  // And now the disk cache holds a complete, loadable entry.
  EXPECT_TRUE(wl::load_pmap_cache(*w, dir.path, perfect, high).ok());
}

TEST(Job, CancelWhileQueuedIsImmediate) {
  TempDir dir("gpurf_job_cache_qcancel");
  Engine engine(EngineOptions()
                    .with_threads(1)
                    .with_cache_dir(dir.path)
                    .with_async_workers(1)
                    .with_max_inflight(8));
  // Occupy the single worker, then cancel a queued job: it must go
  // terminal without waiting for the blocker to finish.
  Job blocker = engine.submit(JobRequest::pipeline("GICOV"));
  Job queued = engine.submit(JobRequest::pipeline("Hotspot"));
  queued.cancel();
  EXPECT_TRUE(queued.wait_for(milliseconds(1000)));
  EXPECT_EQ(queued.state(), JobState::kCancelled);
  EXPECT_EQ(queued.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(queued.progress().run_seq, 0u);  // never started
  blocker.cancel();
  blocker.wait();
}

TEST(Job, CancelMidFlightShardedSimulate) {
  // ISSUE 5: the cancel/progress checkpoint threads through the sharded
  // simulator's per-cycle barrier, so cancelling a multi-SM simulation
  // stops it within one 4096-cycle slice, exactly like the serial path.
  TempDir dir("gpurf_job_cache_simcancel");
  // 10x memory latencies stretch the DWT2D full-scale run to ~150k cycles
  // (dozens of heartbeat slices) so the cancel reliably lands mid-sim.
  sim::GpuConfig slow = sim::GpuConfig::fermi_gtx480();
  slow.lat_l1_hit *= 10;
  slow.lat_l2_hit *= 10;
  slow.lat_dram *= 10;
  Engine engine(EngineOptions()
                    .with_threads(2)
                    .with_sim_shards(2)
                    .with_cache_dir(dir.path)
                    .with_gpu(slow));
  SimRequest req;
  req.mode = wl::SimMode::kOriginal;
  req.sim_shards = 2;
  Job job = engine.submit(JobRequest::simulate("DWT2D", req));

  // Wait for the first simulated-cycle heartbeat (published every 4096
  // cycles from the barrier phase), then cancel.
  JobProgress p;
  do {
    ASSERT_FALSE(job.done())
        << "simulation finished before a heartbeat was observed";
    std::this_thread::sleep_for(milliseconds(1));
    p = job.progress();
  } while (p.sim_cycles == 0);
  EXPECT_EQ(p.stage, common::JobStage::kSimulating);
  job.cancel();
  job.wait();
  EXPECT_EQ(job.state(), JobState::kCancelled);
  EXPECT_EQ(job.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(job.sim_result().ok());
  EXPECT_EQ(engine.inflight(), 0u);

  // A re-run on the same Engine is unaffected by the abandoned run and
  // matches a sharded=1 serial reference bit for bit.
  SimRequest serial_req = req;
  serial_req.sim_shards = 1;
  auto serial = engine.simulate("DWT2D", serial_req);
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();
  Job rerun = engine.submit(JobRequest::simulate("DWT2D", req));
  rerun.wait();
  ASSERT_TRUE(rerun.status().ok()) << rerun.status().to_string();
  auto sharded = rerun.sim_result();
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(serial->stats.cycles, sharded->stats.cycles);
  EXPECT_EQ(serial->stats.thread_insts, sharded->stats.thread_insts);
  EXPECT_EQ(serial->stats.l2.accesses, sharded->stats.l2.accesses);
  EXPECT_EQ(serial->stats.l2.misses, sharded->stats.l2.misses);
  EXPECT_GT(rerun.progress().sim_cycles, 0u);
}

// ----------------------------------------------------------- deadlines

TEST(Job, DeadlineExceededWhileRunning) {
  Engine engine(EngineOptions().with_threads(1).with_disk_cache(false));
  Job job = engine.submit(
      JobRequest::pipeline("GICOV").with_deadline_ms(30));
  job.wait();
  EXPECT_EQ(job.state(), JobState::kDeadlineExceeded);
  EXPECT_EQ(job.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(Job, DeadlineAppliesToQueueWait) {
  TempDir dir("gpurf_job_cache_qdeadline");
  Engine engine(EngineOptions()
                    .with_threads(1)
                    .with_cache_dir(dir.path)
                    .with_async_workers(1)
                    .with_max_inflight(1));
  // The blocker consumes the only in-flight slot for seconds; the second
  // submit must give up at its deadline instead of blocking forever
  // (ISSUE 4 satellite: the pre-Job API blocked submitters indefinitely).
  Job blocker = engine.submit(JobRequest::pipeline("GICOV"));
  const auto t0 = std::chrono::steady_clock::now();
  Job rejected = engine.submit(
      JobRequest::pipeline("Hotspot").with_deadline_ms(100));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(rejected.state(), JobState::kDeadlineExceeded);
  EXPECT_EQ(rejected.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(waited, milliseconds(90));
  EXPECT_LT(waited, std::chrono::seconds(30));
  blocker.cancel();
  blocker.wait();
  EXPECT_EQ(engine.inflight(), 0u);
}

// ------------------------------------------------------------ priority

TEST(Job, PriorityOrdersASaturatedQueue) {
  TempDir dir("gpurf_job_cache_prio");
  Engine engine(EngineOptions()
                    .with_threads(1)
                    .with_cache_dir(dir.path)
                    .with_async_workers(1)
                    .with_max_inflight(8));
  // One worker: the blocker runs while low/high sit in the queue, so the
  // dequeue order is decided purely by priority — the high-priority job
  // must start (acquire its run_seq) before the earlier-submitted low one.
  Job blocker = engine.submit(JobRequest::pipeline("DWT2D"));
  while (blocker.progress().run_seq == 0 && !blocker.done())
    std::this_thread::sleep_for(milliseconds(1));
  Job low = engine.submit(JobRequest::pipeline("Hotspot").with_priority(0));
  Job high =
      engine.submit(JobRequest::pipeline("Hybridsort").with_priority(5));
  blocker.wait();
  low.wait();
  high.wait();
  ASSERT_EQ(blocker.state(), JobState::kDone)
      << blocker.status().to_string();
  ASSERT_EQ(low.state(), JobState::kDone) << low.status().to_string();
  ASSERT_EQ(high.state(), JobState::kDone) << high.status().to_string();
  EXPECT_LT(blocker.progress().run_seq, high.progress().run_seq);
  EXPECT_LT(high.progress().run_seq, low.progress().run_seq);
}

// ------------------------------------------------------------- metrics

TEST(Engine, MetricsJsonCountsCacheTrafficAndJobs) {
  TempDir dir("gpurf_job_cache_metrics");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));

  Job job = engine.submit(JobRequest::pipeline("DWT2D"));
  job.wait();
  ASSERT_EQ(job.state(), JobState::kDone);
  ASSERT_TRUE(engine.pipeline("DWT2D").ok());  // memo hit

  const std::string snapshot = engine.metrics_json();
  auto parsed = api::parse_json(snapshot);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string() << "\n" << snapshot;
  ASSERT_TRUE(parsed->is_object());
  const auto counter = [&](const char* name) {
    const api::JsonValue* v = parsed->get(name);
    return v ? v->as_double(-1) : -1.0;
  };
  EXPECT_EQ(counter("pipeline_memo_misses"), 1);
  EXPECT_GE(counter("pipeline_memo_hits"), 1);
  // Kernel analyses are built by whoever owns the kernel and are not
  // memoized per Engine, so the snapshot has no counters for them.
  for (const auto& [key, value] : parsed->members)
    EXPECT_NE(key.rfind("analysis_cache", 0), 0u) << key;
  EXPECT_EQ(counter("jobs_submitted"), 1);
  EXPECT_EQ(counter("jobs_done"), 1);
  EXPECT_EQ(counter("jobs_failed"), 0);
  EXPECT_EQ(counter("queue_depth"), 0);
  EXPECT_EQ(counter("inflight"), 0);
  EXPECT_GT(counter("job_wall_ms_total"), 0.0);

  // Terminal-state counters: a failed job and a cancelled job.
  Job bad = engine.submit(JobRequest::pipeline("NoSuchKernel"));
  bad.wait();
  auto parsed2 = api::parse_json(engine.metrics_json());
  ASSERT_TRUE(parsed2.ok());
  const api::JsonValue* failed = parsed2->get("jobs_failed");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->as_int(), 1);
}

}  // namespace
}  // namespace gpurf
