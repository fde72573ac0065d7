// serve-mixed: the built gpurfd runs as a child process with its default
// options on an AF_UNIX socket, reading the benchmark's primed precision-map
// cache.  The benchmark first drives it open-loop: a seeded schedule of
// sample-scale simulate jobs (submit, then wait) at a ladder of fixed rates,
// mixed with status / ping / metrics / analyze control ops.  Then it runs a
// fixed closed-loop batch of jobs, in slices between host-speed probes,
// whose wall and daemon CPU time are the workload's.
//
// Connections: in the ladder, one front connection sends every scheduled
// op when it falls due (submits and control ops, in schedule order), and
// nproc - 1 waiter connections take submitted jobs in order and block in
// "wait".  Every latency is measured from the op's *scheduled* time, so a
// stall in the generator or the daemon also delays every op behind it; the
// generator's own lateness is recorded per op.  In the batch, nproc
// connections each submit and wait in turn.
//
// Every job result must deep_equal the in-process Engine's result for the
// same request (stored references, plus a live in-process spot check).

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "api/server.hpp"
#include "harness.hpp"

namespace pb {
namespace {

namespace api = gpurf::api;
namespace wl = gpurf::workloads;

/// Scheduled submit rates (jobs/s) of the open-loop ladder, bracketing the
/// daemon's capacity on a 4-vCPU host, where the closed-loop batch below
/// completes 11-19 jobs/s as other guests load the host.  In twenty runs
/// of a 9-15 ladder, 15 jobs/s passed in ten, 13 in seventeen, 11 in
/// nineteen and 9 in all.
const std::vector<double> kLadder = {9.0, 11.0, 13.0, 15.0, 17.0};
/// Share of --seconds the ladder takes; the closed-loop batch follows it.
constexpr double kLadderShare = 0.8;
/// Closed-loop batch: every (kernel, mode) pair this many times per
/// kBatchSecondsPerPass of --seconds (at least once), run as kBatchParts
/// consecutive slices with a host-speed probe before, between and after.
constexpr double kBatchSecondsPerPass = 3.75;
constexpr size_t kBatchParts = 8;
const std::vector<std::pair<wl::SimMode, const char*>> kModes = {
    {wl::SimMode::kOriginal, "original"},
    {wl::SimMode::kCompressedPerfect, "perfect"},
    {wl::SimMode::kCompressedHigh, "high"}};

enum class OpKind { kJob, kStatus, kPing, kMetrics, kAnalyze };

struct ScheduledOp {
  double due_s = 0.0;  ///< offset from the session start
  OpKind kind = OpKind::kJob;
  int rung = 0;
  std::string workload;
  int mode = 0;  ///< index into kModes
  uint32_t variant = 0;
};

struct JobKey {
  std::string workload;
  int mode = 0;
  uint32_t variant = 0;
  std::string str() const {
    return workload + "/" + kModes[mode].second + "/v" +
           std::to_string(variant);
  }
};

/// The open-loop ladder's ops.  Each rung gets rate x rung length jobs at
/// seeded uniform times (a Poisson process conditioned on its count), and
/// the jobs walk seeded permutations of every (kernel, mode) pair, so every
/// seed offers the same amount and mix of work; only arrival times, order
/// and variants change.  Control ops come in the proportions of
/// bench/bench_serve.cpp's load profile: per 5 submits, 11 status, 3 ping
/// and 1 slot (bench_serve's watch, which a waiter's "wait" covers here)
/// taken in turn by metrics and analyze.
std::vector<ScheduledOp> make_schedule(
    uint64_t seed, double seconds,
    const std::vector<std::pair<std::string, uint32_t>>& workloads) {
  Rng rng(seed);
  const auto shuffle = [&](auto& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  };
  std::vector<std::pair<size_t, int>> pairs;  // (workload index, mode)
  for (size_t w = 0; w < workloads.size(); ++w)
    for (size_t m = 0; m < kModes.size(); ++m)
      pairs.emplace_back(w, static_cast<int>(m));
  std::vector<std::pair<size_t, int>> deck;
  std::vector<ScheduledOp> ops;
  const double rung_s = seconds * kLadderShare / kLadder.size();
  bool metrics_turn = true;
  for (size_t r = 0; r < kLadder.size(); ++r) {
    const auto n = static_cast<size_t>(std::lround(kLadder[r] * rung_s));
    std::vector<OpKind> kinds(n, OpKind::kJob);
    kinds.insert(kinds.end(), (n * 11 + 2) / 5, OpKind::kStatus);
    kinds.insert(kinds.end(), (n * 3 + 2) / 5, OpKind::kPing);
    for (size_t i = 0; i < (n + 2) / 5; ++i, metrics_turn = !metrics_turn)
      kinds.push_back(metrics_turn ? OpKind::kMetrics : OpKind::kAnalyze);
    shuffle(kinds);
    std::vector<double> times(kinds.size());
    for (double& t : times) t = (r + rng.unit()) * rung_s;
    std::sort(times.begin(), times.end());
    for (size_t i = 0; i < kinds.size(); ++i) {
      ScheduledOp op;
      op.due_s = times[i];
      op.rung = static_cast<int>(r);
      op.kind = kinds[i];
      if (op.kind != OpKind::kJob) {
        op.workload = workloads[rng.below(workloads.size())].first;
        ops.push_back(op);
        continue;
      }
      if (deck.empty()) {
        deck = pairs;
        shuffle(deck);
      }
      const auto [w, mode] = deck.back();
      deck.pop_back();
      op.workload = workloads[w].first;
      op.mode = mode;
      op.variant = static_cast<uint32_t>(rng.below(workloads[w].second));
      ops.push_back(op);
    }
  }
  return ops;
}

/// The closed-loop batch: every (kernel, mode) pair `passes` times, pass p
/// at variant (seeded offset + p) mod variants, in seeded order.  With an
/// even number of passes and two sample variants every seed gives the same
/// work.
std::vector<JobKey> make_batch(
    uint64_t seed, double seconds,
    const std::vector<std::pair<std::string, uint32_t>>& workloads) {
  Rng rng(seed ^ 0xba7c4);
  const long passes =
      std::max(1L, std::lround(seconds / kBatchSecondsPerPass));
  std::vector<JobKey> keys;
  for (const auto& [name, variants] : workloads)
    for (size_t m = 0; m < kModes.size(); ++m) {
      const uint64_t offset = rng.below(variants);
      for (long p = 0; p < passes; ++p)
        keys.push_back({name, static_cast<int>(m),
                        static_cast<uint32_t>((offset + p) % variants)});
    }
  for (size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[rng.below(i)]);
  return keys;
}

/// `shards` > 0 sets the job's sim_shards; 0 leaves the daemon's default.
std::string submit_line(const JobKey& k, int shards = 0) {
  api::JsonWriter w;
  w.begin_object();
  w.field("op", "submit");
  w.field("kind", "simulate");
  w.field("workload", k.workload);
  w.field("mode", kModes[k.mode].second);
  w.field("scale", "sample");
  w.field("variant", static_cast<uint64_t>(k.variant));
  if (shards > 0) w.field("sim_shards", static_cast<int64_t>(shards));
  w.end_object();
  return w.str();
}

std::string job_line(const char* op, uint64_t job) {
  api::JsonWriter w;
  w.begin_object();
  w.field("op", op);
  w.field("job", job);
  if (std::string(op) == "wait") w.field("timeout_ms", int64_t{120000});
  w.end_object();
  return w.str();
}

/// Error text of a reply: transport failure, ok:false, or empty.
std::string reply_error(const gpurf::StatusOr<api::JsonValue>& r) {
  if (!r.ok()) return r.status().to_string();
  const api::JsonValue* ok = r->get("ok");
  if (!ok || !ok->as_bool(false)) {
    const api::JsonValue* e = r->get("error");
    const api::JsonValue* m = e ? e->get("message") : nullptr;
    return "error reply: " + (m ? m->as_string() : std::string("?"));
  }
  return {};
}

// ------------------------------------------------------------------ daemon

class Daemon {
 public:
  Daemon(const Options& o, const std::string& cache_dir, int index)
      : socket_(o.work_dir + "/d" + std::to_string(::getpid()) + "-" +
                std::to_string(index) + ".sock") {
    const std::string log = o.work_dir + "/gpurfd.log";
    t_spawn_ = now_s();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, even if it crashes.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execl(o.gpurfd.c_str(), "gpurfd", "--socket", socket_.c_str(),
              "--cache-dir", cache_dir.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& socket() const { return socket_; }
  double spawned_at() const { return t_spawn_; }

  /// Connect and ping until the first pong (empty on success).
  std::string wait_ready(std::unique_ptr<api::Client>& client) {
    const double deadline = now_s() + 60.0;
    while (now_s() < deadline) {
      int status = 0;
      if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return "gpurfd exited during start-up";
      }
      api::ClientOptions co;
      co.retries = 0;
      co.connect_timeout_ms = 200;
      client = std::make_unique<api::Client>(socket_, co);
      if (client->status().ok()) {
        auto r = client->call_json("{\"op\":\"ping\"}");
        if (reply_error(r).empty()) return {};
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return "gpurfd did not answer a ping within 60 s";
  }

  /// Ask for shutdown, reap the process and return its resource usage.
  Usage stop() {
    Usage u;
    if (pid_ <= 0) return u;
    {
      api::ClientOptions co;
      co.retries = 0;
      co.read_timeout_ms = 5000;
      api::Client c(socket_, co);
      if (c.status().ok()) (void)c.call("{\"op\":\"shutdown\"}");
    }
    const double deadline = now_s() + 30.0;
    int status = 0;
    struct rusage ru {};
    while (::wait4(pid_, &status, WNOHANG, &ru) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status, 0, &ru);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
    u.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
              ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    u.peak_rss_mb = ru.ru_maxrss / 1024.0;
    return u;
  }

 private:
  std::string socket_;
  double t_spawn_ = 0.0;
  pid_t pid_ = -1;
};

/// Start a daemon and bring it to its first timed op: first pong, then a
/// pipeline job per workload so every precision map is loaded from the
/// primed cache.  Returns the set-up time, or a negative value on failure.
double start_daemon(Daemon& d, std::unique_ptr<api::Client>& client,
                    const std::vector<std::pair<std::string, uint32_t>>& ws,
                    Report& rep) {
  const std::string err = d.wait_ready(client);
  if (!err.empty()) {
    rep.op(err);
    return -1.0;
  }
  for (const auto& [name, variants] : ws) {
    (void)variants;
    api::JsonWriter w;
    w.begin_object();
    w.field("op", "submit");
    w.field("kind", "pipeline");
    w.field("workload", name);
    w.end_object();
    auto sub = client->call_json(w.str());
    std::string e = reply_error(sub);
    if (e.empty()) {
      auto done = client->call_json(
          job_line("wait", static_cast<uint64_t>(sub->get("job")->as_int())));
      e = reply_error(done);
      if (e.empty() && done->get("state")->as_string() != "done")
        e = "pipeline job not done";
    }
    if (!e.empty()) {
      rep.op("warm " + name + ": " + e);
      return -1.0;
    }
  }
  return now_s() - d.spawned_at();
}

// -------------------------------------------------------------- load run

struct Pending {
  uint64_t job = 0;
  double due_abs = 0.0;
  double sent_abs = 0.0;
  JobKey key;
  int rung = 0;
};

struct JobOutcome {
  double due_s = 0.0;   ///< offset from session start
  double sent_s = 0.0;  ///< offset from session start
  double done_s = 0.0;  ///< offset from session start
  int rung = 0;
  bool ok = false;  ///< a failed job misses every latency limit
};

}  // namespace

Report run_serve_mixed(const Options& o) {
  Report rep;
  const int threads = nproc();
  const std::string cache_dir = o.work_dir + "/pmap_cache";

  // The in-process Engine answers the same requests for the live check;
  // it also lists the workloads and their sample variants.
  gpurf::Engine local(gpurf::EngineOptions()
                          .with_threads(threads)
                          .with_cache_dir(cache_dir)
                          .with_disk_cache(true));
  std::vector<std::pair<std::string, uint32_t>> workloads;
  for (const auto& name : local.workload_names())
    workloads.emplace_back(name, (*local.workload(name))->num_sample_variants());

  // Many set-ups per run (one costs about 0.08 s on a 4-vCPU host), some
  // before the session and the rest after it: set-up times drift with the
  // host's load over tens of seconds, and setup_s is their median.  The
  // last daemon started before the session carries the load.
  constexpr int kSetups = 25;
  const int setups_before = o.setup_only ? kSetups : kSetups / 2 + 1;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<api::Client> front;
  const auto set_up = [&](int index) {
    daemon = std::make_unique<Daemon>(o, cache_dir, index);
    const double s = start_daemon(*daemon, front, workloads, rep);
    if (s >= 0) rep.samples["setup_s"].push_back(s);
    return s >= 0;
  };
  const auto median_setup = [&] {
    auto setups = rep.samples["setup_s"];
    std::sort(setups.begin(), setups.end());
    return setups[setups.size() / 2];
  };
  for (int i = 0; i < setups_before; ++i) {
    if (!set_up(i)) return rep;
    if (i + 1 < setups_before) {
      front.reset();
      daemon->stop();
    }
  }
  if (o.setup_only) {
    rep.setup_s = median_setup();
    return rep;
  }

  References refs(o, "serve-mixed");
  const auto schedule = make_schedule(o.seed, o.seconds, workloads);

  // Waiter connections.
  const int waiters = std::max(1, threads - 1);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;  // guarded by mu
  bool closing = false;       // guarded by mu
  std::vector<JobOutcome> outcomes;  // guarded by mu
  // First daemon result per request, for the in-process spot check.
  std::map<std::string, std::pair<JobKey, api::JsonValue>> results;  // mu
  std::vector<std::string> errors;   // guarded by mu
  std::vector<double> queue_wait_ms, exec_ms;  // guarded by mu

  // Check one job's "wait" reply against the references (empty = ok).
  // Ladder jobs also record the daemon's queue wait and execution time.
  const auto check_result = [&](const JobKey& key, uint64_t job,
                                const gpurf::StatusOr<api::JsonValue>& r,
                                bool ladder) {
    std::string err = reply_error(r);
    const api::JsonValue* res = err.empty() ? r->get("result") : nullptr;
    if (err.empty() && !res)
      err = "job " + std::to_string(job) + " has no result (state " +
            r->get("state")->as_string() + ")";
    if (!res) return err;
    const std::string value = digest(canonical_json(*res));
    std::lock_guard<std::mutex> lock(mu);
    if (const api::JsonValue* pr = r->get("progress"); pr && ladder) {
      const double wall = pr->get("wall_ms")->as_double();
      const double ex = pr->get("exec_ms")->as_double();
      queue_wait_ms.push_back(wall - ex);
      exec_ms.push_back(ex);
    }
    results.emplace(key.str(), std::make_pair(key, *res));
    return refs.expect(key.str(), value);
  };

  CpuSampler sampler(daemon->pid());
  const double cpu0 = proc_cpu_s(daemon->pid());
  const double t_start = now_s() + 0.05;
  std::vector<std::thread> pool;
  for (int i = 0; i < waiters; ++i)
    pool.emplace_back([&] {
      api::Client c(daemon->socket());
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closing || !queue.empty(); });
          if (queue.empty()) return;
          p = queue.front();
          queue.pop_front();
        }
        Span span("api.wait");
        auto r = c.status().ok() ? c.call_json(job_line("wait", p.job))
                                 : gpurf::StatusOr<api::JsonValue>(c.status());
        const double done = now_s();
        span.stop();
        const std::string err = check_result(p.key, p.job, r, true);
        std::lock_guard<std::mutex> lock(mu);
        errors.push_back(err.empty() ? "" : p.key.str() + ": " + err);
        outcomes.push_back(
            {p.due_abs - t_start, p.sent_abs - t_start, done - t_start, p.rung,
             err.empty()});
      }
    });

  uint64_t last_job = 0;
  for (const ScheduledOp& op : schedule) {
    const double due = t_start + op.due_s;
    const double wait = due - now_s();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    const double sent = now_s();
    rep.samples["harness.late_ms"].push_back((sent - due) * 1e3);
    std::string line;
    const char* metric = nullptr;
    switch (op.kind) {
      case OpKind::kJob:
        line = submit_line({op.workload, op.mode, op.variant});
        break;
      case OpKind::kStatus:
        if (last_job) {
          line = job_line("status", last_job);
          metric = "api.status_us";
          break;
        }
        [[fallthrough]];
      case OpKind::kPing:
        line = "{\"op\":\"ping\"}";
        metric = "api.ping_us";
        break;
      case OpKind::kMetrics:
        line = "{\"op\":\"metrics\"}";
        metric = "api.metrics_us";
        break;
      case OpKind::kAnalyze:
        line = "{\"op\":\"analyze\",\"workload\":\"" + op.workload + "\"}";
        metric = "api.analyze_us";
        break;
    }
    Span span(op.kind == OpKind::kJob ? "api.submit" : metric);
    auto r = front->call_json(line);
    const double replied = now_s();
    span.stop();
    const std::string err = reply_error(r);
    if (op.kind == OpKind::kJob) {
      rep.samples["api.submit_ack_ms"].push_back((replied - sent) * 1e3);
      if (!err.empty()) {
        std::lock_guard<std::mutex> lock(mu);
        errors.push_back("submit " + op.workload + ": " + err);
        continue;
      }
      last_job = static_cast<uint64_t>(r->get("job")->as_int());
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(
            {last_job, due, sent, {op.workload, op.mode, op.variant}, op.rung});
      }
      cv.notify_one();
      continue;
    }
    rep.op(err.empty() ? "" : std::string(metric) + ": " + err);
    rep.samples["ctl.latency_ms"].push_back((replied - due) * 1e3);
    rep.samples[metric].push_back((replied - sent) * 1e6);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closing = true;
  }
  cv.notify_all();
  for (auto& t : pool) t.join();
  front.reset();

  // Closed-loop batch after the ladder has drained: nproc connections each
  // submit a job, wait for it and take the next until the slice is done.
  // The batch is fixed work, so its wall time (first submit to last reply,
  // over the slices) is the workload's wall time and moves with the
  // daemon's speed; the daemon's CPU seconds over the slices are its CPU
  // time.  The ladder, by contrast, lasts a fixed time whatever the daemon
  // does.  Batch jobs ask for one shard each: nproc of them run at once, and
  // at the daemon's default (shards = nproc) that would be nproc x nproc
  // threads meeting at spin barriers on nproc CPUs, whose time measures the
  // host's scheduler more than the daemon (one run in five took 3.5x as
  // long with two other busy threads on a 4-vCPU host).
  const auto batch = make_batch(o.seed, o.seconds, workloads);
  std::vector<std::unique_ptr<api::Client>> conns;
  for (int i = 0; i < threads; ++i)
    conns.push_back(std::make_unique<api::Client>(daemon->socket()));
  const pid_t daemon_pid = daemon->pid();
  ProbedOps ops(rep, threads, ProbeShape::kShared,
                [daemon_pid] { return proc_cpu_s(daemon_pid); });
  for (size_t part = 0; part < kBatchParts; ++part) {
    std::atomic<size_t> next{batch.size() * part / kBatchParts};
    const size_t end = batch.size() * (part + 1) / kBatchParts;
    std::vector<std::thread> clients;
    ops.begin();
    for (auto& conn : conns)
      clients.emplace_back([&, c = conn.get()] {
        for (size_t j; (j = next.fetch_add(1)) < end;) {
          const JobKey& key = batch[j];
          auto sub = c->status().ok()
                         ? c->call_json(submit_line(key, 1))
                         : gpurf::StatusOr<api::JsonValue>(c->status());
          std::string err = reply_error(sub);
          if (err.empty()) {
            const auto job = static_cast<uint64_t>(sub->get("job")->as_int());
            err = check_result(key, job, c->call_json(job_line("wait", job)),
                               false);
          }
          std::lock_guard<std::mutex> lock(mu);
          errors.push_back(err.empty() ? "" : "batch " + key.str() + ": " + err);
        }
      });
    for (auto& t : clients) t.join();
    ops.end();
  }
  conns.clear();
  const double session_end = now_s();
  rep.wall_s = ops.wall_s();
  rep.samples["batch.jobs"].push_back(static_cast<double>(batch.size()));
  rep.cpu_util = (proc_cpu_s(daemon->pid()) - cpu0) / (session_end - t_start);
  sampler.stop();
  rep.cpus_used = sampler.cpus_used();

  for (const auto& e : errors) rep.op(e);
  for (const auto& out : outcomes) {
    rep.samples["job.due_s"].push_back(out.due_s);
    rep.samples["job.sent_s"].push_back(out.sent_s);
    rep.samples["job.done_s"].push_back(out.done_s);
    rep.samples["job.rung"].push_back(out.rung);
    rep.samples["job.ok"].push_back(out.ok ? 1.0 : 0.0);
  }
  rep.samples["api.queue_wait_ms"] = queue_wait_ms;
  rep.samples["api.exec_ms"] = exec_ms;
  const double rung_s = o.seconds * kLadderShare / kLadder.size();
  for (size_t r = 0; r < kLadder.size(); ++r) {
    rep.samples["ladder.rate"].push_back(kLadder[r]);
    rep.samples["ladder.start_s"].push_back(r * rung_s);
    rep.samples["ladder.end_s"].push_back((r + 1) * rung_s);
  }

  rep.cpu_s = ops.cpu_s();
  rep.peak_rss_mb = daemon->stop().peak_rss_mb;
  for (int i = setups_before; i < kSetups; ++i) {
    if (!set_up(i)) break;
    front.reset();
    daemon->stop();
  }
  rep.setup_s = median_setup();

  // Live check: the same requests on the in-process Engine must give
  // deep_equal results.  Two seeded picks per run keep it cheap; the stored
  // references (made by an in-process Engine) cover every request.
  Rng pick(o.seed ^ 0x5e77e);
  std::vector<std::string> keys;
  for (const auto& [k, v] : results) keys.push_back(k);
  for (int i = 0; i < 2 && !keys.empty(); ++i) {
    const std::string& key = keys[pick.below(keys.size())];
    const auto& [k, ref] = results.at(key);
    gpurf::SimRequest req;
    req.mode = kModes[k.mode].first;
    req.scale = wl::Scale::kSample;
    req.variant = k.variant;
    auto r = local.simulate(k.workload, req);
    if (!r.ok()) {
      rep.op("in-process " + key + ": " + r.status().to_string());
      continue;
    }
    std::string text;
    for (int j = 0; j < 20; ++j) {
      const double t = now_s();
      text = api::to_json(*r);
      rep.samples["api.serialize_us"].push_back((now_s() - t) * 1e6);
    }
    auto parsed = api::parse_json(text);
    rep.op(parsed.ok() && api::deep_equal(*parsed, ref)
               ? ""
               : "daemon result for " + key + " differs from in-process");
  }
  if (o.bless) {
    // Bless references from the in-process Engine, never from the daemon.
    for (const auto& [name, variants] : workloads)
      for (size_t m = 0; m < kModes.size(); ++m)
        for (uint32_t v = 0; v < variants; ++v) {
          gpurf::SimRequest req;
          req.mode = kModes[m].first;
          req.scale = wl::Scale::kSample;
          req.variant = v;
          auto r = local.simulate(name, req);
          auto parsed = r.ok() ? api::parse_json(api::to_json(*r))
                               : gpurf::StatusOr<api::JsonValue>(r.status());
          if (!parsed.ok()) {
            rep.op("bless " + name + ": " + parsed.status().to_string());
            continue;
          }
          JobKey k{name, static_cast<int>(m), v};
          (void)refs.expect(k.str(), digest(canonical_json(*parsed)));
        }
    if (!refs.save()) rep.op("cannot write serve-mixed references");
  }
  return rep;
}

}  // namespace pb
