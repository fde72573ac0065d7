#include "api/server.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace gpurf::api {

namespace {

namespace wl = gpurf::workloads;

/// Request lines longer than this are rejected and the connection closed.
constexpr size_t kMaxRequestBytes = 1 << 20;

/// Response envelope builders: every reply — success or error — embeds the
/// Engine's metrics snapshot (ISSUE 4 satellite; histogram-bearing since
/// ISSUE 8).
std::string envelope_error(const std::string& metrics, const Status& st) {
  JsonWriter w;
  w.begin_object();
  w.field("ok", false);
  w.begin_object("error");
  w.field("code", status_code_name(st.code()));
  w.field("message", st.message());
  w.end_object();
  w.raw("metrics", metrics);
  w.end_object();
  return w.str();
}

/// Start a success envelope; the caller adds payload fields, then calls
/// envelope_finish.
JsonWriter envelope_begin() {
  JsonWriter w;
  w.begin_object();
  w.field("ok", true);
  return w;
}

std::string envelope_finish(const std::string& metrics, JsonWriter& w) {
  w.raw("metrics", metrics);
  w.end_object();
  return w.str();
}

Status parse_sim_request(const JsonValue& req, SimRequest& out) {
  // A missing "mode" keeps the caller's pre-set default (original for
  // simulate, perfect for fault campaigns).
  if (req.get("mode")) {
    const std::string mode = req.get("mode")->as_string("original");
    if (mode == "original") out.mode = wl::SimMode::kOriginal;
    else if (mode == "perfect") out.mode = wl::SimMode::kCompressedPerfect;
    else if (mode == "high") out.mode = wl::SimMode::kCompressedHigh;
    else
      return Status::InvalidArgument("unknown mode '" + mode +
                                     "' (original|perfect|high)");
  }

  const std::string scale =
      req.get("scale") ? req.get("scale")->as_string("full") : "full";
  if (scale == "full") out.scale = wl::Scale::kFull;
  else if (scale == "sample") out.scale = wl::Scale::kSample;
  else
    return Status::InvalidArgument("unknown scale '" + scale +
                                   "' (sample|full)");

  if (const JsonValue* v = req.get("variant"))
    out.variant = static_cast<uint32_t>(v->as_int(0));
  if (const JsonValue* d = req.get("writeback_delay"))
    out.compression = sim::CompressionConfig::with_writeback_delay(
        static_cast<uint32_t>(d->as_int(0)));
  if (const JsonValue* s = req.get("sim_shards"))
    out.sim_shards = static_cast<int>(s->as_int(0));
  // Permanent-fault injection (PR 6): density > 0 turns it on; the Engine
  // rejects it for mode=original (faults live in the compressed file).
  if (const JsonValue* fs = req.get("fault_seed"))
    out.fault.seed = static_cast<uint64_t>(fs->as_int(0));
  if (const JsonValue* fd = req.get("fault_density"))
    out.fault.density = fd->as_double(0.0);
  if (const JsonValue* fq = req.get("fault_quality"))
    out.fault.score_quality = fq->as_bool(false);
  // Transient soft errors (PR 7): a positive rate attaches the flip
  // process; exposure tracking works at any rate (including zero).
  if (const JsonValue* sr = req.get("soft_flips_per_mcycle"))
    out.soft.flips_per_mcycle = sr->as_double(0.0);
  if (const JsonValue* ss = req.get("soft_seed"))
    out.soft.seed = static_cast<uint64_t>(ss->as_int(1));
  if (const JsonValue* se = req.get("soft_track_exposure"))
    out.soft.track_exposure = se->as_bool(false);
  if (const JsonValue* sq = req.get("soft_quality"))
    out.soft_score_quality = sq->as_bool(false);
  return Status::Ok();
}

/// Parse an array-of-numbers request field into `out`; leaves `out`
/// untouched when the key is absent.
Status parse_number_array(const JsonValue& req, const char* key,
                          std::vector<double>& out) {
  const JsonValue* arr = req.get(key);
  if (!arr) return Status::Ok();
  if (!arr->is_array())
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be an array of numbers");
  out.clear();
  for (const JsonValue& v : arr->items) {
    if (!v.is_number())
      return Status::InvalidArgument(std::string("'") + key +
                                     "' must be an array of numbers");
    out.push_back(v.num_v);
  }
  return Status::Ok();
}

/// Parse an int count field (maps_per_density, seeds_per_rate) into `out`;
/// leaves `out` untouched when the key is absent.  Values above INT_MAX
/// are rejected rather than wrapped; the Engine treats anything below 1
/// as 1.
Status parse_count(const JsonValue& req, const char* key, int& out) {
  const JsonValue* v = req.get(key);
  if (!v) return Status::Ok();
  const int64_t n = v->as_int(out);
  if (n > INT_MAX)
    return Status::InvalidArgument(std::string("'") + key + "' is " +
                                   std::to_string(n) + " (at most " +
                                   std::to_string(INT_MAX) + ")");
  out = static_cast<int>(std::max<int64_t>(n, 0));
  return Status::Ok();
}

void write_job_fields(JsonWriter& w, const Job& job) {
  const JobProgress p = job.progress();
  w.field("job", job.id());
  w.field("workload", job.workload());
  w.field("kind", job_kind_name(job.kind()));
  w.field("priority", job.priority());
  w.field("state", job_state_name(p.state));
  w.begin_object("progress");
  w.field("stage", common::job_stage_name(p.stage));
  w.field("tuner_pass", p.tuner_pass);
  w.field("tuner_evaluations", p.tuner_evaluations);
  w.field("sim_cycles", p.sim_cycles);
  w.field("run_seq", p.run_seq);
  w.field("wall_ms", p.wall_ms);
  w.field("exec_ms", p.exec_ms);
  if (job_kind_campaign(job.kind())) {
    w.field("campaign_maps_done", p.campaign_maps_done);
    w.field("campaign_maps_total", p.campaign_maps_total);
  }
  w.end_object();
  // Terminal jobs also report their status (and the error, if any) so a
  // client can distinguish done / failed / cancelled / deadline-exceeded
  // without a second round trip.
  if (job_state_terminal(p.state)) {
    const Status st = job.status();
    w.field("status_code", status_code_name(st.code()));
    if (!st.ok()) {
      w.begin_object("job_error");
      w.field("code", status_code_name(st.code()));
      w.field("message", st.message());
      w.end_object();
    }
  }
}

/// Progress fingerprint for watch: everything a client-visible progress
/// change touches, *excluding* the wall clocks (which change every poll
/// and would turn watch into a firehose).
std::string progress_key(const Job& job) {
  const JobProgress p = job.progress();
  std::string k = job_state_name(p.state);
  k += '|';
  k += common::job_stage_name(p.stage);
  k += '|';
  k += std::to_string(p.tuner_pass) + '|' +
       std::to_string(p.tuner_evaluations) + '|' +
       std::to_string(p.sim_cycles) + '|' + std::to_string(p.run_seq) + '|' +
       std::to_string(p.campaign_maps_done);
  return k;
}

/// The successful result JSON for a kDone job of any kind, or empty.
std::string result_json_for(const Job& job) {
  if (job.kind() == JobKind::kPipeline) {
    auto pr = job.pipeline_result();
    if (pr.ok()) return to_json(*pr);
  } else if (job.kind() == JobKind::kFaultCampaign) {
    auto cr = job.campaign_result();
    if (cr.ok()) return to_json(*cr);
  } else if (job.kind() == JobKind::kTransientCampaign) {
    auto tr = job.transient_result();
    if (tr.ok()) return to_json(*tr);
  } else {
    auto sr = job.sim_result();
    if (sr.ok()) return to_json(*sr);
  }
  return std::string();
}

bool send_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a client that hung up mid-response must produce
    // EPIPE here, not a SIGPIPE that kills the whole daemon.
    const ssize_t wr =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (wr <= 0) return false;
    off += static_cast<size_t>(wr);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- Server

Server::Server(Engine& engine, ServerOptions opts)
    : engine_(engine), opts_(std::move(opts)) {}

Server::~Server() { stop(); }

Status Server::start() {
  if (opts_.socket_path.empty())
    return Status::InvalidArgument("gpurfd: no socket_path configured");
  sockaddr_un addr{};
  // Validate against sun_path instead of silently truncating: a truncated
  // path binds somewhere the client never looks.
  if (opts_.socket_path.size() >= sizeof(addr.sun_path))
    return Status::InvalidArgument("gpurfd: socket path too long (" +
                                   std::to_string(opts_.socket_path.size()) +
                                   " >= " +
                                   std::to_string(sizeof(addr.sun_path)) +
                                   "): " + opts_.socket_path);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(opts_.socket_path.c_str());  // stale socket from a dead daemon
  Status st;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
    st = Status::Internal("bind " + opts_.socket_path + ": " +
                          std::strerror(errno));
  else if (::listen(listen_fd_, 64) < 0)
    st = Status::Internal(std::string("listen: ") + std::strerror(errno));
  if (!st.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::Ok();
}

void Server::reap_finished() {
  // Collect the joinable handles under the lock, join them outside it:
  // a handler's exit path takes mu_ to deregister itself, so joining
  // while holding mu_ could deadlock against a thread that is *almost*
  // finished.  Joining after its finished_ entry appeared is cheap — the
  // handler has nothing left to run but its epilogue.
  std::vector<std::thread> done;
  {
    common::MutexLock lock(mu_);
    for (uint64_t id : finished_) {
      auto it = threads_.find(id);
      if (it == threads_.end()) continue;
      done.push_back(std::move(it->second));
      threads_.erase(it);
    }
    finished_.clear();
  }
  for (auto& t : done) t.join();
}

void Server::stop() {
  stopping_.store(true, std::memory_order_release);
  const bool was_running = running_.exchange(false);
  // Shutdown wakes a blocked accept(); the fd is closed only after the
  // join, so the accept thread can never call accept() on a closed (and
  // possibly reassigned) fd number.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Kick every live connection (unblocks reads; a handler parked inside a
  // long "wait" op notices stopping_ within one wait slice), then join
  // every handler thread.  After the joins no connection code can run, so
  // destroying the Server immediately afterwards is safe — this is the
  // ISSUE 5 fix for the detached-thread shutdown race.
  std::map<uint64_t, std::thread> remaining;
  {
    common::MutexLock lock(mu_);
    for (int fd : conns_) ::shutdown(fd, SHUT_RDWR);
    remaining.swap(threads_);
    finished_.clear();
  }
  for (auto& [id, t] : remaining) t.join();
  if (was_running) ::unlink(opts_.socket_path.c_str());
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (!running_.load(std::memory_order_acquire)) break;
      if (err == EINTR || err == ECONNABORTED || err == EPROTO) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // Out of fds or kernel memory: the pending connection stays in the
        // backlog, so back off briefly and retry instead of letting the
        // daemon run on without an accept thread.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listener shut down underneath us
    }
    // Joining finished predecessors here bounds the registry at the
    // number of *live* connections plus the already-finished ones since
    // the last accept — a long-lived daemon never accumulates handles.
    reap_finished();
    {
      // Register the socket and the handle atomically: stop() joins this
      // accept thread before it swaps the registry out, so every spawned
      // handler is guaranteed to be visible to the final join pass.
      common::MutexLock lock(mu_);
      const uint64_t id = next_conn_id_++;
      conns_.insert(fd);
      threads_.emplace(
          id, std::thread([this, fd, id] { serve_connection(fd, id); }));
    }
  }
}

void Server::serve_connection(int fd, uint64_t conn_id) {
  std::string buf;
  char chunk[4096];
  bool drop = false;
  const auto oversize_error = [this] {
    return envelope_error(metrics_json_now(),
                          Status::InvalidArgument(
                              "request exceeds " +
                              std::to_string(kMaxRequestBytes) + " bytes"));
  };
  while (!drop) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;  // EOF, shutdown, or error
    buf.append(chunk, static_cast<size_t>(n));
    // Oversized-request rejection (ISSUE 8): cap the unframed buffer as
    // well as each complete line, then drop the connection — there is no
    // way to resynchronise a stream mid-oversized-line.
    if (buf.size() > kMaxRequestBytes &&
        buf.find('\n') == std::string::npos) {
      send_all(fd, oversize_error() + "\n");
      break;
    }
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.empty()) continue;
      if (line.size() > kMaxRequestBytes) {
        send_all(fd, oversize_error() + "\n");
        drop = true;
        break;
      }
      SendLineFn push = [fd](const std::string& l) {
        return send_all(fd, l + "\n");
      };
      std::string resp = handle_request(line, &push);
      resp += '\n';
      if (!send_all(fd, resp)) {
        drop = true;
        break;
      }
    }
  }
  // Join predecessors that already finished — without this, a
  // burst-then-idle daemon would retain exited-but-unjoined handles (and
  // their stacks) until the next accept.  Safe here: this thread's own id
  // is not on finished_ yet, so it never joins itself.
  reap_finished();
  // Deregister and close under one lock so stop() can never shutdown() an
  // fd number this thread already closed (and the kernel reassigned).
  // Parking the id on finished_ hands the joinable handle to the next
  // reaper (a later handler exit or accept) or to stop(), whichever
  // comes first.
  common::MutexLock lock(mu_);
  conns_.erase(fd);
  ::close(fd);
  finished_.push_back(conn_id);
}

std::string Server::metrics_json_now() const {
  MetricsSnapshot m = engine_.metrics_snapshot();
  m.serialize = serialize_hist_.snapshot();
  return to_json(m);
}

std::string Server::handle_request_line(const std::string& line) {
  return handle_request(line, nullptr);
}

std::string Server::handle_request(const std::string& line, SendLineFn* push) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string resp;
  StatusOr<JsonValue> parsed = parse_json(line);
  if (!parsed.ok()) {
    resp = envelope_error(metrics_json_now(), parsed.status());
  } else if (!parsed->is_object()) {
    resp = envelope_error(metrics_json_now(),
                          Status::InvalidArgument("request must be an object"));
  } else {
    const JsonValue& req = *parsed;
    const std::string op = req.get("op") ? req.get("op")->as_string() : "";

    try {
      if (op == "ping") {
        JsonWriter w = envelope_begin();
        w.field("pong", true);
        resp = envelope_finish(metrics_json_now(), w);
      } else if (op == "list") {
        JsonWriter w = envelope_begin();
        w.begin_array("workloads");
        for (const auto& n : engine_.workload_names()) w.element(n);
        w.end_array();
        resp = envelope_finish(metrics_json_now(), w);
      } else if (op == "metrics") {
        JsonWriter w = envelope_begin();
        resp = envelope_finish(metrics_json_now(), w);
      } else if (op == "histograms") {
        // Full bucket arrays per latency stage (summaries ride in every
        // envelope's metrics object; this op is for plotting).
        MetricsSnapshot m = engine_.metrics_snapshot();
        m.serialize = serialize_hist_.snapshot();
        JsonWriter w = envelope_begin();
        w.begin_object("histograms");
        w.raw("queue_wait", to_json(m.queue_wait, true));
        w.raw("tune", to_json(m.tune, true));
        w.raw("sim", to_json(m.sim, true));
        w.raw("serialize", to_json(m.serialize, true));
        w.end_object();
        resp = envelope_finish(to_json(m), w);
      } else if (op == "submit") {
        resp = handle_submit(req);
      } else if (op == "status" || op == "wait" || op == "cancel" ||
                 op == "watch") {
        resp = handle_job_op(req, op, push);
      } else if (op == "analyze") {
        // Static kernel lint (PR 9): {"workload":name} analyzes a bundled
        // workload (warming the analysis memo simulate jobs reuse);
        // {"kernel":asm} parses and analyzes an ad-hoc kernel.
        const JsonValue* wlname = req.get("workload");
        const JsonValue* ktext = req.get("kernel");
        StatusOr<analysis::KernelReport> rep = Status::InvalidArgument(
            "analyze requires a 'workload' name or inline 'kernel' asm");
        if (wlname && wlname->is_string()) {
          rep = engine_.analyze(wlname->as_string());
        } else if (ktext && ktext->is_string()) {
          StatusOr<ir::Kernel> k = engine_.parse_kernel(ktext->as_string());
          rep = k.ok() ? engine_.analyze(*k)
                       : StatusOr<analysis::KernelReport>(k.status());
        }
        if (rep.ok()) {
          JsonWriter w = envelope_begin();
          w.raw("report", to_json(*rep));
          resp = envelope_finish(metrics_json_now(), w);
        } else {
          resp = envelope_error(metrics_json_now(), rep.status());
        }
      } else if (op == "shutdown") {
        shutdown_.store(true, std::memory_order_release);
        JsonWriter w = envelope_begin();
        w.field("shutting_down", true);
        resp = envelope_finish(metrics_json_now(), w);
      } else {
        resp = envelope_error(
            metrics_json_now(),
            Status::InvalidArgument(
                "unknown op '" + op +
                "' (ping|list|metrics|histograms|submit|status|wait|cancel|"
                "watch|analyze|shutdown)"));
      }
    } catch (const Error& e) {
      resp = envelope_error(metrics_json_now(),
                            Status::FailedPrecondition(e.what()));
    } catch (const std::exception& e) {
      resp = envelope_error(metrics_json_now(), Status::Internal(e.what()));
    }
  }
  serialize_hist_.record_us(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return resp;
}

std::string Server::handle_submit(const JsonValue& req) {
  const std::string kind =
      req.get("kind") ? req.get("kind")->as_string("pipeline") : "pipeline";
  const JsonValue* wlname = req.get("workload");
  if (!wlname || !wlname->is_string())
    return envelope_error(metrics_json_now(),
                          Status::InvalidArgument("submit requires 'workload'"));
  JobRequest jr;
  if (kind == "pipeline") {
    jr = JobRequest::pipeline(wlname->as_string());
  } else if (kind == "simulate") {
    SimRequest sr;
    const Status st = parse_sim_request(req, sr);
    if (!st.ok()) return envelope_error(metrics_json_now(), st);
    jr = JobRequest::simulate(wlname->as_string(), sr);
  } else if (kind == "fault_campaign") {
    FaultCampaignRequest cr;
    // A campaign is compressed by construction; default the template
    // mode to perfect quality when the request names none.
    if (!req.get("mode")) cr.sim.mode = wl::SimMode::kCompressedPerfect;
    Status st = parse_sim_request(req, cr.sim);
    if (st.ok()) st = parse_number_array(req, "densities", cr.densities);
    if (st.ok()) st = parse_count(req, "maps_per_density", cr.maps_per_density);
    if (!st.ok()) return envelope_error(metrics_json_now(), st);
    if (const JsonValue* b = req.get("base_seed"))
      cr.base_seed = static_cast<uint64_t>(b->as_int(1));
    jr = JobRequest::fault_campaign(wlname->as_string(), std::move(cr));
  } else if (kind == "transient_campaign") {
    TransientCampaignRequest tr;
    Status st = parse_sim_request(req, tr.sim);
    if (st.ok()) st = parse_number_array(req, "flip_rates", tr.flip_rates);
    if (st.ok()) st = parse_count(req, "seeds_per_rate", tr.seeds_per_rate);
    if (!st.ok()) return envelope_error(metrics_json_now(), st);
    if (const JsonValue* b = req.get("base_seed"))
      tr.base_seed = static_cast<uint64_t>(b->as_int(1));
    jr = JobRequest::transient_campaign(wlname->as_string(), std::move(tr));
  } else {
    return envelope_error(
        metrics_json_now(),
        Status::InvalidArgument(
            "unknown kind '" + kind +
            "' (pipeline|simulate|fault_campaign|transient_campaign)"));
  }
  if (const JsonValue* p = req.get("priority"))
    jr.priority = static_cast<int>(p->as_int(0));
  if (const JsonValue* d = req.get("deadline_ms"))
    jr.deadline_ms = d->as_int(0);

  // Fail fast on unknown workloads: the submit itself reports NOT_FOUND
  // instead of parking a doomed job in the queue.
  auto wlp = engine_.workload(wlname->as_string());
  if (!wlp.ok()) return envelope_error(metrics_json_now(), wlp.status());

  const Job job = engine_.submit(std::move(jr));
  JsonWriter w = envelope_begin();
  write_job_fields(w, job);
  return envelope_finish(metrics_json_now(), w);
}

std::string Server::handle_job_op(const JsonValue& req, const std::string& op,
                                  SendLineFn* push) {
  const JsonValue* idv = req.get("job");
  if (!idv || !idv->is_number())
    return envelope_error(
        metrics_json_now(),
        Status::InvalidArgument("'" + op + "' requires 'job'"));
  const uint64_t id = static_cast<uint64_t>(idv->as_int());
  if (id == 0)
    return envelope_error(metrics_json_now(),
                          Status::NotFound("no job with id 0"));
  auto job = engine_.find_job(id);
  if (!job.ok()) return envelope_error(metrics_json_now(), job.status());

  bool watched_event = false;  // watch op: emitted at least the terminal tag
  if (op == "cancel") {
    job->cancel();
  } else if (op == "wait") {
    int64_t timeout_ms = req.get("timeout_ms")
                             ? req.get("timeout_ms")->as_int(600000)
                             : 600000;
    if (timeout_ms < 0) timeout_ms = 0;
    // Sliced wait: a stopping server must not stay pinned behind a
    // client's multi-minute wait — each slice rechecks stopping_, so
    // stop() drains this handler within ~200ms (the response then
    // reports whatever state the job reached).
    while (timeout_ms > 0 && !stopping_.load(std::memory_order_acquire)) {
      const int64_t slice = timeout_ms < 200 ? timeout_ms : 200;
      if (job->wait_for(std::chrono::milliseconds(slice))) break;
      timeout_ms -= slice;
    }
  } else if (op == "watch") {
    // Push subscription (ISSUE 8): progress events stream as their own
    // envelope lines whenever the job's progress fingerprint changes;
    // the method's return value is the closing wait-style envelope.
    // Without a transport (the in-process seam) watch degrades to wait.
    watched_event = true;
    int64_t timeout_ms = req.get("timeout_ms")
                             ? req.get("timeout_ms")->as_int(600000)
                             : 600000;
    if (timeout_ms < 0) timeout_ms = 0;
    int64_t progress_ms = req.get("progress_ms")
                              ? req.get("progress_ms")->as_int(100)
                              : 100;
    progress_ms = std::clamp<int64_t>(progress_ms, 10, 1000);
    std::string last_key = progress_key(*job);
    while (timeout_ms > 0 && !stopping_.load(std::memory_order_acquire)) {
      const int64_t slice = std::min<int64_t>(timeout_ms, progress_ms);
      if (job->wait_for(std::chrono::milliseconds(slice))) break;
      timeout_ms -= slice;
      if (!push) continue;
      std::string key = progress_key(*job);
      if (key == last_key) continue;
      last_key = std::move(key);
      JsonWriter ev;
      ev.begin_object();
      ev.field("ok", true);
      ev.field("event", "progress");
      write_job_fields(ev, *job);
      ev.end_object();
      if (!(*push)(ev.str())) break;  // peer gone — stop early
    }
  }

  JsonWriter w = envelope_begin();
  if (watched_event) w.field("event", "terminal");
  write_job_fields(w, *job);

  if ((op == "wait" || op == "watch") && job->state() == JobState::kDone) {
    const std::string result = result_json_for(*job);
    if (!result.empty()) w.raw("result", result);
  }
  return envelope_finish(metrics_json_now(), w);
}

// ---------------------------------------------------------------- Client

namespace {

/// Transient connect failures worth a retry: the daemon is starting up
/// (socket not bound yet / nothing listening) or momentarily saturated.
bool connect_errno_transient(int err) {
  return err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
         err == EWOULDBLOCK || err == EINTR || err == ECONNRESET ||
         err == ETIMEDOUT;
}

/// SO_RCVTIMEO / SO_SNDTIMEO; timeout_ms <= 0 sets no timeout.
void set_socket_timeout(int fd, int opt, int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
  }
  ::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv));
}

/// One connect attempt with a deadline.  An AF_UNIX connect either
/// completes at once or waits for room in the daemon's accept backlog; the
/// send timeout bounds that wait (EAGAIN on expiry, a transient error), so
/// a daemon wedged outside accept() cannot hang the caller.  Returns the
/// connected fd, or -1 with errno describing the failure.
int connect_once(const sockaddr_un& addr, int timeout_ms) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  set_socket_timeout(fd, SO_SNDTIMEO, timeout_ms);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

/// Bounded retry with exponential backoff + jitter (PR 6 satellite): a
/// client racing a daemon's startup sees ECONNREFUSED/ENOENT for a few
/// milliseconds; retrying with jittered backoff absorbs that without a
/// thundering herd.  Non-transient errors (EACCES, ...) fail immediately.
/// Returns the fd (>= 0) or -1 with `out_status` set.
int connect_with_retry(const sockaddr_un& addr, const ClientOptions& opts,
                       const std::string& what, const void* jitter_salt,
                       Status& out_status) {
  uint64_t jitter_state =
      static_cast<uint64_t>(::getpid()) * 0x9e3779b97f4a7c15ULL ^
      reinterpret_cast<uintptr_t>(jitter_salt);
  int backoff_ms = opts.backoff_initial_ms;
  for (int attempt = 0; attempt <= opts.retries; ++attempt) {
    const int fd = connect_once(addr, opts.connect_timeout_ms);
    if (fd >= 0) {
      out_status = Status::Ok();
      return fd;
    }
    const int err = errno;
    if (!connect_errno_transient(err) || attempt == opts.retries) {
      const std::string msg =
          what + ": " + std::strerror(err) +
          (attempt ? " (after " + std::to_string(attempt + 1) + " attempts)"
                   : "");
      out_status = connect_errno_transient(err) ? Status::Unavailable(msg)
                                                : Status::Internal(msg);
      return -1;
    }
    // Full jitter: sleep a uniform slice of the current backoff window.
    const int sleep_ms =
        1 + static_cast<int>(gpurf::splitmix64(jitter_state) %
                             static_cast<uint64_t>(backoff_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = std::min(backoff_ms * 2, opts.backoff_max_ms);
  }
  out_status = Status::Internal(what + ": retry loop exhausted");
  return -1;
}

}  // namespace

Client::Client(const std::string& socket_path, ClientOptions opts)
    : opts_(std::move(opts)) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    status_ = Status::InvalidArgument("socket path too long: " + socket_path);
    return;
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = connect_with_retry(addr, opts_, "connect " + socket_path, this,
                           status_);
  if (fd_ >= 0) {
    set_socket_timeout(fd_, SO_RCVTIMEO, opts_.read_timeout_ms);
    set_socket_timeout(fd_, SO_SNDTIMEO, opts_.read_timeout_ms);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::string> Client::read_line() {
  char chunk[4096];
  for (;;) {
    const size_t nl = rxbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = rxbuf_.substr(0, nl);
      rxbuf_.erase(0, nl + 1);
      return line;
    }
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      // A read timeout leaves the stream position unknown, so the caller
      // must not resend on this connection — reconnect instead.
      return Status::Unavailable(
          "read timed out after " + std::to_string(opts_.read_timeout_ms) +
          "ms");
    if (n <= 0)
      return Status::Unavailable(
          "connection closed before a response arrived");
    rxbuf_.append(chunk, static_cast<size_t>(n));
  }
}

StatusOr<std::string> Client::call(const std::string& request_line) {
  if (!status_.ok()) return status_;
  std::string out = request_line;
  out += '\n';
  size_t off = 0;
  while (off < out.size()) {
    // MSG_NOSIGNAL: a dead daemon surfaces as an error status, not a
    // SIGPIPE that kills the client process.
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return Status::Unavailable(
            "write timed out after " + std::to_string(opts_.read_timeout_ms) +
            "ms");
      return Status::Unavailable(std::string("write: ") +
                                 std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return read_line();
}

StatusOr<JsonValue> Client::call_json(const std::string& request_line) {
  auto resp = call(request_line);
  if (!resp.ok()) return resp.status();
  return parse_json(*resp);
}

StatusOr<JsonValue> Client::watch(
    uint64_t job, int64_t timeout_ms,
    const std::function<void(const JsonValue&)>& on_progress) {
  JsonWriter w;
  w.begin_object();
  w.field("op", "watch");
  w.field("job", job);
  w.field("timeout_ms", static_cast<int64_t>(timeout_ms));
  w.end_object();
  auto first = call(w.str());
  if (!first.ok()) return first.status();
  std::string line = std::move(*first);
  for (;;) {
    auto parsed = parse_json(line);
    if (!parsed.ok()) return parsed.status();
    const JsonValue* ev = parsed->get("event");
    if (ev && ev->as_string() == "progress") {
      if (on_progress) on_progress(*parsed);
      auto next = read_line();
      if (!next.ok()) return next.status();
      line = std::move(*next);
      continue;
    }
    return parsed;  // terminal (or error) envelope
  }
}

}  // namespace gpurf::api
