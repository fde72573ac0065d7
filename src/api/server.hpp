#pragma once
// gpurfd — the Engine's socket transport.
//
// A Server fronts one Engine and speaks newline-delimited JSON over a
// local AF_UNIX stream socket: one request object per line in, one
// response object per line out (watch pushes additional lines, below),
// connections are long-lived and requests on a connection are handled in
// order.
//
// Wire protocol (all fields beyond "op" optional unless noted; fields the
// daemon does not know are ignored):
//
//   {"op":"ping"}
//   {"op":"list"}                                   -> {"workloads":[...]}
//   {"op":"submit","kind":"pipeline"|"simulate"|"fault_campaign"|
//    "transient_campaign","workload":NAME,
//    "mode":"original"|"perfect"|"high","scale":"sample"|"full",
//    "variant":N,"writeback_delay":N,"sim_shards":N,"priority":N,
//    "deadline_ms":N,
//    // simulate only (PR 6 fault injection; needs a compressed mode):
//    "fault_seed":N,"fault_density":F,"fault_quality":B,
//    // fault_campaign only (mode defaults to "perfect" here):
//    "densities":[F,...],"maps_per_density":N,"base_seed":N,
//    // transient_campaign only:
//    "flip_rates":[F,...],"seeds_per_rate":N,"base_seed":N}
//    // (campaigns: a count above INT_MAX, or more than
//    // kMaxCampaignPoints = 65,536 points in total, is INVALID_ARGUMENT
//    // and submits no child)
//                                         -> {"job":ID,"state":..}
//   {"op":"status","job":ID}                        -> state + progress
//   {"op":"wait","job":ID,"timeout_ms":N}           -> state [+ "result"]
//   {"op":"watch","job":ID,"timeout_ms":N,"progress_ms":N}
//                     -> zero or more {"ok":true,"event":"progress",...}
//                        lines, then one wait-style {"event":"terminal"}
//   {"op":"cancel","job":ID}                        -> state
//   {"op":"metrics"}
//   {"op":"histograms"}          -> full log2 buckets per latency stage
//   {"op":"analyze","workload":NAME | "kernel":ASM}  -> {"report":{...}}
//                     (static lint: undefined reads, dead writes, pressure)
//   {"op":"shutdown"}
//
// A wait or watch on a finished job carries its result JSON inline as
// "result".  Every response is an envelope:
//
//   {"ok":true, ...payload..., "metrics":{...}}
//   {"ok":false,"error":{"code":"NOT_FOUND","message":...},"metrics":{...}}
//
// where "metrics" is the Engine's MetricsSnapshot (counters plus
// per-stage latency summaries: queue_wait / tune / sim from the Engine,
// serialize recorded here per request) and error codes are the StatusCode
// names from api/status.hpp.  A request line longer than 1 MiB is
// rejected with INVALID_ARGUMENT and the connection closed.
//
// Threading: one accept thread plus one thread per connection; the Engine
// underneath does the real scheduling.  Connection threads are joinable
// and tracked in a registry keyed by connection id: a finished handler
// parks its id on a reap list that the accept loop joins before spawning
// the next connection (so a long-lived daemon never accumulates zombie
// handles), and stop() joins every remaining thread after shutting the
// sockets down — destruction can therefore never free Server state a
// still-running handler touches.  The Client is intentionally tiny and
// blocking: connect, send a line, read line(s).

#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "common/thread_annotations.hpp"

namespace gpurf::api {

struct ServerOptions {
  std::string socket_path;  ///< AF_UNIX path; unlinked before bind
};

class Server {
 public:
  /// `engine` must outlive the Server.
  Server(Engine& engine, ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the accept thread.  InvalidArgument /
  /// Internal on socket errors (an empty socket_path is InvalidArgument).
  Status start();

  /// Close the listener and every live connection; join all threads.
  /// Idempotent; also called by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& socket_path() const { return opts_.socket_path; }

  /// True once a client requested {"op":"shutdown"}.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Handle one request line and produce the response text (no socket
  /// involved) — the seam tests drive directly.  Watch degrades to wait
  /// here (no transport to push events on).
  std::string handle_request_line(const std::string& line);

 private:
  /// Per-connection push channel for watch events; returns false once the
  /// peer is gone (the watch loop then stops early).
  using SendLineFn = std::function<bool(const std::string&)>;

  void accept_loop();
  void serve_connection(int fd, uint64_t conn_id);
  /// Join and erase every registry entry whose handler already returned.
  /// Called with mu_ held *released* — takes it internally.
  void reap_finished();

  std::string handle_request(const std::string& line, SendLineFn* push);
  std::string handle_submit(const JsonValue& req);
  std::string handle_job_op(const JsonValue& req, const std::string& op,
                            SendLineFn* push);
  /// Engine metrics + this server's serialize histogram, as the
  /// envelope's "metrics" JSON.
  std::string metrics_json_now() const;

  Engine& engine_;
  ServerOptions opts_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  ///< stop() entered; drains waits
  std::atomic<bool> shutdown_{false};
  std::thread accept_thread_;
  /// Serialize-stage latency (request line in -> response text built).
  LatencyHistogram serialize_hist_;
  // Joinable connection-thread registry (see the threading note above).
  // mu_ guards the registry shape and the live-socket set; joins happen
  // outside the lock so a handler's final deregistration never deadlocks
  // against the reaper.  Capability-annotated (ISSUE 10 satellite): the
  // CI clang job's -Werror=thread-safety catches unlocked access.
  common::Mutex mu_;
  std::set<int> conns_
      GPURF_GUARDED_BY(mu_);  ///< live sockets (for stop())
  std::map<uint64_t, std::thread> threads_
      GPURF_GUARDED_BY(mu_);  ///< conn id -> handler thread
  std::vector<uint64_t> finished_
      GPURF_GUARDED_BY(mu_);  ///< ids ready to join
  uint64_t next_conn_id_ GPURF_GUARDED_BY(mu_) = 0;
};

/// Client transport knobs (PR 6 satellite).  Connect failures on
/// *transient* errno values (ECONNREFUSED, ENOENT, EAGAIN, ...) retry up
/// to `retries` extra attempts with exponential backoff + full jitter;
/// everything that exhausts the budget — and every socket timeout —
/// surfaces as StatusCode::kUnavailable, the retry-me code.
struct ClientOptions {
  int connect_timeout_ms = 2000;  ///< per-attempt connect deadline
  int read_timeout_ms = 600000;   ///< SO_RCVTIMEO/SO_SNDTIMEO; <= 0 = none
  int retries = 3;                ///< extra connect attempts after the first
  int backoff_initial_ms = 25;    ///< first backoff window
  int backoff_max_ms = 1000;      ///< backoff window cap
};

/// Minimal blocking client for the gpurfd protocol: connects in the
/// constructor (check status()), call() sends one request line and returns
/// the raw response line, call_json() additionally parses it.  A timed-out
/// call() leaves the stream position unknown — reconnect rather than
/// resending on the same Client.
class Client {
 public:
  explicit Client(const std::string& socket_path, ClientOptions opts = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// OK once connected; the connect error otherwise (kUnavailable when
  /// every attempt failed transiently).
  const Status& status() const { return status_; }

  /// Send one request line, block for the one-line response (stripped of
  /// the trailing newline).  kUnavailable on timeout or a dropped
  /// connection.  NOTE: a watch request pushes additional lines — use
  /// watch() for those.
  StatusOr<std::string> call(const std::string& request_line);

  /// call() + parse_json in one step.
  StatusOr<JsonValue> call_json(const std::string& request_line);

  /// Push subscription on a job (ISSUE 8): sends {"op":"watch"} and
  /// blocks until the terminal envelope arrives (or the server's watch
  /// timeout elapses — the returned envelope then shows a non-terminal
  /// state).  Every intermediate progress event is handed to
  /// `on_progress` (may be null).
  StatusOr<JsonValue> watch(
      uint64_t job, int64_t timeout_ms,
      const std::function<void(const JsonValue&)>& on_progress = nullptr);

 private:
  StatusOr<std::string> read_line();

  int fd_ = -1;
  Status status_;
  ClientOptions opts_;
  std::string rxbuf_;  ///< bytes read past the previous response line
};

}  // namespace gpurf::api
