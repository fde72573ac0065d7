#pragma once
// gpurfd — the Engine's socket transport (ISSUE 4 tentpole; TCP, auth,
// quotas and watch since ISSUE 8).
//
// A Server fronts one Engine and speaks newline-delimited JSON over a
// local AF_UNIX stream socket and/or a TCP listener: one request
// object per line in, one response object per line out (watch and chunked
// results push additional lines, below), connections are long-lived and
// requests on a connection are handled in order.
//
// Wire protocol (all fields beyond "op" optional unless noted; every
// request may carry "token":STR — required when the daemon was started
// with auth tokens, rejected with UNAUTHENTICATED otherwise):
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
//    "quality_floor":F,
//    // transient_campaign only:
//    "flip_rates":[F,...],"seeds_per_rate":N,"base_seed":N}
//    // (campaigns: a count above INT_MAX, or more than
//    // kMaxCampaignPoints = 65,536 points in total, is INVALID_ARGUMENT
//    // and submits no child)
//                                         -> {"job":ID,"state":..}
//   {"op":"status","job":ID}                        -> state + progress
//   {"op":"wait","job":ID,"timeout_ms":N
//    [,"stream":true,"chunk_bytes":N]}              -> state [+ "result"]
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
// Chunked result streaming: a wait/watch with "stream":true splits a
// result JSON larger than "chunk_bytes" out of the envelope — the
// envelope then carries "result_bytes" and "result_chunks":K instead of
// "result", followed by K lines {"chunk":i,"of":K,"data":STR} whose data
// fields concatenate to the result document.  api::Client reassembles
// transparently.
//
// Every response is an envelope:
//
//   {"ok":true, ...payload..., "metrics":{...}}
//   {"ok":false,"error":{"code":"NOT_FOUND","message":...
//                        [,"retry_after_ms":N]},"metrics":{...}}
//
// where "metrics" is the Engine's MetricsSnapshot (counters plus
// per-stage latency summaries: queue_wait / tune / sim from the Engine,
// serialize recorded here per request) and error codes are the StatusCode
// names from api/status.hpp.  Quota and queue-capacity rejections
// (RESOURCE_EXHAUSTED) carry "retry_after_ms" — a structured back-off
// hint clients read via envelope_retry_after_ms().
//
// Auth + quotas (ISSUE 8): with ServerOptions::auth_tokens set, every
// request needs a matching "token".  Per-token quotas then bound abuse:
// token_max_inflight caps a token's unfinished submitted jobs,
// token_rate/token_burst is a token-bucket on submits per second.  Both
// reject with RESOURCE_EXHAUSTED + retry_after_ms rather than queueing.
// Oversized request lines (> max_request_bytes) are rejected and the
// connection closed; connections idle longer than idle_timeout_ms are
// dropped — both keep a public TCP listener from being held hostage by
// slow or hostile peers.
//
// Threading: one accept thread per listener plus one thread per
// connection; the Engine underneath does the real scheduling.  Connection
// threads are joinable and tracked in a registry keyed by connection id:
// a finished handler parks its id on a reap list that the accept loop
// joins before spawning the next connection (so a long-lived daemon never
// accumulates zombie handles), and stop() joins every remaining thread
// after shutting the sockets down — destruction can therefore never free
// Server state a still-running handler touches (ISSUE 5 shutdown-race
// fix).  The Client is intentionally tiny and blocking: connect, send a
// line, read line(s).

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "common/thread_annotations.hpp"

namespace gpurf::api {

struct ServerOptions {
  std::string socket_path;  ///< AF_UNIX path; unlinked before bind.  Empty
                            ///< disables the unix listener (TCP only).
  // TCP transport (ISSUE 8).  listen_port < 0 disables TCP; 0 binds an
  // ephemeral port (read it back via Server::tcp_port()).
  std::string listen_host = "127.0.0.1";
  int listen_port = -1;
  /// Accepted auth tokens.  Empty = no auth (trusted local socket).
  std::vector<std::string> auth_tokens;
  /// Per-token cap on submitted-but-unfinished jobs; 0 = unlimited.
  size_t token_max_inflight = 0;
  /// Per-token submit token-bucket: sustained submits/sec (0 = unlimited)
  /// and burst size (0 resolves to max(1, token_rate)).
  double token_rate = 0.0;
  double token_burst = 0.0;
  /// Reject request lines larger than this (error + connection close).
  size_t max_request_bytes = 1 << 20;
  /// Drop connections idle longer than this; <= 0 = never.
  int idle_timeout_ms = 0;
};

class Server {
 public:
  /// `engine` must outlive the Server.
  Server(Engine& engine, ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the accept thread(s).  InvalidArgument /
  /// Internal on socket errors (both listeners disabled is
  /// InvalidArgument).
  Status start();

  /// Close the listeners and every live connection; join all threads.
  /// Idempotent; also called by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& socket_path() const { return opts_.socket_path; }

  /// Bound TCP port once start() succeeded with listen_port >= 0 (the
  /// actual port for ephemeral binds); -1 when TCP is disabled.
  int tcp_port() const { return tcp_port_; }

  /// True once a client requested {"op":"shutdown"}.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Handle one request line and produce the response text (no socket
  /// involved) — the seam tests drive directly.  Usually a single
  /// envelope; a streamed result appends its chunk lines separated by
  /// '\n'.  Watch degrades to wait here (no transport to push events on).
  std::string handle_request_line(const std::string& line);

 private:
  /// Per-connection push channel for watch events; returns false once the
  /// peer is gone (the watch loop then stops early).
  using SendLineFn = std::function<bool(const std::string&)>;

  struct TokenState;
  struct QuotaTable;

  void accept_loop(int listen_fd, bool tcp);
  void serve_connection(int fd, uint64_t conn_id);
  /// Join and erase every registry entry whose handler already returned.
  /// Called with mu_ held *released* — takes it internally.
  void reap_finished();

  std::string handle_request(const std::string& line, SendLineFn* push);
  std::string handle_submit(const JsonValue& req, const std::string& token);
  std::string handle_job_op(const JsonValue& req, const std::string& op,
                            SendLineFn* push);
  /// Engine metrics + this server's serialize histogram, as the
  /// envelope's "metrics" JSON.
  std::string metrics_json_now() const;

  Engine& engine_;
  ServerOptions opts_;
  int listen_fd_ = -1;       ///< AF_UNIX listener
  int tcp_listen_fd_ = -1;   ///< TCP listener
  int tcp_port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  ///< stop() entered; drains waits
  std::atomic<bool> shutdown_{false};
  std::thread accept_thread_;      ///< unix listener
  std::thread tcp_accept_thread_;  ///< tcp listener
  /// Serialize-stage latency (request line in -> response text built).
  LatencyHistogram serialize_hist_;
  /// Per-token quota state.  shared_ptr: job terminal listeners decrement
  /// a token's in-flight count and may fire after this Server died (the
  /// Engine outlives it), so they keep the table alive instead of
  /// touching Server members.
  std::shared_ptr<QuotaTable> quotas_;
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

/// Structured back-off hint from an error envelope (ISSUE 8 satellite):
/// the "retry_after_ms" the daemon attached to a quota / queue-capacity
/// rejection, or -1 when the envelope carries none.
int64_t envelope_retry_after_ms(const JsonValue& envelope);

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
  std::string token;              ///< auth token injected into requests that
                                  ///< carry none (watch(); raw call() lines
                                  ///< are sent verbatim)
};

/// Minimal blocking client for the gpurfd protocol: connects in the
/// constructor (check status()), call() sends one request line and returns
/// the raw response line, call_json() additionally parses it and
/// reassembles chunked results.  A timed-out call() leaves the stream
/// position unknown — reconnect rather than resending on the same Client.
class Client {
 public:
  /// AF_UNIX transport.
  explicit Client(const std::string& socket_path, ClientOptions opts = {});
  /// TCP transport (ISSUE 8): numeric IPv4 / IPv6 address or host name.
  Client(const std::string& host, int port, ClientOptions opts = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// OK once connected; the connect error otherwise (kUnavailable when
  /// every attempt failed transiently).
  const Status& status() const { return status_; }

  /// Send one request line, block for the one-line response (stripped of
  /// the trailing newline).  kUnavailable on timeout or a dropped
  /// connection.  NOTE: a streamed ("stream":true) or watch request
  /// pushes additional lines — use call_json() / watch() for those.
  StatusOr<std::string> call(const std::string& request_line);

  /// call() + parse_json in one step; chunked results ("result_chunks")
  /// are read off the stream, reassembled and spliced back in as
  /// "result".
  StatusOr<JsonValue> call_json(const std::string& request_line);

  /// Push subscription on a job (ISSUE 8): sends {"op":"watch"} and
  /// blocks until the terminal envelope arrives (or the server's watch
  /// timeout elapses — the returned envelope then shows a non-terminal
  /// state).  Every intermediate progress event is handed to
  /// `on_progress` (may be null).  The ClientOptions token rides along
  /// automatically.
  StatusOr<JsonValue> watch(
      uint64_t job, int64_t timeout_ms,
      const std::function<void(const JsonValue&)>& on_progress = nullptr);

 private:
  void finish_connect(const std::string& what);
  StatusOr<std::string> read_line();
  StatusOr<JsonValue> absorb_chunks(JsonValue envelope);

  int fd_ = -1;
  Status status_;
  ClientOptions opts_;
  std::string rxbuf_;  ///< bytes read past the previous response line
};

}  // namespace gpurf::api
