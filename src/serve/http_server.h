#ifndef KGAQ_SERVE_HTTP_SERVER_H_
#define KGAQ_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "serve/query_service.h"

namespace kgaq {

/// Connection-handling model of the HTTP front-end.
///
///   kEventLoop (default): an acceptor plus N event-loop threads own all
///   sockets via epoll (poll fallback). Connections are HTTP/1.1
///   keep-alive with pipelining; requests are parsed incrementally from
///   per-connection buffers, so no thread is ever parked per connection
///   and thousands of concurrent connections cost file descriptors, not
///   threads.
///
///   kBlockingThreads: the pre-event-loop model — accept thread plus a
///   small pool of blocking handler threads, one connection per request,
///   Connection: close on every response. Kept as the measured baseline
///   for the loadgen front-door comparison (examples/loadgen.cpp) and as
///   a conservative fallback.
enum class ServerModel : uint8_t { kEventLoop, kBlockingThreads };

/// Knobs of the HTTP front-end. Defaults bind an ephemeral loopback
/// port — ask `port()` after Start() for the one the kernel picked.
struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0: ephemeral
  /// Listen backlog. A keep-alive front door sees connection bursts only
  /// at client start-up, but those bursts can be thousands deep.
  int backlog = 128;
  ServerModel model = ServerModel::kEventLoop;

  // --- event-loop model ---------------------------------------------
  /// Event-loop threads sharing the connection population (round-robin
  /// assignment at accept; a connection lives on one loop for life, so
  /// its state needs no locks).
  size_t event_threads = 2;
  /// Close a connection after this many requests (0 = unlimited). The
  /// final response carries `Connection: close`.
  size_t max_keepalive_requests = 0;
  /// Reap keep-alive connections idle (no partial request buffered)
  /// longer than this. Idle reaping closes silently — the client simply
  /// reconnects; a connection stalled MID-request is instead answered
  /// 408 after `connection_deadline_ms` (slow-loris defense, now driven
  /// by loop timers instead of per-socket timeouts). 0 disables.
  double idle_timeout_ms = 5000.0;
  /// A request head (everything before the blank line) larger than this
  /// answers 431 Request Header Fields Too Large and closes.
  size_t max_header_bytes = 16 << 10;
  /// Debug/portability escape hatch: use the poll(2) backend even where
  /// epoll is available (non-Linux builds always use poll).
  bool force_poll_backend = false;

  // --- blocking model (and shared limits) ---------------------------
  /// Handler threads draining accepted connections (kBlockingThreads
  /// only); requests are tiny, the heavy lifting stays on the query
  /// service's pool, so a handful suffices.
  size_t num_handler_threads = 4;
  /// Reject request bodies beyond this size (413).
  size_t max_request_bytes = 1 << 20;
  /// Per-recv socket read timeout (kBlockingThreads only).
  double read_timeout_ms = 5000.0;
  /// Per-send socket write timeout (kBlockingThreads only).
  double write_timeout_ms = 5000.0;
  /// Wall-clock budget for receiving one full request. Defeats
  /// slow-loris clients that trickle one byte at a time: exceeding it
  /// answers 408 and closes. Under kBlockingThreads this bounds the
  /// whole connection (read + dispatch + write), as before.
  double connection_deadline_ms = 15000.0;
  /// The /result registry keeps at most this many tickets; beyond it the
  /// oldest submissions are dropped (their ids answer 404) so a
  /// long-lived server's memory stays bounded. Fetch results promptly or
  /// raise the cap.
  size_t max_tracked_tickets = 4096;
};

/// A minimal dependency-free HTTP/1.1 front-end over QueryService — the
/// path a query takes from wire bytes to AggregateResult:
///
///   POST /query            body: textual query (query/query_text.h);
///                          optional URL params eb, conf, seed,
///                          max_rounds, deadline_ms override the
///                          service's engine defaults per query.
///                          -> 202 {"id":N,"state":"QUEUED",...}
///   GET  /result/<id>      -> 200 with state; terminal responses carry
///                          v_hat, moe, satisfied, rounds, draws, the
///                          seed used and queue/run timings. An optional
///                          ?wait=<ms> long-polls: the response is
///                          deferred until the query retires (completions
///                          are pushed to the owning event loop through
///                          an eventfd wakeup — no thread parks) or the
///                          wait expires, which answers with the live
///                          non-terminal snapshot.
///   GET|POST /cancel/<id>  cooperative cancel -> 200 with state.
///   GET  /healthz          -> 200 "ok" (Healthy), 200 "saturated"
///                          (Saturated), 503 "shedding" + Retry-After
///                          (Shedding) — load balancers can drain a
///                          shedding replica without parsing JSON.
///   GET  /stats            service counters (incl. overload state and
///                          retry_after_ms), a `server` object (open
///                          connections, keep-alive reuse, requests
///                          parsed, event-loop wakeups, per-loop queue
///                          depths) + EngineContext cache entries /
///                          approximate resident bytes.
///
/// Under the default event-loop model connections are keep-alive:
/// responses carry `Connection: keep-alive` and the socket serves any
/// number of requests (HttpServerOptions::max_keepalive_requests caps
/// it), including pipelined requests parsed back-to-back from one read.
/// All POST /query submissions that complete parsing within one loop
/// drain cycle are submitted to the QueryService as ONE admission wave
/// (QueryService::SubmitBatch), so a thousand connections submitting at
/// once cost one service lock and one dispatch wave, not a thousand.
///
/// Overload: when the service rejects a submit (bounded queue full or
/// Shedding), POST /query answers 429 Too Many Requests — 503 while
/// shutting down — with a Retry-After header derived from the observed
/// queue drain rate. Clients honoring it (see serve/http_client.h)
/// converge instead of hammering a saturated replica.
///
/// The server owns the acceptor and event-loop (or handler) threads
/// only; queries run on the shared worker pool, so a slow query never
/// blocks the front-end. The service must outlive the server.
class HttpServer {
 public:
  explicit HttpServer(QueryService& service, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the accept + event-loop (or handler)
  /// threads.
  Status Start();

  /// Stops accepting, joins every thread, closes every socket. Idempotent.
  void Stop();

  /// The bound port (resolved for ephemeral binds); 0 before Start().
  uint16_t port() const { return port_; }

  struct Stats {
    uint64_t requests = 0;      ///< responses generated (any status)
    uint64_t bad_requests = 0;  ///< 4xx responses
    // --- event-loop model front-door counters -----------------------
    uint64_t connections_accepted = 0;
    size_t open_connections = 0;  ///< currently owned by the loops
    /// Requests served on a connection beyond its first — the keep-alive
    /// win. reuse / requests_parsed ~ 1 means churn is gone.
    uint64_t keepalive_reuses = 0;
    uint64_t requests_parsed = 0;  ///< complete requests framed
    uint64_t loop_wakeups = 0;     ///< poller returns with ready events
    /// Per-loop pending cross-thread work (new fds + long-poll
    /// completions not yet drained) — the per-stage queue-depth probe.
    std::vector<size_t> loop_queue_depths;
    std::vector<size_t> loop_connections;  ///< per-loop open connections
  };
  Stats stats() const;

  /// Extension seam for subsystems mounting extra routes on this front
  /// door (the shard RPC endpoints, shard/channel.h). Dispatch consults
  /// the handler after the built-in routes and before the 404
  /// fallthrough; returning a (status, body) pair answers the request
  /// (body goes out as text/plain), nullopt falls through to 404. The
  /// handler runs inline on event-loop (or handler) threads, so it must
  /// not block on this server's own routes. Install before Start();
  /// installation is not synchronized against in-flight requests.
  using ExtraHandler = std::function<std::optional<std::pair<int, std::string>>(
      const std::string& method, const std::string& path,
      const std::string& body)>;
  void SetExtraHandler(ExtraHandler handler) {
    extra_handler_ = std::move(handler);
  }

  /// Splices one extra top-level member into the GET /stats JSON object.
  /// The fn returns a complete `"key":{...}` fragment (or "" for none)
  /// and must be thread-safe — it runs inline on event-loop (or handler)
  /// threads. Used by the shard tier to surface breaker/failover/hedge
  /// counters (RenderShardTierJson, shard/coordinator.h) on the same
  /// /stats the flat service already serves. Install before Start().
  using StatsAugmenter = std::function<std::string()>;
  void SetStatsAugmenter(StatsAugmenter fn) {
    stats_augmenter_ = std::move(fn);
  }

  /// Appends a suffix to every /healthz body (e.g. " shards:degraded"
  /// when a replica set is running below full strength; "" for nothing).
  /// Same threading rules as the stats augmenter; the suffix never
  /// changes the status code — replica degradation is a capacity signal,
  /// not unavailability.
  using HealthAugmenter = std::function<std::string()>;
  void SetHealthAugmenter(HealthAugmenter fn) {
    health_augmenter_ = std::move(fn);
  }

 private:
  class EventLoop;

  // --- blocking model ------------------------------------------------
  void AcceptLoopBlocking(int listen_fd);
  void HandlerLoop();
  void HandleConnection(int fd);

  // --- event-loop model ----------------------------------------------
  void AcceptLoopEvented(int listen_fd);

  // --- shared dispatch ------------------------------------------------
  /// Everything needed to finish a POST /query after parsing: either the
  /// ready-to-send error response (parse/param failure) or the validated
  /// request plus its canonical echo, to be submitted — possibly as part
  /// of a batch — and finished by FinishSubmit.
  struct PreparedSubmit {
    bool ok = false;
    std::string error_response;  ///< complete response when !ok
    QueryRequest request;
    std::string canonical;
  };
  PreparedSubmit PrepareSubmit(const std::string& query_string,
                               const std::string& body);
  std::string FinishSubmit(const PreparedSubmit& prep, QueryTicket ticket,
                           bool keep_alive);
  /// Routes everything except the deferred paths (batched /query,
  /// long-poll /result) — and those too under kBlockingThreads, where
  /// blocking inline is fine.
  std::string Dispatch(const std::string& method, const std::string& target,
                       const std::string& body, bool keep_alive);
  /// Registry lookup; nullopt for unknown/evicted ids.
  std::optional<QueryTicket> FindTicket(const std::string& id_text);
  void RegisterTicket(const QueryTicket& ticket);

  QueryService& service_;
  HttpServerOptions options_;
  ExtraHandler extra_handler_;
  StatsAugmenter stats_augmenter_;
  HealthAugmenter health_augmenter_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::thread> handlers_;
  std::vector<std::unique_ptr<EventLoop>> loops_;

  std::mutex conn_mu_;
  std::condition_variable conn_available_;
  std::deque<int> connections_;

  mutable std::mutex tickets_mu_;
  std::unordered_map<uint64_t, QueryTicket> tickets_;
  std::deque<uint64_t> ticket_order_;  ///< insertion order, for eviction

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> keepalive_reuses_{0};
  std::atomic<uint64_t> requests_parsed_{0};
};

/// Scrapes the value after `"key":` from this server's flat JSON
/// responses — a quoted string is unescaped, anything else is returned
/// as its raw token, a missing key as "". A diagnostic helper for tests
/// and smoke binaries (shared so they agree), NOT a JSON parser: it
/// scans the flat text and does not understand nesting.
std::string ExtractJsonField(const std::string& body,
                             const std::string& key);

}  // namespace kgaq

#endif  // KGAQ_SERVE_HTTP_SERVER_H_
