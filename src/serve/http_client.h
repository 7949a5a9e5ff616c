#ifndef KGAQ_SERVE_HTTP_CLIENT_H_
#define KGAQ_SERVE_HTTP_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace kgaq {

/// One HTTP response as the clients below parse it.
struct HttpResponse {
  int status_code = 0;
  std::string body;
  /// Parsed Retry-After header (seconds); 0 when absent. 429/503
  /// responses from HttpServer carry it so retrying clients can pace
  /// themselves to the server's drain rate.
  double retry_after_s = 0.0;
};

/// A blocking HTTP/1.1 client connection that speaks keep-alive: one
/// socket, any number of sequential RoundTrip calls, responses framed by
/// Content-Length (read-until-close only when the server says
/// `Connection: close` without a length). This is the transport under
/// HttpFetch, RetryingHttpClient's per-host connection pool, and the
/// loadgen/loopback tests. Not thread-safe; one thread per connection.
class HttpClientConnection {
 public:
  HttpClientConnection() = default;
  ~HttpClientConnection();
  HttpClientConnection(HttpClientConnection&& other) noexcept;
  HttpClientConnection& operator=(HttpClientConnection&& other) noexcept;
  HttpClientConnection(const HttpClientConnection&) = delete;
  HttpClientConnection& operator=(const HttpClientConnection&) = delete;

  /// Connects (numeric IPv4 only). kUnavailable on failure — no request
  /// bytes were sent, always safe to retry.
  Status Connect(const std::string& host, uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Bounds every subsequent socket operation (connect/send/recv) via
  /// SO_SNDTIMEO/SO_RCVTIMEO. Per-SYSCALL, not per-round-trip: a server
  /// trickling bytes can stretch a round trip past the nominal budget,
  /// but a dead or hung peer fails within one timeout. <= 0, NaN or
  /// +inf clears the bound (blocking forever, the historical behavior);
  /// sub-millisecond values round up to 1 ms (a zero timeval means
  /// "no timeout" to the kernel). Survives reconnects until reset. A
  /// timed-out operation surfaces from RoundTrip as kIoError
  /// ("timed out...") — the request MAY have executed, so retrying
  /// clients replay it only for idempotent methods.
  void SetTimeoutMs(double ms);

  /// Sends one request and reads one response. `keep_alive` picks the
  /// Connection header; after a `Connection: close` response (or
  /// keep_alive=false) the socket is closed and Connect must be called
  /// again. Error taxonomy, which RetryingHttpClient's replay rules rely
  /// on:
  ///   - kUnavailable: it is certain the server did no work — connect
  ///     failed, or a REUSED connection died before yielding a single
  ///     response byte (the server reaped it while idle; raced sends
  ///     land on a dead socket). Safe to retry for any method.
  ///   - kIoError: a FRESH connection died mid-flight — the request may
  ///     have executed. Retried only for idempotent methods.
  Result<HttpResponse> RoundTrip(const std::string& method,
                                 const std::string& target,
                                 const std::string& body = "",
                                 bool keep_alive = true);

  /// Requests completed on this transport connection since Connect.
  uint64_t requests_sent() const { return requests_sent_; }

 private:
  /// Applies the stored timeout to `fd` (0 clears it).
  void ApplyTimeout(int fd) const;

  int fd_ = -1;
  std::string host_;
  uint16_t port_ = 0;
  uint64_t requests_sent_ = 0;
  double timeout_ms_ = 0.0;  ///< 0 = unbounded
};

/// One-shot convenience for tests and smoke binaries: connect, send with
/// `Connection: close`, read the response, close. Same wire behavior as
/// before keep-alive existed; use HttpClientConnection to reuse sockets.
Result<HttpResponse> HttpFetch(const std::string& host, uint16_t port,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body = "");

/// Retry policy for RetryingHttpClient: capped exponential backoff with
/// decorrelated jitter. All sleeps are deterministic given `seed` — the
/// i-th backoff depends only on the seed and the previous sleep — so
/// tests can assert the exact schedule through an injected sleep fn.
struct RetryOptions {
  /// Total tries including the first; 1 disables retry entirely.
  int max_attempts = 4;
  /// First backoff's lower bound and the jitter floor for later ones.
  double initial_backoff_ms = 100.0;
  /// Hard ceiling on any single sleep.
  double max_backoff_ms = 5000.0;
  /// Seeds the jitter stream; same seed, same failures -> same schedule.
  uint64_t seed = 1;
  /// When a 429/503 carries Retry-After, sleep at least that long
  /// (still capped by max_backoff_ms).
  bool honor_retry_after = true;
  /// Pooled keep-alive connections kept per host:port (at least 1).
  /// Concurrent Fetch calls to one host fan out over the pool; calls
  /// beyond it overflow onto temporary one-shot connections instead of
  /// queueing, so a burst degrades to pre-pool behavior rather than
  /// serializing.
  size_t connections_per_host = 4;
};

/// A thin, dependency-free retrying client for loopback tests, smoke
/// binaries, the shard coordinator's remote channels, and the chaos
/// soak. The default constructor POOLS transport connections: up to
/// RetryOptions::connections_per_host persistent keep-alive
/// HttpClientConnections per host:port, reused across Fetch calls,
/// reconnected transparently when the server closes one (idle reap,
/// max_keepalive_requests, or a transport error). What it retries:
///
///   - kUnavailable transport errors: either the connect itself failed
///     or a REUSED pooled connection died before yielding a single
///     response byte (the server reaped it while we were idle) — in
///     both cases no request executed, so retrying is safe for every
///     method; the retry reconnects.
///   - kIoError transport errors (send/recv died mid-flight on a fresh
///     connection): the server MAY have executed the request, so these
///     retry only for idempotent methods (GET / HEAD). A POST /query
///     that dies mid-read is surfaced to the caller rather than
///     silently submitted twice. The pooled connection is dropped, so
///     a retry (when allowed) starts on a fresh socket.
///   - HTTP 429 and 503: the server explicitly said "later"; the
///     request was rejected before any work, so retrying is safe for
///     every method. Retry-After, when present, paces the wait.
///
/// Everything else — 4xx/5xx responses, parse failures — returns
/// immediately: retrying a deterministic failure only adds load.
///
/// Backoff between tries is decorrelated jitter (Brooker/AWS):
///   sleep_i = min(cap, uniform(base, 3 * sleep_{i-1}))
/// which spreads a thundering herd across time instead of synchronizing
/// it the way plain doubling does.
///
/// Thread-safe: the pool hands each in-flight Fetch its own connection
/// (checkout under a mutex, round trip outside it), so one client can
/// back every shard channel of a coordinator. The retry jitter stream
/// and stats are mutex-guarded; with contention the exact interleaving
/// of jitter draws across threads is scheduler-dependent, but each
/// single-threaded use keeps the old deterministic schedule.
class RetryingHttpClient {
 public:
  /// Injection seams for tests: a fake fetch scripts server behavior and
  /// a fake sleep records the backoff schedule without waiting.
  using FetchFn = std::function<Result<HttpResponse>(
      const std::string& host, uint16_t port, const std::string& method,
      const std::string& target, const std::string& body)>;
  using SleepFn = std::function<void(double ms)>;

  /// Pooled keep-alive transport (see class comment).
  explicit RetryingHttpClient(RetryOptions options = {});
  /// Test constructor: custom transport and/or clockless sleep. An
  /// injected transport is NOT pooled — the fetch fn owns connection
  /// lifetime.
  RetryingHttpClient(RetryOptions options, FetchFn fetch, SleepFn sleep);

  /// Fetches with retries per the class contract. On success the LAST
  /// response is returned (even a 4xx — only transport errors and
  /// retryable statuses loop). On exhaustion, the last transport error
  /// or the final 429/503 response is returned as-is.
  ///
  /// `timeout_ms` (when > 0) bounds each ATTEMPT's socket operations via
  /// SO_SNDTIMEO/SO_RCVTIMEO on the pooled connection — not the whole
  /// Fetch including backoff sleeps; callers with a hard deadline should
  /// also size max_attempts accordingly. A timed-out attempt surfaces as
  /// kIoError ("timed out"), which is NOT retried for non-idempotent
  /// methods, so a deadline-clamped POST fails fast instead of replaying
  /// into a spent budget. Ignored with an injected transport.
  Result<HttpResponse> Fetch(const std::string& host, uint16_t port,
                             const std::string& method,
                             const std::string& target,
                             const std::string& body = "",
                             double timeout_ms = 0.0);

  /// Closes every pooled connection to host:port — the circuit-breaker
  /// open hook (shard/health.h): once a host is presumed dead, cached
  /// sockets to it are worthless at best and half-dead at worst, so
  /// failback after recovery reconnects fresh. Idle slots close
  /// immediately; checked-out slots close when their in-flight round
  /// trip returns. Each connection closed counts in stats().evictions.
  void EvictHost(const std::string& host, uint16_t port);

  struct Stats {
    uint64_t requests = 0;  ///< Fetch() calls
    uint64_t retries = 0;   ///< extra attempts beyond each first try
    /// Attempts served over an already-open pooled connection — the
    /// keep-alive win; reuses / requests ~ 1 means churn is gone.
    uint64_t reuses = 0;
    /// Pooled connections (re)established: first contact per host plus
    /// one per server-side close observed. Always 0 with an injected
    /// transport.
    uint64_t reconnects = 0;
    /// Attempts that found every pooled connection busy and ran on a
    /// temporary one-shot connection instead. Persistently nonzero means
    /// connections_per_host is undersized for the concurrency.
    uint64_t overflows = 0;
    /// Pooled connections closed by EvictHost (breaker-open eviction).
    uint64_t evictions = 0;
  };
  Stats stats() const;

 private:
  /// One pool slot: a persistent connection plus its checkout flag.
  /// Slots are heap-allocated so pointers stay stable while the per-host
  /// vector grows under the lock.
  struct PooledConn {
    HttpClientConnection conn;
    bool in_use = false;
    /// EvictHost raced an in-flight round trip: close at checkin.
    bool evict_on_return = false;
  };

  /// One attempt over a checked-out per-host pooled connection (or a
  /// temporary overflow connection when the pool is saturated).
  Result<HttpResponse> PooledFetch(const std::string& host, uint16_t port,
                                   const std::string& method,
                                   const std::string& target,
                                   const std::string& body,
                                   double timeout_ms);

  RetryOptions options_;
  FetchFn fetch_;  ///< injected transport; null in pooled mode
  SleepFn sleep_;
  /// mu_ guards rng_state_, stats_ and the pool STRUCTURE (checkout /
  /// checkin / growth); the actual socket I/O runs outside the lock on
  /// the checked-out slot, which the in_use flag makes exclusive.
  mutable std::mutex mu_;
  uint64_t rng_state_;
  Stats stats_;
  /// host:port -> up to connections_per_host persistent connections.
  /// RoundTrip closes the socket on every transport error and every
  /// `Connection: close` response, so a pooled entry is never left in
  /// an unknown framing state — the next checkout just reconnects.
  std::unordered_map<std::string, std::vector<std::unique_ptr<PooledConn>>>
      pool_;
};

}  // namespace kgaq

#endif  // KGAQ_SERVE_HTTP_CLIENT_H_
