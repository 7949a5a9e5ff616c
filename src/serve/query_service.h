#ifndef KGAQ_SERVE_QUERY_SERVICE_H_
#define KGAQ_SERVE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/approx_engine.h"
#include "core/engine_context.h"
#include "query/query_graph.h"

namespace kgaq {

namespace serve_internal {
struct TicketState;
struct ActiveQuery;
}  // namespace serve_internal

/// Overload state of a QueryService under bounded admission — a
/// three-state machine over the queue-depth fraction q = queued /
/// max_queue_depth, with hysteresis so the state cannot flap on every
/// submit/retire (see ServiceOptions thresholds):
///
///   Healthy ──q ≥ saturated_enter──▶ Saturated ──q ≥ shedding_enter──▶ Shedding
///      ▲◀──q ≤ saturated_exit─────────┘  ▲◀──────q ≤ shedding_exit───────┘
///
/// Shedding rejects new submissions outright (429 upstream) and retires
/// in-flight queries that already hold a ≥1-round estimate with a
/// degraded response, so the queue drains instead of collapsing.
/// Unbounded services (max_queue_depth == 0) are always Healthy.
enum class OverloadState : uint8_t { kHealthy, kSaturated, kShedding };

/// "healthy", "saturated", "shedding".
const char* OverloadStateToString(OverloadState s);

/// Admission / scheduling knobs of a QueryService.
struct ServiceOptions {
  /// Admission width: how many queries run their rounds concurrently.
  /// Further submissions queue and enter as earlier queries finish.
  size_t max_concurrent = 8;
  /// Base seed; the query submitted `index`-th draws with seed
  /// QueryService::QuerySeed(base, index) unless its request pins one, so
  /// per-query streams are independent yet fully reproducible.
  uint64_t base_seed = 7;
  /// Bounded admission: maximum tickets waiting for a slot. 0 keeps the
  /// legacy unbounded queue. A full queue rejects at submit with
  /// StatusCode::kResourceExhausted (ticket lands terminal kFailed,
  /// never queued; the HTTP front-end answers 429 + Retry-After).
  size_t max_queue_depth = 0;
  /// Maximum time a ticket may wait in the queue before a running round
  /// sheds it (kFailed + kResourceExhausted, counted in stats().shed).
  /// 0 means wait forever. A shed-in-queue query never ran, so it holds
  /// no partial estimate — bound queue *depth* too if you want arrivals
  /// rejected up front instead.
  double max_queue_wait_ms = 0.0;
  /// Overload state-machine thresholds, as fractions of max_queue_depth
  /// (ignored when the queue is unbounded). Enter thresholds must sit
  /// above their exit thresholds — the gap is the hysteresis band.
  double saturated_enter = 0.50;
  double saturated_exit = 0.25;
  double shedding_enter = 0.90;
  double shedding_exit = 0.50;
  /// Round watchdog: one session's Algorithm-2 round that runs longer
  /// than this logs a debug warning to stderr and counts in
  /// stats().watchdog_stalls; stats().last_tick_age_ms exposes the age
  /// of the oldest round in progress so an operator probing /stats can
  /// see a stall while it is happening. 0 disables the warning.
  double watchdog_warn_ms = 1000.0;
  /// Per-query engine configuration. A request's overrides (error bound,
  /// confidence, seed, max rounds) are applied on top; the `seed` field is
  /// otherwise overridden by the derived per-query seed.
  EngineOptions engine;
};

/// A query as it arrives at the service: the aggregate query plus the
/// per-query knobs a caller may override without touching the service's
/// engine defaults. This is the unit the wire format parses into — see
/// ParseAggregateQuery (query/query_text.h) and serve/http_server.h.
struct QueryRequest {
  AggregateQuery query;
  /// Engine overrides; unset fields inherit ServiceOptions::engine.
  std::optional<double> error_bound;
  std::optional<double> confidence_level;
  std::optional<uint64_t> seed;  ///< pins the Rng stream (else QuerySeed)
  std::optional<size_t> max_rounds;
  /// Latency bound in milliseconds, measured from submission on the
  /// monotonic clock — it covers queue wait. <= 0 means no deadline. An
  /// expired query retires at the next round boundary with its partial
  /// estimate (state kDeadlineExceeded).
  double deadline_ms = 0.0;
};

/// Lifecycle of a submitted query. Terminal states are kDone, kFailed,
/// kCancelled and kDeadlineExceeded; a ticket's state only ever moves
/// forward (kQueued -> kRunning -> terminal, or kQueued -> terminal).
enum class QueryState : uint8_t {
  kQueued,
  kRunning,
  kDone,              ///< ran to its natural end; `result` is final
  kFailed,            ///< admission failed; `status` carries the error
  kCancelled,         ///< Cancel() honored; `result` holds the partial
  kDeadlineExceeded,  ///< deadline expired; `result` holds the partial
};

/// "QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED",
/// "DEADLINE_EXCEEDED".
const char* QueryStateToString(QueryState s);

bool IsTerminalState(QueryState s);

/// Everything the service knows about one query, returned BY VALUE — a
/// response outlives the service and is never invalidated by later
/// submissions.
struct QueryResponse {
  uint64_t id = 0;
  QueryState state = QueryState::kQueued;
  /// Non-OK exactly when state == kFailed.
  Status status;
  /// Final for kDone; the partial estimate (possibly zero-round) for
  /// kCancelled / kDeadlineExceeded; default for kQueued / kFailed.
  AggregateResult result;
  /// The seed this query's Rng stream was (or will be) seeded with; a
  /// solo ApproxEngine run with this seed reproduces the result exactly.
  uint64_t seed_used = 0;
  /// Graceful degradation marker: true when the run was stopped short by
  /// overload shedding or an expired deadline *after* completing at
  /// least one round — `result` then carries a valid partial estimate
  /// whose `error_bound` field is rewritten to the ACHIEVED relative
  /// bound (moe / |v_hat|) instead of the requested one. A degraded
  /// response is an answer, not an error: `status` stays OK. Queries
  /// stopped before their first round are never marked degraded (their
  /// estimate would be vacuous).
  bool degraded = false;
  /// Submission -> admission (or -> terminal when never admitted).
  double queue_ms = 0.0;
  /// Admission -> retirement; 0 until admitted.
  double run_ms = 0.0;
};

/// Handle to one asynchronously submitted query. Cheap to copy (all
/// copies share the same ticket); default-constructed tickets are empty.
///
/// Lifecycle:
///   auto ticket = service.SubmitAsync({query});
///   ticket.Poll();          // non-blocking state snapshot
///   ticket.Cancel();        // cooperative: takes effect between rounds
///   auto resp = ticket.Wait();  // blocks until terminal
///
/// All members are safe to call from any thread, concurrently with the
/// service and with each other. A ticket keeps its state alive
/// independently of the service, so Wait/Poll stay valid even after the
/// service is destroyed (outstanding queries are cancelled then).
class QueryTicket {
 public:
  QueryTicket() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const;

  /// Non-blocking snapshot of the query's current state. `result` is
  /// meaningful only once the state is terminal.
  QueryResponse Poll() const;

  /// Blocks until the query reaches a terminal state and returns it.
  QueryResponse Wait() const;

  /// Wait with a timeout; returns the terminal response, or nullopt when
  /// the query is still live after `timeout_ms`.
  std::optional<QueryResponse> WaitFor(double timeout_ms) const;

  /// Requests cooperative cancellation: a queued query retires without
  /// running; a running one retires at its next round boundary with the
  /// partial estimate. Idempotent; a no-op once terminal.
  void Cancel();

  /// Registers a completion callback: `fn` is invoked exactly once with
  /// the terminal QueryResponse — immediately (on the calling thread) if
  /// the ticket is already terminal, otherwise at retirement, on the
  /// GlobalPool() worker that retires the query (or on the thread that
  /// cancels it while queued). Callbacks must be cheap and non-blocking
  /// (post to a queue, signal an eventfd): they hold up that worker's
  /// next task. This is the push half of the ticket API — the HTTP
  /// front-end's event loops use it to answer long-poll result fetches
  /// without parking a thread per waiter.
  void OnTerminal(std::function<void(const QueryResponse&)> fn);

 private:
  friend class QueryService;
  explicit QueryTicket(std::shared_ptr<serve_internal::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<serve_internal::TicketState> state_;
};

/// A resident front-end serving many aggregate queries over ONE shared
/// EngineContext — the paper's interactive setting at service scale:
/// build-once shared state, cheap per-query sessions, and round-level
/// interleaving so no single long-running query monopolizes the pool.
///
///   auto ctx = EngineContext::LoadFromSnapshot("kg.snap");
///   QueryService service(*std::move(ctx));
///   auto t1 = service.SubmitAsync({q1});            // returns immediately
///   auto t2 = service.SubmitAsync({q2, .deadline_ms = 50});
///   t2.Cancel();                                    // or let it expire
///   QueryResponse r1 = t1.Wait();                   // by value, stable
///
/// Scheduling: submissions and retirements admit queued tickets into
/// free slots (up to max_concurrent), and each admitted query runs as
/// its own continuation on GlobalPool(): one pool task builds the
/// session and runs one Algorithm-2 round, then either re-submits itself
/// for the next round or retires the query and admits the next queued
/// ticket. The pool is FIFO, so active sessions still
/// take rounds in turn, but no session waits for another's round. A
/// round also does the service's housekeeping: it applies shutdown and
/// overload shedding to its own session and sweeps dead tickets out of
/// the queue. Submission never blocks on running queries.
///
/// Determinism: each session owns its Rng (seeded from QuerySeed of the
/// submission index, or the request's pinned seed) and every context
/// cache is a synchronized memo over pure functions, so an uncancelled
/// query's result is bitwise-identical to running it alone with the same
/// seed — concurrency, queueing, cache warmth, and other queries being
/// cancelled change wall-clock, never v_hat or moe. Cancellation and
/// deadlines are checked between rounds only and per-query streams are
/// independent, so a retiring query cannot perturb any other session's
/// draws. Tested in tests/serve_test.cc.
///
/// Overload protection (opt-in via ServiceOptions::max_queue_depth): a
/// full queue rejects at submit (kResourceExhausted — the ticket comes
/// back already terminal), queued tickets older than max_queue_wait_ms
/// are shed, and the Healthy/Saturated/Shedding state machine (with
/// hysteresis) drives graceful degradation: while Shedding, new
/// submissions are refused and in-flight queries that already completed
/// ≥1 round retire at the next round boundary with a *degraded* partial
/// estimate (QueryResponse::degraded, achieved error bound) rather than
/// an error. The anytime estimator makes this loss-free: every accepted
/// query that ran at least one round always gets an answer. Tested in
/// tests/overload_test.cc.
class QueryService {
 public:
  explicit QueryService(std::shared_ptr<const EngineContext> context,
                        ServiceOptions options = {});

  /// Cancels every outstanding query and waits until none of its
  /// continuations is running or still queued on the pool (bounded by one
  /// round per admitted query). Call Drain() first for a graceful
  /// end-of-life.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// The seed the `index`-th submitted query samples with under base seed
  /// `base_seed` (splitmix64 of the pair). Exposed so a solo ApproxEngine
  /// run can reproduce a service-run query exactly.
  static uint64_t QuerySeed(uint64_t base_seed, size_t index);

  /// Enqueues a query for asynchronous execution and returns its ticket
  /// immediately — submission is valid while earlier queries are still
  /// running. The ticket's id is the query's submission index (the same
  /// index QuerySeed derives the seed from).
  QueryTicket SubmitAsync(QueryRequest request);

  /// Batching shim for high-QPS front doors: submits a whole wave of
  /// requests under ONE lock acquisition and at most ONE dispatch wave,
  /// so N requests arriving within one event-loop drain cycle cost one
  /// admission pass instead of N lock round trips. Tickets
  /// come back in request order with consecutive submission indices —
  /// identical ids, seeds, and admission decisions to submitting the
  /// same requests one by one (tested in serve_test.cc). Rejections
  /// (queue full / shedding / shutdown) are evaluated per request, in
  /// order, exactly as SubmitAsync would.
  std::vector<QueryTicket> SubmitBatch(std::vector<QueryRequest> requests);

  /// Number of queries submitted so far.
  size_t num_submitted() const;

  /// Blocks until every query submitted so far is terminal.
  void Drain();

  /// Service-level counters (tickets by state), for /stats and tests.
  /// Every submission ends in exactly one of the five terminal buckets:
  ///   submitted == done + failed + cancelled + deadline_expired
  ///                + rejected + shed        (once all tickets retire)
  /// `degraded` is an overlay, not a bucket: it counts the done /
  /// deadline_expired tickets whose response carried a degraded partial.
  struct ServiceStats {
    uint64_t submitted = 0;
    uint64_t done = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t deadline_expired = 0;
    uint64_t rejected = 0;  ///< refused at submit (queue full / shedding)
    uint64_t shed = 0;      ///< evicted from the queue (max_queue_wait_ms)
    uint64_t degraded = 0;  ///< retired with a degraded partial estimate
    size_t queued = 0;   ///< currently waiting for a slot
    size_t running = 0;  ///< currently admitted
    OverloadState overload = OverloadState::kHealthy;
    /// Suggested client wait before resubmitting, from the observed
    /// queue drain rate (EWMA of inter-retirement gaps x queue depth).
    /// The HTTP front-end rounds this up into 429 Retry-After.
    double retry_after_ms = 0.0;
    /// Dispatch waves started by submissions: a SubmitAsync/SubmitBatch
    /// call that admitted at least one ticket straight into a free slot
    /// counts once, however many it admitted. Tickets admitted later by
    /// retirements do not count, so under load this grows slower than
    /// `submitted` (compare the two to see it).
    uint64_t scheduler_wakeups = 0;
    /// Round watchdog (see ServiceOptions::watchdog_warn_ms): age of the
    /// oldest round in progress (0 when no round is running), and how
    /// many rounds have stalled past the threshold since construction.
    double last_tick_age_ms = 0.0;
    uint64_t watchdog_stalls = 0;
    /// Memory-pressure state of the shared EngineContext budget (always
    /// kHealthy for an ungoverned context). Under kCritical the engine
    /// sheds new cache builds — queries still run, on ephemeral
    /// structures, and come back marked degraded. See docs/memory.md.
    MemoryPressure memory_pressure = MemoryPressure::kHealthy;
  };
  ServiceStats stats() const;

  /// Current overload state (see OverloadState).
  OverloadState overload_state() const;

  /// One-call batch convenience: runs `queries` on a fresh service and
  /// returns their results in order. A query that does not end kDone
  /// carries its error Status (its admission error for kFailed).
  static std::vector<Result<AggregateResult>> RunBatch(
      std::shared_ptr<const EngineContext> context,
      const std::vector<AggregateQuery>& queries,
      ServiceOptions options = {});

  const std::shared_ptr<const EngineContext>& context() const {
    return ctx_;
  }

 private:
  using TicketPtr = std::shared_ptr<serve_internal::TicketState>;
  using ActivePtr = std::shared_ptr<serve_internal::ActiveQuery>;

  /// Moves queued tickets into free slots (running_ < max_concurrent) and
  /// appends them to `admitted`; each now owns one continuation, which the
  /// caller must hand to Dispatch() once it has released mu_. Caller
  /// holds mu_.
  void AdmitLocked(std::vector<TicketPtr>* admitted);
  /// Submits the first continuation of every admitted ticket.
  void Dispatch(std::vector<TicketPtr> admitted);
  /// One continuation step: builds the session on first run, then runs
  /// one round and either re-submits itself or retires the query.
  void RunRound(const ActivePtr& a);
  /// Builds `a`'s session, or retires the ticket without one (cancelled,
  /// expired, or an invalid query). False when the ticket retired.
  bool StartSession(serve_internal::ActiveQuery& a);
  /// Retires `a`'s ticket, frees its slot for the next queued ticket and
  /// ends the continuation. The last thing a continuation does.
  void FinishActive(serve_internal::ActiveQuery& a, QueryState state,
                    Status status, AggregateResult result = {},
                    bool degraded = false);
  /// Removes cancelled, expired and max_queue_wait_ms tickets from the
  /// queue and retires them. Called once per round while tickets queue.
  void SweepQueue();
  /// Marks `t` terminal under its own lock and updates service counters.
  /// `degraded` tags the response as a degraded partial (see
  /// QueryResponse::degraded) and rewrites result.error_bound to the
  /// achieved bound; `shed_from_queue` routes the kFailed count into
  /// stats().shed instead of stats().failed.
  void Retire(const TicketPtr& t, QueryState state, Status status,
              AggregateResult result, bool degraded = false,
              bool shed_from_queue = false);
  /// Re-evaluates the overload state machine from the current queue
  /// depth. Caller holds mu_.
  void UpdateOverloadLocked();
  /// Counts and logs `a`'s round as a watchdog stall when it has run past
  /// watchdog_warn_ms and nobody has yet. Caller holds mu_.
  void CheckStallLocked(serve_internal::ActiveQuery& a, double age_ms,
                        const char* verb) const;
  /// Suggested client backoff from the drain-rate EWMA. Caller holds mu_.
  double RetryAfterMsLocked() const;

  std::shared_ptr<const EngineContext> ctx_;
  ServiceOptions options_;

  mutable std::mutex mu_;
  /// Signalled as tickets retire (Drain) and as continuations end (the
  /// destructor).
  std::condition_variable drained_;
  std::deque<TicketPtr> queue_;  ///< submitted, not yet admitted
  size_t next_index_ = 0;        ///< submission counter (ids + seeds)
  size_t outstanding_ = 0;       ///< non-terminal tickets
  size_t running_ = 0;           ///< admitted, not yet retired
  /// Continuations running or queued on the pool. Outlives running_ by
  /// the retirement tail, which still touches the service.
  size_t continuations_ = 0;
  bool shutdown_ = false;
  ServiceStats stats_;
  OverloadState overload_ = OverloadState::kHealthy;
  /// Drain-rate estimate: EWMA of the gap between consecutive
  /// retirements, in ms. 0 until two retirements have been observed.
  double drain_interval_ms_ = 0.0;
  std::chrono::steady_clock::time_point last_retire_;
  bool any_retired_ = false;
  /// Round watchdog state (guarded by mu_): the sessions whose round is
  /// in progress. `watchdog_stalls_` is mutable because a stats() probe
  /// may be the first observer of a stall still in progress.
  std::vector<serve_internal::ActiveQuery*> in_round_;
  mutable uint64_t watchdog_stalls_ = 0;
};

}  // namespace kgaq

#endif  // KGAQ_SERVE_QUERY_SERVICE_H_
