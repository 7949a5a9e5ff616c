#include "serve/query_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"

namespace kgaq {

namespace serve_internal {

/// Shared state behind one QueryTicket: written by the service, read by
/// any number of ticket copies. `cancel` is the flag QuerySession polls
/// between rounds (SetStopControl), so Cancel() needs no lock to reach a
/// running query; everything else is guarded by `mu`.
struct TicketState {
  using Clock = std::chrono::steady_clock;

  // Immutable after SubmitAsync publishes the ticket.
  uint64_t id = 0;
  uint64_t seed_used = 0;
  Deadline deadline;
  Clock::time_point submit_time;

  std::atomic<bool> cancel{false};
  /// Consumed by the continuation that builds the session.
  QueryRequest request;

  mutable std::mutex mu;
  std::condition_variable cv;
  QueryState state = QueryState::kQueued;
  Status status;
  AggregateResult result;
  bool degraded = false;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  /// Completion callbacks (QueryTicket::OnTerminal), fired exactly once
  /// by Retire — moved out under `mu`, invoked outside it.
  std::vector<std::function<void(const QueryResponse&)>> callbacks;

  QueryResponse Snapshot() const {
    std::lock_guard<std::mutex> lock(mu);
    QueryResponse out;
    out.id = id;
    out.state = state;
    out.status = status;
    out.result = result;
    out.seed_used = seed_used;
    out.degraded = degraded;
    out.queue_ms = queue_ms;
    out.run_ms = run_ms;
    return out;
  }
};

}  // namespace serve_internal

using serve_internal::TicketState;

const char* QueryStateToString(QueryState s) {
  switch (s) {
    case QueryState::kQueued:
      return "QUEUED";
    case QueryState::kRunning:
      return "RUNNING";
    case QueryState::kDone:
      return "DONE";
    case QueryState::kFailed:
      return "FAILED";
    case QueryState::kCancelled:
      return "CANCELLED";
    case QueryState::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

bool IsTerminalState(QueryState s) {
  return s != QueryState::kQueued && s != QueryState::kRunning;
}

const char* OverloadStateToString(OverloadState s) {
  switch (s) {
    case OverloadState::kHealthy:
      return "healthy";
    case OverloadState::kSaturated:
      return "saturated";
    case OverloadState::kShedding:
      return "shedding";
  }
  return "unknown";
}

// ---------------------------------------------------------------- ticket

uint64_t QueryTicket::id() const { return state_ != nullptr ? state_->id : 0; }

QueryResponse QueryTicket::Poll() const {
  if (state_ == nullptr) return QueryResponse{};
  return state_->Snapshot();
}

QueryResponse QueryTicket::Wait() const {
  if (state_ == nullptr) return QueryResponse{};
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return IsTerminalState(state_->state); });
  lock.unlock();
  return state_->Snapshot();
}

std::optional<QueryResponse> QueryTicket::WaitFor(double timeout_ms) const {
  if (state_ == nullptr) return QueryResponse{};
  std::unique_lock<std::mutex> lock(state_->mu);
  const bool terminal = state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return IsTerminalState(state_->state); });
  lock.unlock();
  if (!terminal) return std::nullopt;
  return state_->Snapshot();
}

void QueryTicket::Cancel() {
  if (state_ == nullptr) return;
  state_->cancel.store(true, std::memory_order_release);
}

void QueryTicket::OnTerminal(std::function<void(const QueryResponse&)> fn) {
  if (state_ == nullptr || fn == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!IsTerminalState(state_->state)) {
      state_->callbacks.push_back(std::move(fn));
      return;
    }
  }
  // Already terminal (including tickets born rejected, which never pass
  // through Retire): invoke on the caller's thread, outside the lock.
  fn(state_->Snapshot());
}

// --------------------------------------------------------------- service

namespace serve_internal {

/// One admitted query, owned by its continuation: the pool task chain
/// that builds the session and runs its rounds.
struct ActiveQuery {
  std::shared_ptr<TicketState> ticket;
  std::unique_ptr<QuerySession> session;
  TicketState::Clock::time_point admit_time;
  /// The round in progress, for the watchdog (guarded by the service's
  /// mu_ while the query is listed in in_round_).
  TicketState::Clock::time_point round_start;
  bool round_warned = false;
};

}  // namespace serve_internal

using serve_internal::ActiveQuery;

namespace {

double MillisBetween(TicketState::Clock::time_point from,
                     TicketState::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

QueryService::QueryService(std::shared_ptr<const EngineContext> context,
                           ServiceOptions options)
    : ctx_(std::move(context)), options_(options) {}

QueryService::~QueryService() {
  std::deque<TicketPtr> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    queued.swap(queue_);
    UpdateOverloadLocked();
  }
  // Queued work is cancelled outright. Admitted sessions see shutdown_ at
  // their next round and retire cancelled, so the wait below is bounded
  // by one round per admitted query — plus however long the pool takes
  // to reach continuations still queued on it.
  for (const TicketPtr& t : queued) {
    t->cancel.store(true, std::memory_order_release);
    Retire(t, QueryState::kCancelled, Status::OK(), AggregateResult{});
  }
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [&] { return continuations_ == 0; });
}

uint64_t QueryService::QuerySeed(uint64_t base_seed, size_t index) {
  // splitmix64 over (base, index): well-separated per-query streams that
  // any solo run can reproduce from the same pair.
  uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

QueryTicket QueryService::SubmitAsync(QueryRequest request) {
  std::vector<QueryRequest> wave;
  wave.push_back(std::move(request));
  return SubmitBatch(std::move(wave)).front();
}

std::vector<QueryTicket> QueryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<QueryTicket> out;
  out.reserve(requests.size());
  std::vector<TicketPtr> admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = TicketState::Clock::now();
    for (QueryRequest& request : requests) {
      auto state = std::make_shared<TicketState>();
      state->submit_time = now;
      state->deadline = request.deadline_ms > 0.0
                            ? Deadline::AfterMillis(request.deadline_ms)
                            : Deadline::Infinite();
      state->id = next_index_++;
      state->seed_used =
          request.seed.has_value()
              ? *request.seed
              : QuerySeed(options_.base_seed, static_cast<size_t>(state->id));
      state->request = std::move(request);
      ++stats_.submitted;
      // Re-evaluate overload BEFORE the admission decision so a queue
      // that retirements have already drained lets us exit Shedding on
      // this very submit instead of rejecting against stale state.
      // Evaluated per request, in order, so a batch makes exactly the
      // same admission decisions as the equivalent sequence of
      // SubmitAsync calls.
      UpdateOverloadLocked();
      Status reject;
      if (shutdown_) {
        reject = Status::Unavailable("service shutting down");
      } else if (KGAQ_FAULT_POINT("serve.admit.queue_full") ||
                 (options_.max_queue_depth > 0 &&
                  queue_.size() >= options_.max_queue_depth) ||
                 overload_ == OverloadState::kShedding) {
        reject = Status::ResourceExhausted(
            "admission queue full; retry after " +
            std::to_string(static_cast<uint64_t>(RetryAfterMsLocked())) +
            " ms");
      }
      if (!reject.ok()) {
        // Rejected tickets are born terminal: they consumed a submission
        // index (and a seed) but never touch queue_, outstanding_, or
        // Retire, so Drain() does not wait on them. No lock on state->mu
        // is needed — the ticket has not been published yet.
        state->state = QueryState::kFailed;
        state->status = std::move(reject);
        ++stats_.rejected;
        out.push_back(QueryTicket(std::move(state)));
        continue;
      }
      queue_.push_back(state);
      ++outstanding_;
      AdmitLocked(&admitted);
      UpdateOverloadLocked();  // a queued ticket may cross a threshold
      out.push_back(QueryTicket(std::move(state)));
    }
    if (!admitted.empty()) ++stats_.scheduler_wakeups;
  }
  Dispatch(std::move(admitted));
  return out;
}

void QueryService::AdmitLocked(std::vector<TicketPtr>* admitted) {
  const size_t width = std::max<size_t>(1, options_.max_concurrent);
  while (running_ < width && !queue_.empty()) {
    admitted->push_back(std::move(queue_.front()));
    queue_.pop_front();
    ++running_;
    ++continuations_;
  }
}

void QueryService::Dispatch(std::vector<TicketPtr> admitted) {
  for (TicketPtr& t : admitted) {
    auto a = std::make_shared<ActiveQuery>();
    a->ticket = std::move(t);
    GlobalPool().Submit([this, a] { RunRound(a); });
  }
}

size_t QueryService::num_submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_index_;
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [&] { return outstanding_ == 0; });
}

QueryService::ServiceStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  out.queued = queue_.size();
  out.running = running_;
  out.overload = overload_;
  out.retry_after_ms = RetryAfterMsLocked();
  // A probe may observe a stall while the round is still running; count
  // it here (once — the round skips it when it ends).
  const auto now = TicketState::Clock::now();
  for (ActiveQuery* a : in_round_) {
    const double age_ms = MillisBetween(a->round_start, now);
    out.last_tick_age_ms = std::max(out.last_tick_age_ms, age_ms);
    CheckStallLocked(*a, age_ms, "running for");
  }
  out.watchdog_stalls = watchdog_stalls_;
  out.memory_pressure = ctx_->memory_pressure();
  return out;
}

OverloadState QueryService::overload_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overload_;
}

void QueryService::UpdateOverloadLocked() {
  if (options_.max_queue_depth == 0) {
    overload_ = OverloadState::kHealthy;
    return;
  }
  const double q = static_cast<double>(queue_.size()) /
                   static_cast<double>(options_.max_queue_depth);
  // Hysteresis: enter thresholds are strictly above the matching exit
  // thresholds, so small oscillations around one boundary cannot flap
  // the state (and with it /healthz) on every submit/retire.
  switch (overload_) {
    case OverloadState::kHealthy:
      if (q >= options_.shedding_enter) {
        overload_ = OverloadState::kShedding;
      } else if (q >= options_.saturated_enter) {
        overload_ = OverloadState::kSaturated;
      }
      break;
    case OverloadState::kSaturated:
      if (q >= options_.shedding_enter) {
        overload_ = OverloadState::kShedding;
      } else if (q <= options_.saturated_exit) {
        overload_ = OverloadState::kHealthy;
      }
      break;
    case OverloadState::kShedding:
      if (q <= options_.shedding_exit) {
        overload_ = q <= options_.saturated_exit ? OverloadState::kHealthy
                                                 : OverloadState::kSaturated;
      }
      break;
  }
}

void QueryService::CheckStallLocked(ActiveQuery& a, double age_ms,
                                    const char* verb) const {
  if (options_.watchdog_warn_ms <= 0.0 ||
      age_ms <= options_.watchdog_warn_ms || a.round_warned) {
    return;
  }
  a.round_warned = true;
  ++watchdog_stalls_;
  std::fprintf(stderr,
               "[kgaq.serve] watchdog: round of query %llu %s %.1f ms "
               "(threshold %.1f ms)\n",
               static_cast<unsigned long long>(a.ticket->id), verb, age_ms,
               options_.watchdog_warn_ms);
}

double QueryService::RetryAfterMsLocked() const {
  // Expected time for the queue to drain at the observed retirement
  // rate. Before any retirement there is no rate, so fall back to one
  // second — long enough to matter, short enough to re-probe quickly.
  const double interval =
      (any_retired_ && drain_interval_ms_ > 0.0) ? drain_interval_ms_
                                                 : 1000.0;
  const double queued = static_cast<double>(queue_.size());
  const double estimate = queued > 0.0 ? queued * interval : interval;
  return std::clamp(estimate, 1.0, 60000.0);
}

void QueryService::Retire(const TicketPtr& t, QueryState state,
                          Status status, AggregateResult result,
                          bool degraded, bool shed_from_queue) {
  const auto now = TicketState::Clock::now();
  if (degraded && result.rounds > 0 && std::abs(result.v_hat) > 0.0) {
    // A degraded answer reports what it achieved, not what was asked:
    // the relative half-width of the confidence interval actually built.
    result.error_bound = result.moe / std::abs(result.v_hat);
  }
  if (degraded) result.exact = false;  // degraded answers are never exact
  std::vector<std::function<void(const QueryResponse&)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(t->mu);
    if (IsTerminalState(t->state)) return;  // first terminal wins
    if (t->state == QueryState::kQueued) {
      t->queue_ms = MillisBetween(t->submit_time, now);
    }
    t->state = state;
    t->status = std::move(status);
    t->result = std::move(result);
    t->degraded = degraded;
    callbacks = std::move(t->callbacks);
    t->callbacks.clear();
  }
  t->cv.notify_all();
  if (!callbacks.empty()) {
    // OnTerminal contract: exactly once, outside the ticket lock, with
    // the terminal snapshot. Callbacks run on this thread, so they must
    // stay cheap — see QueryTicket::OnTerminal.
    const QueryResponse snapshot = t->Snapshot();
    for (auto& fn : callbacks) fn(snapshot);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
    if (any_retired_) {
      // EWMA of inter-retirement gaps: the drain rate Retry-After is
      // computed from. 0.2 weight smooths bursts of retirements.
      drain_interval_ms_ =
          0.8 * drain_interval_ms_ + 0.2 * MillisBetween(last_retire_, now);
    }
    any_retired_ = true;
    last_retire_ = now;
    if (shed_from_queue) {
      ++stats_.shed;
    } else {
      switch (state) {
        case QueryState::kDone:
          ++stats_.done;
          break;
        case QueryState::kFailed:
          ++stats_.failed;
          break;
        case QueryState::kCancelled:
          ++stats_.cancelled;
          break;
        case QueryState::kDeadlineExceeded:
          ++stats_.deadline_expired;
          break;
        default:
          break;
      }
    }
    if (degraded) ++stats_.degraded;
    UpdateOverloadLocked();
  }
  drained_.notify_all();
}

void QueryService::SweepQueue() {
  // Tickets that died waiting — cancelled, deadline-expired, or queued
  // past max_queue_wait — retire now rather than at some future
  // admission. Precedence cancel > deadline > shed (kFailed here).
  std::vector<std::pair<TicketPtr, QueryState>> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = TicketState::Clock::now();
    size_t live = 0;
    for (size_t i = 0; i < queue_.size(); ++i) {
      const TicketState& q = *queue_[i];
      QueryState why = QueryState::kQueued;
      if (q.cancel.load(std::memory_order_acquire)) {
        why = QueryState::kCancelled;
      } else if (q.deadline.expired()) {
        why = QueryState::kDeadlineExceeded;
      } else if (options_.max_queue_wait_ms > 0.0 &&
                 MillisBetween(q.submit_time, now) >
                     options_.max_queue_wait_ms) {
        why = QueryState::kFailed;
      }
      if (why != QueryState::kQueued) {
        dead.emplace_back(std::move(queue_[i]), why);
      } else if (live++ != i) {
        queue_[live - 1] = std::move(queue_[i]);
      }
    }
    queue_.resize(live);
    UpdateOverloadLocked();
  }
  for (auto& [t, why] : dead) {
    if (why == QueryState::kFailed) {
      Retire(t, QueryState::kFailed,
             Status::ResourceExhausted(
                 "shed from admission queue: waited past max_queue_wait_ms"),
             AggregateResult{}, /*degraded=*/false, /*shed_from_queue=*/true);
    } else {
      Retire(t, why, Status::OK(), AggregateResult{});
    }
  }
}

bool QueryService::StartSession(ActiveQuery& a) {
  TicketState& t = *a.ticket;
  // Admission is stamped BEFORE the session builds: queue_ms is queue
  // (and pool) wait, and a query's own setup cost (candidate
  // enumeration, cold walk-core builds) bills to its run_ms.
  a.admit_time = TicketState::Clock::now();
  bool shutting_down = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down = shutdown_;
  }
  // Triage: cancelled or already-expired tickets retire without ever
  // building a session (their seeds were fixed at submission, so
  // skipping them shifts no other query's stream).
  if (shutting_down || t.cancel.load(std::memory_order_acquire)) {
    FinishActive(a, QueryState::kCancelled, Status::OK());
    return false;
  }
  if (t.deadline.expired()) {
    FinishActive(a, QueryState::kDeadlineExceeded, Status::OK());
    return false;
  }
  EngineOptions opts = options_.engine;
  opts.seed = t.seed_used;
  const QueryRequest& req = t.request;
  if (req.error_bound.has_value()) opts.error_bound = *req.error_bound;
  if (req.confidence_level.has_value()) {
    opts.confidence_level = *req.confidence_level;
  }
  if (req.max_rounds.has_value()) opts.max_rounds = *req.max_rounds;
  ApproxEngine engine(ctx_, opts);
  auto session = engine.CreateSession(req.query);
  if (!session.ok()) {
    FinishActive(a, QueryState::kFailed, session.status());
    return false;
  }
  a.session = std::move(*session);
  a.session->SetStopControl(&t.cancel, t.deadline);
  a.session->BeginRun(opts.error_bound);
  std::lock_guard<std::mutex> lock(t.mu);
  t.state = QueryState::kRunning;
  t.queue_ms = MillisBetween(t.submit_time, a.admit_time);
  return true;
}

void QueryService::RunRound(const ActivePtr& a) {
  if (a->session == nullptr && !StartSession(*a)) return;
  QuerySession& session = *a->session;

  // Round dispatch. The fault points (the shutdown-during-stall and chaos
  // tests) fire inside the watchdog's timing of the round.
  const auto round_start = TicketState::Clock::now();
  if (KGAQ_FAULT_POINT("serve.scheduler.stall")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (KGAQ_FAULT_POINT("serve.round.slow")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool shutting_down = false;
  bool shedding = false;
  bool sweep = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    a->round_start = round_start;
    a->round_warned = false;
    in_round_.push_back(a.get());
    shutting_down = shutdown_;
    shedding = overload_ == OverloadState::kShedding;
    sweep = !queue_.empty();
  }
  if (sweep) SweepQueue();
  if (shutting_down) a->ticket->cancel.store(true, std::memory_order_release);
  // Under Shedding, a session that already holds at least one completed
  // round retires with its partial estimate. A zero-round session
  // finishes its first round so no admitted query returns without an
  // answer.
  if (shedding && session.rounds_completed() >= 1) session.RequestShed();

  // One Algorithm-2 round. Sessions are fully independent (own Rng, own
  // sample) and context caches are synchronized memo tables over pure
  // functions, so the interleaving affects wall-clock only — per-query
  // results stay bitwise-identical to solo runs with the same seed.
  // StepRound itself re-checks the cancel flag and deadline before
  // drawing.
  session.StepRound();
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_round_.erase(std::find(in_round_.begin(), in_round_.end(), a.get()));
    CheckStallLocked(*a, MillisBetween(round_start, TicketState::Clock::now()),
                     "took");
  }
  if (!session.run_finished()) {
    // FIFO pool: this round goes behind every continuation already
    // waiting, so active sessions take rounds in turn.
    GlobalPool().Submit([this, a] { RunRound(a); });
    return;
  }

  AggregateResult result = session.FinishRun();
  QueryState state = QueryState::kDone;
  bool degraded = false;
  switch (session.stop_cause()) {
    case StopCause::kCancelled:
      state = QueryState::kCancelled;
      break;
    case StopCause::kDeadlineExceeded:
      state = QueryState::kDeadlineExceeded;
      // A deadline that fired mid-run still hands back everything the
      // rounds so far earned; only 0-round expiries return empty.
      degraded = result.rounds >= 1;
      break;
    case StopCause::kShed:
      // Shed sessions complete with a partial answer: state kDone,
      // degraded flag set, error_bound rewritten to the achieved bound
      // in Retire.
      degraded = true;
      break;
    case StopCause::kShardLost:
      // Only a coordinator's replay session can lose a shard; a
      // QueryService session never installs a RemoteEvaluator. Treated
      // like shed if it ever fired: partial answer, degraded.
      degraded = result.rounds >= 1;
      if (result.rounds == 0) state = QueryState::kFailed;
      break;
    case StopCause::kNone:
      break;
  }
  // Critical memory pressure declined this session's cache builds: it
  // ran on ephemeral structures (identical estimate, nothing cached for
  // successors) — a degraded completion, same as a shed run. Never fires
  // for an ungoverned context.
  if (session.cache_builds_shed() && result.rounds >= 1) degraded = true;
  FinishActive(*a, state, Status::OK(), std::move(result), degraded);
}

void QueryService::FinishActive(ActiveQuery& a, QueryState state,
                                Status status, AggregateResult result,
                                bool degraded) {
  if (a.session != nullptr) {
    const double run_ms =
        MillisBetween(a.admit_time, TicketState::Clock::now());
    a.session.reset();  // frees the sample before any waiter wakes
    std::lock_guard<std::mutex> lock(a.ticket->mu);
    a.ticket->run_ms = run_ms;
  }
  // The slot frees BEFORE the retirement: Retire on the last outstanding
  // ticket wakes Drain(), and a drainer's stats() snapshot must not see
  // this query still counted running.
  std::vector<TicketPtr> admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    AdmitLocked(&admitted);
  }
  Retire(a.ticket, state, std::move(status), std::move(result), degraded);
  Dispatch(std::move(admitted));
  std::lock_guard<std::mutex> lock(mu_);
  --continuations_;
  // Notified under the lock: the destructor cannot return before this
  // continuation releases mu_, and nothing after that touches the
  // service.
  drained_.notify_all();
}

std::vector<Result<AggregateResult>> QueryService::RunBatch(
    std::shared_ptr<const EngineContext> context,
    const std::vector<AggregateQuery>& queries, ServiceOptions options) {
  QueryService service(std::move(context), options);
  std::vector<QueryRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) requests[i].query = queries[i];
  std::vector<Result<AggregateResult>> out;
  out.reserve(queries.size());
  for (const QueryTicket& t : service.SubmitBatch(std::move(requests))) {
    QueryResponse resp = t.Wait();
    if (resp.state == QueryState::kDone) {
      out.push_back(std::move(resp.result));
    } else if (resp.state == QueryState::kFailed) {
      out.push_back(std::move(resp.status));
    } else {
      out.push_back(Status::FailedPrecondition(
          std::string("query ended ") + QueryStateToString(resp.state) +
          " before completion"));
    }
  }
  return out;
}

}  // namespace kgaq
