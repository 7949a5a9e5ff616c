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

/// Shared state behind one QueryTicket: written by the scheduler, read by
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
  /// Consumed by the scheduler at admission.
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

QueryService::QueryService(std::shared_ptr<const EngineContext> context,
                           ServiceOptions options)
    : ctx_(std::move(context)), options_(options) {}

QueryService::~QueryService() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Queued work is cancelled outright; the scheduler sets the cancel
    // flag on admitted sessions and drains them at their next round
    // boundary, so this join is bounded by one round per active query.
    for (const TicketPtr& t : queue_) {
      t->cancel.store(true, std::memory_order_release);
    }
    to_join = std::move(scheduler_);
  }
  wake_.notify_all();
  if (to_join.joinable()) to_join.join();
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
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = TicketState::Clock::now();
    bool any_queued = false;
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
      // Re-evaluate overload BEFORE the admission decision so a queue the
      // scheduler has already drained lets us exit Shedding on this very
      // submit instead of rejecting against stale state. Evaluated per
      // request, in order, so a batch makes exactly the same admission
      // decisions as the equivalent sequence of SubmitAsync calls.
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
      any_queued = true;
      UpdateOverloadLocked();  // this push may cross an enter threshold
      out.push_back(QueryTicket(std::move(state)));
    }
    if (any_queued) {
      if (!scheduler_.joinable()) {
        scheduler_ = std::thread([this] { SchedulerLoop(); });
      }
      // Wakeup coalescing: only signal when the scheduler is actually
      // parked. A scheduler mid-tick re-reads the queue before blocking,
      // so skipping the notify is safe — and a whole admission wave
      // costs at most one futex wake instead of one per request.
      if (scheduler_waiting_) {
        notify = true;
        ++stats_.scheduler_wakeups;
      }
    }
  }
  if (notify) wake_.notify_all();
  return out;
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
  if (tick_in_progress_) {
    out.last_tick_age_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - tick_start_)
                               .count();
    // A probe may observe a stall while the tick is still running; count
    // it here (once — the scheduler skips it when closing the tick).
    if (options_.watchdog_warn_ms > 0.0 &&
        out.last_tick_age_ms > options_.watchdog_warn_ms && !tick_warned_) {
      tick_warned_ = true;
      ++watchdog_stalls_;
      std::fprintf(stderr,
                   "[kgaq.serve] watchdog: scheduler tick running for "
                   "%.1f ms (threshold %.1f ms)\n",
                   out.last_tick_age_ms, options_.watchdog_warn_ms);
    }
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

void QueryService::NoteTickEndLocked() {
  if (!tick_in_progress_) return;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - tick_start_)
                        .count();
  if (options_.watchdog_warn_ms > 0.0 && ms > options_.watchdog_warn_ms &&
      !tick_warned_) {
    ++watchdog_stalls_;
    std::fprintf(stderr,
                 "[kgaq.serve] watchdog: scheduler tick took %.1f ms "
                 "(threshold %.1f ms)\n",
                 ms, options_.watchdog_warn_ms);
  }
  tick_in_progress_ = false;
  tick_warned_ = false;
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
      t->queue_ms = std::chrono::duration<double, std::milli>(
                        now - t->submit_time)
                        .count();
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
    // the terminal snapshot. Callbacks run on this (scheduler) thread,
    // so they must stay cheap — see QueryTicket::OnTerminal.
    const QueryResponse snapshot = t->Snapshot();
    for (auto& fn : callbacks) fn(snapshot);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
    if (any_retired_) {
      const double dt =
          std::chrono::duration<double, std::milli>(now - last_retire_)
              .count();
      // EWMA of inter-retirement gaps: the drain rate Retry-After is
      // computed from. 0.2 weight smooths bursty tick retirements.
      drain_interval_ms_ = 0.8 * drain_interval_ms_ + 0.2 * dt;
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

void QueryService::SchedulerLoop() {
  ThreadPool& pool = GlobalPool();

  struct Active {
    TicketPtr ticket;
    std::unique_ptr<QuerySession> session;
    TicketState::Clock::time_point admit_time;
  };
  enum class ReapWhy : uint8_t { kCancel, kDeadline, kShed };
  struct Reaped {
    TicketPtr ticket;
    ReapWhy why;
  };
  std::vector<Active> active;
  std::vector<Reaped> reap;

  for (;;) {
    // Collect this tick's admissions (and notice shutdown). The wait
    // predicate reads `active`, but that vector is only ever mutated by
    // this thread, so the read is race-free.
    std::vector<TicketPtr> admit;
    bool shutting_down = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      NoteTickEndLocked();  // close the previous tick before blocking
      scheduler_waiting_ = true;  // submissions must notify to unpark us
      wake_.wait(lock, [&] {
        return shutdown_ || !queue_.empty() || !active.empty();
      });
      scheduler_waiting_ = false;
      tick_start_ = std::chrono::steady_clock::now();
      tick_in_progress_ = true;
      shutting_down = shutdown_;
      if (shutdown_ && queue_.empty() && active.empty()) {
        running_ = 0;
        tick_in_progress_ = false;  // the scheduler is gone, not stalled
        return;
      }
      const size_t width = std::max<size_t>(1, options_.max_concurrent);
      while (active.size() + admit.size() < width && !queue_.empty()) {
        admit.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      // Sweep the remaining queue for tickets that died waiting —
      // cancelled, deadline-expired, or queued past max_queue_wait — so
      // their waiters unblock now rather than at some future admission.
      // Precedence cancel > deadline > shed: the destructor cancels all
      // queued tickets, so shutdown outcomes stay deterministic.
      const auto sweep_now = TicketState::Clock::now();
      for (size_t i = 0; i < queue_.size();) {
        const TicketPtr& q = queue_[i];
        ReapWhy why = ReapWhy::kShed;
        bool dead = true;
        if (q->cancel.load(std::memory_order_acquire)) {
          why = ReapWhy::kCancel;
        } else if (q->deadline.expired()) {
          why = ReapWhy::kDeadline;
        } else if (options_.max_queue_wait_ms > 0.0 &&
                   std::chrono::duration<double, std::milli>(
                       sweep_now - q->submit_time)
                           .count() > options_.max_queue_wait_ms) {
          why = ReapWhy::kShed;
        } else {
          dead = false;
        }
        if (dead) {
          reap.push_back({std::move(queue_[i]), why});
          queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      UpdateOverloadLocked();  // admission + sweep just drained the queue
    }
    for (Reaped& r : reap) {
      switch (r.why) {
        case ReapWhy::kCancel:
          Retire(r.ticket, QueryState::kCancelled, Status::OK(),
                 AggregateResult{});
          break;
        case ReapWhy::kDeadline:
          Retire(r.ticket, QueryState::kDeadlineExceeded, Status::OK(),
                 AggregateResult{});
          break;
        case ReapWhy::kShed:
          Retire(r.ticket, QueryState::kFailed,
                 Status::ResourceExhausted(
                     "shed from admission queue: waited past "
                     "max_queue_wait_ms"),
                 AggregateResult{}, /*degraded=*/false,
                 /*shed_from_queue=*/true);
          break;
      }
    }
    reap.clear();

    // Fault point for the shutdown-during-tick regression test: park the
    // scheduler here so ~QueryService can run mid-tick, then re-read the
    // shutdown flag so this tick reacts to it instead of a stale snapshot
    // taken before the stall.
    if (KGAQ_FAULT_POINT("serve.scheduler.stall")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutting_down = shutdown_;
    }
    if (shutting_down) {
      for (Active& a : active) {
        a.ticket->cancel.store(true, std::memory_order_release);
      }
    }

    // Pre-admission triage: cancelled or already-expired tickets retire
    // without ever building a session (their seeds were fixed at
    // submission, so skipping them shifts no other query's stream).
    std::vector<TicketPtr> build;
    for (TicketPtr& t : admit) {
      if (t->cancel.load(std::memory_order_acquire) || shutting_down) {
        Retire(t, QueryState::kCancelled, Status::OK(), AggregateResult{});
      } else if (t->deadline.expired()) {
        Retire(t, QueryState::kDeadlineExceeded, Status::OK(),
               AggregateResult{});
      } else {
        build.push_back(std::move(t));
      }
    }

    // Admission: build the new sessions as one parallel batch (TaskGroup's
    // helping Wait drains nested fork-join, so this is safe even when the
    // scheduler itself runs on a pool worker).
    if (!build.empty()) {
      // Admission is stamped BEFORE the session builds: queue_ms is pure
      // queue wait, and a query's own setup cost (candidate enumeration,
      // cold walk-core builds) bills to its run_ms.
      const auto admit_time = TicketState::Clock::now();
      std::vector<std::unique_ptr<QuerySession>> built(build.size());
      std::vector<Status> build_status(build.size());
      ParallelFor(pool, build.size(), [&](size_t j) {
        const TicketPtr& t = build[j];
        EngineOptions opts = options_.engine;
        opts.seed = t->seed_used;
        const QueryRequest& req = t->request;
        if (req.error_bound.has_value()) opts.error_bound = *req.error_bound;
        if (req.confidence_level.has_value()) {
          opts.confidence_level = *req.confidence_level;
        }
        if (req.max_rounds.has_value()) opts.max_rounds = *req.max_rounds;
        ApproxEngine engine(ctx_, opts);
        auto session = engine.CreateSession(req.query);
        if (session.ok()) {
          built[j] = std::move(*session);
          built[j]->SetStopControl(&t->cancel, t->deadline);
          built[j]->BeginRun(opts.error_bound);
        } else {
          build_status[j] = session.status();
        }
      });
      for (size_t j = 0; j < build.size(); ++j) {
        if (built[j] == nullptr) {
          Retire(build[j], QueryState::kFailed, build_status[j],
                 AggregateResult{});
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(build[j]->mu);
          build[j]->state = QueryState::kRunning;
          build[j]->queue_ms = std::chrono::duration<double, std::milli>(
                                   admit_time - build[j]->submit_time)
                                   .count();
        }
        active.push_back(
            {std::move(build[j]), std::move(built[j]), admit_time});
      }
      std::lock_guard<std::mutex> lock(mu_);
      running_ = active.size();
    }

    if (active.empty()) continue;

    // Under Shedding, ask every in-flight session that already holds at
    // least one completed round to retire with its partial estimate at
    // the next round boundary. Zero-round sessions are left to finish a
    // first round so no admitted query ever returns without an answer.
    bool shedding = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      shedding = overload_ == OverloadState::kShedding;
    }
    if (shedding) {
      for (Active& a : active) {
        if (a.session->rounds_completed() >= 1) a.session->RequestShed();
      }
    }

    // One scheduling tick: every unfinished session advances exactly one
    // Algorithm-2 round, fanned out as a TaskGroup batch over the pool.
    // Sessions are fully independent (own Rng, own sample) and context
    // caches are synchronized memo tables over pure functions, so the
    // interleaving affects wall-clock only — per-query results stay
    // bitwise-identical to solo runs with the same seed. StepRound itself
    // re-checks each session's cancel flag and deadline before drawing.
    ParallelFor(pool, active.size(), [&](size_t a) {
      if (KGAQ_FAULT_POINT("serve.round.slow")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      active[a].session->StepRound();
    });

    // Retire finished sessions; their slots free up for the next tick's
    // admission. running_ is updated BEFORE the retirements: Retire on
    // the last outstanding ticket wakes Drain(), and a drainer's stats()
    // snapshot must not see the retired sessions still counted running.
    size_t kept = 0;
    std::vector<Active> finished;
    for (Active& a : active) {
      if (!a.session->run_finished()) {
        active[kept++] = std::move(a);
      } else {
        finished.push_back(std::move(a));
      }
    }
    active.resize(kept);
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_ = active.size();
    }
    for (Active& a : finished) {
      AggregateResult result = a.session->FinishRun();
      QueryState state = QueryState::kDone;
      bool degraded = false;
      switch (a.session->stop_cause()) {
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
          // degraded flag set, error_bound rewritten to the achieved
          // bound in Retire.
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
      // Critical memory pressure declined this session's cache builds:
      // it ran on ephemeral structures (identical estimate, nothing
      // cached for successors) — a degraded completion, same as a shed
      // run. Never fires for an ungoverned context.
      if (a.session->cache_builds_shed() && result.rounds >= 1) {
        degraded = true;
      }
      const double run_ms = std::chrono::duration<double, std::milli>(
                                TicketState::Clock::now() - a.admit_time)
                                .count();
      {
        std::lock_guard<std::mutex> lock(a.ticket->mu);
        a.ticket->run_ms = run_ms;
      }
      Retire(a.ticket, state, Status::OK(), std::move(result), degraded);
    }
  }
}

// ---------------------------------------------------- legacy wrapper API

size_t QueryService::Submit(AggregateQuery query) {
  QueryRequest request;
  request.query = std::move(query);
  QueryTicket ticket = SubmitAsync(std::move(request));
  std::lock_guard<std::mutex> lock(mu_);
  legacy_tickets_.push_back(ticket.state_);
  return legacy_tickets_.size() - 1;
}

const std::vector<Result<AggregateResult>>& QueryService::RunAll() {
  // Snapshot the tickets to wait on without holding the service lock
  // across the (potentially long) waits.
  std::vector<TicketPtr> pending;
  size_t already = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    already = legacy_results_.size();
    pending.assign(legacy_tickets_.begin() + already,
                   legacy_tickets_.end());
  }
  std::vector<Result<AggregateResult>> fresh;
  fresh.reserve(pending.size());
  for (const TicketPtr& t : pending) {
    QueryResponse resp = QueryTicket(t).Wait();
    switch (resp.state) {
      case QueryState::kDone:
        fresh.push_back(std::move(resp.result));
        break;
      case QueryState::kFailed:
        fresh.push_back(std::move(resp.status));
        break;
      case QueryState::kCancelled:
        fresh.push_back(Status::FailedPrecondition(
            "query cancelled before completion"));
        break;
      case QueryState::kDeadlineExceeded:
        fresh.push_back(Status::FailedPrecondition(
            "query deadline expired before completion"));
        break;
      default:
        fresh.push_back(Status::Internal("query not yet run"));
        break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  // A concurrent RunAll may have materialized some of `pending` already;
  // append only the tail this call still owns.
  for (size_t i = legacy_results_.size() - already; i < fresh.size(); ++i) {
    legacy_results_.push_back(std::move(fresh[i]));
  }
  return legacy_results_;
}

std::vector<Result<AggregateResult>> QueryService::RunBatch(
    std::shared_ptr<const EngineContext> context,
    const std::vector<AggregateQuery>& queries, ServiceOptions options) {
  QueryService service(std::move(context), options);
  for (const AggregateQuery& q : queries) service.Submit(q);
  service.RunAll();
  return std::move(service.legacy_results_);  // service is dying; steal
}

}  // namespace kgaq
