#include "shard/replica_set.h"

#include <chrono>
#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"

namespace kgaq {

namespace {

/// The wire arrays that must match bit-for-bit across replicas of one
/// shard: everything except the session token, which is per-replica by
/// nature. double comparison is intentional and exact — replicas run the
/// same code over the same snapshot, so any difference at all means the
/// "bit-identical replicas" premise is broken for that replica.
bool PlansBitIdentical(const ShardPlanResult& a, const ShardPlanResult& b) {
  return a.num_candidates == b.num_candidates &&
         a.group_by_enabled == b.group_by_enabled && a.indices == b.indices &&
         a.nodes == b.nodes && a.probs == b.probs;
}

}  // namespace

ShardReplicaSet::ShardReplicaSet(
    std::vector<std::unique_ptr<ShardChannel>> replicas,
    ReplicaSetOptions options, std::shared_ptr<RetryBudget> budget)
    : options_(options), budget_(std::move(budget)) {
  replicas_.reserve(replicas.size());
  for (auto& ch : replicas) {
    replicas_.push_back(
        std::make_unique<Replica>(std::move(ch), options_.breaker));
  }
  if (options_.probe_interval_ms > 0.0) {
    prober_ = std::thread([this] { ProberLoop(); });
  }
}

ShardReplicaSet::~ShardReplicaSet() {
  if (prober_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(prober_mu_);
      stop_prober_ = true;
    }
    prober_cv_.notify_all();
    prober_.join();
  }
  // Outlive every racer: a hedge loser still holds `this` and a channel
  // pointer until its RPC returns.
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void ShardReplicaSet::RecordOutcome(size_t r, bool ok) {
  if (ok) {
    replicas_[r]->breaker.OnSuccess();
    if (budget_) budget_->RecordSuccess();
    return;
  }
  failed_rpcs_.fetch_add(1, std::memory_order_relaxed);
  if (replicas_[r]->breaker.OnFailure()) {
    // This call tripped the breaker open: the replica is presumed dead,
    // so let its transport drop cached connections.
    replicas_[r]->channel->OnQuarantined();
  }
}

Result<ShardPlanResult> ShardReplicaSet::Plan(const ShardPlanRequest& request) {
  const size_t n = replicas_.size();
  if (n == 0) return Status::InvalidArgument("replica set is empty");

  // Admit on the calling thread (breaker state changes must not race the
  // fan-out), then plan every admitted replica in parallel. Planning on
  // ALL healthy replicas up front is what buys transparent mid-run
  // failover: by the time a validate fails over, the surviving replica
  // already holds an identical plan session.
  std::vector<char> admitted(n, 0);
  for (size_t r = 0; r < n; ++r) {
    admitted[r] = replicas_[r]->breaker.Admit() != CircuitBreaker::Gate::kReject;
  }

  std::vector<Result<ShardPlanResult>> results(
      n, Result<ShardPlanResult>(Status::Unavailable("replica breaker open")));
  ParallelFor(GlobalPool(), n, [&](size_t r) {
    if (!admitted[r]) return;
    results[r] = replicas_[r]->channel->Plan(request);
    RecordOutcome(r, results[r].ok());
  });

  // First success is the canonical plan; every other success must match
  // it bit-for-bit or it is dropped from the lease (a diverging replica
  // would break parity on failover, which is worse than losing a spare).
  size_t primary = n;
  for (size_t r = 0; r < n; ++r) {
    if (results[r].ok()) {
      primary = r;
      break;
    }
  }
  if (primary == n) {
    for (size_t r = n; r-- > 0;) {
      if (admitted[r]) return results[r].status();
    }
    return results[n - 1].status();
  }

  PlanLease lease;
  lease.tokens.assign(n, 0);
  lease.has.assign(n, false);
  lease.tokens[primary] = results[primary]->token;
  lease.has[primary] = true;
  for (size_t r = primary + 1; r < n; ++r) {
    if (!results[r].ok()) continue;
    if (!PlansBitIdentical(*results[primary], *results[r])) {
      divergent_plans_.fetch_add(1, std::memory_order_relaxed);
      replicas_[r]->channel->Release(results[r]->token);
      continue;
    }
    lease.tokens[r] = results[r]->token;
    lease.has[r] = true;
  }

  ShardPlanResult out = std::move(*results[primary]);
  {
    std::lock_guard<std::mutex> lock(lease_mu_);
    out.token = next_token_++;
    leases_.emplace(out.token, std::move(lease));
  }
  return out;
}

Result<std::vector<NodeOutcome>> ShardReplicaSet::Validate(
    const ShardValidateRequest& request) {
  PlanLease lease;
  {
    std::lock_guard<std::mutex> lock(lease_mu_);
    auto it = leases_.find(request.token);
    if (it == leases_.end()) {
      return Status::FailedPrecondition("unknown replica-set plan token");
    }
    lease = it->second;
  }

  // Candidates: replicas holding a live plan session, preferred order.
  std::vector<size_t> candidates;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (lease.has[r]) candidates.push_back(r);
  }

  Status last =
      Status::Unavailable("no live replica holds a plan session for this shard");
  std::vector<bool> used(candidates.size(), false);
  bool first = true;
  for (;;) {
    if (!first) {
      // Failover attempts (beyond the first) are gated twice: no retry
      // outlives the query's deadline, and each costs a budget token so
      // a fleet-wide brownout cannot turn into a retry storm.
      if (request.deadline.expired()) {
        last = Status::Unavailable("failover abandoned: query deadline expired");
        break;
      }
      if (budget_ && !budget_->TryAcquire()) {
        budget_denied_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    // Next unused candidate whose breaker admits; a rejection consumes
    // the candidate for this call (the breaker said no — asking again
    // microseconds later would only burn the HalfOpen probe slot).
    size_t pos = candidates.size();
    for (size_t k = 0; k < candidates.size(); ++k) {
      if (used[k]) continue;
      used[k] = true;
      if (replicas_[candidates[k]]->breaker.Admit() !=
          CircuitBreaker::Gate::kReject) {
        pos = k;
        break;
      }
    }
    if (pos == candidates.size()) break;
    if (!first) failovers_.fetch_add(1, std::memory_order_relaxed);

    const size_t r = candidates[pos];
    if (first && options_.hedge_after_ms > 0.0 && candidates.size() > 1) {
      auto out = HedgedValidate(request, candidates, used, pos, lease);
      if (out.ok()) return out;
      last = out.status();
    } else {
      ShardValidateRequest req = request;
      req.token = lease.tokens[r];
      auto out = replicas_[r]->channel->Validate(req);
      RecordOutcome(r, out.ok());
      if (out.ok()) return out;
      last = out.status();
    }
    first = false;
  }
  return last;
}

void ShardReplicaSet::LaunchAttempt(const std::shared_ptr<RaceState>& state,
                                    size_t r, ShardValidateRequest request) {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_;
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->outstanding;
  }
  // Detached rather than pooled: a racer may block for a full RPC
  // timeout, and parking a pool worker under it could deadlock the very
  // ParallelFor the coordinator is running this validate from. The
  // inflight_ counter (waited in the destructor) bounds their lifetime.
  std::thread([this, state, r, req = std::move(request)]() {
    auto out = replicas_[r]->channel->Validate(req);
    RecordOutcome(r, out.ok());
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (out.ok() && !state->winner_set) {
        state->winner_set = true;
        state->winner_replica = r;
        state->winner = std::move(out);
      } else if (!out.ok()) {
        state->last_error = out.status();
      }
      --state->outstanding;
    }
    state->cv.notify_all();
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_;
    }
    inflight_cv_.notify_all();
  }).detach();
}

Result<std::vector<NodeOutcome>> ShardReplicaSet::HedgedValidate(
    const ShardValidateRequest& request, const std::vector<size_t>& candidates,
    std::vector<bool>& used, size_t primary_pos, const PlanLease& lease) {
  auto state = std::make_shared<RaceState>();
  const size_t primary = candidates[primary_pos];
  {
    ShardValidateRequest req = request;
    req.token = lease.tokens[primary];
    LaunchAttempt(state, primary, std::move(req));
  }

  const auto hedge_wait =
      std::chrono::duration<double, std::milli>(options_.hedge_after_ms);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait_for(lock, hedge_wait, [&] {
    return state->winner_set || state->outstanding == 0;
  });

  if (!state->winner_set && state->outstanding > 0) {
    // Primary is slow. Hedge: race the identical validate against the
    // next healthy session-holding replica — validation is read-only, so
    // whichever answer loses is simply discarded. Budget-gated (a hedge
    // is a speculative retry) and fault-injectable at the launch
    // decision.
    if (!budget_ || budget_->TryAcquire()) {
      hedges_launched_.fetch_add(1, std::memory_order_relaxed);
      if (!KGAQ_FAULT_POINT("shard.rpc.hedge")) {
        size_t hedge_pos = candidates.size();
        for (size_t k = 0; k < candidates.size(); ++k) {
          if (used[k]) continue;
          used[k] = true;
          if (replicas_[candidates[k]]->breaker.Admit() !=
              CircuitBreaker::Gate::kReject) {
            hedge_pos = k;
            break;
          }
        }
        if (hedge_pos != candidates.size()) {
          const size_t r = candidates[hedge_pos];
          ShardValidateRequest req = request;
          req.token = lease.tokens[r];
          lock.unlock();
          LaunchAttempt(state, r, std::move(req));
          lock.lock();
        }
      }
    } else {
      budget_denied_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  state->cv.wait(lock,
                 [&] { return state->winner_set || state->outstanding == 0; });
  if (!state->winner_set) return state->last_error;
  if (state->winner_replica != primary) {
    hedges_won_.fetch_add(1, std::memory_order_relaxed);
  }
  // The loser (if still running) finishes on its racer thread, feeds its
  // breaker, and its result is dropped — safe because validation holds
  // no per-call state on the shard.
  return state->winner;
}

Status ShardReplicaSet::Release(uint64_t token) {
  PlanLease lease;
  {
    std::lock_guard<std::mutex> lock(lease_mu_);
    auto it = leases_.find(token);
    if (it == leases_.end()) return Status::OK();  // idempotent, like ShardNode
    lease = std::move(it->second);
    leases_.erase(it);
  }
  // Every replica that holds a session gets the release, breakers
  // notwithstanding: Release is best-effort cleanup, and routing it
  // through Admit could burn a HalfOpen probe slot on a call whose
  // failure is benign. Failures are swallowed (a dead replica keeps
  // nothing to drop) and deliberately NOT fed to the breaker — cleanup
  // outcomes should not flap health state.
  Status out = Status::OK();
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!lease.has[r]) continue;
    Status st = replicas_[r]->channel->Release(lease.tokens[r]);
    if (!st.ok()) out = st;
  }
  return out;
}

Status ShardReplicaSet::Probe() {
  Status last = Status::Unavailable("replica set is empty");
  for (auto& rep : replicas_) {
    Status st = rep->channel->Probe();
    if (st.ok()) return st;
    last = st;
  }
  return last;
}

BreakerState ShardReplicaSet::replica_state(size_t r) const {
  return replicas_[r]->breaker.state();
}

void ShardReplicaSet::ProbeOnce() {
  for (size_t r = 0; r < replicas_.size(); ++r) {
    CircuitBreaker& breaker = replicas_[r]->breaker;
    if (breaker.state() == BreakerState::kClosed) continue;
    // Route the probe through the breaker's own gate so an active probe
    // and a live-traffic HalfOpen trial can never double-book the slot.
    if (breaker.Admit() == CircuitBreaker::Gate::kReject) continue;
    probes_.fetch_add(1, std::memory_order_relaxed);
    const bool ok = !KGAQ_FAULT_POINT("shard.replica.probe") &&
                    replicas_[r]->channel->Probe().ok();
    if (!ok) probe_failures_.fetch_add(1, std::memory_order_relaxed);
    RecordOutcome(r, ok);
  }
}

void ShardReplicaSet::ProberLoop() {
  const auto interval =
      std::chrono::duration<double, std::milli>(options_.probe_interval_ms);
  std::unique_lock<std::mutex> lock(prober_mu_);
  while (!stop_prober_) {
    if (prober_cv_.wait_for(lock, interval, [this] { return stop_prober_; })) {
      return;
    }
    lock.unlock();
    ProbeOnce();
    lock.lock();
  }
}

ChannelHealth ShardReplicaSet::health() const {
  ChannelHealth h;
  h.replicas = replicas_.size();
  h.healthy = 0;
  h.states.reserve(replicas_.size());
  uint64_t opens = 0;
  uint64_t rejected = 0;
  for (const auto& rep : replicas_) {
    const BreakerState s = rep->breaker.state();
    h.states.push_back(s);
    if (s == BreakerState::kClosed) ++h.healthy;
    opens += rep->breaker.opens();
    rejected += rep->breaker.rejected();
  }
  h.breaker_opens = opens;
  h.breaker_rejected = rejected;
  h.failovers = failovers_.load(std::memory_order_relaxed);
  h.failed_rpcs = failed_rpcs_.load(std::memory_order_relaxed);
  h.hedges_launched = hedges_launched_.load(std::memory_order_relaxed);
  h.hedges_won = hedges_won_.load(std::memory_order_relaxed);
  h.budget_denied = budget_denied_.load(std::memory_order_relaxed);
  h.probes = probes_.load(std::memory_order_relaxed);
  h.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  h.divergent_plans = divergent_plans_.load(std::memory_order_relaxed);
  return h;
}

}  // namespace kgaq
