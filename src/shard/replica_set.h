#ifndef KGAQ_SHARD_REPLICA_SET_H_
#define KGAQ_SHARD_REPLICA_SET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "shard/channel.h"
#include "shard/health.h"

namespace kgaq {

struct ReplicaSetOptions {
  /// Per-replica circuit-breaker tuning (shard/health.h).
  BreakerOptions breaker;
  /// Hedged validate RPCs: when > 0 and the primary replica has not
  /// answered within this many milliseconds, the same (read-only, hence
  /// idempotent) validate is raced against a second healthy replica and
  /// the first response wins; the loser is simply ignored — validation
  /// mutates nothing, so "cancellation" is free. Off by default; every
  /// hedge costs a retry-budget token so tail-chasing cannot amplify an
  /// outage. Evaluated through the `shard.rpc.hedge` fault point.
  double hedge_after_ms = 0.0;
  /// Active health probing: when > 0, a background thread wakes at this
  /// interval and probes every replica whose breaker is not Closed
  /// (through the breaker's HalfOpen gate and the `shard.replica.probe`
  /// fault point), so a recovered replica rejoins without waiting for
  /// live traffic to trial it. 0 = passive-only recovery (real traffic
  /// serves as the HalfOpen probe).
  double probe_interval_ms = 0.0;
};

/// R bit-identical replicas behind one logical shard, themselves a
/// ShardChannel — the coordinator cannot tell a replica set from a plain
/// channel, so replication is a construction-time wiring choice exactly
/// like local-vs-HTTP.
///
/// The parity-preserving trick: shard snapshots are immutable and every
/// shard-side computation (plan, per-draw validation) is a pure function
/// of the snapshot, so replicas built over the SAME snapshot give
/// bit-identical answers. Plan() therefore fans out to every admitted
/// replica and leases one plan session PER replica under a single
/// virtual token (verifying the replica plans really are bit-identical);
/// Validate() routes each batch to the first healthy replica holding a
/// session and fails over transparently to the next on error — the
/// surviving replica's session replays the identical validation, so a
/// mid-run failover is invisible in the answer (`degraded` stays false).
/// Only when the ENTIRE set is down does a call fail, and only then does
/// the coordinator see StopCause::kShardLost.
///
/// Health: every RPC outcome feeds the target replica's circuit breaker
/// (Closed -> Open stops traffic to a dead replica; the open hook calls
/// ShardChannel::OnQuarantined so HTTP transports evict pooled sockets),
/// and an optional background prober closes breakers when replicas
/// recover. Every failover retry and every hedge draws on a retry
/// budget — shared across all of a coordinator's replica sets — so a
/// partial outage degrades to single-attempt behavior instead of
/// amplifying load.
///
/// Thread-safety: same contract as any ShardChannel (one in-flight query
/// per method), plus internal threads (prober, hedge racers) that the
/// destructor joins/waits out. Safe to destroy at any point after the
/// last public call returns.
class ShardReplicaSet final : public ShardChannel {
 public:
  /// `budget` may be shared across sets (the per-coordinator bucket) or
  /// null for unbudgeted failover (tests).
  ShardReplicaSet(std::vector<std::unique_ptr<ShardChannel>> replicas,
                  ReplicaSetOptions options = {},
                  std::shared_ptr<RetryBudget> budget = nullptr);
  ~ShardReplicaSet() override;

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override;
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override;
  Status Release(uint64_t token) override;
  /// OK while any replica answers its probe.
  Status Probe() override;
  ChannelHealth health() const override;

  size_t num_replicas() const { return replicas_.size(); }
  BreakerState replica_state(size_t r) const;
  /// Runs one active probe sweep synchronously (what the background
  /// prober does per tick) — deterministic recovery for tests and the
  /// chaos soak's kill/restart schedule.
  void ProbeOnce();

 private:
  struct Replica {
    Replica(std::unique_ptr<ShardChannel> ch, const BreakerOptions& breaker_options)
        : channel(std::move(ch)), breaker(breaker_options) {}
    std::unique_ptr<ShardChannel> channel;
    CircuitBreaker breaker;
  };
  /// Per-query session map: virtual token -> the per-replica plan tokens
  /// backing it.
  struct PlanLease {
    std::vector<uint64_t> tokens;
    std::vector<bool> has;
  };
  /// Shared scoreboard of one primary-vs-hedge validate race.
  struct RaceState {
    std::mutex mu;
    std::condition_variable cv;
    int outstanding = 0;
    bool winner_set = false;
    size_t winner_replica = 0;
    Result<std::vector<NodeOutcome>> winner{
        Status::Internal("race not finished")};
    Status last_error = Status::Unavailable("no attempt completed");
  };

  /// Feeds the breaker (and the open-time quarantine hook) with one RPC
  /// outcome. Thread-safe; called from traffic, hedge and probe paths.
  void RecordOutcome(size_t r, bool ok);
  /// Fire-and-record one validate on a detached racer thread.
  void LaunchAttempt(const std::shared_ptr<RaceState>& state, size_t r,
                     ShardValidateRequest request);
  /// First-attempt validate with optional hedging; consumes candidate
  /// positions from `used`. Returns the winner or an error once every
  /// launched attempt failed.
  Result<std::vector<NodeOutcome>> HedgedValidate(
      const ShardValidateRequest& request,
      const std::vector<size_t>& candidates, std::vector<bool>& used,
      size_t primary_pos, const PlanLease& lease);
  void ProberLoop();

  /// Heap-allocated: CircuitBreaker owns a mutex, so Replica cannot move.
  std::vector<std::unique_ptr<Replica>> replicas_;
  ReplicaSetOptions options_;
  std::shared_ptr<RetryBudget> budget_;

  std::mutex lease_mu_;
  uint64_t next_token_ = 1;
  std::unordered_map<uint64_t, PlanLease> leases_;

  // Counters are atomics: hedge racer threads and the prober bump them
  // concurrently with traffic.
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> failed_rpcs_{0};
  std::atomic<uint64_t> hedges_launched_{0};
  std::atomic<uint64_t> hedges_won_{0};
  std::atomic<uint64_t> budget_denied_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> probe_failures_{0};
  std::atomic<uint64_t> divergent_plans_{0};

  /// In-flight racer threads; the destructor waits for zero so a loser
  /// thread can never outlive the channels it borrows.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  size_t inflight_ = 0;

  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
  bool stop_prober_ = false;
  std::thread prober_;
};

/// Test/chaos wrapper: one atomic switch that makes a replica "die" and
/// "restart" on demand — the deterministic kill/restart schedule in
/// examples/chaos_soak.cpp and the failover tests flip it between (and
/// during) queries. While dead, Plan/Validate/Probe fail
/// kUnavailable without touching the inner channel. Release passes
/// through regardless: a real restarted process holds no plan sessions
/// (its memory was wiped), and forwarding the release models that wipe
/// on the long-lived in-process node, keeping the plan-session leak
/// gates meaningful.
class KillSwitchChannel final : public ShardChannel {
 public:
  explicit KillSwitchChannel(std::unique_ptr<ShardChannel> inner)
      : inner_(std::move(inner)) {}

  void Kill() { dead_.store(true, std::memory_order_relaxed); }
  void Restart() { dead_.store(false, std::memory_order_relaxed); }
  bool dead() const { return dead_.load(std::memory_order_relaxed); }

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override {
    if (dead()) return Down();
    return inner_->Plan(request);
  }
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override {
    if (dead()) return Down();
    return inner_->Validate(request);
  }
  Status Release(uint64_t token) override { return inner_->Release(token); }
  Status Probe() override { return dead() ? Down() : inner_->Probe(); }
  void OnQuarantined() override { inner_->OnQuarantined(); }

 private:
  static Status Down() {
    return Status::Unavailable("replica killed by test switch");
  }

  std::unique_ptr<ShardChannel> inner_;
  std::atomic<bool> dead_{false};
};

}  // namespace kgaq

#endif  // KGAQ_SHARD_REPLICA_SET_H_
