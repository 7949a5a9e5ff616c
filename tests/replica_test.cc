#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "serve/query_service.h"
#include "shard/channel.h"
#include "shard/coordinator.h"
#include "shard/health.h"
#include "shard/replica_set.h"
#include "shard/sharded_engine.h"

namespace kgaq {
namespace {

struct FaultGuard {
  ~FaultGuard() { fault_injection::Reset(); }
};

// ---------------------------------------------------------------------------
// Health machinery units

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndRejects) {
  BreakerOptions opts;
  opts.failure_threshold = 3;
  opts.open_cooldown_ms = 60000.0;  // no cooldown expiry inside the test
  CircuitBreaker breaker(opts);

  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Gate::kProceed);
  EXPECT_FALSE(breaker.OnFailure());
  EXPECT_FALSE(breaker.OnFailure());
  // A success resets the consecutive count — failures must be consecutive.
  breaker.OnSuccess();
  EXPECT_FALSE(breaker.OnFailure());
  EXPECT_FALSE(breaker.OnFailure());
  EXPECT_TRUE(breaker.OnFailure());  // third consecutive: THIS call trips
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);

  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Gate::kReject);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Gate::kReject);
  EXPECT_EQ(breaker.rejected(), 2u);
}

TEST(CircuitBreakerTest, HalfOpenAllowsOneProbeThenCloses) {
  BreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_cooldown_ms = 0.0;  // the very next admission is the probe
  CircuitBreaker breaker(opts);

  EXPECT_TRUE(breaker.OnFailure());
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Gate::kProbe);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // The single probe slot is taken: concurrent admissions are rejected.
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Gate::kReject);

  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Gate::kProceed);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  BreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_cooldown_ms = 0.0;
  CircuitBreaker breaker(opts);

  EXPECT_TRUE(breaker.OnFailure());
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Gate::kProbe);
  EXPECT_TRUE(breaker.OnFailure());  // the probe itself failed
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  // Cooldown 0: next admission probes again rather than rejecting.
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Gate::kProbe);
}

TEST(RetryBudgetTest, DrainsAndRefillsOnSuccess) {
  RetryBudgetOptions opts;
  opts.max_tokens = 2.0;
  opts.tokens_per_success = 0.5;
  RetryBudget budget(opts);

  EXPECT_TRUE(budget.TryAcquire());  // starts full
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());  // dry
  EXPECT_EQ(budget.stats().acquired, 2u);
  EXPECT_EQ(budget.stats().denied, 1u);

  budget.RecordSuccess();
  EXPECT_FALSE(budget.TryAcquire());  // 0.5 < 1 full token
  budget.RecordSuccess();
  EXPECT_TRUE(budget.TryAcquire());

  for (int i = 0; i < 100; ++i) budget.RecordSuccess();
  EXPECT_EQ(budget.stats().tokens, 2.0);  // capped at max_tokens
}

TEST(HttpShardChannelTest, EffectiveTimeoutClampsToRemainingDeadline) {
  const double kInf = std::numeric_limits<double>::infinity();
  // No deadline: the per-RPC ceiling alone.
  EXPECT_EQ(HttpShardChannel::EffectiveTimeoutMs(Deadline::Infinite(), 5000.0),
            5000.0);
  // No ceiling, no deadline: unbounded.
  EXPECT_EQ(HttpShardChannel::EffectiveTimeoutMs(Deadline::Infinite(), 0.0),
            kInf);
  // Tight deadline wins over a generous ceiling.
  const double clamped = HttpShardChannel::EffectiveTimeoutMs(
      Deadline::AfterMillis(100.0), 5000.0);
  EXPECT_GT(clamped, 0.0);
  EXPECT_LE(clamped, 100.0);
  // Expired deadline: zero budget, the RPC must not be sent at all.
  Deadline expired = Deadline::AfterMillis(1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(expired.expired());
  EXPECT_EQ(HttpShardChannel::EffectiveTimeoutMs(expired, 5000.0), 0.0);
}

// ---------------------------------------------------------------------------
// ShardReplicaSet over scripted fake channels

// A scripted in-memory shard: fixed 4-candidate plan, outcome-per-index
// validates, per-method failure switches and an optional validate delay.
class FakeChannel final : public ShardChannel {
 public:
  Result<ShardPlanResult> Plan(const ShardPlanRequest& /*request*/) override {
    ++plan_calls;
    if (fail_plan.load()) return Status::Unavailable("fake plan down");
    ShardPlanResult res;
    res.token = ++last_token;
    res.num_candidates = 4;
    res.indices = {0, 1, 2, 3};
    res.nodes = {10, 11, 12, 13};
    res.probs = {0.25, 0.25, 0.25, 0.25};
    res.probs[0] += plan_skew;  // lets tests manufacture divergence
    ++live_sessions;
    return res;
  }
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override {
    ++validate_calls;
    if (validate_delay_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(validate_delay_ms));
    }
    if (fail_validate.load()) return Status::Unavailable("fake validate down");
    std::vector<NodeOutcome> out(request.indices.size());
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = NodeOutcome{true, static_cast<double>(request.indices[i]), 0};
    }
    return out;
  }
  Status Release(uint64_t /*token*/) override {
    ++release_calls;
    --live_sessions;
    return Status::OK();
  }
  Status Probe() override {
    ++probe_calls;
    if (fail_probe.load()) return Status::Unavailable("fake probe down");
    return Status::OK();
  }
  void OnQuarantined() override { ++quarantine_calls; }

  std::atomic<bool> fail_plan{false};
  std::atomic<bool> fail_validate{false};
  std::atomic<bool> fail_probe{false};
  double validate_delay_ms = 0.0;
  double plan_skew = 0.0;
  std::atomic<int> plan_calls{0};
  std::atomic<int> validate_calls{0};
  std::atomic<int> release_calls{0};
  std::atomic<int> probe_calls{0};
  std::atomic<int> quarantine_calls{0};
  std::atomic<int> live_sessions{0};
  uint64_t last_token = 100;
};

struct FakeSet {
  std::vector<FakeChannel*> fakes;
  std::unique_ptr<ShardReplicaSet> set;
};

FakeSet MakeFakeSet(size_t replicas, ReplicaSetOptions options = {},
                    std::shared_ptr<RetryBudget> budget = nullptr) {
  FakeSet out;
  std::vector<std::unique_ptr<ShardChannel>> channels;
  for (size_t r = 0; r < replicas; ++r) {
    auto fake = std::make_unique<FakeChannel>();
    out.fakes.push_back(fake.get());
    channels.push_back(std::move(fake));
  }
  out.set = std::make_unique<ShardReplicaSet>(std::move(channels), options,
                                              std::move(budget));
  return out;
}

ShardValidateRequest ValidateReq(uint64_t token) {
  ShardValidateRequest req;
  req.token = token;
  req.indices = {0, 2, 2};
  return req;
}

TEST(ShardReplicaSetTest, PlanFansOutValidateRoutesToPrimary) {
  FakeSet fs = MakeFakeSet(2);
  auto plan = fs.set->Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Both replicas planned eagerly — that is what makes failover free.
  EXPECT_EQ(fs.fakes[0]->plan_calls, 1);
  EXPECT_EQ(fs.fakes[1]->plan_calls, 1);

  auto out = fs.set->Validate(ValidateReq(plan->token));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[1].value, 2.0);
  // Healthy primary serves alone; the spare stays cold.
  EXPECT_EQ(fs.fakes[0]->validate_calls, 1);
  EXPECT_EQ(fs.fakes[1]->validate_calls, 0);

  EXPECT_TRUE(fs.set->Release(plan->token).ok());
  EXPECT_EQ(fs.fakes[0]->live_sessions, 0);
  EXPECT_EQ(fs.fakes[1]->live_sessions, 0);

  const ChannelHealth h = fs.set->health();
  EXPECT_EQ(h.replicas, 2u);
  EXPECT_EQ(h.healthy, 2u);
  EXPECT_EQ(h.failovers, 0u);
}

TEST(ShardReplicaSetTest, ValidateFailsOverAndQuarantinesDeadReplica) {
  ReplicaSetOptions opts;
  opts.breaker.failure_threshold = 1;
  opts.breaker.open_cooldown_ms = 60000.0;
  FakeSet fs = MakeFakeSet(2, opts);
  auto plan = fs.set->Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok()) << plan.status();

  fs.fakes[0]->fail_validate = true;
  auto out = fs.set->Validate(ValidateReq(plan->token));
  ASSERT_TRUE(out.ok()) << out.status();  // transparently served by replica 1
  EXPECT_EQ(fs.fakes[0]->validate_calls, 1);
  EXPECT_EQ(fs.fakes[1]->validate_calls, 1);
  EXPECT_EQ(fs.fakes[0]->quarantine_calls, 1);  // breaker tripped open
  EXPECT_EQ(fs.set->replica_state(0), BreakerState::kOpen);

  // Next validate skips the open replica without touching its transport.
  auto again = fs.set->Validate(ValidateReq(plan->token));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(fs.fakes[0]->validate_calls, 1);
  EXPECT_EQ(fs.fakes[1]->validate_calls, 2);

  // Release still reaches BOTH replicas — cleanup ignores breakers.
  EXPECT_TRUE(fs.set->Release(plan->token).ok());
  EXPECT_EQ(fs.fakes[0]->live_sessions, 0);
  EXPECT_EQ(fs.fakes[1]->live_sessions, 0);

  const ChannelHealth h = fs.set->health();
  EXPECT_EQ(h.healthy, 1u);
  EXPECT_EQ(h.failovers, 1u);
  EXPECT_EQ(h.breaker_opens, 1u);
  EXPECT_GE(h.failed_rpcs, 1u);
}

TEST(ShardReplicaSetTest, WholeSetDownFailsAndUnknownTokenRejected) {
  FakeSet fs = MakeFakeSet(2);
  auto plan = fs.set->Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok());

  EXPECT_EQ(fs.set->Validate(ValidateReq(9999)).status().code(),
            StatusCode::kFailedPrecondition);

  fs.fakes[0]->fail_validate = true;
  fs.fakes[1]->fail_validate = true;
  auto out = fs.set->Validate(ValidateReq(plan->token));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
}

TEST(ShardReplicaSetTest, DivergentReplicaPlanIsDroppedFromLease) {
  FakeSet fs = MakeFakeSet(2);
  fs.fakes[1]->plan_skew = 1e-12;  // one ulp of disagreement is enough
  auto plan = fs.set->Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(fs.set->health().divergent_plans, 1u);
  // The divergent replica's session was released immediately...
  EXPECT_EQ(fs.fakes[1]->live_sessions, 0);
  // ...and it holds no lease: with the primary dead, validate has
  // nowhere to go even though replica 1 is "alive".
  fs.fakes[0]->fail_validate = true;
  EXPECT_FALSE(fs.set->Validate(ValidateReq(plan->token)).ok());
  EXPECT_EQ(fs.fakes[1]->validate_calls, 0);
  fs.set->Release(plan->token);
}

TEST(ShardReplicaSetTest, DeadPrimaryAtPlanTimeIsInvisible) {
  FakeSet fs = MakeFakeSet(2);
  fs.fakes[0]->fail_plan = true;
  auto plan = fs.set->Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto out = fs.set->Validate(ValidateReq(plan->token));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(fs.fakes[1]->validate_calls, 1);
  EXPECT_TRUE(fs.set->Release(plan->token).ok());
  EXPECT_EQ(fs.fakes[1]->live_sessions, 0);
}

TEST(ShardReplicaSetTest, RetryBudgetStopsFailoverStorm) {
  RetryBudgetOptions bopts;
  bopts.max_tokens = 1.0;
  bopts.tokens_per_success = 0.0;  // never refills: the bucket only drains
  auto budget = std::make_shared<RetryBudget>(bopts);
  ReplicaSetOptions opts;
  opts.breaker.failure_threshold = 100;  // keep the breaker out of the way
  FakeSet fs = MakeFakeSet(2, opts, budget);
  auto plan = fs.set->Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok());

  fs.fakes[0]->fail_validate = true;
  // First failover spends the only token and succeeds on replica 1.
  ASSERT_TRUE(fs.set->Validate(ValidateReq(plan->token)).ok());
  // Second: the bucket is dry, so the primary's error surfaces even
  // though replica 1 is healthy — failover must not amplify load.
  auto out = fs.set->Validate(ValidateReq(plan->token));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(fs.fakes[1]->validate_calls, 1);
  EXPECT_GE(fs.set->health().budget_denied, 1u);
  fs.set->Release(plan->token);
}

TEST(ShardReplicaSetTest, HedgedValidateWinsOnSlowPrimary) {
  ReplicaSetOptions opts;
  opts.hedge_after_ms = 5.0;
  FakeSet fs = MakeFakeSet(2, opts);
  fs.fakes[0]->validate_delay_ms = 250.0;
  auto plan = fs.set->Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok());

  const auto started = std::chrono::steady_clock::now();
  auto out = fs.set->Validate(ValidateReq(plan->token));
  const double took_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[0].value, 0.0);
  // The hedge answered long before the 250 ms primary could.
  EXPECT_LT(took_ms, 200.0);
  const ChannelHealth h = fs.set->health();
  EXPECT_EQ(h.hedges_launched, 1u);
  EXPECT_EQ(h.hedges_won, 1u);
  fs.set->Release(plan->token);
  // Destruction waits out the slow loser — ASan would flag it otherwise.
}

TEST(ShardReplicaSetTest, HedgeFaultPointDegradesToWaitingOnPrimary) {
  FaultGuard guard;
  fault_injection::Enable(11);
  fault_injection::ArmCount("shard.rpc.hedge", 1);

  ReplicaSetOptions opts;
  opts.hedge_after_ms = 1.0;
  FakeSet fs = MakeFakeSet(2, opts);
  fs.fakes[0]->validate_delay_ms = 30.0;
  auto plan = fs.set->Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok());

  auto out = fs.set->Validate(ValidateReq(plan->token));
  ASSERT_TRUE(out.ok()) << out.status();
  const ChannelHealth h = fs.set->health();
  EXPECT_EQ(h.hedges_launched, 1u);  // launched, then injected to fail
  EXPECT_EQ(h.hedges_won, 0u);       // so the slow primary won after all
  EXPECT_EQ(fs.fakes[1]->validate_calls, 0);
  fs.set->Release(plan->token);
}

TEST(ShardReplicaSetTest, ProbeOnceRecoversOpenBreaker) {
  FaultGuard guard;
  ReplicaSetOptions opts;
  opts.breaker.failure_threshold = 1;
  opts.breaker.open_cooldown_ms = 0.0;  // deterministic probe scheduling
  FakeSet fs = MakeFakeSet(2, opts);
  auto plan = fs.set->Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok());

  fs.fakes[0]->fail_validate = true;
  ASSERT_TRUE(fs.set->Validate(ValidateReq(plan->token)).ok());
  ASSERT_EQ(fs.set->replica_state(0), BreakerState::kOpen);
  fs.fakes[0]->fail_validate = false;  // the replica "restarts"

  // An injected probe failure keeps the breaker open...
  fault_injection::Enable(13);
  fault_injection::ArmCount("shard.replica.probe", 1);
  fs.set->ProbeOnce();
  EXPECT_EQ(fs.set->replica_state(0), BreakerState::kOpen);
  // ...and the next clean probe closes it.
  fs.set->ProbeOnce();
  EXPECT_EQ(fs.set->replica_state(0), BreakerState::kClosed);

  const ChannelHealth h = fs.set->health();
  EXPECT_EQ(h.probes, 2u);
  EXPECT_EQ(h.probe_failures, 1u);
  EXPECT_EQ(h.healthy, 2u);
  fs.set->Release(plan->token);
}

TEST(ShardReplicaSetTest, BackgroundProberRecoversWithoutTraffic) {
  ReplicaSetOptions opts;
  opts.breaker.failure_threshold = 1;
  opts.breaker.open_cooldown_ms = 0.0;
  opts.probe_interval_ms = 2.0;
  FakeSet fs = MakeFakeSet(2, opts);
  auto plan = fs.set->Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok());

  fs.fakes[0]->fail_validate = true;
  ASSERT_TRUE(fs.set->Validate(ValidateReq(plan->token)).ok());
  ASSERT_EQ(fs.set->replica_state(0), BreakerState::kOpen);
  fs.fakes[0]->fail_validate = false;

  // No further traffic: only the background prober can close it.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (fs.set->replica_state(0) != BreakerState::kClosed &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fs.set->replica_state(0), BreakerState::kClosed);
  fs.set->Release(plan->token);
}

TEST(KillSwitchChannelTest, FailsRpcsWhenDeadButForwardsRelease) {
  auto fake_owned = std::make_unique<FakeChannel>();
  FakeChannel* fake = fake_owned.get();
  KillSwitchChannel channel(std::move(fake_owned));

  auto plan = channel.Plan(ShardPlanRequest{});
  ASSERT_TRUE(plan.ok());
  channel.Kill();
  EXPECT_EQ(channel.Plan(ShardPlanRequest{}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(channel.Validate(ValidateReq(plan->token)).status().code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(channel.Probe().ok());
  // Release models the restart wipe: it reaches the inner node even
  // while "dead", so session accounting stays truthful.
  EXPECT_TRUE(channel.Release(plan->token).ok());
  EXPECT_EQ(fake->live_sessions, 0);
  channel.Restart();
  EXPECT_TRUE(channel.Probe().ok());
}

// ---------------------------------------------------------------------------
// Replicated engine end to end: the failover parity gate

const GeneratedDataset& MiniDataset() {
  static GeneratedDataset* ds = [] {
    auto r = KgGenerator::Generate(DatasetProfile::Mini(7));
    return new GeneratedDataset(std::move(*r));
  }();
  return *ds;
}

std::vector<AggregateQuery> ParityWorkload() {
  const auto& ds = MiniDataset();
  std::vector<AggregateQuery> qs;
  qs.push_back(
      WorkloadGenerator::SimpleQuery(ds, 0, 0, AggregateFunction::kCount));
  qs.push_back(
      WorkloadGenerator::SimpleQuery(ds, 1, 0, AggregateFunction::kAvg));
  qs.push_back(
      WorkloadGenerator::ChainQuery(ds, 0, 0, AggregateFunction::kCount));
  qs.push_back(
      WorkloadGenerator::SimpleQuery(ds, 2, 1, AggregateFunction::kSum));
  return qs;
}

constexpr uint64_t kBaseSeed = 321;

const std::vector<AggregateResult>& FlatReference() {
  static std::vector<AggregateResult>* ref = [] {
    const auto& ds = MiniDataset();
    auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                               ds.reference_embedding());
    ServiceOptions sopts;
    sopts.base_seed = kBaseSeed;
    auto served = QueryService::RunBatch(ctx, ParityWorkload(), sopts);
    auto* out = new std::vector<AggregateResult>;
    for (auto& r : served) {
      EXPECT_TRUE(r.ok()) << r.status();
      out->push_back(std::move(*r));
    }
    return out;
  }();
  return *ref;
}

void ExpectResultsBitwiseEqual(const AggregateResult& a,
                               const AggregateResult& b, size_t index) {
  EXPECT_EQ(a.v_hat, b.v_hat) << "query " << index;
  EXPECT_EQ(a.moe, b.moe) << "query " << index;
  EXPECT_EQ(a.satisfied, b.satisfied) << "query " << index;
  EXPECT_EQ(a.rounds, b.rounds) << "query " << index;
  EXPECT_EQ(a.total_draws, b.total_draws) << "query " << index;
  EXPECT_EQ(a.correct_draws, b.correct_draws) << "query " << index;
  EXPECT_EQ(a.num_candidates, b.num_candidates) << "query " << index;
}

// Fails Validate from the `fail_from`-th call on (1-based): the replica
// dies mid-run after serving some rounds. Plan and Release pass through,
// so its sessions are created and cleaned like a live replica's.
class DieAfterValidatesChannel final : public ShardChannel {
 public:
  DieAfterValidatesChannel(std::unique_ptr<ShardChannel> inner, int fail_from)
      : inner_(std::move(inner)), fail_from_(fail_from) {}

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override {
    return inner_->Plan(request);
  }
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override {
    if (calls_.fetch_add(1) + 1 >= fail_from_) {
      return Status::Unavailable("replica died mid-run");
    }
    return inner_->Validate(request);
  }
  Status Release(uint64_t token) override { return inner_->Release(token); }

 private:
  std::unique_ptr<ShardChannel> inner_;
  int fail_from_;
  std::atomic<int> calls_{0};
};

// THE acceptance gate: 2 shards x 2 replicas, replica 0 of EVERY shard
// dies mid-run (validates start failing after the first round), and the
// whole workload still comes back bitwise-identical to the flat engine
// with degraded == false — failover is invisible in the answer.
TEST(ReplicatedEngineTest, MidRunReplicaLossPreservesBitwiseParity) {
  const auto& ds = MiniDataset();
  const auto workload = ParityWorkload();
  const auto& expected = FlatReference();

  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.replicas_per_shard = 2;
  opts.base_seed = kBaseSeed;
  opts.replica.breaker.failure_threshold = 1;
  opts.replica.breaker.open_cooldown_ms = 60000.0;  // no failback mid-test
  opts.wrap_channel = [](std::unique_ptr<ShardChannel> ch, uint32_t /*shard*/,
                         uint32_t replica) -> std::unique_ptr<ShardChannel> {
    if (replica == 0) {
      return std::make_unique<DieAfterValidatesChannel>(std::move(ch),
                                                        /*fail_from=*/2);
    }
    return ch;
  };
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (size_t i = 0; i < workload.size(); ++i) {
    QueryRequest req;
    req.query = workload[i];
    QueryResponse resp = (*engine)->Execute(req);
    ASSERT_EQ(resp.state, QueryState::kDone)
        << "query " << i << ": " << resp.status;
    EXPECT_FALSE(resp.degraded) << "query " << i;
    ExpectResultsBitwiseEqual(resp.result, expected[i], i);
  }

  // Failover really happened and is visible at the health surface.
  const auto health = (*engine)->coordinator().channel_health();
  uint64_t failovers = 0;
  for (const auto& h : health) {
    EXPECT_EQ(h.replicas, 2u);
    failovers += h.failovers;
  }
  EXPECT_GE(failovers, 1u);

  const CoordinatorStats cs = (*engine)->coordinator().stats();
  EXPECT_EQ(cs.done, workload.size());
  EXPECT_EQ(cs.degraded, 0u);
  // No replica leaks a plan session, dead or alive.
  for (size_t s = 0; s < 2; ++s) {
    for (size_t r = 0; r < 2; ++r) {
      EXPECT_EQ((*engine)->node(s, r).live_plan_sessions(), 0u)
          << "shard " << s << " replica " << r;
    }
  }

  // The /stats fragment renders with the tier visible.
  const std::string json = RenderShardTierJson((*engine)->coordinator());
  EXPECT_NE(json.find("\"shard_tier\""), std::string::npos);
  EXPECT_NE(json.find("\"failovers\""), std::string::npos);
  EXPECT_NE(json.find("\"breakers\""), std::string::npos);
}

// Losing EVERY replica of a shard mid-run is a real shard loss: the
// session retires with the PR 6 degradation contract (completed rounds
// stand, degraded partial answer), and kShardLost surfaces only here.
TEST(ReplicatedEngineTest, WholeReplicaSetLossDegradesGracefully) {
  const auto& ds = MiniDataset();
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.replicas_per_shard = 2;
  opts.base_seed = kBaseSeed;
  // Keep sampling for 3 rounds: a census would end the run in round 2.
  opts.service.engine.census_cutover = false;
  opts.wrap_channel = [](std::unique_ptr<ShardChannel> ch, uint32_t shard,
                         uint32_t /*replica*/) -> std::unique_ptr<ShardChannel> {
    if (shard == 0) {
      return std::make_unique<DieAfterValidatesChannel>(std::move(ch),
                                                        /*fail_from=*/2);
    }
    return ch;
  };
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryRequest req;
  req.query = ParityWorkload()[0];
  req.error_bound = 1e-9;  // unreachable: would run to max_rounds
  req.max_rounds = 3;
  QueryResponse resp = (*engine)->Execute(req);
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  EXPECT_TRUE(resp.degraded);
  // Round 1 via replica 0; round 2 fails over to replica 1 (its own
  // first validate); round 3 finds both dead and retires kShardLost.
  EXPECT_EQ(resp.result.rounds, 2u);

  for (size_t s = 0; s < 2; ++s) {
    for (size_t r = 0; r < 2; ++r) {
      EXPECT_EQ((*engine)->node(s, r).live_plan_sessions(), 0u);
    }
  }
}

// replicas_per_shard = 1 must stay byte-for-byte the old deployment:
// plain channels, no replica tier in the path, default health rows.
TEST(ReplicatedEngineTest, SingleReplicaKeepsPlainChannels) {
  const auto& ds = MiniDataset();
  const auto& expected = FlatReference();
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.base_seed = kBaseSeed;
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryRequest req;
  req.query = ParityWorkload()[0];
  QueryResponse resp = (*engine)->Execute(req);
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  ExpectResultsBitwiseEqual(resp.result, expected[0], 0);

  for (const auto& h : (*engine)->coordinator().channel_health()) {
    EXPECT_EQ(h.replicas, 1u);
    EXPECT_EQ(h.healthy, 1u);
    EXPECT_TRUE(h.states.empty());
  }
}

}  // namespace
}  // namespace kgaq
