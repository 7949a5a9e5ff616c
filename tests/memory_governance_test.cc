/// End-to-end tests of the memory-governed engine caches: bitwise
/// parity under tiny budgets and concurrent eviction, epoch pinning
/// across cache thrash, Critical-pressure build shedding surfacing as
/// degraded responses, and the scheduler watchdog.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/fault_injection.h"
#include "core/approx_engine.h"
#include "core/cache_governor.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "serve/query_service.h"

namespace kgaq {
namespace {

const GeneratedDataset& MiniDataset() {
  static GeneratedDataset* ds = [] {
    auto r = KgGenerator::Generate(DatasetProfile::Mini(7));
    return new GeneratedDataset(std::move(*r));
  }();
  return *ds;
}

// Same mixed 8-query workload shape as serve_test.cc: simple and chain
// queries, several aggregate functions, across domains/hubs.
std::vector<AggregateQuery> MixedWorkload() {
  const auto& ds = MiniDataset();
  std::vector<AggregateQuery> qs;
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 0, 0,
                                              AggregateFunction::kCount));
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 1, 0,
                                              AggregateFunction::kAvg));
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 2, 1,
                                              AggregateFunction::kSum));
  qs.push_back(WorkloadGenerator::ChainQuery(ds, 0, 0,
                                             AggregateFunction::kCount));
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 1, 1,
                                              AggregateFunction::kCount));
  qs.push_back(WorkloadGenerator::ChainQuery(ds, 1, 0,
                                             AggregateFunction::kAvg));
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 0, 1,
                                              AggregateFunction::kMax));
  qs.push_back(WorkloadGenerator::SimpleQuery(ds, 2, 0,
                                              AggregateFunction::kAvg));
  return qs;
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
  ASSERT_EQ(a.groups.size(), b.groups.size()) << "query " << index;
  for (size_t gi = 0; gi < a.groups.size(); ++gi) {
    EXPECT_EQ(a.groups[gi].v_hat, b.groups[gi].v_hat);
    EXPECT_EQ(a.groups[gi].moe, b.groups[gi].moe);
  }
}

// Acceptance criterion (ISSUE PR 7): the same concurrent workload over a
// context whose budget is a quarter of its unbounded footprint returns
// bitwise-identical results — caches govern memory, never answers — and
// eviction actually fires. Steady-state charged bytes respect the
// budget once live sessions retire.
TEST(MemoryGovernanceTest, TinyBudgetConcurrentWorkloadIsBitwiseIdentical) {
  const auto& ds = MiniDataset();
  const auto workload = MixedWorkload();
  ServiceOptions sopts;
  sopts.max_concurrent = 8;
  sopts.base_seed = 321;

  // Reference: unbounded context, concurrent batch.
  auto ctx_u = std::make_shared<EngineContext>(ds.graph(),
                                               ds.reference_embedding());
  auto ref = QueryService::RunBatch(ctx_u, workload, sopts);
  ASSERT_EQ(ref.size(), workload.size());
  const size_t unbounded_total = ctx_u->Stats().TotalBytes();
  ASSERT_GT(unbounded_total, 0u);

  // Governed: a quarter of the footprint forces eviction mid-workload.
  EngineCacheOptions copts;
  copts.budget_bytes = unbounded_total / 4;
  auto ctx_g = std::make_shared<EngineContext>(ds.graph(),
                                               ds.reference_embedding(),
                                               copts);
  // Pass 0/1: full concurrency — under a quarter budget the 8 sessions'
  // pinned sets drive the budget Critical, so the governor responds
  // with a timing-dependent mix of shedding and eviction. Pass 2: width
  // 1 — each retired query unpins its borrowings before the next one
  // builds, so eviction (not shedding) is the deterministic response.
  for (int pass = 0; pass < 3; ++pass) {
    ServiceOptions pass_opts = sopts;
    if (pass == 2) pass_opts.max_concurrent = 1;
    auto got = QueryService::RunBatch(ctx_g, workload, pass_opts);
    ASSERT_EQ(got.size(), workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_TRUE(ref[i].ok()) << ref[i].status();
      ASSERT_TRUE(got[i].ok()) << "pass " << pass << ": " << got[i].status();
      ExpectResultsBitwiseEqual(*got[i], *ref[i], i);
    }
  }

  auto stats = ctx_g->Stats();
  EXPECT_GT(stats.evictions, 0u) << "quarter budget never evicted";
  EXPECT_GT(stats.plan_hits, 0u) << "repeated passes never reused a plan";
  EXPECT_EQ(stats.pinned_bytes, 0u) << "released epochs must unpin";
  ctx_g->EvictToBudget();
  stats = ctx_g->Stats();
  EXPECT_LE(stats.charged_bytes, stats.budget_bytes)
      << "steady-state resident bytes exceed the budget";
}

// Epoch pinning: a walk core borrowed by a live scope survives any
// amount of cache thrash — eviction must skip it — and becomes
// reclaimable the moment the scope releases.
TEST(MemoryGovernanceTest, PinnedWalkCoreSurvivesThrashUntilRelease) {
  const auto& ds = MiniDataset();

  EngineContext::WalkCoreKey key;
  key.root = 0;
  key.query_predicate = 0;
  key.n_hops = 2;
  key.self_loop_similarity = 0.5;
  key.sims_floor = PredicateSimilarityCache::kDefaultFloor;

  // Size one core against an unbounded context, then build a governed
  // context whose budget holds roughly two of them.
  size_t core_bytes = 0;
  {
    EngineContext probe(ds.graph(), ds.reference_embedding());
    probe.ScopedWalkCore(key);
    core_bytes = probe.Stats().core_bytes;
  }
  ASSERT_GT(core_bytes, 0u);

  EngineCacheOptions copts;
  copts.budget_bytes = core_bytes * 2;
  EngineContext ctx(ds.graph(), ds.reference_embedding(), copts);

  CachePinScope scope;
  auto pinned = ctx.ScopedWalkCore(key, &scope);
  ASSERT_NE(pinned, nullptr);
  EXPECT_GT(ctx.Stats().pinned_bytes, 0u);

  // Thrash: cores for many other roots blow well past the budget.
  const NodeId n = static_cast<NodeId>(ds.graph().NumNodes());
  for (NodeId root = 1; root < n && root <= 40; ++root) {
    auto k = key;
    k.root = root;
    ctx.ScopedWalkCore(k);
  }
  auto stats = ctx.Stats();
  EXPECT_GT(stats.evictions, 0u) << "thrash never exceeded the budget";

  // The pinned core is still resident: re-fetch is a hit on the very
  // same object, not a rebuild.
  auto refetched = ctx.ScopedWalkCore(key, &scope);
  EXPECT_EQ(refetched.get(), pinned.get());

  scope.Release();
  EXPECT_EQ(ctx.Stats().pinned_bytes, 0u);
  ctx.EvictToBudget();
  stats = ctx.Stats();
  EXPECT_LE(stats.charged_bytes, stats.budget_bytes);
  // Our shared_ptr keeps the borrowed core valid regardless of eviction.
  EXPECT_GT(pinned->transitions.NumScopeNodes(), 0u);
}

// Under Critical pressure the engine sheds new cache builds: the query
// still runs (on ephemeral structures), returns a bitwise-identical
// answer, and the response is marked degraded.
TEST(MemoryGovernanceTest, CriticalPressureShedsBuildsAndMarksDegraded) {
  const auto& ds = MiniDataset();
  auto query = WorkloadGenerator::ChainQuery(ds, 0, 0,
                                             AggregateFunction::kCount);
  ServiceOptions sopts;

  // A 64-byte budget: the first pinned structure crosses the critical
  // threshold, so every later build in the session is shed.
  EngineCacheOptions copts;
  copts.budget_bytes = 64;
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding(),
                                             copts);
  QueryService service(ctx, sopts);
  QueryRequest req;
  req.query = query;
  req.seed = 4242;
  auto resp = service.SubmitAsync(req).Wait();
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  EXPECT_TRUE(resp.degraded)
      << "critical-pressure shedding must mark the response degraded";
  EXPECT_GE(resp.result.rounds, 1u);
  // Wait() returns on the ticket's own terminal latch, which can run
  // ahead of the service-counter update; Drain() synchronizes with it.
  service.Drain();
  EXPECT_EQ(service.stats().degraded, 1u);
  EXPECT_GT(ctx->Stats().shed_builds, 0u);

  // Shed builds are the same pure functions, just uncached: the answer
  // matches a solo run on an unbounded cold context bitwise.
  EngineOptions eopts = sopts.engine;
  eopts.seed = 4242;
  ApproxEngine solo(ds.graph(), ds.reference_embedding(), eopts);
  auto expected = solo.Execute(query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ExpectResultsBitwiseEqual(resp.result, *expected, 0);

  // Once the session's pins released, pressure clears and the budget
  // holds again.
  ctx->EvictToBudget();
  auto stats = ctx->Stats();
  EXPECT_LE(stats.charged_bytes, stats.budget_bytes);
  EXPECT_EQ(stats.pressure, MemoryPressure::kHealthy);
}

// A live session pins only what it reads after building: its prepared
// branches, their hop similarity rows and the chain-profile store. The
// walk cores a cold plan build consulted stay resident (and evictable)
// but unpinned, and a warm session never touches them.
TEST(MemoryGovernanceTest, SessionPinsPlanSimsAndChainStoreOnly) {
  const auto& ds = MiniDataset();
  EngineCacheOptions copts;
  copts.budget_bytes = size_t{1} << 30;  // governed, never evicting
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding(),
                                             copts);
  ApproxEngine engine(ctx, {});
  const auto chain =
      WorkloadGenerator::ChainQuery(ds, 0, 0, AggregateFunction::kCount);

  auto expect_pins_bounded = [&](const char* when) {
    const auto s = ctx->Stats();
    EXPECT_GT(s.pinned_bytes, 0u) << when;
    EXPECT_LE(s.pinned_bytes, s.plan_bytes + s.sims_bytes + s.chain_bytes)
        << when;
    EXPECT_GT(s.core_bytes, 0u) << when;
  };

  auto cold = engine.CreateSession(chain);
  ASSERT_TRUE(cold.ok()) << cold.status();
  expect_pins_bounded("cold session built");
  (*cold)->BeginRun(0.05);
  (*cold)->StepRound();
  expect_pins_bounded("cold session mid-run");

  auto warm = engine.CreateSession(chain);
  ASSERT_TRUE(warm.ok()) << warm.status();
  expect_pins_bounded("warm session built");

  (*cold)->FinishRun();
  (*warm).reset();
  EXPECT_EQ(ctx->Stats().pinned_bytes, 0u);
}

// A failed plan build (core.cache.build firing in the prepared-branch
// cache) fails that ticket; the cache is not poisoned, so the next
// request rebuilds the plan and answers like an unfaulted context.
TEST(MemoryGovernanceTest, FailedPlanBuildFailsTicketThenRebuilds) {
  const auto& ds = MiniDataset();
  const auto query =
      WorkloadGenerator::SimpleQuery(ds, 0, 0, AggregateFunction::kCount);
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  // Warm the hop's similarity row, so the first cache build the query
  // runs — the one the armed fault hits — is its plan.
  const PredicateId pred =
      ds.graph().PredicateIdOf(query.query.branches[0].hops[0].predicate);
  ASSERT_NE(ctx->PredicateSimilarities(pred), nullptr);

  ServiceOptions sopts;
  QueryService service(ctx, sopts);
  QueryRequest req;
  req.query = query;
  req.seed = 77;

  fault_injection::Reset();
  fault_injection::Enable(1);
  fault_injection::ArmCount("core.cache.build", 1);
  const QueryResponse failed = service.SubmitAsync(req).Wait();
  fault_injection::Reset();
  EXPECT_EQ(failed.state, QueryState::kFailed);
  auto stats = ctx->Stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_entries, 0u);
  EXPECT_EQ(stats.build_failures, 1u);
  EXPECT_EQ(stats.core_misses, 0u) << "the fault must hit the plan build";

  const QueryResponse rebuilt = service.SubmitAsync(req).Wait();
  ASSERT_EQ(rebuilt.state, QueryState::kDone) << rebuilt.status;
  stats = ctx->Stats();
  EXPECT_EQ(stats.plan_misses, 2u);
  EXPECT_EQ(stats.plan_entries, 1u);
  EXPECT_EQ(stats.build_failures, 1u);

  EngineOptions eopts = sopts.engine;
  eopts.seed = 77;
  ApproxEngine solo(ds.graph(), ds.reference_embedding(), eopts);
  auto expected = solo.Execute(query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ExpectResultsBitwiseEqual(rebuilt.result, *expected, 0);
  service.Drain();
}

// The scheduler watchdog notices ticks that exceed watchdog_warn_ms
// (here: every tick, via the injected 10ms stall) and counts them in
// ServiceStats.
TEST(MemoryGovernanceTest, WatchdogCountsStalledSchedulerTicks) {
  fault_injection::Reset();
  fault_injection::Enable(7);
  fault_injection::Arm("serve.scheduler.stall", 1.0);

  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  ServiceOptions sopts;
  sopts.watchdog_warn_ms = 1.0;  // the injected stall sleeps 10ms
  QueryService service(ctx, sopts);
  QueryRequest req;
  req.query = WorkloadGenerator::SimpleQuery(ds, 0, 0,
                                             AggregateFunction::kCount);
  auto resp = service.SubmitAsync(req).Wait();
  EXPECT_EQ(resp.state, QueryState::kDone) << resp.status;
  service.Drain();

  auto stats = service.stats();
  EXPECT_GE(stats.watchdog_stalls, 1u);
  EXPECT_GE(stats.last_tick_age_ms, 0.0);
  EXPECT_EQ(stats.memory_pressure, MemoryPressure::kHealthy);
  fault_injection::Reset();
}

}  // namespace
}  // namespace kgaq
