#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/approx_engine.h"
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

// A mixed 8-query workload: simple and chain shapes, several aggregate
// functions, across domains/hubs.
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

// Acceptance criterion: 8 concurrent queries over one shared context
// return bitwise-identical per-query results to serial solo runs (fresh
// cold engines) with the same derived seeds.
TEST(QueryServiceTest, ConcurrentResultsMatchSoloRunsBitwise) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  const auto workload = MixedWorkload();

  ServiceOptions sopts;
  sopts.max_concurrent = 8;
  sopts.base_seed = 321;
  auto served = QueryService::RunBatch(ctx, workload, sopts);
  ASSERT_EQ(served.size(), workload.size());

  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(served[i].ok()) << "query " << i << ": "
                                << served[i].status();
    // Solo reference: a fresh engine with a private cold context.
    EngineOptions eopts = sopts.engine;
    eopts.seed = QueryService::QuerySeed(sopts.base_seed, i);
    ApproxEngine solo(ds.graph(), ds.reference_embedding(), eopts);
    auto expected = solo.Execute(workload[i]);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectResultsBitwiseEqual(*served[i], *expected, i);
  }
}

TEST(QueryServiceTest, NarrowAdmissionWidthGivesSameResults) {
  const auto& ds = MiniDataset();
  const auto workload = MixedWorkload();

  ServiceOptions wide;
  wide.max_concurrent = 8;
  wide.base_seed = 77;
  auto ctx_a = std::make_shared<EngineContext>(ds.graph(),
                                               ds.reference_embedding());
  auto a = QueryService::RunBatch(ctx_a, workload, wide);

  ServiceOptions narrow = wide;
  narrow.max_concurrent = 3;  // queries queue and enter in waves
  auto ctx_b = std::make_shared<EngineContext>(ds.graph(),
                                               ds.reference_embedding());
  auto b = QueryService::RunBatch(ctx_b, workload, narrow);

  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    ExpectResultsBitwiseEqual(*a[i], *b[i], i);
  }
}

TEST(QueryServiceTest, InvalidQueryFailsAloneOthersComplete) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  QueryService service(ctx);
  QueryRequest good;
  good.query = WorkloadGenerator::SimpleQuery(ds, 0, 0,
                                              AggregateFunction::kCount);
  QueryRequest bad = good;
  bad.query.query.branches[0].specific_name = "no_such_entity_anywhere";
  std::vector<QueryTicket> tickets;
  tickets.push_back(service.SubmitAsync(good));
  tickets.push_back(service.SubmitAsync(bad));
  tickets.push_back(service.SubmitAsync(good));
  for (size_t i = 0; i < tickets.size(); ++i) EXPECT_EQ(tickets[i].id(), i);
  EXPECT_EQ(tickets[0].Wait().state, QueryState::kDone);
  EXPECT_EQ(tickets[1].Wait().state, QueryState::kFailed);
  EXPECT_EQ(tickets[2].Wait().state, QueryState::kDone);
}

TEST(QueryServiceTest, QuerySeedIsStableAndSpread) {
  // The documented contract: solo reproduction depends on this mapping
  // staying fixed.
  EXPECT_EQ(QueryService::QuerySeed(7, 0), QueryService::QuerySeed(7, 0));
  EXPECT_NE(QueryService::QuerySeed(7, 0), QueryService::QuerySeed(7, 1));
  EXPECT_NE(QueryService::QuerySeed(7, 0), QueryService::QuerySeed(8, 0));
}

TEST(EngineContextTest, SharedStructuresAreReusedAcrossQueries) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  auto q = WorkloadGenerator::SimpleQuery(ds, 0, 0,
                                          AggregateFunction::kCount);
  EngineOptions opts;
  ApproxEngine engine(ctx, opts);
  ASSERT_TRUE(engine.Execute(q).ok());
  const auto first = ctx->Stats();
  EXPECT_GT(first.sims_misses, 0u);
  EXPECT_GT(first.core_misses, 0u);

  // The same query again (fresh session, same context): every similarity
  // row and the prepared branch are cache hits, nothing new is built, and
  // no walk core is even consulted.
  ASSERT_TRUE(engine.Execute(q).ok());
  const auto second = ctx->Stats();
  EXPECT_EQ(second.sims_misses, first.sims_misses);
  EXPECT_EQ(second.core_misses, first.core_misses);
  EXPECT_GT(second.sims_hits, first.sims_hits);
  EXPECT_GT(second.plan_hits, first.plan_hits);
  EXPECT_EQ(second.plan_misses, first.plan_misses);
  EXPECT_EQ(second.core_hits, first.core_hits);
}

TEST(EngineContextTest, ChainProfilesReusedAcrossQueriesWithSameShape) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  auto q = WorkloadGenerator::ChainQuery(ds, 0, 0, AggregateFunction::kCount);

  EngineOptions opts;
  opts.seed = 5;
  ApproxEngine engine(ctx, opts);
  auto r1 = engine.Execute(q);
  ASSERT_TRUE(r1.ok()) << r1.status();
  const auto after_first = ctx->Stats();
  ASSERT_GT(after_first.chain_entries, 0u)
      << "chain validation produced no profiles — query too easy?";

  // Second query of the same shape: every boundary-state lookup hits the
  // promoted store; no new profile is enumerated.
  auto r2 = engine.Execute(q);
  ASSERT_TRUE(r2.ok()) << r2.status();
  const auto after_second = ctx->Stats();
  EXPECT_EQ(after_second.chain_entries, after_first.chain_entries);
  EXPECT_EQ(after_second.chain_misses, after_first.chain_misses);
  EXPECT_GT(after_second.chain_hits, after_first.chain_hits);

  // And cache warmth never changes results.
  EXPECT_EQ(r1->v_hat, r2->v_hat);
  EXPECT_EQ(r1->moe, r2->moe);
  EXPECT_EQ(r1->total_draws, r2->total_draws);
}

TEST(EngineContextTest, WarmContextMatchesColdContextBitwise) {
  const auto& ds = MiniDataset();
  const auto workload = MixedWorkload();
  ServiceOptions sopts;
  sopts.base_seed = 9;

  auto warm_ctx = std::make_shared<EngineContext>(ds.graph(),
                                                  ds.reference_embedding());
  auto first = QueryService::RunBatch(warm_ctx, workload, sopts);
  // Same workload through the now-warm context (fresh service).
  auto second = QueryService::RunBatch(warm_ctx, workload, sopts);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(second[i].ok());
    ExpectResultsBitwiseEqual(*first[i], *second[i], i);
  }
}

// A request the engine can never satisfy (eb below any reachable moe)
// with budgets opened wide: it keeps drawing until cancelled or expired,
// which the async tests rely on for deterministic mid-run control.
QueryRequest UnsatisfiableRequest(const GeneratedDataset& ds) {
  QueryRequest req;
  req.query = WorkloadGenerator::SimpleQuery(ds, 0, 0,
                                             AggregateFunction::kAvg);
  req.error_bound = 1e-12;
  req.max_rounds = 1000000;
  return req;
}

ServiceOptions LongRunServiceOptions() {
  ServiceOptions sopts;
  // Make the 500k-draw cap unreachable in test time AND pin the
  // per-round increment, so an unsatisfiable query runs until stopped in
  // small, frequently-checkpointed rounds (Eq. 12 would otherwise jump
  // the target straight to the cap in one giant draw).
  sopts.engine.max_total_draws = static_cast<size_t>(1) << 40;
  sopts.engine.fixed_increment = 2000;
  // And keep sampling: a census would answer the Mini query exactly as
  // soon as the target reached its candidate set.
  sopts.engine.census_cutover = false;
  return sopts;
}

// Acceptance criterion: 8 concurrent SubmitAsync queries (no deadline,
// no cancel) return bitwise-identical results to solo cold-engine runs
// with the same derived seeds, while a concurrently cancelled 9th query
// retires without changing them.
TEST(AsyncQueryServiceTest, EightAsyncQueriesMatchSoloWhileNinthCancelled) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  const auto workload = MixedWorkload();

  ServiceOptions sopts = LongRunServiceOptions();
  sopts.max_concurrent = 9;
  sopts.base_seed = 321;
  QueryService service(ctx, sopts);

  std::vector<QueryTicket> tickets;
  for (const AggregateQuery& q : workload) {
    QueryRequest req;
    req.query = q;
    tickets.push_back(service.SubmitAsync(std::move(req)));
  }
  // The 9th: unsatisfiable, cancelled once seen running.
  QueryTicket ninth = service.SubmitAsync(UnsatisfiableRequest(ds));
  EXPECT_EQ(ninth.id(), 8u);
  while (ninth.Poll().state == QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ninth.Cancel();
  const QueryResponse ninth_resp = ninth.Wait();
  EXPECT_EQ(ninth_resp.state, QueryState::kCancelled);
  EXPECT_FALSE(ninth_resp.result.satisfied);

  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryResponse resp = tickets[i].Wait();
    ASSERT_EQ(resp.state, QueryState::kDone)
        << "query " << i << ": " << resp.status;
    EXPECT_EQ(resp.id, i);
    EXPECT_EQ(resp.seed_used, QueryService::QuerySeed(sopts.base_seed, i));
    EXPECT_GE(resp.run_ms, 0.0);
    // Solo reference: a fresh engine with a private cold context and the
    // same derived seed.
    EngineOptions eopts = sopts.engine;
    eopts.seed = resp.seed_used;
    ApproxEngine solo(ds.graph(), ds.reference_embedding(), eopts);
    auto expected = solo.Execute(workload[i]);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectResultsBitwiseEqual(resp.result, *expected, i);
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 9u);
  EXPECT_EQ(stats.done, 8u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST(AsyncQueryServiceTest, MidRunCancelRetiresWithPartialEstimate) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  QueryService service(ctx, LongRunServiceOptions());

  QueryTicket ticket = service.SubmitAsync(UnsatisfiableRequest(ds));
  while (ticket.Poll().state == QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let it complete at least one round so the partial carries draws.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ticket.Cancel();
  const QueryResponse resp = ticket.Wait();
  EXPECT_EQ(resp.state, QueryState::kCancelled);
  EXPECT_TRUE(resp.status.ok());
  EXPECT_FALSE(resp.result.satisfied);
  EXPECT_GT(resp.result.total_draws, 0u);  // partial sample retained
  EXPECT_GT(resp.run_ms, 0.0);
  // Cancel is idempotent and the state stays terminal.
  ticket.Cancel();
  EXPECT_EQ(ticket.Poll().state, QueryState::kCancelled);
}

TEST(AsyncQueryServiceTest, MidRunDeadlineExpiresBetweenRounds) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  QueryService service(ctx, LongRunServiceOptions());

  QueryRequest req = UnsatisfiableRequest(ds);
  req.deadline_ms = 40.0;
  QueryTicket ticket = service.SubmitAsync(std::move(req));
  const QueryResponse resp = ticket.Wait();
  EXPECT_EQ(resp.state, QueryState::kDeadlineExceeded);
  EXPECT_TRUE(resp.status.ok());
  EXPECT_FALSE(resp.result.satisfied);
  EXPECT_GE(resp.queue_ms + resp.run_ms, 40.0 * 0.5);  // timer sanity
}

TEST(AsyncQueryServiceTest, QueuedQueryExpiresWithoutEverRunning) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  ServiceOptions sopts = LongRunServiceOptions();
  sopts.max_concurrent = 1;  // the long query monopolizes the only slot
  QueryService service(ctx, sopts);

  QueryTicket hog = service.SubmitAsync(UnsatisfiableRequest(ds));
  while (hog.Poll().state == QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  QueryRequest starved = UnsatisfiableRequest(ds);
  starved.deadline_ms = 5.0;
  QueryTicket ticket = service.SubmitAsync(std::move(starved));
  const QueryResponse resp = ticket.Wait();  // retired by the queue sweep
  EXPECT_EQ(resp.state, QueryState::kDeadlineExceeded);
  EXPECT_EQ(resp.result.total_draws, 0u);
  EXPECT_EQ(resp.run_ms, 0.0);
  EXPECT_GE(resp.queue_ms, 5.0 * 0.5);
  hog.Cancel();
  EXPECT_EQ(hog.Wait().state, QueryState::kCancelled);
}

TEST(AsyncQueryServiceTest, RequestOverridesAndPinnedSeedReproduceSolo) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  QueryService service(ctx);

  QueryRequest req;
  req.query = WorkloadGenerator::SimpleQuery(ds, 1, 0,
                                             AggregateFunction::kAvg);
  req.error_bound = 0.04;
  req.confidence_level = 0.9;
  req.seed = 987654321;
  const QueryResponse resp = service.SubmitAsync(req).Wait();
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  EXPECT_EQ(resp.seed_used, 987654321u);
  EXPECT_EQ(resp.result.error_bound, 0.04);
  EXPECT_EQ(resp.result.confidence_level, 0.9);

  EngineOptions eopts;
  eopts.error_bound = 0.04;
  eopts.confidence_level = 0.9;
  eopts.seed = 987654321;
  ApproxEngine solo(ds.graph(), ds.reference_embedding(), eopts);
  auto expected = solo.Execute(req.query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ExpectResultsBitwiseEqual(resp.result, *expected, 0);
}

TEST(AsyncQueryServiceTest, WaitForTimesOutOnLiveQueryThenResolves) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  QueryService service(ctx, LongRunServiceOptions());
  QueryTicket ticket = service.SubmitAsync(UnsatisfiableRequest(ds));
  EXPECT_FALSE(ticket.WaitFor(5.0).has_value());  // still running
  ticket.Cancel();
  auto resp = ticket.WaitFor(60000.0);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->state, QueryState::kCancelled);
}

TEST(AsyncQueryServiceTest, DestructorCancelsOutstandingWork) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  QueryTicket running, queued;
  {
    ServiceOptions sopts = LongRunServiceOptions();
    sopts.max_concurrent = 1;
    QueryService service(ctx, sopts);
    running = service.SubmitAsync(UnsatisfiableRequest(ds));
    queued = service.SubmitAsync(UnsatisfiableRequest(ds));
  }
  // Tickets outlive the service; both were cancelled by teardown.
  EXPECT_EQ(running.Poll().state, QueryState::kCancelled);
  EXPECT_EQ(queued.Poll().state, QueryState::kCancelled);
}

// The batching contract behind the HTTP front door: a whole wave
// submitted through SubmitBatch gets the same ids, derived seeds, and
// bitwise-identical results as the same requests submitted one by one —
// batching is an admission optimization, never a semantic change.
TEST(AsyncQueryServiceTest, SubmitBatchMatchesSequentialSubmitsBitwise) {
  const auto& ds = MiniDataset();
  const auto workload = MixedWorkload();
  ServiceOptions sopts;
  sopts.base_seed = 131;
  sopts.max_concurrent = 4;

  auto ctx_seq = std::make_shared<EngineContext>(ds.graph(),
                                                 ds.reference_embedding());
  QueryService sequential(ctx_seq, sopts);
  std::vector<QueryTicket> seq_tickets;
  for (const AggregateQuery& q : workload) {
    QueryRequest req;
    req.query = q;
    seq_tickets.push_back(sequential.SubmitAsync(std::move(req)));
  }

  auto ctx_batch = std::make_shared<EngineContext>(ds.graph(),
                                                   ds.reference_embedding());
  QueryService batched(ctx_batch, sopts);
  std::vector<QueryRequest> wave;
  for (const AggregateQuery& q : workload) {
    QueryRequest req;
    req.query = q;
    wave.push_back(std::move(req));
  }
  std::vector<QueryTicket> batch_tickets =
      batched.SubmitBatch(std::move(wave));
  ASSERT_EQ(batch_tickets.size(), workload.size());

  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(batch_tickets[i].id(), seq_tickets[i].id()) << "query " << i;
    const QueryResponse a = seq_tickets[i].Wait();
    const QueryResponse b = batch_tickets[i].Wait();
    ASSERT_EQ(a.state, QueryState::kDone) << a.status;
    ASSERT_EQ(b.state, QueryState::kDone) << b.status;
    EXPECT_EQ(a.seed_used, b.seed_used) << "query " << i;
    ExpectResultsBitwiseEqual(a.result, b.result, i);
  }
  // The wave admitted under one lock is one submission burst in stats.
  EXPECT_EQ(batched.stats().submitted, workload.size());
}

// Completion callbacks (the event loop's long-poll path): a callback
// registered before the terminal transition fires exactly once with the
// terminal snapshot; one registered after fires immediately, inline.
TEST(AsyncQueryServiceTest, OnTerminalFiresOnceBeforeOrAfterRetirement) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  QueryService service(ctx, LongRunServiceOptions());

  QueryTicket ticket = service.SubmitAsync(UnsatisfiableRequest(ds));
  std::atomic<int> fired{0};
  std::promise<QueryResponse> delivered;
  ticket.OnTerminal([&](const QueryResponse& resp) {
    if (fired.fetch_add(1) == 0) delivered.set_value(resp);
  });
  EXPECT_EQ(fired.load(), 0);  // still running: deferred, not inline
  ticket.Cancel();
  auto fut = delivered.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const QueryResponse resp = fut.get();
  EXPECT_EQ(resp.state, QueryState::kCancelled);
  // Give a straggling double-fire a beat to show itself.
  (void)ticket.Wait();
  EXPECT_EQ(fired.load(), 1);

  // Late registration on an already-terminal ticket: invoked inline.
  int late = 0;
  QueryState late_state = QueryState::kQueued;
  ticket.OnTerminal([&](const QueryResponse& r) {
    ++late;
    late_state = r.state;
  });
  EXPECT_EQ(late, 1);
  EXPECT_EQ(late_state, QueryState::kCancelled);
}

// Head-of-line blocking: a quick query admitted beside a session whose
// round is slow runs and retires while that round is still going. Under
// a lockstep scheduler the quick query's round would join the slow one
// before either retires.
TEST(AsyncQueryServiceTest, QuickQueryRetiresWithoutWaitingForSlowRound) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  ServiceOptions sopts = LongRunServiceOptions();
  sopts.max_concurrent = 2;
  // Every round after the first draws and folds a million more items:
  // tens of ms at least, against a one-small-round quick query.
  sopts.engine.fixed_increment = 1000000;
  QueryService service(ctx, sopts);

  QueryRequest quick;
  quick.query = UnsatisfiableRequest(ds).query;
  quick.max_rounds = 1;
  // Warm the shared plan so neither query below pays a cold build.
  ASSERT_EQ(service.SubmitAsync(quick).Wait().state, QueryState::kDone);

  QueryRequest slow = UnsatisfiableRequest(ds);
  slow.max_rounds = 2;  // one small round, then one slow round
  QueryTicket slow_ticket = service.SubmitAsync(std::move(slow));
  while (slow_ticket.Poll().state == QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto submitted = std::chrono::steady_clock::now();
  const QueryResponse quick_resp = service.SubmitAsync(quick).Wait();
  const double quick_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - submitted)
                              .count();
  ASSERT_EQ(quick_resp.state, QueryState::kDone) << quick_resp.status;
  EXPECT_EQ(quick_resp.result.rounds, 1u);
  // The slow session is still inside its second round.
  EXPECT_EQ(slow_ticket.Poll().state, QueryState::kRunning);

  const QueryResponse slow_resp = slow_ticket.Wait();
  ASSERT_EQ(slow_resp.state, QueryState::kDone) << slow_resp.status;
  EXPECT_EQ(slow_resp.result.rounds, 2u);
  EXPECT_LT(quick_ms, slow_resp.run_ms)
      << "quick " << quick_ms << " ms, slow " << slow_resp.run_ms << " ms";
}

// Lifetime: a service destroyed while its continuations still sit queued
// on a saturated pool waits for them; none touches the dead service (the
// sanitizer jobs check that), every ticket ends kCancelled and every
// completion callback fires exactly once.
TEST(AsyncQueryServiceTest, DestructionWaitsForContinuationsQueuedOnBusyPool) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    std::atomic<size_t> parked{0};
  };
  auto gate = std::make_shared<Gate>();
  ThreadPool& pool = GlobalPool();
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    pool.Submit([gate] {
      gate->parked.fetch_add(1);
      std::unique_lock<std::mutex> lock(gate->mu);
      gate->cv.wait(lock, [&] { return gate->open; });
    });
  }
  while (gate->parked.load() < pool.num_threads()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  constexpr size_t kQueries = 4;
  std::vector<QueryTicket> tickets;
  auto fired = std::make_shared<std::vector<std::atomic<int>>>(kQueries);
  std::thread releaser;
  {
    ServiceOptions sopts = LongRunServiceOptions();
    sopts.max_concurrent = 2;  // two continuations queued, two tickets queued
    QueryService service(ctx, sopts);
    for (size_t i = 0; i < kQueries; ++i) {
      tickets.push_back(service.SubmitAsync(UnsatisfiableRequest(ds)));
      tickets.back().OnTerminal(
          [fired, i](const QueryResponse&) { (*fired)[i].fetch_add(1); });
    }
    EXPECT_EQ(service.stats().running, 2u);
    EXPECT_EQ(tickets[0].Poll().state, QueryState::kQueued);
    releaser = std::thread([gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      {
        std::lock_guard<std::mutex> lock(gate->mu);
        gate->open = true;
      }
      gate->cv.notify_all();
    });
    // ~QueryService: cancels, then waits for the pool to run the two
    // queued continuations.
  }
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    EXPECT_TRUE(gate->open) << "destructor returned before the pool ran";
  }
  releaser.join();
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(tickets[i].Poll().state, QueryState::kCancelled) << i;
    EXPECT_EQ((*fired)[i].load(), 1) << i;
  }
}

TEST(EngineContextTest, CacheStatsReportEntriesAndResidentBytes) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  const auto before = ctx->Stats();
  EXPECT_EQ(before.sims_entries, 0u);
  EXPECT_EQ(before.TotalBytes(), 0u);

  ApproxEngine engine(ctx);
  auto chain = WorkloadGenerator::ChainQuery(ds, 0, 0,
                                             AggregateFunction::kCount);
  ASSERT_TRUE(engine.Execute(chain).ok());
  const auto after = ctx->Stats();
  EXPECT_GT(after.sims_entries, 0u);
  EXPECT_GT(after.sims_bytes, 0u);
  EXPECT_GT(after.core_entries, 0u);
  // Walk cores dominate: alias rows + CSR over every scope arc.
  EXPECT_GT(after.core_bytes, after.sims_bytes);
  EXPECT_GT(after.chain_entries, 0u);
  EXPECT_GT(after.chain_bytes, after.chain_entries * sizeof(uint64_t));
  EXPECT_EQ(after.TotalBytes(), after.sims_bytes + after.core_bytes +
                                    after.plan_bytes + after.chain_bytes);
}

TEST(EngineContextTest, InteractiveRefinementStillWorksThroughContext) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  ApproxEngine engine(ctx);
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kAvg);
  auto session = engine.CreateSession(q);
  ASSERT_TRUE(session.ok());
  auto coarse = (*session)->RunToErrorBound(0.05);
  auto fine = (*session)->RunToErrorBound(0.01);
  EXPECT_GE(fine.total_draws, coarse.total_draws);
  EXPECT_TRUE(fine.satisfied);
}

}  // namespace
}  // namespace kgaq
