#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/approx_engine.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "serve/query_service.h"

namespace kgaq {
namespace {

namespace fi = fault_injection;

const GeneratedDataset& MiniDataset() {
  static GeneratedDataset* ds = [] {
    auto r = KgGenerator::Generate(DatasetProfile::Mini(7));
    return new GeneratedDataset(std::move(*r));
  }();
  return *ds;
}

std::shared_ptr<EngineContext> MiniContext() {
  const auto& ds = MiniDataset();
  return std::make_shared<EngineContext>(ds.graph(),
                                         ds.reference_embedding());
}

/// An AVG query that can never meet its error bound: it runs in small
/// fixed-increment rounds until stopped, which makes it the knob for
/// pinning a concurrency slot or forcing a partial (degraded) answer.
QueryRequest UnsatisfiableRequest() {
  QueryRequest req;
  req.query = WorkloadGenerator::SimpleQuery(MiniDataset(), 0, 0,
                                             AggregateFunction::kAvg);
  req.error_bound = 1e-12;
  req.max_rounds = 1000000;
  return req;
}

ServiceOptions LongRunServiceOptions() {
  ServiceOptions sopts;
  sopts.engine.max_total_draws = static_cast<size_t>(1) << 40;
  sopts.engine.fixed_increment = 2000;
  sopts.engine.census_cutover = false;  // no census: keep runs long
  return sopts;
}

void AwaitRunning(const QueryTicket& t) {
  while (t.Poll().state == QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The ServiceStats accounting identity: once every ticket is terminal,
/// each submission landed in exactly one bucket.
void ExpectStatsInvariant(const QueryService::ServiceStats& s) {
  EXPECT_EQ(s.submitted, s.done + s.failed + s.cancelled +
                             s.deadline_expired + s.rejected + s.shed);
  EXPECT_EQ(s.queued, 0u);
}

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override { fi::Reset(); }
  void TearDown() override { fi::Reset(); }
};

// Bounded admission: once the queue holds max_queue_depth tickets, a
// further submit comes back already terminal with kResourceExhausted —
// it never queues, never runs, and Drain() does not wait for it.
TEST_F(OverloadTest, FullQueueRejectsAtSubmitWithResourceExhausted) {
  ServiceOptions sopts = LongRunServiceOptions();
  sopts.max_concurrent = 1;
  sopts.max_queue_depth = 2;
  sopts.base_seed = 11;
  QueryService service(MiniContext(), sopts);

  QueryTicket running = service.SubmitAsync(UnsatisfiableRequest());
  AwaitRunning(running);
  std::vector<QueryTicket> queued;
  queued.push_back(service.SubmitAsync(UnsatisfiableRequest()));
  queued.push_back(service.SubmitAsync(UnsatisfiableRequest()));

  QueryTicket rejected = service.SubmitAsync(UnsatisfiableRequest());
  const QueryResponse resp = rejected.Poll();
  EXPECT_EQ(resp.state, QueryState::kFailed);
  EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(resp.degraded);
  // Wait() must not block on a born-terminal ticket.
  EXPECT_EQ(rejected.Wait().state, QueryState::kFailed);

  running.Cancel();
  for (QueryTicket& t : queued) t.Cancel();
  service.Drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.rejected, 1u);
  ExpectStatsInvariant(stats);
}

// The overload state machine walks Healthy -> Saturated -> Shedding as
// the bounded queue fills (default thresholds, depth 4: enter Saturated
// at 2 queued, Shedding at 4), rejects while Shedding, and is Healthy
// again once everything drains.
TEST_F(OverloadTest, OverloadStateMachineWalksUpAndRecovers) {
  ServiceOptions sopts = LongRunServiceOptions();
  sopts.max_concurrent = 1;
  sopts.max_queue_depth = 4;
  sopts.base_seed = 12;
  QueryService service(MiniContext(), sopts);
  EXPECT_EQ(service.overload_state(), OverloadState::kHealthy);

  QueryTicket running = service.SubmitAsync(UnsatisfiableRequest());
  AwaitRunning(running);
  EXPECT_EQ(service.overload_state(), OverloadState::kHealthy);

  std::vector<QueryTicket> queued;
  queued.push_back(service.SubmitAsync(UnsatisfiableRequest()));
  EXPECT_EQ(service.overload_state(), OverloadState::kHealthy);  // q=1/4
  queued.push_back(service.SubmitAsync(UnsatisfiableRequest()));
  EXPECT_EQ(service.overload_state(), OverloadState::kSaturated);  // q=2/4
  queued.push_back(service.SubmitAsync(UnsatisfiableRequest()));
  EXPECT_EQ(service.overload_state(), OverloadState::kSaturated);  // q=3/4
  queued.push_back(service.SubmitAsync(UnsatisfiableRequest()));
  EXPECT_EQ(service.overload_state(), OverloadState::kShedding);  // q=4/4

  // While Shedding, even a submit that would fit is refused.
  const QueryResponse refused =
      service.SubmitAsync(UnsatisfiableRequest()).Poll();
  EXPECT_EQ(refused.state, QueryState::kFailed);
  EXPECT_EQ(refused.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(service.stats().retry_after_ms, 0.0);

  running.Cancel();
  for (QueryTicket& t : queued) t.Cancel();
  service.Drain();
  EXPECT_EQ(service.overload_state(), OverloadState::kHealthy);
  ExpectStatsInvariant(service.stats());
}

// Graceful degradation under Shedding, and its determinism contract: the
// shed query completes (kDone) with degraded=true, and a solo cold
// engine run with the same seed truncated at the same round count
// reproduces the partial estimate bitwise.
TEST_F(OverloadTest, ShedQueryReturnsDegradedPartialMatchingSoloRun) {
  ServiceOptions sopts = LongRunServiceOptions();
  sopts.max_concurrent = 1;
  sopts.max_queue_depth = 2;
  sopts.base_seed = 13;
  QueryService service(MiniContext(), sopts);

  QueryTicket first = service.SubmitAsync(UnsatisfiableRequest());
  AwaitRunning(first);
  // Fill the queue: q hits 2/2 >= shedding_enter, and the service
  // retires `first` (which already holds >= 1 round) at its next round
  // boundary with whatever it has.
  std::vector<QueryTicket> queued;
  queued.push_back(service.SubmitAsync(UnsatisfiableRequest()));
  queued.push_back(service.SubmitAsync(UnsatisfiableRequest()));

  const QueryResponse resp = first.Wait();
  ASSERT_EQ(resp.state, QueryState::kDone) << resp.status;
  EXPECT_TRUE(resp.degraded);
  ASSERT_GE(resp.result.rounds, 1u);
  EXPECT_FALSE(resp.result.satisfied);
  // A degraded answer advertises the bound it ACHIEVED, not the 1e-12 it
  // was asked for.
  ASSERT_NE(resp.result.v_hat, 0.0);
  EXPECT_DOUBLE_EQ(resp.result.error_bound,
                   resp.result.moe / std::abs(resp.result.v_hat));
  EXPECT_GT(resp.result.error_bound, 1e-12);

  // Solo reference: same derived seed, same engine options, max_rounds
  // pinned to the round the service shed at.
  EngineOptions eopts = sopts.engine;
  eopts.seed = QueryService::QuerySeed(sopts.base_seed, 0);
  eopts.error_bound = 1e-12;
  eopts.max_rounds = resp.result.rounds;
  const auto& ds = MiniDataset();
  ApproxEngine solo(ds.graph(), ds.reference_embedding(), eopts);
  auto expected = solo.Execute(UnsatisfiableRequest().query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(resp.result.v_hat, expected->v_hat);
  EXPECT_EQ(resp.result.moe, expected->moe);
  EXPECT_EQ(resp.result.rounds, expected->rounds);
  EXPECT_EQ(resp.result.total_draws, expected->total_draws);
  EXPECT_EQ(resp.result.correct_draws, expected->correct_draws);

  for (QueryTicket& t : queued) t.Cancel();
  service.Drain();
  EXPECT_GE(service.stats().degraded, 1u);
  ExpectStatsInvariant(service.stats());
}

// A ticket that out-waits max_queue_wait_ms in the queue is shed with a
// clean kResourceExhausted (it never ran, so there is no partial to
// return) and lands in stats().shed, not failed.
TEST_F(OverloadTest, QueuedTicketPastMaxWaitIsShed) {
  ServiceOptions sopts = LongRunServiceOptions();
  sopts.max_concurrent = 1;
  sopts.max_queue_wait_ms = 50.0;
  sopts.base_seed = 14;
  QueryService service(MiniContext(), sopts);

  QueryTicket running = service.SubmitAsync(UnsatisfiableRequest());
  AwaitRunning(running);
  QueryTicket waiting = service.SubmitAsync(UnsatisfiableRequest());

  const QueryResponse resp = waiting.Wait();
  EXPECT_EQ(resp.state, QueryState::kFailed);
  EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(resp.result.rounds, 0u);
  EXPECT_GE(resp.queue_ms, 50.0);

  running.Cancel();
  service.Drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  ExpectStatsInvariant(stats);
}

// A deadline that expires mid-run keeps the rounds it completed: the
// response is kDeadlineExceeded but carries the partial estimate and the
// degraded flag iff at least one round finished.
TEST_F(OverloadTest, MidRunDeadlineExpiryKeepsPartialEstimate) {
  ServiceOptions sopts = LongRunServiceOptions();
  sopts.base_seed = 15;
  QueryService service(MiniContext(), sopts);

  QueryRequest req = UnsatisfiableRequest();
  req.deadline_ms = 300.0;
  const QueryResponse resp = service.SubmitAsync(std::move(req)).Wait();
  EXPECT_EQ(resp.state, QueryState::kDeadlineExceeded);
  EXPECT_EQ(resp.degraded, resp.result.rounds >= 1);
  if (resp.degraded) {
    EXPECT_GT(resp.result.total_draws, 0u);
    ASSERT_NE(resp.result.v_hat, 0.0);
    EXPECT_DOUBLE_EQ(resp.result.error_bound,
                     resp.result.moe / std::abs(resp.result.v_hat));
  }
  service.Drain();
  ExpectStatsInvariant(service.stats());
}

// Regression: destroying the service while its rounds are stalled
// (fault point) with a full queue must drain every waiter
// deterministically — no hang, every ticket terminal as kCancelled.
TEST_F(OverloadTest, DestructionDuringStalledTickDrainsAllWaiters) {
  fi::Enable(21);
  fi::Arm("serve.scheduler.stall", 1.0);  // every tick parks ~10ms

  std::vector<QueryTicket> tickets;
  {
    ServiceOptions sopts = LongRunServiceOptions();
    sopts.max_concurrent = 2;
    sopts.max_queue_depth = 8;
    sopts.base_seed = 16;
    QueryService service(MiniContext(), sopts);
    for (int i = 0; i < 4; ++i) {
      tickets.push_back(service.SubmitAsync(UnsatisfiableRequest()));
    }
    AwaitRunning(tickets[0]);
    // ~QueryService fires here, in the middle of a stalled round.
  }
  EXPECT_GE(fi::FailCount("serve.scheduler.stall"), 1u);
  for (QueryTicket& t : tickets) {
    const QueryResponse resp = t.Wait();  // must not hang
    EXPECT_EQ(resp.state, QueryState::kCancelled);
  }
}

// Chaos: mixed traffic (deadlines, cancels, plain queries) against a
// bounded service with faults firing at p=0.05 on admission and inside
// rounds. Every ticket must end in exactly one terminal state, nothing
// hangs, and the stats identity holds to the last submission.
TEST_F(OverloadTest, ChaosMixedTrafficEveryQueryReachesOneTerminalState) {
  fi::Enable(777);
  fi::Arm("serve.admit.queue_full", 0.05);
  fi::Arm("serve.round.slow", 0.05);

  ServiceOptions sopts = LongRunServiceOptions();
  sopts.max_concurrent = 4;
  sopts.max_queue_depth = 8;
  sopts.max_queue_wait_ms = 200.0;
  sopts.base_seed = 17;
  QueryService service(MiniContext(), sopts);

  const auto& ds = MiniDataset();
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 40; ++i) {
    QueryRequest req;
    switch (i % 4) {
      case 0:  // quick query, loose bound
        req.query = WorkloadGenerator::SimpleQuery(ds, i % 3, 0,
                                                   AggregateFunction::kCount);
        break;
      case 1:  // long runner with a tight deadline
        req = UnsatisfiableRequest();
        req.deadline_ms = 30.0;
        break;
      case 2:  // plain mid-size query
        req.query = WorkloadGenerator::ChainQuery(ds, i % 2, 0,
                                                  AggregateFunction::kAvg);
        break;
      case 3:  // long runner cancelled below
        req = UnsatisfiableRequest();
        break;
    }
    tickets.push_back(service.SubmitAsync(std::move(req)));
    if (i % 4 == 3) tickets.back().Cancel();
  }

  size_t terminal = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryResponse resp = tickets[i].Wait();  // must not hang
    switch (resp.state) {
      case QueryState::kDone:
      case QueryState::kCancelled:
      case QueryState::kDeadlineExceeded:
        ++terminal;
        break;
      case QueryState::kFailed:
        // Only overload rejections/sheds may fail — the workload itself
        // is all-valid.
        EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted)
            << "query " << i << ": " << resp.status;
        ++terminal;
        break;
      default:
        ADD_FAILURE() << "query " << i << " not terminal: "
                      << QueryStateToString(resp.state);
    }
    // Degraded responses must carry at least one round of substance.
    if (resp.degraded) {
      EXPECT_GE(resp.result.rounds, 1u);
    }
  }
  EXPECT_EQ(terminal, tickets.size());

  service.Drain();
  ExpectStatsInvariant(service.stats());
  // The fault points actually saw traffic under this seed.
  EXPECT_GT(fi::HitCount("serve.admit.queue_full"), 0u);
  EXPECT_GT(fi::HitCount("serve.round.slow"), 0u);
}

// With injection disabled, armed points are inert: a bounded service
// behaves exactly like the unbounded legacy path for a workload that
// never fills the queue.
TEST_F(OverloadTest, FaultsDisabledBoundedServiceMatchesUnbounded) {
  const auto& ds = MiniDataset();
  std::vector<AggregateQuery> workload;
  for (int i = 0; i < 4; ++i) {
    workload.push_back(WorkloadGenerator::SimpleQuery(
        ds, i % 3, 0, AggregateFunction::kCount));
  }

  ServiceOptions unbounded;
  unbounded.max_concurrent = 2;
  unbounded.base_seed = 18;
  auto a = QueryService::RunBatch(MiniContext(), workload, unbounded);

  ServiceOptions bounded = unbounded;
  bounded.max_queue_depth = 64;  // never approached
  bounded.max_queue_wait_ms = 60000.0;
  auto b = QueryService::RunBatch(MiniContext(), workload, bounded);

  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    EXPECT_EQ(a[i]->v_hat, b[i]->v_hat) << "query " << i;
    EXPECT_EQ(a[i]->moe, b[i]->moe) << "query " << i;
    EXPECT_EQ(a[i]->rounds, b[i]->rounds) << "query " << i;
    EXPECT_EQ(a[i]->total_draws, b[i]->total_draws) << "query " << i;
  }
}

}  // namespace
}  // namespace kgaq
