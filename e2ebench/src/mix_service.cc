// mix_service: closed loop from kClients client threads into one
// QueryService at width kClients over a warm EngineContext, on the
// DBpedia profile's default 37-query mix plus a zero-answer and a
// tiny-answer query.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "datagen/kg_generator.h"
#include "workload.h"

namespace e2ebench {

using kgaq::EngineContext;
using kgaq::QueryRequest;
using kgaq::QueryResponse;
using kgaq::QueryService;
using kgaq::QueryTicket;

namespace {

/// Seed variants per light base query. A light query costs tens of ms,
/// so the variants the window does not reach are cheap to complete, and
/// they give the quality metrics a few hundred estimates.
constexpr size_t kLightVariants = 6;
/// Seed variants per GROUP-BY query: about the passes of them a 30 s
/// window covers (completing one costs up to 5 s).
constexpr size_t kHeavyVariants = 3;

struct MixDeployment {
  // Declared in dependency order: the context borrows the dataset's
  // graph, the service shares the context.
  std::unique_ptr<kgaq::GeneratedDataset> ds;
  std::shared_ptr<const EngineContext> ctx;
  std::unique_ptr<QueryService> service;
  std::vector<BenchQuery> base;     ///< oracle order
  std::vector<BenchQuery> queries;  ///< seed variants of `base`
  /// The items the workload runs: every light variant, and the first
  /// kHeavyVariants of each GROUP-BY query.
  std::vector<bool> active;
  std::vector<Census> census;
};

void SetUp(const Options& opts, MixDeployment& d) {
  d.service.reset();  // dependents first: service, context, dataset
  d.ctx.reset();
  d.ds.reset();
  auto ds = kgaq::KgGenerator::Generate(kgaq::DatasetProfile::Dbpedia());
  if (!ds.ok()) Fatal(ds.status().ToString());
  d.ds = std::make_unique<kgaq::GeneratedDataset>(std::move(*ds));
  d.ctx = std::make_shared<EngineContext>(d.ds->graph(),
                                          d.ds->reference_embedding());
  d.base = GeneratedMix(*d.ds);
  const kgaq::Status st = AddEdgeCaseQueries(*d.ds, d.ctx, d.base);
  if (!st.ok()) Fatal(st.ToString());
  d.queries = SeedVariants(d.base, kLightVariants, opts.seed);
  d.active = ActiveItems(d.queries, d.base.size(), kHeavyVariants);
  d.census = CensusPass(d.ctx, d.base);  // warm-up pass
  kgaq::ServiceOptions so;
  so.max_concurrent = kClients;
  so.base_seed = opts.seed;
  d.service = std::make_unique<QueryService>(d.ctx, so);
}

struct MixWindow {
  WindowStats stats;
  std::vector<double> queue_ms;  ///< every terminal response in the window
  std::vector<std::pair<size_t, double>> run_ms;  ///< answered: query, ms
};

/// One closed-loop window, client 0 running the GROUP-BY queries (see
/// ClientSequences). Queries still in flight when the window closes are
/// cancelled and count neither as attempted nor as answered.
MixWindow RunWindow(MixDeployment& d, const Options& opts, uint64_t salt,
                    Tracer& tracer, AnswerLog& log) {
  MixWindow out;
  out.stats.seconds = opts.seconds;
  const ClientSequences seqs =
      MakeClientSequences(d.base, kLightVariants, kHeavyVariants, 64,
                          QueryService::QuerySeed(opts.seed, salt));
  std::atomic<size_t> next_heavy{0}, next_light{0};
  const auto start = Clock::now();
  const auto end = AddMs(start, opts.seconds * 1000.0);
  std::mutex mu;
  std::vector<QueryTicket> in_flight(kClients);  // guarded by mu

  auto client = [&](size_t c) {
    const std::vector<size_t>& seq = c == 0 ? seqs.heavy : seqs.light;
    std::atomic<size_t>& next = c == 0 ? next_heavy : next_light;
    for (size_t pos = next++; pos < seq.size() && Clock::now() < end;
         pos = next++) {
      const size_t q = seq[pos];
      QueryRequest req;
      req.query = d.queries[q].query;
      req.seed = d.queries[q].seed;
      const uint64_t request = (c == 0 ? 1'000'000 : 0) + pos + 1;
      const auto t0 = Clock::now();
      QueryTicket ticket = d.service->SubmitAsync(std::move(req));
      {
        std::lock_guard<std::mutex> lock(mu);
        in_flight[c] = ticket;
      }
      const QueryResponse resp = ticket.Wait();
      const auto t1 = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu);
        in_flight[c] = QueryTicket{};
      }
      if (IsAnswered(resp)) log.Add(q, resp.result, "service");
      if (t1 > end) break;
      std::lock_guard<std::mutex> lock(mu);
      ++out.stats.attempted;
      out.queue_ms.push_back(resp.queue_ms);
      if (IsAnswered(resp)) {
        ++out.stats.answered;
        out.stats.latency_ms.push_back(MsBetween(t0, t1));
        out.run_ms.emplace_back(q, resp.run_ms);
      } else {
        ++out.stats.failures[FailureCause(resp)];
      }
      const uint64_t span = tracer.Record("client.query", request, 0, t0, t1);
      RecordServiceSpans(tracer, request, span, t0, resp.queue_ms,
                         resp.run_ms);
    }
  };

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  std::this_thread::sleep_until(end);
  {
    std::lock_guard<std::mutex> lock(mu);
    for (QueryTicket& t : in_flight) {
      if (t.valid()) t.Cancel();
    }
  }
  for (std::thread& t : clients) t.join();
  d.service->Drain();
  return out;
}

/// Runs every active item that has no answer yet, all at once, untimed.
void Complete(MixDeployment& d, AnswerLog& log) {
  std::vector<std::pair<size_t, QueryTicket>> tickets;
  for (size_t q = 0; q < d.queries.size(); ++q) {
    if (!d.active[q] || log.Has(q)) continue;
    QueryRequest req;
    req.query = d.queries[q].query;
    req.seed = d.queries[q].seed;
    tickets.emplace_back(q, d.service->SubmitAsync(std::move(req)));
  }
  for (auto& [q, t] : tickets) {
    const QueryResponse resp = t.Wait();
    if (IsAnswered(resp)) log.Add(q, resp.result, "completion");
  }
  d.service->Drain();
}

}  // namespace

RunOutput RunMixService(const Options& opts) {
  RunOutput out;
  MixDeployment d;
  const double setup_s = TimeSetup([&] { SetUp(opts, d); });

  AnswerLog log;
  Tracer off(false);
  const MixWindow untraced = RunWindow(d, opts, 0, off, log);
  const double peak_rss_mb = PeakRssMb();
  // The tau-GT oracle runs after the peak is read: it is no part of the
  // deployment. (The census is: it is the set-up's warm-up pass.)
  const std::vector<TauGt> tau_gt = TauGroundTruth(*d.ds, d.base);

  Tracer tracer(opts.trace);
  MixWindow traced;
  QueryService::ServiceStats before{}, after{};
  EngineContext::CacheStats cache_before{}, cache_after{};
  if (opts.trace) {
    before = d.service->stats();
    cache_before = d.ctx->Stats();
    traced = RunWindow(d, opts, 1, tracer, log);
    after = d.service->stats();
    cache_after = d.ctx->Stats();
  }
  Complete(d, log);

  const auto answers = log.answers();
  if (!opts.trace) out.checks.Merge(log.errors());
  out.checks.Expect(answers.size() == static_cast<size_t>(std::count(
                                          d.active.begin(), d.active.end(), true)),
                    "not every mix query got an answer");
  const QueryService::ServiceStats final_stats = d.service->stats();
  out.checks.Expect(IdentityHolds(final_stats),
                    "service accounting identity violated");

  out.quality = ComputeQuality(d.queries, d.census, tau_gt, answers, {});
  AddEndToEnd(out.e2e, untraced.stats, out.quality, setup_s, peak_rss_mb);
  out.attempted = untraced.stats.attempted;
  out.failed = Unanswered(untraced.stats);
  if (!opts.trace) return out;

  Report traced_e2e;
  AddEndToEnd(traced_e2e, traced.stats, out.quality, setup_s, peak_rss_mb);
  const std::vector<SoloRun> solo =
      SoloReplay(d.ctx, d.queries, d.base.size(), tracer, log);
  AddCoreLayers(out.layers, solo, cache_before, cache_after,
                kgaq::EngineOptions{}.max_total_draws);
  AddServeLayers(out.layers, traced.queue_ms, traced.run_ms, solo, before,
                 after);
  const std::vector<size_t> probe = ProbeQueries(d.queries, 6);
  HttpProbe(d.ctx, d.queries, probe, solo, tracer, out.layers, out.checks,
            log);
  ShardProbe(*d.ds, d.queries, probe, solo, tracer, out.layers, out.checks,
             log);
  out.checks.Merge(log.errors());
  FinishTrace(out.layers, out.e2e, traced_e2e, tracer, opts);
  return out;
}

}  // namespace e2ebench
