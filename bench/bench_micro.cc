// Micro-benchmarks (google-benchmark) for the pipeline's hot paths:
// weighted draws (alias vs the replaced CDF binary search), vector kernels
// (scalar vs vectorized), transition-model construction, the closed-form
// stationary distribution, answer draws, greedy validation, HT estimation,
// and the Poissonized BLB. Results are also written to BENCH_micro.json.
#define KGAQ_BENCH_USE_GOOGLE_BENCHMARK 1
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "core/engine_context.h"
#include "core/greedy_validator.h"
#include "embedding/trainer.h"
#include "embedding/trainer_internal.h"
#include "embedding/vector_ops.h"
#include "estimate/bootstrap.h"
#include "estimate/ht_estimator.h"
#include "kg/bfs.h"
#include "kg/graph_builder.h"
#include "kg/snapshot.h"
#include "kg/tsv_loader.h"
#include "sampling/alias_table.h"
#include "sampling/answer_sampler.h"
#include "sampling/random_walk.h"
#include "serve/query_service.h"

namespace {

using namespace kgaq;
using namespace kgaq::bench;

struct MicroFixture {
  const GeneratedDataset& ds = Dataset("DBpedia");
  const KnowledgeGraph& g = ds.graph();
  NodeId hub = ds.hubs()[0];
  PredicateId pred = g.PredicateIdOf(ds.domains()[0].query_predicate);
  PredicateSimilarityCache sims{ds.reference_embedding(), pred};
  BoundedSubgraph scope = BoundedBfs(g, hub, 3);
};

MicroFixture& Fixture() {
  static MicroFixture* f = new MicroFixture();
  return *f;
}

void BM_BoundedBfs(benchmark::State& state) {
  auto& f = Fixture();
  for (auto _ : state) {
    auto scope = BoundedBfs(f.g, f.hub, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(scope.nodes.size());
  }
}
BENCHMARK(BM_BoundedBfs)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_TransitionModelBuild(benchmark::State& state) {
  auto& f = Fixture();
  for (auto _ : state) {
    TransitionModel tm(f.g, f.scope, f.sims);
    benchmark::DoNotOptimize(tm.NumScopeNodes());
  }
}
BENCHMARK(BM_TransitionModelBuild);

// Memory audit (ROADMAP): resident bytes per arc of the default model
// (CSR + alias rows) and with the optional CDF view.
void BM_TransitionModelViews(benchmark::State& state) {
  auto& f = Fixture();
  TransitionOptions opts;
  opts.keep_cdf = state.range(0) == 1;
  for (auto _ : state) {
    TransitionModel tm(f.g, f.scope, f.sims, opts);
    benchmark::DoNotOptimize(tm.MemoryBytes());
  }
  TransitionModel tm(f.g, f.scope, f.sims, opts);
  state.counters["bytes"] = static_cast<double>(tm.MemoryBytes());
  state.counters["arcs"] = static_cast<double>(tm.NumArcs());
  state.counters["bytes_per_arc"] =
      static_cast<double>(tm.MemoryBytes()) /
      static_cast<double>(tm.NumArcs());
}
BENCHMARK(BM_TransitionModelViews)->Arg(0)->Arg(1)->ArgName("cdf");

void BM_StationaryDistribution(benchmark::State& state) {
  auto& f = Fixture();
  TransitionModel tm(f.g, f.scope, f.sims);
  for (auto _ : state) {
    auto st = ComputeStationaryDistribution(tm);
    benchmark::DoNotOptimize(st.pi.data());
  }
}
BENCHMARK(BM_StationaryDistribution);

void BM_WalkStepExactVsRejection(benchmark::State& state) {
  auto& f = Fixture();
  TransitionModel tm(f.g, f.scope, f.sims);
  Rng rng(1);
  size_t cur = tm.SourceLocal();
  const bool rejection = state.range(0) == 1;
  for (auto _ : state) {
    cur = rejection ? tm.SampleNextRejection(cur, rng)
                    : tm.SampleNext(cur, rng);
    benchmark::DoNotOptimize(cur);
  }
}
BENCHMARK(BM_WalkStepExactVsRejection)->Arg(0)->Arg(1);

// ---------- walk steps across node degrees: alias vs CDF rows ----------

// Star KG with the hub's row spanning `degree` heterogeneous arcs: the
// worst case for the replaced per-step lower_bound, the common case for
// hub-rooted scopes on real KGs.
struct StarFixture {
  KnowledgeGraph g;
  std::unique_ptr<FixedEmbedding> embedding;
  std::unique_ptr<PredicateSimilarityCache> sims;
  std::unique_ptr<TransitionModel> tm;
};

StarFixture& Star(size_t degree) {
  static std::map<size_t, std::unique_ptr<StarFixture>> cache;
  auto it = cache.find(degree);
  if (it == cache.end()) {
    constexpr int kNumPredicates = 16;
    GraphBuilder b;
    NodeId hub = b.AddNode("hub", {"Hub"});
    for (size_t i = 0; i < degree; ++i) {
      NodeId leaf = b.AddNode("leaf" + std::to_string(i), {"Leaf"});
      b.AddEdge(leaf, "rel" + std::to_string(i % kNumPredicates), hub);
    }
    auto built = std::move(b).Build();
    auto f = std::unique_ptr<StarFixture>(
        new StarFixture{std::move(*built), nullptr, nullptr, nullptr});
    f->embedding = std::make_unique<FixedEmbedding>(
        "star", f->g.NumNodes(), f->g.NumPredicates(), 4, 8);
    Rng rng(29);
    for (int p = 0; p < kNumPredicates; ++p) {
      auto v = f->embedding->MutablePredicateVector(
          f->g.PredicateIdOf("rel" + std::to_string(p)));
      const double cos = 0.05 + 0.9 * rng.NextDouble();
      v[0] = static_cast<float>(cos);
      v[1 + p % 7] = static_cast<float>(std::sqrt(1.0 - cos * cos));
    }
    f->sims = std::make_unique<PredicateSimilarityCache>(
        *f->embedding, f->g.PredicateIdOf("rel0"));
    auto scope = BoundedBfs(f->g, hub, 1);
    TransitionOptions topts;
    topts.keep_cdf = true;  // BM_WalkStepCdfByDegree times the stored CDF
    f->tm = std::make_unique<TransitionModel>(f->g, scope, *f->sims, topts);
    it = cache.emplace(degree, std::move(f)).first;
  }
  return *it->second;
}

void BM_WalkStepAliasByDegree(benchmark::State& state) {
  auto& f = Star(static_cast<size_t>(state.range(0)));
  Rng rng(31);
  const size_t hub = f.tm->SourceLocal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tm->SampleNext(hub, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalkStepAliasByDegree)
    ->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_WalkStepCdfByDegree(benchmark::State& state) {
  auto& f = Star(static_cast<size_t>(state.range(0)));
  Rng rng(31);
  const size_t hub = f.tm->SourceLocal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tm->SampleNextCdf(hub, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalkStepCdfByDegree)
    ->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_WalkStepRejectionByDegree(benchmark::State& state) {
  auto& f = Star(static_cast<size_t>(state.range(0)));
  Rng rng(31);
  const size_t hub = f.tm->SourceLocal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tm->SampleNextRejection(hub, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalkStepRejectionByDegree)
    ->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_GreedyValidationSharded(benchmark::State& state) {
  auto& f = Fixture();
  TransitionModel tm(f.g, f.scope, f.sims);
  auto st = ComputeStationaryDistribution(tm);
  GreedyValidator::Options opts;
  GreedyValidator v(f.g, tm, st.pi, f.sims, opts);
  const size_t shards = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto matches = shards <= 1 ? v.ComputeAllMatchesSerial()
                               : v.ComputeAllMatchesSharded(500000, shards);
    benchmark::DoNotOptimize(matches.data());
  }
}
BENCHMARK(BM_GreedyValidationSharded)->Arg(1)->Arg(4)->Arg(8);

void BM_AnswerDraw(benchmark::State& state) {
  auto& f = Fixture();
  TransitionModel tm(f.g, f.scope, f.sims);
  auto st = ComputeStationaryDistribution(tm);
  std::vector<TypeId> types = {
      f.g.TypeIdOf(f.ds.domains()[0].answer_type)};
  AnswerSampler sampler(f.g, tm, st.pi, types);
  Rng rng(2);
  for (auto _ : state) {
    auto draws = sampler.Draw(64, rng);
    benchmark::DoNotOptimize(draws.data());
  }
}
BENCHMARK(BM_AnswerDraw);

void BM_GreedyValidationBatch(benchmark::State& state) {
  auto& f = Fixture();
  TransitionModel tm(f.g, f.scope, f.sims);
  auto st = ComputeStationaryDistribution(tm);
  GreedyValidator::Options opts;
  GreedyValidator v(f.g, tm, st.pi, f.sims, opts);
  for (auto _ : state) {
    auto matches = v.ComputeAllMatches();
    benchmark::DoNotOptimize(matches.data());
  }
}
BENCHMARK(BM_GreedyValidationBatch);

// ---------- persistence: TSV parse vs binary snapshot load ----------

struct PersistenceFixture {
  std::string tsv_path;
  std::string snap_path;
};

PersistenceFixture& Persistence() {
  static PersistenceFixture* f = [] {
    auto* out = new PersistenceFixture;
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string base = tmpdir != nullptr ? tmpdir : "/tmp";
    out->tsv_path = base + "/kgaq_bench_kg.tsv";
    out->snap_path = base + "/kgaq_bench_kg.snap";
    const auto& ds = Dataset("DBpedia");
    if (!TsvLoader::SaveFile(ds.graph(), out->tsv_path).ok() ||
        !SaveEngineSnapshot(ds.graph(), &ds.reference_embedding(),
                            out->snap_path)
             .ok()) {
      std::fprintf(stderr, "persistence fixture setup failed\n");
      std::abort();
    }
    return out;
  }();
  return *f;
}

void BM_KgTsvParse(benchmark::State& state) {
  auto& f = Persistence();
  size_t nodes = 0;
  for (auto _ : state) {
    auto g = TsvLoader::LoadFile(f.tsv_path);
    nodes = g.ok() ? g->NumNodes() : 0;
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_KgTsvParse);

void BM_KgSnapshotLoad(benchmark::State& state) {
  auto& f = Persistence();
  size_t nodes = 0;
  for (auto _ : state) {
    auto g = LoadKgSnapshot(f.snap_path);
    nodes = g.ok() ? g->NumNodes() : 0;
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_KgSnapshotLoad);

// Combined graph + embedding load into a ready-to-serve EngineContext.
void BM_EngineSnapshotLoad(benchmark::State& state) {
  auto& f = Persistence();
  for (auto _ : state) {
    auto ctx = EngineContext::LoadFromSnapshot(f.snap_path);
    benchmark::DoNotOptimize(ctx.ok());
  }
}
BENCHMARK(BM_EngineSnapshotLoad);

// ---------- serving: per-query cold engines vs resident QueryService ----------

struct ServeBenchFixture {
  std::shared_ptr<EngineContext> ctx;
  std::vector<AggregateQuery> workload;
};

ServeBenchFixture& ServeBench() {
  static ServeBenchFixture* f = [] {
    auto* out = new ServeBenchFixture;
    const auto& ds = Dataset("DBpedia");
    out->ctx = std::make_shared<EngineContext>(ds.graph(),
                                               ds.reference_embedding());
    for (size_t d = 0; d < 3; ++d) {
      out->workload.push_back(WorkloadGenerator::SimpleQuery(
          ds, d, 0, AggregateFunction::kAvg));
      out->workload.push_back(WorkloadGenerator::SimpleQuery(
          ds, d, 1, AggregateFunction::kCount));
    }
    return out;
  }();
  return *f;
}

// Baseline: the pre-serving architecture — one cold ApproxEngine (private
// context, nothing shared) per query, run serially.
void BM_ServeColdEnginesSerial(benchmark::State& state) {
  auto& f = ServeBench();
  const auto& ds = Dataset("DBpedia");
  for (auto _ : state) {
    for (size_t i = 0; i < f.workload.size(); ++i) {
      EngineOptions opts;
      opts.seed = QueryService::QuerySeed(5, i);
      ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
      auto r = engine.Execute(f.workload[i]);
      benchmark::DoNotOptimize(r.ok());
    }
  }
  state.counters["queries"] = static_cast<double>(f.workload.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.workload.size()));
}
BENCHMARK(BM_ServeColdEnginesSerial);

// The resident engine: one shared EngineContext, rounds interleaved at
// the requested admission width (1 = serial sessions over warm shared
// state; 8 = the concurrent service).
void BM_ServeSharedContext(benchmark::State& state) {
  auto& f = ServeBench();
  ServiceOptions sopts;
  sopts.base_seed = 5;
  sopts.max_concurrent = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto results = QueryService::RunBatch(f.ctx, f.workload, sopts);
    benchmark::DoNotOptimize(results.size());
  }
  state.counters["queries"] = static_cast<double>(f.workload.size());
  state.counters["pool_threads"] =
      static_cast<double>(GlobalPool().num_threads());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.workload.size()));
}
BENCHMARK(BM_ServeSharedContext)->Arg(1)->Arg(8)->ArgName("width");

// ---------- memory governance: governed-cache churn overhead ----------

// Hot-path cost of the governed cache (core/cache_governor.h) under
// steady-state churn: a working set of 256 ~8 KB entries cycled through
// a cache whose budget holds either all of them (arg 0: pure hit path +
// budget bookkeeping) or a quarter (arg 1: cyclic scans are LRU's worst
// case, so nearly every access evicts and rebuilds at the margin).
void BM_GovernedCacheChurn(benchmark::State& state) {
  constexpr size_t kEntries = 256;
  constexpr size_t kDoubles = 1024;  // 8 KB payload per entry
  const bool tight = state.range(0) != 0;
  CacheBudgetOptions bopts;
  bopts.budget_bytes =
      tight ? kEntries * kDoubles * sizeof(double) / 4 : 0;
  auto budget = std::make_shared<CacheBudget>(bopts);
  GovernedCache<int, std::vector<double>> cache(
      budget,
      [](const std::vector<double>& v) { return v.size() * sizeof(double); });
  uint64_t builds = 0;
  int key = 0;
  for (auto _ : state) {
    auto v = cache.GetOrBuild(key, [&] {
      ++builds;
      return std::make_shared<std::vector<double>>(kDoubles, 1.0);
    });
    benchmark::DoNotOptimize(v->size());
    key = (key + 1) % static_cast<int>(kEntries);
  }
  const auto cstats = cache.Stats();
  state.counters["rebuild_rate"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(builds) /
                static_cast<double>(state.iterations());
  state.counters["evictions"] = static_cast<double>(cstats.evictions);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GovernedCacheChurn)->Arg(0)->Arg(1)->ArgName("tight_budget");

// ---------- serving: per-query latency percentiles, async vs batch ----------

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

// Async scheduler: per-query latency is submission -> terminal as seen by
// the ticket (includes queue wait), aggregated to p50/p95/p99 across
// every query of every iteration.
void BM_ServeAsyncLatency(benchmark::State& state) {
  auto& f = ServeBench();
  ServiceOptions sopts;
  sopts.base_seed = 5;
  sopts.max_concurrent = static_cast<size_t>(state.range(0));
  std::vector<double> latencies;
  for (auto _ : state) {
    QueryService service(f.ctx, sopts);
    std::vector<QueryTicket> tickets;
    tickets.reserve(f.workload.size());
    for (const AggregateQuery& q : f.workload) {
      QueryRequest req;
      req.query = q;
      tickets.push_back(service.SubmitAsync(std::move(req)));
    }
    for (QueryTicket& t : tickets) {
      const QueryResponse resp = t.Wait();
      latencies.push_back(resp.queue_ms + resp.run_ms);
      benchmark::DoNotOptimize(resp.result.v_hat);
    }
  }
  state.counters["p50_ms"] = Percentile(latencies, 0.50);
  state.counters["p95_ms"] = Percentile(latencies, 0.95);
  state.counters["p99_ms"] = Percentile(latencies, 0.99);
  state.counters["queries"] = static_cast<double>(f.workload.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.workload.size()));
}
BENCHMARK(BM_ServeAsyncLatency)->Arg(1)->Arg(8)->ArgName("width");

// Legacy batch path for comparison: RunAll exposes no per-query
// completion times, so each query's "latency" is the whole batch wall
// time — exactly the head-of-line cost SubmitAsync exists to remove.
void BM_ServeBatchLatency(benchmark::State& state) {
  auto& f = ServeBench();
  ServiceOptions sopts;
  sopts.base_seed = 5;
  sopts.max_concurrent = static_cast<size_t>(state.range(0));
  std::vector<double> latencies;
  for (auto _ : state) {
    WallTimer timer;
    auto results = QueryService::RunBatch(f.ctx, f.workload, sopts);
    const double batch_ms = timer.ElapsedMillis();
    for (size_t i = 0; i < results.size(); ++i) {
      latencies.push_back(batch_ms);
    }
    benchmark::DoNotOptimize(results.size());
  }
  state.counters["p50_ms"] = Percentile(latencies, 0.50);
  state.counters["p95_ms"] = Percentile(latencies, 0.95);
  state.counters["p99_ms"] = Percentile(latencies, 0.99);
  state.counters["queries"] = static_cast<double>(f.workload.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.workload.size()));
}
BENCHMARK(BM_ServeBatchLatency)->Arg(1)->Arg(8)->ArgName("width");

// ---------- weighted draws: alias table vs the replaced CDF path ----------

const std::vector<double>& BenchWeights(size_t n) {
  static std::map<size_t, std::vector<double>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(17);
    std::vector<double> w(n);
    for (double& x : w) x = 0.05 + rng.NextDouble();
    it = cache.emplace(n, std::move(w)).first;
  }
  return it->second;
}

void BM_WeightedDrawAlias(benchmark::State& state) {
  const auto& weights = BenchWeights(static_cast<size_t>(state.range(0)));
  AliasTable table{std::span<const double>(weights)};
  Rng rng(23);
  std::vector<size_t> out;
  for (auto _ : state) {
    table.Draw(1024, rng, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_WeightedDrawAlias)
    ->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_WeightedDrawCdf(benchmark::State& state) {
  // The pre-alias hot path: one lower_bound over the cumulative
  // distribution per draw (O(log n)).
  const auto& weights = BenchWeights(static_cast<size_t>(state.range(0)));
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<double> cumulative(weights.size());
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] / total;
    cumulative[i] = acc;
  }
  cumulative.back() = 1.0;
  Rng rng(23);
  std::vector<size_t> out;
  for (auto _ : state) {
    out.clear();
    for (size_t i = 0; i < 1024; ++i) {
      auto it = std::lower_bound(cumulative.begin(), cumulative.end(),
                                 rng.NextDouble());
      if (it == cumulative.end()) --it;
      out.push_back(static_cast<size_t>(it - cumulative.begin()));
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_WeightedDrawCdf)
    ->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_AliasTableBuild(benchmark::State& state) {
  const auto& weights = BenchWeights(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    AliasTable table{std::span<const double>(weights)};
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_AliasTableBuild)->Arg(1000)->Arg(100000);

// ---------- vector kernels: scalar reference vs shipped ----------

std::vector<float> BenchVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

void BM_DotScalar(benchmark::State& state) {
  const auto a = BenchVector(static_cast<size_t>(state.range(0)), 1);
  const auto b = BenchVector(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scalar::Dot(a, b));
  }
}
BENCHMARK(BM_DotScalar)->Arg(64)->Arg(256)->Arg(1024);

void BM_DotVectorized(benchmark::State& state) {
  const auto a = BenchVector(static_cast<size_t>(state.range(0)), 1);
  const auto b = BenchVector(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a, b));
  }
}
BENCHMARK(BM_DotVectorized)->Arg(64)->Arg(256)->Arg(1024);

void BM_CosineScalar(benchmark::State& state) {
  const auto a = BenchVector(static_cast<size_t>(state.range(0)), 3);
  const auto b = BenchVector(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scalar::CosineSimilarity(a, b));
  }
}
BENCHMARK(BM_CosineScalar)->Arg(64)->Arg(256)->Arg(1024);

void BM_CosineVectorized(benchmark::State& state) {
  const auto a = BenchVector(static_cast<size_t>(state.range(0)), 3);
  const auto b = BenchVector(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CosineSimilarity(a, b));
  }
}
BENCHMARK(BM_CosineVectorized)->Arg(64)->Arg(256)->Arg(1024);

void BM_CosineSimilarityMany(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t dim = 128;
  const auto query = BenchVector(dim, 5);
  const auto matrix = BenchVector(rows * dim, 6);
  std::vector<double> out(rows);
  for (auto _ : state) {
    CosineSimilarityMany(query, matrix, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_CosineSimilarityMany)->Arg(100)->Arg(1000);

// ---------- embedding training: legacy scalar step vs fused kernels ----------

using embedding_internal::CorruptTriple;
using embedding_internal::Triple;

struct TransEKernelFixture {
  std::unique_ptr<FixedEmbedding> emb;
  std::vector<Triple> triples;
  std::vector<Triple> negatives;  // pre-drawn so rng cost stays out
};

TransEKernelFixture& TransEKernel() {
  static TransEKernelFixture* f = [] {
    auto* out = new TransEKernelFixture;
    const auto& ds = Dataset("DBpedia");
    out->triples = embedding_internal::ExtractTriples(ds.graph());
    constexpr size_t kDim = 32;  // the EmbeddingTrainConfig default
    out->emb = std::make_unique<FixedEmbedding>(
        "bench", ds.graph().NumNodes(), ds.graph().NumPredicates(), kDim,
        kDim);
    Rng rng(51);
    for (NodeId u = 0; u < ds.graph().NumNodes(); ++u) {
      auto v = out->emb->MutableEntityVector(u);
      for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
      NormalizeInPlace(v);
    }
    for (PredicateId p = 0; p < ds.graph().NumPredicates(); ++p) {
      auto v = out->emb->MutablePredicateVector(p);
      for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
      NormalizeInPlace(v);
    }
    out->negatives.reserve(out->triples.size());
    for (const Triple& t : out->triples) {
      out->negatives.push_back(
          CorruptTriple(t, out->emb->num_entities(), rng));
    }
    return out;
  }();
  return *f;
}

// The pre-refactor scalar inner loop, kept verbatim as the baseline the
// fused SquaredL2Diff / SaxpyTriple kernels are measured against.
double LegacyTransEDistance(FixedEmbedding& m, const Triple& t) {
  auto h = m.EntityVector(t.head);
  auto r = m.PredicateVector(t.relation);
  auto tt = m.EntityVector(t.tail);
  double acc = 0.0;
  for (size_t i = 0; i < h.size(); ++i) {
    const double d = static_cast<double>(h[i]) + r[i] - tt[i];
    acc += d * d;
  }
  return acc;
}

void LegacyTransEStep(FixedEmbedding& m, const Triple& t, double lr,
                      double sign) {
  auto h = m.MutableEntityVector(t.head);
  auto r = m.MutablePredicateVector(t.relation);
  auto tt = m.MutableEntityVector(t.tail);
  const size_t d = h.size();
  for (size_t i = 0; i < d; ++i) {
    const double g = 2.0 * (static_cast<double>(h[i]) + r[i] - tt[i]);
    const double step = lr * sign * g;
    h[i] -= static_cast<float>(step);
    r[i] -= static_cast<float>(step);
    tt[i] += static_cast<float>(step);
  }
}

// One margin-ranking pair exactly as the trainer executes it: corrupt,
// two distances, hinge, and (when active) the two SGD steps.
void BM_TransEStepScalar(benchmark::State& state) {
  auto& f = TransEKernel();
  constexpr double kMargin = 1.0, kLr = 0.05;
  size_t i = 0;
  for (auto _ : state) {
    const Triple& pos = f.triples[i];
    const Triple& neg = f.negatives[i];
    i = i + 1 == f.triples.size() ? 0 : i + 1;
    const double dp = LegacyTransEDistance(*f.emb, pos);
    const double dn = LegacyTransEDistance(*f.emb, neg);
    const double loss = kMargin + dp - dn;
    if (loss > 0.0) {
      LegacyTransEStep(*f.emb, pos, kLr, +1.0);
      LegacyTransEStep(*f.emb, neg, kLr, -1.0);
    }
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransEStepScalar);

void BM_TransEStepVectorized(benchmark::State& state) {
  auto& f = TransEKernel();
  constexpr double kMargin = 1.0, kLr = 0.05;
  std::vector<double> resid(f.emb->entity_dim());
  size_t i = 0;
  for (auto _ : state) {
    const Triple& pos = f.triples[i];
    const Triple& neg = f.negatives[i];
    i = i + 1 == f.triples.size() ? 0 : i + 1;
    // The trainer's hoisted-span + fused-kernel path: the positive's
    // residual is computed once by the distance and reused by its step.
    auto ph = f.emb->MutableEntityVector(pos.head);
    auto pr = f.emb->MutablePredicateVector(pos.relation);
    auto pt = f.emb->MutableEntityVector(pos.tail);
    auto nh = f.emb->MutableEntityVector(neg.head);
    auto nr = f.emb->MutablePredicateVector(neg.relation);
    auto nt = f.emb->MutableEntityVector(neg.tail);
    const double dp = SquaredL2DiffResidual(ph, pr, pt, resid);
    const double dn = SquaredL2Diff(nh, nr, nt);
    const double loss = kMargin + dp - dn;
    if (loss > 0.0) {
      SaxpyTripleFromResidual(ph, pr, pt, resid, kLr);
      SaxpyTriple(nh, nr, nt, -kLr);
    }
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransEStepVectorized);

// Whole-trainer throughput across the scheduling modes (TransE, Table
// XIII dim): 0 = sequential legacy recipe, 1 = deterministic mini-batch
// on the serial fallback, 2 = deterministic mini-batch over GlobalPool(),
// 3 = hogwild over GlobalPool(). On a 1-core runner 1 vs 2 measures the
// pool overhead (expected neutral); with real cores 2 and 3 scale.
void BM_EmbeddingTrainModes(benchmark::State& state) {
  const auto& ds = Dataset("DBpedia");
  EmbeddingTrainConfig cfg;
  cfg.dim = 24;
  cfg.epochs = 2;
  cfg.negatives_per_positive = 2;
  switch (state.range(0)) {
    case 0:
      break;
    case 1:
      cfg.minibatch.batch_size = 2048;
      cfg.minibatch.min_parallel_triples = static_cast<size_t>(-1);
      break;
    case 2:
      cfg.minibatch.batch_size = 2048;
      cfg.minibatch.min_parallel_triples = 0;
      break;
    case 3:
      cfg.minibatch.mode = TrainMode::kHogwild;
      cfg.minibatch.min_parallel_triples = 0;
      break;
  }
  EmbeddingTrainStats stats;
  for (auto _ : state) {
    auto model = TrainTransE(ds.graph(), cfg, &stats);
    benchmark::DoNotOptimize(model.ok());
  }
  state.counters["triples_per_s"] = stats.triples_per_second;
  state.counters["threads_used"] = static_cast<double>(stats.threads_used);
  state.counters["pool_threads"] =
      static_cast<double>(GlobalPool().num_threads());
  state.counters["num_triples"] = static_cast<double>(stats.num_triples);
}
BENCHMARK(BM_EmbeddingTrainModes)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->ArgName("mode");

std::vector<SampleItem> MakeItems(size_t n) {
  Rng rng(3);
  std::vector<SampleItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    items[i].node = static_cast<NodeId>(i);
    items[i].value = 10.0 + rng.NextDouble() * 5;
    items[i].pi = 0.001 + rng.NextDouble() * 0.01;
    items[i].correct = rng.NextBernoulli(0.3);
  }
  return items;
}

void BM_HtEstimate(benchmark::State& state) {
  auto items = MakeItems(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HtEstimator::Estimate(AggregateFunction::kAvg, items));
  }
}
BENCHMARK(BM_HtEstimate)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BagOfLittleBootstraps(benchmark::State& state) {
  auto items = MakeItems(static_cast<size_t>(state.range(0)));
  Rng rng(4);
  for (auto _ : state) {
    auto blb = BagOfLittleBootstraps(items, AggregateFunction::kAvg, 0.95,
                                     {}, rng);
    benchmark::DoNotOptimize(blb.moe);
  }
}
BENCHMARK(BM_BagOfLittleBootstraps)
    ->Arg(100)
    ->Arg(300)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  return kgaq::bench::RunBenchmarksWithJsonDefault(argc, argv,
                                                   "BENCH_micro.json");
}
