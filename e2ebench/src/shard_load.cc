// shard_http: the DBpedia KG cut into 2 shards, each ShardNode behind its
// own loopback HttpServer with default options, and a closed loop of
// kClients clients, each driving its own deterministic-merge Coordinator
// over HttpShardChannels (a coordinator runs one query at a time), on
// the 37-query mix. Also the light serial shard probe other workloads
// use for their shard.* rows.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "datagen/kg_generator.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "shard/channel.h"
#include "shard/coordinator.h"
#include "shard/partitioner.h"
#include "shard/shard_node.h"
#include "shard/wire.h"
#include "workload.h"

namespace e2ebench {

using kgaq::EngineContext;
using kgaq::QueryRequest;
using kgaq::QueryResponse;
using kgaq::QueryService;
using kgaq::Result;
using kgaq::ShardChannel;
using kgaq::Status;

namespace {

constexpr uint32_t kShards = 2;
/// Seed variants per light base query. A window reaches each several
/// times; they carry the quality metrics: over 8 seeds, the median
/// relative error of flat answers spread by 0.26 (IQR / median) with 2
/// light variants, 0.13 with 4 and 0.05 with 8.
constexpr size_t kLightVariants = 8;
/// Seed variants per GROUP-BY query (completing one costs seconds).
constexpr size_t kHeavyVariants = 2;

/// RPC timings seen by the channel decorators. Recording is switched on
/// for the traced window only; off, the decorators pass straight through.
struct RpcLog {
  explicit RpcLog(Tracer& t) : tracer(t) {}
  Tracer& tracer;
  std::atomic<bool> active{false};
  /// A coordinator runs one query at a time: per client (one coordinator
  /// each), the span and request the decorators parent their RPC spans
  /// to.
  std::array<std::atomic<uint64_t>, kClients> parent{};
  std::array<std::atomic<uint64_t>, kClients> request{};

  std::mutex mu;
  std::vector<double> plan_ms;      // guarded by mu
  std::vector<double> validate_ms;  // guarded by mu
  size_t validate_bytes_max = 0;    // guarded by mu
  size_t failures = 0;              // guarded by mu

  void Note(size_t client, const char* name, Clock::time_point t0,
            Clock::time_point t1, bool ok, std::vector<double>* bucket) {
    tracer.Record(name, request[client].load(), parent[client].load(), t0,
                  t1);
    std::lock_guard<std::mutex> lock(mu);
    if (bucket != nullptr) bucket->push_back(MsBetween(t0, t1));
    failures += ok ? 0 : 1;
  }
};

/// Times Plan / Validate / Release around the wrapped channel.
class TimedChannel final : public ShardChannel {
 public:
  TimedChannel(std::unique_ptr<ShardChannel> inner, RpcLog& log,
               size_t client)
      : inner_(std::move(inner)), log_(log), client_(client) {}

  Result<kgaq::ShardPlanResult> Plan(
      const kgaq::ShardPlanRequest& request) override {
    if (!log_.active) return inner_->Plan(request);
    const auto t0 = Clock::now();
    auto r = inner_->Plan(request);
    log_.Note(client_, "shard.plan_rpc", t0, Clock::now(), r.ok(), &log_.plan_ms);
    return r;
  }

  Result<std::vector<kgaq::NodeOutcome>> Validate(
      const kgaq::ShardValidateRequest& request) override {
    if (!log_.active) return inner_->Validate(request);
    const size_t bytes = kgaq::EncodeValidateRequest(request).size();
    {
      std::lock_guard<std::mutex> lock(log_.mu);
      log_.validate_bytes_max = std::max(log_.validate_bytes_max, bytes);
    }
    const auto t0 = Clock::now();
    auto r = inner_->Validate(request);
    log_.Note(client_, "shard.validate_rpc", t0, Clock::now(), r.ok(),
              &log_.validate_ms);
    return r;
  }

  Status Release(uint64_t token) override {
    if (!log_.active) return inner_->Release(token);
    const auto t0 = Clock::now();
    Status s = inner_->Release(token);
    log_.Note(client_, "shard.release_rpc", t0, Clock::now(), s.ok(), nullptr);
    return s;
  }

  Result<QueryResponse> SubQuery(const QueryRequest& request) override {
    return inner_->SubQuery(request);
  }
  Status Probe() override { return inner_->Probe(); }
  void OnQuarantined() override { inner_->OnQuarantined(); }
  kgaq::ChannelHealth health() const override { return inner_->health(); }

 private:
  std::unique_ptr<ShardChannel> inner_;
  RpcLog& log_;
  size_t client_;
};

struct ShardDeployment {
  // Declared in dependency order; TearDown releases in reverse.
  std::vector<kgaq::ShardCut> cuts;
  std::vector<std::shared_ptr<const EngineContext>> contexts;
  std::vector<std::unique_ptr<kgaq::ShardNode>> nodes;
  std::vector<std::unique_ptr<kgaq::HttpServer>> servers;
  std::unique_ptr<kgaq::RetryingHttpClient> client;
  /// One per client: a coordinator runs one query at a time.
  std::vector<std::unique_ptr<kgaq::Coordinator>> coordinators;

  void TearDown() {
    coordinators.clear();
    client.reset();
    for (auto& s : servers) s->Stop();
    servers.clear();
    nodes.clear();
    contexts.clear();
    cuts.clear();
  }
  ~ShardDeployment() { TearDown(); }
};

/// Partitions `ds`, stands up one ShardNode + HttpServer per shard and
/// kClients coordinators over decorated HttpShardChannels; warms every
/// shard context with a census pass over `warm`.
void BuildShards(const kgaq::GeneratedDataset& ds, uint64_t base_seed,
                 const std::vector<BenchQuery>& warm, RpcLog& log,
                 ShardDeployment& d) {
  d.TearDown();
  kgaq::KgPartitioner::Options popts;
  popts.num_shards = kShards;
  auto cuts = kgaq::KgPartitioner::Partition(ds.graph(), popts);
  if (!cuts.ok()) Fatal("partition: " + cuts.status().ToString());
  d.cuts = std::move(*cuts);
  d.client = std::make_unique<kgaq::RetryingHttpClient>();
  for (const kgaq::ShardCut& cut : d.cuts) {
    d.contexts.push_back(std::make_shared<EngineContext>(
        cut.graph, ds.reference_embedding()));
    auto node = kgaq::ShardNode::Create(d.contexts.back(), cut.info,
                                        kgaq::ServiceOptions{});
    if (!node.ok()) Fatal("shard node: " + node.status().ToString());
    d.nodes.push_back(std::move(*node));
    auto server = std::make_unique<kgaq::HttpServer>(d.nodes.back()->service());
    server->SetExtraHandler(kgaq::MakeShardHttpHandler(*d.nodes.back()));
    const Status st = server->Start();
    if (!st.ok()) Fatal("shard server: " + st.ToString());
    d.servers.push_back(std::move(server));
  }
  for (const auto& ctx : d.contexts) CensusPass(ctx, warm);  // warm-up
  kgaq::CoordinatorOptions copts;
  copts.base_seed = base_seed;
  for (size_t c = 0; c < kClients; ++c) {
    std::vector<std::unique_ptr<ShardChannel>> channels;
    for (const auto& server : d.servers) {
      channels.push_back(std::make_unique<TimedChannel>(
          std::make_unique<kgaq::HttpShardChannel>(
              "127.0.0.1", server->port(), d.client.get()),
          log, c));
    }
    d.coordinators.push_back(
        std::make_unique<kgaq::Coordinator>(std::move(channels), copts));
  }
}

struct ShardWindow {
  WindowStats stats;
  std::vector<std::pair<size_t, double>> latency;  ///< answered: query, ms
  size_t executed = 0;
};

/// What the shard tier did with each query it ran, window or not.
struct ShardOutcomes {
  std::set<size_t> reached;
  std::map<size_t, kgaq::AggregateResult> answers;
  /// Partial estimates of degraded answers (the shard lost to a 413).
  std::map<size_t, kgaq::AggregateResult> degraded;

  void Note(size_t q, const QueryResponse& resp, AnswerLog& log) {
    reached.insert(q);
    if (resp.degraded && resp.status.ok()) degraded.emplace(q, resp.result);
    if (!IsAnswered(resp)) return;
    answers.emplace(q, resp.result);
    log.Add(q, resp.result, "shard_http");
  }
};

/// Runs `q` through client `client`'s coordinator; while recording,
/// inside a coordinator.execute span the decorators parent their RPC
/// spans to.
QueryResponse ExecuteOne(ShardDeployment& d, size_t client,
                         const BenchQuery& q, uint64_t request, RpcLog& log) {
  QueryRequest req;
  req.query = q.query;
  req.seed = q.seed;
  kgaq::Coordinator& coordinator = *d.coordinators[client];
  if (!log.active) return coordinator.Execute(req);
  const uint64_t span = log.tracer.NewId();
  log.parent[client] = span;
  log.request[client] = request;
  const auto t0 = Clock::now();
  QueryResponse resp = coordinator.Execute(req);
  log.tracer.Record(span, "coordinator.execute", request, 0, t0,
                    Clock::now());
  return resp;
}

/// One closed-loop window, each client driving its own coordinator and
/// client 0 running the GROUP-BY queries (see ClientSequences). A
/// coordinator cannot cancel, so a query still in flight when the window
/// closes runs to its end; it counts neither as attempted nor as
/// answered.
ShardWindow RunWindow(ShardDeployment& d,
                      const std::vector<BenchQuery>& base,
                      const std::vector<BenchQuery>& queries,
                      const Options& opts, uint64_t salt, RpcLog& log,
                      ShardOutcomes& outcomes_seen, AnswerLog& answers) {
  ShardWindow out;
  out.stats.seconds = opts.seconds;
  const ClientSequences seqs =
      MakeClientSequences(base, kLightVariants, kHeavyVariants, 64,
                          QueryService::QuerySeed(opts.seed, salt));
  std::atomic<size_t> next_heavy{0}, next_light{0};
  std::mutex mu;
  const auto end = AddMs(Clock::now(), opts.seconds * 1000.0);
  auto client = [&](size_t c) {
    const std::vector<size_t>& seq = c == 0 ? seqs.heavy : seqs.light;
    std::atomic<size_t>& next = c == 0 ? next_heavy : next_light;
    for (size_t pos = next++; pos < seq.size() && Clock::now() < end;
         pos = next++) {
      const size_t q = seq[pos];
      const uint64_t request = (c == 0 ? 1'000'000 : 0) + pos + 1;
      const auto t0 = Clock::now();
      const QueryResponse resp = ExecuteOne(d, c, queries[q], request, log);
      const auto t1 = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      ++out.executed;
      outcomes_seen.Note(q, resp, answers);
      if (t1 > end) break;
      ++out.stats.attempted;
      if (IsAnswered(resp)) {
        ++out.stats.answered;
        out.stats.latency_ms.push_back(MsBetween(t0, t1));
        out.latency.emplace_back(q, MsBetween(t0, t1));
      } else {
        ++out.stats.failures[FailureCause(resp)];
      }
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  return out;
}

/// Drains every shard and checks the accounting identities and that no
/// plan session leaked.
void CheckShards(ShardDeployment& d, Checks& checks) {
  for (const auto& coordinator : d.coordinators) {
    checks.Expect(IdentityHolds(coordinator->stats()),
                  "coordinator accounting identity violated");
  }
  for (size_t s = 0; s < d.nodes.size(); ++s) {
    d.nodes[s]->service().Drain();
    checks.Expect(IdentityHolds(d.nodes[s]->service_stats()),
                  "shard " + std::to_string(s) +
                      " accounting identity violated");
    checks.Expect(d.nodes[s]->live_plan_sessions() == 0,
                  "shard " + std::to_string(s) + " leaked plan sessions");
  }
}

void AddShardRows(Report& layers, RpcLog& log, size_t executed,
                  const std::vector<std::pair<size_t, double>>& latency,
                  const std::vector<SoloRun>& solo) {
  std::vector<double> overhead;
  for (const auto& [q, ms] : latency) {
    if (const SoloRun* s = FindSolo(solo, q)) {
      overhead.push_back(ms / (s->create_session_ms + s->run_ms));
    }
  }
  const std::vector<double> self = log.tracer.SelfTimesMs("coordinator.execute");
  std::lock_guard<std::mutex> lock(log.mu);
  layers.Add("shard.plan_rpc_ms", Mean(log.plan_ms), "ms", log.plan_ms.size(),
             "mean per Plan RPC");
  layers.Add("shard.validate_rpc_ms", Mean(log.validate_ms), "ms",
             log.validate_ms.size(), "mean per Validate RPC");
  layers.Add("shard.validate_rpcs_per_query",
             executed == 0 ? 0.0
                           : static_cast<double>(log.validate_ms.size()) /
                                 static_cast<double>(executed),
             "ratio", executed);
  layers.Add("shard.validate_request_bytes_max",
             static_cast<double>(log.validate_bytes_max), "bytes",
             log.validate_ms.size(), "EncodeValidateRequest(...).size()");
  layers.Add("shard.rpc_failures", static_cast<double>(log.failures), "count",
             log.plan_ms.size() + log.validate_ms.size());
  layers.Add("shard.coordinator_self_ms", Mean(self), "ms", self.size(),
             "Execute minus time covered by RPC spans, mean");
  layers.Add("shard.overhead_vs_flat", Percentile(overhead, 50.0), "ratio",
             overhead.size(), "median sharded latency / flat solo replay");
}

/// Cache counters summed over the shard contexts.
kgaq::EngineContext::CacheStats SumStats(
    const std::vector<std::shared_ptr<const EngineContext>>& contexts) {
  kgaq::EngineContext::CacheStats sum;
  for (const auto& ctx : contexts) {
    const auto s = ctx->Stats();
    sum.sims_hits += s.sims_hits;
    sum.sims_misses += s.sims_misses;
    sum.sims_bytes += s.sims_bytes;
    sum.core_hits += s.core_hits;
    sum.core_misses += s.core_misses;
    sum.core_bytes += s.core_bytes;
    sum.chain_hits += s.chain_hits;
    sum.chain_misses += s.chain_misses;
    sum.chain_bytes += s.chain_bytes;
  }
  return sum;
}

/// Flat ApproxEngine answers to `items` with the same seeds, kClients at
/// a time.
void FlatReference(const std::shared_ptr<const EngineContext>& ctx,
                   const std::vector<BenchQuery>& queries,
                   const std::vector<size_t>& items, AnswerLog& log) {
  ParallelFor(items.size(), [&](size_t, size_t k) {
    const size_t i = items[k];
    kgaq::EngineOptions eo;
    eo.seed = queries[i].seed;
    auto r = kgaq::ApproxEngine(ctx, eo).Execute(queries[i].query);
    if (!r.ok()) Fatal("flat run of " + queries[i].id);
    log.Add(i, *r, "flat engine");
  });
}

/// Runs every active query the windows did not reach through the shard
/// tier, untimed, so the seed-pinned quality covers all of them.
void Complete(ShardDeployment& d, const std::vector<BenchQuery>& queries,
              const std::vector<bool>& active, RpcLog& log,
              ShardOutcomes& outcomes, AnswerLog& answers) {
  std::vector<size_t> todo;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (active[q] && outcomes.reached.count(q) == 0) todo.push_back(q);
  }
  std::vector<QueryResponse> responses(todo.size());
  ParallelFor(todo.size(), [&](size_t client, size_t k) {
    responses[k] = ExecuteOne(d, client, queries[todo[k]], 0, log);
  });
  for (size_t k = 0; k < todo.size(); ++k) {
    outcomes.Note(todo[k], responses[k], answers);
  }
}

}  // namespace

RunOutput RunShardHttp(const Options& opts) {
  RunOutput out;
  Tracer tracer(opts.trace);
  RpcLog rpc(tracer);
  std::unique_ptr<kgaq::GeneratedDataset> ds;
  std::vector<BenchQuery> base;     // oracle order
  std::vector<BenchQuery> queries;  // seed-pinned
  ShardDeployment d;
  const double setup_s = TimeSetup([&] {
    d.TearDown();  // dependents first: the shards borrow the embedding
    ds.reset();
    auto g = kgaq::KgGenerator::Generate(kgaq::DatasetProfile::Dbpedia());
    if (!g.ok()) Fatal(g.status().ToString());
    ds = std::make_unique<kgaq::GeneratedDataset>(std::move(*g));
    base = GeneratedMix(*ds);
    queries = SeedVariants(base, kLightVariants, opts.seed);
    BuildShards(*ds, opts.seed, base, rpc, d);
  });
  const std::vector<bool> active =
      ActiveItems(queries, base.size(), kHeavyVariants);

  AnswerLog log;
  ShardOutcomes outcomes;
  const ShardWindow untraced =
      RunWindow(d, base, queries, opts, 0, rpc, outcomes, log);
  const double peak_rss_mb = PeakRssMb();

  // Oracles, outside all timing and after the peak is read: census and
  // flat answers on an unsharded context, SSB tau-GT.
  auto flat = std::make_shared<EngineContext>(ds->graph(),
                                              ds->reference_embedding());
  const std::vector<Census> census = CensusPass(flat, base);
  const std::vector<TauGt> tau_gt = TauGroundTruth(*ds, base);
  // The traced run replays the first variant solo (its timings feed the
  // per-layer rows).
  std::vector<SoloRun> solo;
  if (opts.trace) {
    solo = SoloReplay(flat, queries, base.size(), tracer, log);
  }

  ShardWindow traced;
  kgaq::EngineContext::CacheStats cache_before{}, cache_after{};
  if (opts.trace) {
    cache_before = SumStats(d.contexts);
    rpc.active = true;
    traced = RunWindow(d, base, queries, opts, 1, rpc, outcomes, log);
    rpc.active = false;
    cache_after = SumStats(d.contexts);
  }
  Complete(d, queries, active, rpc, outcomes, log);
  // Every non-degraded sharded answer must equal the flat engine's; the
  // solo replays already are flat runs.
  std::vector<size_t> unreplayed;
  for (const auto& [q, r] : outcomes.answers) {
    if (q >= solo.size()) unreplayed.push_back(q);
  }
  FlatReference(flat, queries, unreplayed, log);
  CheckShards(d, out.checks);
  out.quality = ComputeQuality(queries, census, tau_gt, outcomes.answers,
                               outcomes.degraded);
  AddEndToEnd(out.e2e, untraced.stats, out.quality, setup_s, peak_rss_mb);
  out.attempted = untraced.stats.attempted;
  out.failed = Unanswered(untraced.stats);
  if (!opts.trace) {
    out.checks.Merge(log.errors());
    return out;
  }

  Report traced_e2e;
  AddEndToEnd(traced_e2e, traced.stats, out.quality, setup_s, peak_rss_mb);
  AddShardRows(out.layers, rpc, traced.executed, traced.latency, solo);
  AddCoreLayers(out.layers, solo, cache_before, cache_after,
                kgaq::EngineOptions{}.max_total_draws);
  HttpProbe(flat, queries, ProbeQueries(queries, 6), solo, tracer,
            out.layers, out.checks, log);
  FinishTrace(out.layers, out.e2e, traced_e2e, tracer, opts);
  out.checks.Merge(log.errors());
  return out;
}

void ShardProbe(const kgaq::GeneratedDataset& ds,
                const std::vector<BenchQuery>& queries,
                const std::vector<size_t>& indices,
                const std::vector<SoloRun>& solo, Tracer& tracer,
                Report& layers, Checks& checks, AnswerLog& log) {
  RpcLog rpc(tracer);
  std::vector<BenchQuery> warm;
  for (size_t q : indices) warm.push_back(queries[q]);
  ShardDeployment d;
  BuildShards(ds, 0, warm, rpc, d);
  rpc.active = true;
  std::vector<std::pair<size_t, double>> latency;
  for (size_t q : indices) {
    const auto t0 = Clock::now();
    const QueryResponse resp =
        ExecuteOne(d, 0, queries[q], 3'000'000 + q, rpc);
    const double ms = MsBetween(t0, Clock::now());
    if (IsAnswered(resp)) {
      log.Add(q, resp.result, "shard probe");
      latency.emplace_back(q, ms);
    }
  }
  rpc.active = false;
  CheckShards(d, checks);
  AddShardRows(layers, rpc, indices.size(), latency, solo);
}

}  // namespace e2ebench
