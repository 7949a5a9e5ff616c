// Shard-parity smoke: the CI gate for the scatter-gather tier.
//
//   1. generate the bench KG + planted embedding,
//   2. answer a mixed workload on a flat (unsharded) QueryService,
//   3. answer the SAME workload through an N-shard ShardedEngine
//      (deterministic merge) with the same base seed,
//   4. fail (exit 1) unless every answer is bitwise-identical —
//      v_hat, moe, draw counts, rounds, per-group estimates — and the
//      accounting identity holds at the coordinator and on every shard,
//   5. print flat and sharded wall-clock so scaling regressions are
//      visible in the CI log.
//
// Run by the `shard-parity` CI job at --shards=2 and --shards=4.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "serve/query_service.h"
#include "shard/sharded_engine.h"

using namespace kgaq;

namespace {

std::vector<AggregateQuery> BuildWorkload(const GeneratedDataset& ds) {
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

bool BitwiseEqual(const AggregateResult& a, const AggregateResult& b,
                  size_t index) {
  bool ok = a.v_hat == b.v_hat && a.moe == b.moe &&
            a.satisfied == b.satisfied && a.rounds == b.rounds &&
            a.total_draws == b.total_draws &&
            a.correct_draws == b.correct_draws &&
            a.num_candidates == b.num_candidates &&
            a.groups.size() == b.groups.size();
  for (size_t g = 0; ok && g < a.groups.size(); ++g) {
    ok = a.groups[g].bucket_lower == b.groups[g].bucket_lower &&
         a.groups[g].v_hat == b.groups[g].v_hat &&
         a.groups[g].moe == b.groups[g].moe;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "PARITY VIOLATION query %zu: sharded v=%.17g moe=%.17g "
                 "rounds=%zu draws=%zu vs flat v=%.17g moe=%.17g "
                 "rounds=%zu draws=%zu\n",
                 index, a.v_hat, a.moe, a.rounds, a.total_draws, b.v_hat,
                 b.moe, b.rounds, b.total_draws);
  }
  return ok;
}

bool IdentityHolds(uint64_t submitted, uint64_t done, uint64_t failed,
                   uint64_t cancelled, uint64_t deadline, uint64_t rejected,
                   uint64_t shed, const char* tier) {
  const uint64_t buckets =
      done + failed + cancelled + deadline + rejected + shed;
  if (submitted != buckets) {
    std::fprintf(stderr,
                 "ACCOUNTING VIOLATION (%s): submitted=%llu buckets=%llu\n",
                 tier, static_cast<unsigned long long>(submitted),
                 static_cast<unsigned long long>(buckets));
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t shards = 2;
  uint64_t seed = 321;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<uint32_t>(std::atoi(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--shards=N] [--seed=N]\n", argv[0]);
      return 2;
    }
  }
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }

  auto generated = KgGenerator::Generate(DatasetProfile::Mini(7));
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const GeneratedDataset& ds = *generated;
  const auto workload = BuildWorkload(ds);

  // Flat reference: one QueryService over the whole graph.
  ServiceOptions sopts;
  sopts.base_seed = seed;
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  WallTimer flat_timer;
  auto flat = QueryService::RunBatch(ctx, workload, sopts);
  const double flat_ms = flat_timer.ElapsedMillis();
  for (size_t i = 0; i < flat.size(); ++i) {
    if (!flat[i].ok()) {
      std::fprintf(stderr, "flat query %zu failed: %s\n", i,
                   flat[i].status().ToString().c_str());
      return 1;
    }
  }

  // The same workload through the sharded deployment.
  ShardedEngineOptions shopts;
  shopts.num_shards = shards;
  shopts.base_seed = seed;
  auto engine =
      ShardedEngine::Create(ds.graph(), ds.reference_embedding(), shopts);
  if (!engine.ok()) {
    std::fprintf(stderr, "sharded engine build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  bool ok = true;
  WallTimer shard_timer;
  for (size_t i = 0; i < workload.size(); ++i) {
    QueryRequest req;
    req.query = workload[i];
    QueryResponse resp = (*engine)->Execute(req);
    if (resp.state != QueryState::kDone || resp.degraded) {
      std::fprintf(stderr, "sharded query %zu not clean: state=%s%s %s\n",
                   i, QueryStateToString(resp.state),
                   resp.degraded ? " (degraded)" : "",
                   resp.status.ToString().c_str());
      ok = false;
      continue;
    }
    ok = BitwiseEqual(resp.result, *flat[i], i) && ok;
  }
  const double shard_ms = shard_timer.ElapsedMillis();

  const CoordinatorStats cs = (*engine)->coordinator().stats();
  ok = IdentityHolds(cs.submitted, cs.done, cs.failed, cs.cancelled,
                     cs.deadline_expired, cs.rejected, cs.shed,
                     "coordinator") &&
       ok;
  if (cs.submitted != workload.size()) {
    std::fprintf(stderr, "coordinator lost track: submitted=%llu sent=%zu\n",
                 static_cast<unsigned long long>(cs.submitted),
                 workload.size());
    ok = false;
  }
  for (size_t s = 0; s < (*engine)->num_shards(); ++s) {
    (*engine)->node(s).service().Drain();
    const auto ss = (*engine)->shard_stats()[s];
    char tier[32];
    std::snprintf(tier, sizeof(tier), "shard %zu", s);
    ok = IdentityHolds(ss.submitted, ss.done, ss.failed, ss.cancelled,
                       ss.deadline_expired, ss.rejected, ss.shed, tier) &&
         ok;
    if ((*engine)->node(s).live_plan_sessions() != 0) {
      std::fprintf(stderr, "LEAK: shard %zu holds %zu plan sessions\n", s,
                   (*engine)->node(s).live_plan_sessions());
      ok = false;
    }
  }

  std::printf(
      "shard smoke: %zu queries, %u shards | flat %.1f ms, "
      "deterministic-merge %.1f ms (%.2fx)\n",
      workload.size(), shards, flat_ms, shard_ms, shard_ms / flat_ms);
  if (!ok) {
    std::fprintf(stderr, "shard smoke FAILED\n");
    return 1;
  }
  std::printf(
      "shard smoke passed: %u-shard answers bitwise-identical to "
      "unsharded, accounting identity holds\n",
      shards);
  return 0;
}
