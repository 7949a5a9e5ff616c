// End-to-end smoke of the persistence + serving stack, run by CI:
//
//   1. generate a small synthetic KG + planted embedding,
//   2. save a combined binary snapshot and load it back,
//   3. serve 8 concurrent queries over the loaded EngineContext,
//   4. verify every result is bitwise-identical to a solo run with the
//      same derived seed, and report TSV-parse vs snapshot-load timing.
//
// Exits non-zero on any mismatch, making it a cheap release gate.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/approx_engine.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "kg/snapshot.h"
#include "kg/tsv_loader.h"
#include "serve/query_service.h"

using namespace kgaq;

int main() {
  auto generated = KgGenerator::Generate(DatasetProfile::Mini(7));
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const GeneratedDataset& ds = *generated;
  std::printf("synthetic KG: %zu nodes, %zu edges, %zu predicates\n",
              ds.graph().NumNodes(), ds.graph().NumEdges(),
              ds.graph().NumPredicates());

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string base = tmpdir != nullptr ? tmpdir : "/tmp";
  const std::string snap_path = base + "/kgaq_serve_smoke.snap";
  const std::string tsv_path = base + "/kgaq_serve_smoke.tsv";

  // Persist both ways and compare load cost.
  if (Status s = SaveEngineSnapshot(ds.graph(), &ds.reference_embedding(),
                                    snap_path);
      !s.ok()) {
    std::fprintf(stderr, "snapshot save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = TsvLoader::SaveFile(ds.graph(), tsv_path); !s.ok()) {
    std::fprintf(stderr, "tsv save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  WallTimer tsv_timer;
  auto g_tsv = TsvLoader::LoadFile(tsv_path);
  const double tsv_ms = tsv_timer.ElapsedMillis();
  if (!g_tsv.ok()) {
    std::fprintf(stderr, "tsv load failed: %s\n",
                 g_tsv.status().ToString().c_str());
    return 1;
  }
  WallTimer snap_timer;
  auto ctx = EngineContext::LoadFromSnapshot(snap_path);
  const double snap_ms = snap_timer.ElapsedMillis();
  if (!ctx.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 ctx.status().ToString().c_str());
    return 1;
  }
  std::printf("load: tsv parse %.2f ms, snapshot %.2f ms (%.1fx)\n", tsv_ms,
              snap_ms, snap_ms > 0.0 ? tsv_ms / snap_ms : 0.0);

  // 8 concurrent queries over the snapshot-loaded context.
  std::vector<AggregateQuery> workload;
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 0, 0, AggregateFunction::kCount));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 1, 0, AggregateFunction::kAvg));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 2, 1, AggregateFunction::kSum));
  workload.push_back(
      WorkloadGenerator::ChainQuery(ds, 0, 0, AggregateFunction::kCount));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 1, 1, AggregateFunction::kCount));
  workload.push_back(
      WorkloadGenerator::ChainQuery(ds, 1, 0, AggregateFunction::kAvg));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 0, 1, AggregateFunction::kMax));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kAvg));

  ServiceOptions sopts;
  sopts.max_concurrent = 8;
  sopts.base_seed = 42;
  WallTimer serve_timer;
  auto served = QueryService::RunBatch(*ctx, workload, sopts);
  const double serve_ms = serve_timer.ElapsedMillis();

  // Solo reference runs against the TSV-independent in-memory dataset:
  // must match the snapshot-served results bit for bit.
  int failures = 0;
  WallTimer solo_timer;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!served[i].ok()) {
      std::fprintf(stderr, "query %zu failed in service: %s\n", i,
                   served[i].status().ToString().c_str());
      ++failures;
      continue;
    }
    EngineOptions eopts = sopts.engine;
    eopts.seed = QueryService::QuerySeed(sopts.base_seed, i);
    ApproxEngine solo(ds.graph(), ds.reference_embedding(), eopts);
    auto expected = solo.Execute(workload[i]);
    if (!expected.ok()) {
      std::fprintf(stderr, "query %zu failed solo: %s\n", i,
                   expected.status().ToString().c_str());
      ++failures;
      continue;
    }
    const bool same = served[i]->v_hat == expected->v_hat &&
                      served[i]->moe == expected->moe &&
                      served[i]->total_draws == expected->total_draws &&
                      served[i]->correct_draws == expected->correct_draws;
    std::printf(
        "  q%zu: v_hat=%.6g moe=%.6g draws=%zu rounds=%zu  %s\n", i,
        served[i]->v_hat, served[i]->moe, served[i]->total_draws,
        served[i]->rounds, same ? "MATCH" : "MISMATCH vs solo");
    if (!same) ++failures;
  }
  const double solo_ms = solo_timer.ElapsedMillis();
  std::printf("service (8-wide over shared context): %.1f ms; solo serial "
              "(cold engines): %.1f ms\n",
              serve_ms, solo_ms);

  const auto stats = (*ctx)->Stats();
  std::printf("context caches: sims %llu/%llu hit/miss, cores %llu/%llu, "
              "plans %llu/%llu, chain profiles %llu/%llu (%zu entries)\n",
              static_cast<unsigned long long>(stats.sims_hits),
              static_cast<unsigned long long>(stats.sims_misses),
              static_cast<unsigned long long>(stats.core_hits),
              static_cast<unsigned long long>(stats.core_misses),
              static_cast<unsigned long long>(stats.plan_hits),
              static_cast<unsigned long long>(stats.plan_misses),
              static_cast<unsigned long long>(stats.chain_hits),
              static_cast<unsigned long long>(stats.chain_misses),
              stats.chain_entries);

  // Async admission: the same workload through SubmitAsync tickets (same
  // base seed, fresh service over the same context) must reproduce the
  // batch results bitwise, while a deadline probe and a cancelled query
  // retire without touching them.
  {
    QueryService async_service(*ctx, sopts);
    std::vector<QueryTicket> tickets;
    for (const AggregateQuery& q : workload) {
      QueryRequest req;
      req.query = q;
      tickets.push_back(async_service.SubmitAsync(std::move(req)));
    }
    QueryRequest probe;
    probe.query = workload[0];
    probe.deadline_ms = 0.0001;  // expires before its first round
    QueryTicket expired = async_service.SubmitAsync(std::move(probe));
    for (size_t i = 0; i < tickets.size(); ++i) {
      const QueryResponse resp = tickets[i].Wait();
      const bool same = resp.state == QueryState::kDone && served[i].ok() &&
                        resp.result.v_hat == served[i]->v_hat &&
                        resp.result.moe == served[i]->moe &&
                        resp.result.total_draws == served[i]->total_draws;
      if (!same) {
        std::fprintf(stderr,
                     "async q%zu (%s) mismatches the batch result\n", i,
                     QueryStateToString(resp.state));
        ++failures;
      }
    }
    if (expired.Wait().state != QueryState::kDeadlineExceeded) {
      std::fprintf(stderr, "deadline probe did not expire\n");
      ++failures;
    }

    // Cancel-while-queued: a width-1 service keeps the second query
    // queued until the first finishes; cancelling it retires it without
    // it ever drawing.
    ServiceOptions narrow = sopts;
    narrow.max_concurrent = 1;
    QueryService narrow_service(*ctx, narrow);
    QueryRequest first, second;
    first.query = workload[0];
    second.query = workload[1];
    QueryTicket t1 = narrow_service.SubmitAsync(std::move(first));
    QueryTicket t2 = narrow_service.SubmitAsync(std::move(second));
    t2.Cancel();
    const QueryResponse r2 = t2.Wait();
    if (r2.state != QueryState::kCancelled ||
        r2.result.total_draws != 0) {
      std::fprintf(stderr, "queued cancel ended as %s with %zu draws\n",
                   QueryStateToString(r2.state), r2.result.total_draws);
      ++failures;
    }
    if (t1.Wait().state != QueryState::kDone) {
      std::fprintf(stderr, "width-1 survivor did not complete\n");
      ++failures;
    }
    const auto astats = async_service.stats();
    std::printf("async service: %llu done, %llu deadline-expired of %llu "
                "submitted\n",
                static_cast<unsigned long long>(astats.done),
                static_cast<unsigned long long>(astats.deadline_expired),
                static_cast<unsigned long long>(astats.submitted));
  }

  std::remove(snap_path.c_str());
  std::remove(tsv_path.c_str());
  if (failures != 0) {
    std::fprintf(stderr, "serve smoke FAILED: %d mismatching queries\n",
                 failures);
    return 1;
  }
  std::printf("serve smoke OK: 8/8 concurrent results bitwise-match solo "
              "runs (batch and async)\n");
  return 0;
}
