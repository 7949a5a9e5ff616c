// Interactive error-bound refinement (Fig. 6a): a user starts with a
// coarse 5% bound for an instant answer and tightens it step by step;
// every refinement reuses the accumulated sample, so each step costs only
// the incremental work of Eq. 12's sample growth.
#include <cstdio>

#include "baselines/ssb.h"
#include "common/timer.h"
#include "core/approx_engine.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"

int main() {
  using namespace kgaq;

  auto ds = KgGenerator::Generate(DatasetProfile::Dbpedia(1.0));
  if (!ds.ok()) return 1;

  AggregateQuery q = WorkloadGenerator::SimpleQuery(
      *ds, /*domain=*/2, /*hub_index=*/0, AggregateFunction::kAvg);
  std::printf("Query: AVG(%s) of %s for %s\n", q.attribute.c_str(),
              ds->domains()[2].answer_type.c_str(),
              q.query.branches[0].specific_name.c_str());

  Ssb ssb(ds->graph(), ds->reference_embedding(), {});
  auto gt = ssb.Execute(q);
  if (gt.ok()) std::printf("(exact tau-GT answer: %.2f)\n\n", gt->value);

  // The paper's sampling loop: with the default census cutover the first
  // row would already be the exact answer (shown at the end).
  EngineOptions sampling;
  sampling.census_cutover = false;
  ApproxEngine engine(ds->graph(), ds->reference_embedding(), sampling);
  auto session = engine.CreateSession(q);
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }

  std::printf("%-6s %14s %12s %10s %12s %12s\n", "eb", "V_hat", "MoE",
              "rounds", "|S_A|", "step ms");
  for (double eb : {0.05, 0.04, 0.03, 0.02, 0.01}) {
    WallTimer t;
    AggregateResult res = (*session)->RunToErrorBound(eb);
    std::printf("%-6.2f %14.2f %12.2f %10zu %12zu %12.1f%s\n", eb,
                res.v_hat, res.moe, res.rounds, res.total_draws,
                t.ElapsedMillis(), res.satisfied ? "" : "  (budget hit)");
  }
  std::printf("\nEach row reuses the previous rows' sample — the paper's "
              "interactive scenario where a user keeps tightening eb.\n");

  ApproxEngine census(ds->graph(), ds->reference_embedding(), {});
  auto exact = census.Execute(q);
  if (exact.ok()) {
    std::printf("Census cutover (default): V_hat = %.2f, MoE = %.2f, "
                "exact = %s, %zu draws over %zu candidates\n",
                exact->v_hat, exact->moe, exact->exact ? "yes" : "no",
                exact->total_draws, exact->num_candidates);
  }
  return 0;
}
