// Table IX: case study of iterative refinement — per-round approximate
// result V_hat, margin of error eps, and relative error vs tau-GT for a
// COUNT, an AVG, and a SUM query (the paper's Q1, Q2, Q6 analogues).
// Expected shape: the relative error shrinks across rounds until the
// Theorem 2 condition eps <= V_hat*eb/(1+eb) holds at eb = 1%.
#include "bench/bench_common.h"

int main() {
  using namespace kgaq;
  using namespace kgaq::bench;

  const GeneratedDataset& ds = Dataset("DBpedia");
  MethodContext ctx;
  ctx.ds = &ds;
  ctx.model = &ds.reference_embedding();

  struct Case {
    const char* id;
    AggregateFunction f;
    size_t domain;
  };
  const Case cases[] = {
      {"Q1 (COUNT)", AggregateFunction::kCount, 2},
      {"Q2 (AVG)", AggregateFunction::kAvg, 0},
      {"Q6 (SUM)", AggregateFunction::kSum, 4},
  };

  PrintHeader("Table IX: per-round refinement (eb = 1%, 95% confidence)");
  for (const Case& c : cases) {
    auto q = WorkloadGenerator::SimpleQuery(ds, c.domain, 0, c.f);
    auto gt = TauGroundTruth(ctx, q);
    if (!gt.ok() || *gt == 0.0) continue;
    EngineOptions opts = PaperEngineOptions();
    opts.error_bound = 0.01;
    ApproxEngine engine(ds.graph(), *ctx.model, opts);
    auto res = engine.Execute(q);
    if (!res.ok()) continue;
    std::printf("%s   tau-GT = %.2f\n", c.id, *gt);
    std::printf("  %-6s %14s %12s %10s %10s\n", "round", "V_hat", "MoE eps",
                "error %", "|S_A|");
    for (const auto& t : res->trace) {
      std::printf("  %-6zu %14.2f %12.2f %10.2f %10zu\n", t.round, t.v_hat,
                  t.moe, RelativeErrorPct(t.v_hat, *gt), t.total_draws);
    }
    std::printf("  terminated: %s (Theorem 2 target %.3f)\n\n",
                res->satisfied ? "yes" : "no (budget)",
                res->v_hat * 0.01 / 1.01);
  }
  return 0;
}
