// Figure 6: interactive performance and parameter sensitivity on DBpedia
// simple queries.
//   (a) interactive error-bound refinement 5% -> 1%: incremental time;
//   (b) confidence level 86..98%: error down, time up;
//   (c) repeat factor r = 1..5: error stabilizes at r ~ 3;
//   (d) sample ratio lambda = 0.1..0.5: error down, time up, knee ~0.3;
//   (e) n-bounded subgraph n = 1..5: error drops until n ~ 3;
//   (f) similarity threshold tau = 0.70..0.90 vs tau-GT and HA-GT:
//       tau-GT error stays ~1%, HA-GT error is minimized near tau = 0.85.
#include "bench/bench_common.h"

namespace {

using namespace kgaq;
using namespace kgaq::bench;

struct SweepStats {
  double err = 0, ms = 0;
  int n = 0;
};

template <typename ConfigureFn>
SweepStats RunSweepPoint(const GeneratedDataset& ds,
                         const MethodContext& base, AggregateFunction f,
                         ConfigureFn&& configure, bool err_vs_ha = false) {
  SweepStats out;
  for (size_t i = 0; i < 3; ++i) {
    auto q = WorkloadGenerator::SimpleQuery(
        ds, (i + 2) % ds.domains().size(), i % ds.hubs().size(), f);
    MethodContext ctx = base;
    configure(ctx);
    double truth = 0;
    if (err_vs_ha) {
      auto ha = ds.HumanGroundTruth(q);
      if (!ha.ok() || *ha == 0.0) continue;
      truth = *ha;
    } else {
      auto gt = TauGroundTruth(ctx, q);
      if (!gt.ok() || *gt == 0.0) continue;
      truth = *gt;
    }
    auto run = RunMethod("Ours", ctx, q);
    if (!run.ok) continue;
    out.err += RelativeErrorPct(run.value, truth);
    out.ms += run.millis;
    ++out.n;
  }
  if (out.n > 0) {
    out.err /= out.n;
    out.ms /= out.n;
  }
  return out;
}

}  // namespace

int main() {
  const GeneratedDataset& ds = Dataset("DBpedia");
  MethodContext base;
  base.ds = &ds;
  base.model = &ds.reference_embedding();

  // ---- (a) interactive error-bound refinement --------------------------
  PrintHeader("Fig 6(a): interactive eb refinement — incremental time (ms)");
  std::printf("%-10s %12s %12s %12s %12s %12s\n", "fa", "eb=5%", "5%->4%",
              "4%->3%", "3%->2%", "2%->1%");
  for (auto f : {AggregateFunction::kCount, AggregateFunction::kAvg,
                 AggregateFunction::kSum}) {
    auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, f);
    EngineOptions opts = PaperEngineOptions();
    ApproxEngine engine(ds.graph(), *base.model, opts);
    auto session = engine.CreateSession(q);
    if (!session.ok()) continue;
    std::printf("%-10s", AggregateFunctionToString(f));
    for (double eb : {0.05, 0.04, 0.03, 0.02, 0.01}) {
      WallTimer t;
      (*session)->RunToErrorBound(eb);
      std::printf(" %12.1f", t.ElapsedMillis());
    }
    std::printf("\n");
  }

  // ---- (b) confidence level --------------------------------------------
  PrintHeader("Fig 6(b): confidence level sweep (error % | time ms)");
  std::printf("%-12s", "1-alpha");
  for (double c : {0.86, 0.89, 0.92, 0.95, 0.98}) std::printf(" %14.2f", c);
  std::printf("\n%-12s", "COUNT");
  for (double c : {0.86, 0.89, 0.92, 0.95, 0.98}) {
    auto s = RunSweepPoint(ds, base, AggregateFunction::kCount,
                           [c](MethodContext& ctx) {
                             ctx.engine_options.confidence_level = c;
                           });
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f | %.0f", s.err, s.ms);
    std::printf(" %14s", buf);
  }
  std::printf("\n");

  // ---- (c) repeat factor ------------------------------------------------
  PrintHeader("Fig 6(c): repeat factor r sweep (error % | time ms)");
  std::printf("%-12s", "r");
  for (int r = 1; r <= 5; ++r) std::printf(" %14d", r);
  std::printf("\n%-12s", "COUNT");
  for (int r = 1; r <= 5; ++r) {
    auto s = RunSweepPoint(ds, base, AggregateFunction::kCount,
                           [r](MethodContext& ctx) {
                             ctx.engine_options.branch.repeat_factor = r;
                           });
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f | %.0f", s.err, s.ms);
    std::printf(" %14s", buf);
  }
  std::printf("\n");

  // ---- (d) desired sample ratio -----------------------------------------
  PrintHeader("Fig 6(d): sample ratio lambda sweep (error % | time ms)");
  std::printf("%-12s", "lambda");
  for (double l : {0.1, 0.2, 0.3, 0.4, 0.5}) std::printf(" %14.1f", l);
  std::printf("\n%-12s", "AVG");
  for (double l : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    auto s = RunSweepPoint(ds, base, AggregateFunction::kAvg,
                           [l](MethodContext& ctx) {
                             ctx.engine_options.sample_ratio = l;
                           });
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f | %.0f", s.err, s.ms);
    std::printf(" %14s", buf);
  }
  std::printf("\n");

  // ---- (e) n-bounded subgraph -------------------------------------------
  PrintHeader("Fig 6(e): n-bounded subgraph sweep (error % | time ms)");
  std::printf("%-12s", "n");
  for (int n = 1; n <= 5; ++n) std::printf(" %14d", n);
  std::printf("\n%-12s", "COUNT");
  for (int n = 1; n <= 5; ++n) {
    // Ground truth stays the n = 3 oracle: small n misses answers (large
    // error), large n only adds walk time — the paper's Fig 6(e) shape.
    auto s = RunSweepPoint(ds, base, AggregateFunction::kCount,
                           [n](MethodContext& ctx) {
                             ctx.engine_options.branch.n_hops = n;
                           });
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f | %.0f", s.err, s.ms);
    std::printf(" %14s", buf);
  }
  std::printf("\n");

  // ---- (f) similarity threshold tau ---------------------------------------
  PrintHeader("Fig 6(f): tau sweep — error % vs tau-GT and vs HA-GT");
  std::printf("%-12s", "tau");
  for (double t : {0.70, 0.75, 0.80, 0.85, 0.90}) std::printf(" %10.2f", t);
  std::printf("\n%-12s", "vs tau-GT");
  for (double t : {0.70, 0.75, 0.80, 0.85, 0.90}) {
    auto s = RunSweepPoint(ds, base, AggregateFunction::kCount,
                           [t](MethodContext& ctx) { ctx.tau = t; });
    std::printf(" %10.2f", s.err);
  }
  std::printf("\n%-12s", "vs HA-GT");
  for (double t : {0.70, 0.75, 0.80, 0.85, 0.90}) {
    auto s = RunSweepPoint(
        ds, base, AggregateFunction::kCount,
        [t](MethodContext& ctx) { ctx.tau = t; }, /*err_vs_ha=*/true);
    std::printf(" %10.2f", s.err);
  }
  std::printf("\n");
  return 0;
}
