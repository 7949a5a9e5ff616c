// Table XII: per-step time (ms) of the sampling-estimation pipeline on
// DBpedia simple queries — S1 semantic-aware sampling (scoping, Eq. 5
// transition model, Eq. 6 convergence, pi_A extraction), S2 correctness
// validation + estimation, S3 accuracy guarantee (BLB + Theorem 2 checks).
// Expected shape (paper): S1 > S2 > S3; COUNT's S2/S3 are cheapest.
#include "bench/bench_common.h"

int main() {
  using namespace kgaq;
  using namespace kgaq::bench;

  const GeneratedDataset& ds = Dataset("DBpedia");
  const EmbeddingModel& model = ds.reference_embedding();

  PrintHeader("Table XII: per-step time (ms) on DBpedia simple queries");
  std::printf("%-9s %10s %10s %10s %10s\n", "Operator", "S1", "S2", "S3",
              "total");
  for (auto f : {AggregateFunction::kCount, AggregateFunction::kAvg,
                 AggregateFunction::kSum}) {
    double s1 = 0, s2 = 0, s3 = 0, total = 0;
    int n = 0;
    for (size_t i = 0; i < 4; ++i) {
      auto q = WorkloadGenerator::SimpleQuery(ds, i % ds.domains().size(),
                                              (i * 3 + 1) % ds.hubs().size(),
                                              f);
      EngineOptions opts = PaperEngineOptions();
      opts.error_bound = 0.01;
      ApproxEngine engine(ds.graph(), model, opts);
      auto res = engine.Execute(q);
      if (!res.ok()) continue;
      s1 += res->timings.s1_sampling_ms;
      s2 += res->timings.s2_estimation_ms;
      s3 += res->timings.s3_accuracy_ms;
      total += res->timings.total_ms;
      ++n;
    }
    if (n == 0) continue;
    std::printf("%-9s %10.1f %10.1f %10.1f %10.1f\n",
                AggregateFunctionToString(f), s1 / n, s2 / n, s3 / n,
                total / n);
  }
  return 0;
}
