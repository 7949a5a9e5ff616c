// Table XIII: effect of the KG embedding model — training time, parameter
// memory, and the engine's relative error vs HA-GT with each trained
// model (tau tuned per model by the Table V sweep, as the paper's domain
// expert does). Expected shape (paper): translation models (TransE/H/D)
// train faster, use far less memory (d vs d^2 relation parameters), and
// yield lower error than RESCAL / SE. Absolute errors are higher than the
// paper's because the synthetic KG is ~3 orders of magnitude smaller than
// DBpedia, giving the trainers much less signal (see DESIGN.md).
#include "bench/bench_common.h"

#include "embedding/trainer.h"

int main() {
  using namespace kgaq;
  using namespace kgaq::bench;

  const GeneratedDataset& ds = Dataset("DBpedia");

  PrintHeader("Table XIII: effect of KG embedding models (DBpedia)");
  std::printf("%-8s %12s %12s %12s %8s %10s %12s\n", "Model", "train (s)",
              "memory (MB)", "triples/s", "threads", "tau*", "HA error %");

  for (const char* name : {"TransE", "TransH", "TransD", "RESCAL", "SE"}) {
    EmbeddingTrainConfig cfg;
    cfg.dim = 24;
    // Matrix-relation models cost O(d^2) per update; the paper's "~1 day"
    // vs "~7 h" gap shows up here as wall-clock per epoch.
    cfg.epochs = 40;
    cfg.negatives_per_positive = 2;
    EmbeddingTrainStats stats;
    auto model = TrainModelByName(name, ds.graph(), cfg, &stats);
    if (!model.ok()) {
      std::printf("%-8s training failed: %s\n", name,
                  model.status().ToString().c_str());
      continue;
    }
    auto tau = TuneTau(ds, **model);
    const double tau_v = tau.ok() ? *tau : 0.85;

    EngineOptions opts = PaperEngineOptions();
    opts.error_bound = 0.02;
    opts.tau = tau_v;
    ApproxEngine engine(ds.graph(), **model, opts);
    double err = 0;
    int n = 0;
    for (size_t d = 0; d < 4; ++d) {
      auto q = WorkloadGenerator::SimpleQuery(ds, d % ds.domains().size(),
                                              (d + 1) % ds.hubs().size(),
                                              AggregateFunction::kCount);
      auto ha = ds.HumanGroundTruth(q);
      if (!ha.ok() || *ha == 0.0) continue;
      auto res = engine.Execute(q);
      if (!res.ok()) continue;
      err += RelativeErrorPct(res->v_hat, *ha);
      ++n;
    }
    std::printf("%-8s %12.2f %12.2f %12.0f %8zu %10.2f %12.2f\n", name,
                stats.train_seconds,
                stats.memory_bytes / (1024.0 * 1024.0),
                stats.triples_per_second, stats.threads_used, tau_v,
                n == 0 ? -1.0 : err / n);
  }
  std::printf(
      "\n(Reference upper bound: the planted 'ideal' embedding reaches "
      "~1%% HA error in Tables VI/VII.)\n");
  return 0;
}
