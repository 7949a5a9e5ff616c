#ifndef KGAQ_BENCH_BENCH_COMMON_H_
#define KGAQ_BENCH_BENCH_COMMON_H_

// Shared plumbing for the table/figure reproduction harnesses. Each bench
// binary regenerates one table or figure of the paper's §VII on the three
// synthetic dataset profiles, printing rows in the paper's layout.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/eaq.h"
#include "baselines/exact_matcher.h"
#include "baselines/grab.h"
#include "baselines/qga.h"
#include "baselines/sgq.h"
#include "baselines/ssb.h"
#include "common/timer.h"
#include "core/approx_engine.h"
#include "datagen/kg_generator.h"
#include "datagen/tau_tuning.h"
#include "datagen/workload_generator.h"

namespace kgaq::bench {

/// Scale of the bench datasets relative to the default profile; override
/// with the KGAQ_BENCH_SCALE environment variable.
inline double BenchScale() {
  const char* s = std::getenv("KGAQ_BENCH_SCALE");
  return s == nullptr ? 1.0 : std::atof(s);
}

/// Cached generated dataset per profile name.
inline const GeneratedDataset& Dataset(const std::string& name) {
  static std::map<std::string, std::unique_ptr<GeneratedDataset>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    DatasetProfile profile =
        name == "Freebase" ? DatasetProfile::Freebase(BenchScale())
        : name == "Yago2"  ? DatasetProfile::Yago2(BenchScale())
                           : DatasetProfile::Dbpedia(BenchScale());
    auto r = KgGenerator::Generate(profile);
    if (!r.ok()) {
      std::fprintf(stderr, "dataset generation failed: %s\n",
                   r.status().ToString().c_str());
      std::abort();
    }
    it = cache.emplace(name, std::make_unique<GeneratedDataset>(
                                 std::move(*r)))
             .first;
  }
  return *it->second;
}

inline const std::vector<std::string>& DatasetNames() {
  static const std::vector<std::string> names = {"DBpedia", "Freebase",
                                                 "Yago2"};
  return names;
}

inline const GeneratedDataset& DatasetByDisplayName(const std::string& n) {
  return Dataset(n == "DBpedia" ? "DBpedia" : n);
}

/// One method run: the aggregate value it produced and its response time.
struct MethodRun {
  bool ok = false;
  bool supported = true;
  double value = 0.0;
  double millis = 0.0;
};

inline double RelativeErrorPct(double value, double truth) {
  if (truth == 0.0) return value == 0.0 ? 0.0 : 100.0;
  return 100.0 * std::abs(value - truth) / std::abs(truth);
}

/// The methods of §VII-A. "JENA" and "Virtuoso" are both exact-schema
/// SPARQL semantics (identical answers; Virtuoso is run with a small extra
/// dispatch just like the paper shows near-identical numbers).
inline const std::vector<std::string>& MethodNames() {
  static const std::vector<std::string> names = {
      "Ours", "EAQ", "GraB", "QGA", "SGQ", "JENA", "Virtuoso", "SSB"};
  return names;
}

/// The paper's engine configuration: Algorithm 2 samples to the bound
/// with no census cutover, so the tables and figures measure sampling.
inline EngineOptions PaperEngineOptions() {
  EngineOptions opts;
  opts.census_cutover = false;
  return opts;
}

struct MethodContext {
  const GeneratedDataset* ds;
  const EmbeddingModel* model;
  double tau = 0.85;
  EngineOptions engine_options = PaperEngineOptions();
};

inline MethodRun RunMethod(const std::string& method, const MethodContext& c,
                           const AggregateQuery& q) {
  MethodRun out;
  const KnowledgeGraph& g = c.ds->graph();
  WallTimer timer;
  if (method == "Ours") {
    EngineOptions opts = c.engine_options;
    opts.tau = c.tau;
    ApproxEngine engine(g, *c.model, opts);
    auto r = engine.Execute(q);
    if (r.ok()) {
      out.ok = true;
      out.value = r->v_hat;
    }
  } else if (method == "EAQ") {
    if (q.query.shape != QueryShape::kSimple || q.group_by.enabled()) {
      out.supported = false;
      return out;
    }
    Eaq eaq(g, *c.model);
    auto r = eaq.Execute(q);
    if (r.ok()) {
      out.ok = true;
      out.value = r->value;
    }
  } else if (method == "GraB" || method == "QGA") {
    if (q.group_by.enabled()) {
      out.supported = false;
      return out;
    }
    Result<BaselineResult> r =
        method == "GraB" ? GraB(g).Execute(q) : Qga(g).Execute(q);
    if (r.ok()) {
      out.ok = true;
      out.value = r->value;
    }
  } else if (method == "SGQ") {
    if (q.group_by.enabled()) {
      out.supported = false;
      return out;
    }
    SgqTopK::Options opts;
    opts.tau = c.tau;
    SgqTopK sgq(g, *c.model, opts);
    auto r = sgq.Execute(q);
    if (r.ok()) {
      out.ok = true;
      out.value = r->value;
    }
  } else if (method == "JENA" || method == "Virtuoso") {
    ExactMatcher m(g);
    auto r = m.Execute(q);
    if (r.ok()) {
      out.ok = true;
      out.value = r->value;
    }
  } else if (method == "SSB") {
    Ssb::Options opts;
    opts.tau = c.tau;
    Ssb ssb(g, *c.model, opts);
    auto r = ssb.Execute(q);
    if (r.ok()) {
      out.ok = true;
      out.value = r->value;
    }
  }
  out.millis = timer.ElapsedMillis();
  return out;
}

/// Queries of one shape for effectiveness/efficiency tables.
inline std::vector<BenchmarkQuery> ShapeWorkload(const GeneratedDataset& ds,
                                                 QueryShape shape,
                                                 size_t count,
                                                 uint64_t seed = 77) {
  WorkloadOptions opts;
  opts.num_simple = opts.num_filter = opts.num_group_by = opts.num_chain =
      opts.num_star = opts.num_cycle = opts.num_flower = 0;
  opts.seed = seed;
  switch (shape) {
    case QueryShape::kSimple:
      opts.num_simple = count;
      break;
    case QueryShape::kChain:
      opts.num_chain = count;
      break;
    case QueryShape::kStar:
      opts.num_star = count;
      break;
    case QueryShape::kCycle:
      opts.num_cycle = count;
      break;
    case QueryShape::kFlower:
      opts.num_flower = count;
      break;
  }
  return WorkloadGenerator::Generate(ds, opts);
}

/// tau-GT value via SSB (the evaluation's exact oracle).
inline Result<double> TauGroundTruth(const MethodContext& c,
                                     const AggregateQuery& q) {
  Ssb::Options opts;
  opts.tau = c.tau;
  Ssb ssb(c.ds->graph(), *c.model, opts);
  auto r = ssb.Execute(q);
  if (!r.ok()) return r.status();
  return r->value;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace kgaq::bench

// google-benchmark-based harnesses (bench_micro) define
// KGAQ_BENCH_USE_GOOGLE_BENCHMARK before including this header; the
// table/figure reproductions are plain mains and must not pull in the
// benchmark library.
#ifdef KGAQ_BENCH_USE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>

#include <cstring>

namespace kgaq::bench {

/// Runs the registered benchmarks, defaulting --benchmark_out to
/// `default_out` in JSON format so every invocation leaves a
/// machine-readable result file (explicit --benchmark_out wins).
inline int RunBenchmarksWithJsonDefault(int argc, char** argv,
                                        const char* default_out) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Exactly --benchmark_out or --benchmark_out=<file>; must not match
    // --benchmark_out_format, which alone names no output file.
    if (std::strcmp(argv[i], "--benchmark_out") == 0 ||
        std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      has_out = true;
    }
  }
  std::string out_flag, format_flag;
  if (!has_out) {
    out_flag = std::string("--benchmark_out=") + default_out;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace kgaq::bench
#endif  // KGAQ_BENCH_USE_GOOGLE_BENCHMARK

#endif  // KGAQ_BENCH_BENCH_COMMON_H_
