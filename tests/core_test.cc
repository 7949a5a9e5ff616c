#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "baselines/ssb.h"
#include "core/approx_engine.h"
#include "core/branch_sampler.h"
#include "core/engine_context.h"
#include "core/greedy_validator.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "embedding/predicate_similarity.h"
#include "estimate/accuracy.h"
#include "kg/bfs.h"
#include "kg/graph_builder.h"
#include "sampling/random_walk.h"
#include "semsim/path_enumerator.h"

namespace kgaq {
namespace {

// Shared generated dataset fixture (built once; generation is deterministic).
const GeneratedDataset& MiniDataset() {
  static GeneratedDataset* ds = [] {
    auto r = KgGenerator::Generate(DatasetProfile::Mini(7));
    return new GeneratedDataset(std::move(*r));
  }();
  return *ds;
}

// ---------- GreedyValidator ----------

struct ValidatorFixture {
  const GeneratedDataset* ds;
  std::unique_ptr<PredicateSimilarityCache> sims;
  std::unique_ptr<TransitionModel> tm;
  std::vector<double> pi;
  NodeId hub;
};

ValidatorFixture MakeValidatorFixture() {
  ValidatorFixture f;
  f.ds = &MiniDataset();
  const auto& g = f.ds->graph();
  f.hub = f.ds->hubs()[0];
  PredicateId pred =
      g.PredicateIdOf(f.ds->domains()[0].query_predicate);
  f.sims = std::make_unique<PredicateSimilarityCache>(
      f.ds->reference_embedding(), pred);
  auto scope = BoundedBfs(g, f.hub, 3);
  f.tm = std::make_unique<TransitionModel>(g, scope, *f.sims);
  f.pi = ComputeStationaryDistribution(*f.tm).pi;
  return f;
}

TEST(GreedyValidatorTest, NeverExceedsExactSimilarity) {
  // The greedy search maximizes over a subset of matches, so it can never
  // report more than the exact Eq. 3 similarity — the false-positive-free
  // property of §IV-B2.
  auto f = MakeValidatorFixture();
  const auto& g = f.ds->graph();
  GreedyValidator::Options opts;
  GreedyValidator v(g, *f.tm, f.pi, *f.sims, opts);
  auto exact = PathEnumerator::BestSimilarities(g, f.hub, 3, *f.sims);
  int checked = 0;
  for (const auto& [node, exact_sim] : exact) {
    auto m = v.FindBestMatch(node);
    if (m.found) {
      EXPECT_LE(m.similarity, exact_sim + 1e-9)
          << "node " << g.NodeName(node);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(GreedyValidatorTest, FindsHighSimilarityAnswersExactly) {
  // For answers whose best match is a short high-probability path the
  // greedy search should recover the exact similarity.
  auto f = MakeValidatorFixture();
  const auto& g = f.ds->graph();
  GreedyValidator::Options opts;
  GreedyValidator v(g, *f.tm, f.pi, *f.sims, opts);
  auto exact = PathEnumerator::BestSimilarities(g, f.hub, 3, *f.sims);
  int exact_hits = 0, high = 0;
  for (const auto& [node, exact_sim] : exact) {
    if (exact_sim < 0.9) continue;
    ++high;
    auto m = v.FindBestMatch(node);
    if (m.found && std::abs(m.similarity - exact_sim) < 1e-9) ++exact_hits;
  }
  ASSERT_GE(high, 5);
  // r = 3 recovers the vast majority (Fig. 6c shows residual FNs).
  EXPECT_GE(exact_hits, high * 8 / 10);
}

TEST(GreedyValidatorTest, LargerRepeatFactorNeverHurts) {
  auto f = MakeValidatorFixture();
  const auto& g = f.ds->graph();
  GreedyValidator::Options r1;
  r1.repeat_factor = 1;
  GreedyValidator::Options r5;
  r5.repeat_factor = 5;
  GreedyValidator v1(g, *f.tm, f.pi, *f.sims, r1);
  GreedyValidator v5(g, *f.tm, f.pi, *f.sims, r5);
  auto exact = PathEnumerator::BestSimilarities(g, f.hub, 3, *f.sims);
  for (const auto& [node, unused] : exact) {
    auto m1 = v1.FindBestMatch(node);
    auto m5 = v5.FindBestMatch(node);
    if (m1.found) {
      ASSERT_TRUE(m5.found);
      EXPECT_GE(m5.similarity + 1e-12, m1.similarity);
    }
  }
}

TEST(GreedyValidatorTest, BatchMatchesPerTargetResults) {
  auto f = MakeValidatorFixture();
  const auto& g = f.ds->graph();
  GreedyValidator::Options opts;
  GreedyValidator v(g, *f.tm, f.pi, *f.sims, opts);
  auto batch = v.ComputeAllMatches();
  ASSERT_EQ(batch.size(), f.tm->NumScopeNodes());
  // Per-target and batched searches enumerate paths in the same global
  // order, so results agree wherever both complete.
  size_t agreements = 0, comparisons = 0;
  for (size_t local = 0; local < batch.size(); ++local) {
    if (!batch[local].found) continue;
    auto m = v.FindBestMatch(f.tm->GlobalId(local));
    if (!m.found) continue;
    ++comparisons;
    if (std::abs(m.similarity - batch[local].similarity) < 1e-9) {
      ++agreements;
    }
  }
  ASSERT_GT(comparisons, 10u);
  EXPECT_GE(agreements, comparisons * 9 / 10);
}

TEST(GreedyValidatorTest, ShardedMatchesSerialBatch) {
  // The sharded traversal partitions the search tree by first hop and
  // merges per-shard arrivals in the serial pop order, so per-node results
  // must agree with the serial traversal (among equal-similarity ties only
  // the reported path length may legitimately differ).
  auto f = MakeValidatorFixture();
  const auto& g = f.ds->graph();
  GreedyValidator::Options opts;
  GreedyValidator v(g, *f.tm, f.pi, *f.sims, opts);
  // 500000 never binds on this fixture; 4096 binds, checking that the
  // capped merge replays the serial truncated prefix too. The small caps
  // also drive shard budgets below subtree sizes, exercising the
  // double-and-re-run path for imbalanced shards.
  for (size_t cap : {500000u, 4096u}) {
    auto serial = v.ComputeAllMatchesSerial(cap);
    for (size_t shards : {2u, 4u, 7u}) {
      auto sharded = v.ComputeAllMatchesSharded(cap, shards);
      ASSERT_EQ(sharded.size(), serial.size());
      for (size_t local = 0; local < serial.size(); ++local) {
        EXPECT_EQ(sharded[local].found, serial[local].found)
            << cap << " cap, " << shards << " shards, local " << local;
        EXPECT_EQ(sharded[local].similarity, serial[local].similarity)
            << cap << " cap, " << shards << " shards, local " << local;
        EXPECT_EQ(sharded[local].paths_examined,
                  serial[local].paths_examined)
            << cap << " cap, " << shards << " shards, local " << local;
      }
    }
  }
}

TEST(BranchSamplerTest, ChainMemoMatchesBestFirstSearch) {
  // The memoized stage decomposition enumerates exactly the best-first
  // search's bounded space, so validated chain similarities must agree
  // (up to FP association differences in the per-path log sums).
  const auto& ds = MiniDataset();
  auto q = WorkloadGenerator::ChainQuery(ds, 0, 0, AggregateFunction::kCount);
  BranchSamplerOptions memo_opts;
  memo_opts.chain_memo = true;
  BranchSamplerOptions search_opts;
  search_opts.chain_memo = false;
  auto with_memo = BranchSampler::Build(ds.graph(), ds.reference_embedding(),
                                        q.query.branches[0], memo_opts);
  auto with_search = BranchSampler::Build(ds.graph(), ds.reference_embedding(),
                                          q.query.branches[0], search_opts);
  ASSERT_TRUE(with_memo.ok() && with_search.ok());
  ASSERT_GT((*with_memo)->NumCandidates(), 0u);
  ASSERT_EQ((*with_memo)->NumCandidates(), (*with_search)->NumCandidates());
  for (size_t i = 0; i < (*with_memo)->NumCandidates(); ++i) {
    const NodeId u = (*with_memo)->CandidateNode(i);
    EXPECT_EQ((*with_search)->CandidateNode(i), u);
    EXPECT_NEAR((*with_memo)->ValidateSimilarity(u),
                (*with_search)->ValidateSimilarity(u), 1e-9)
        << ds.graph().NodeName(u);
  }
}

TEST(GreedyValidatorTest, UnreachableTargetNotFound) {
  auto f = MakeValidatorFixture();
  GreedyValidator::Options opts;
  GreedyValidator v(f.ds->graph(), *f.tm, f.pi, *f.sims, opts);
  auto m = v.FindBestMatch(kInvalidId - 1);  // bogus node
  EXPECT_FALSE(m.found);
}

// ---------- BranchSampler ----------

TEST(BranchSamplerTest, SimpleBranchDistribution) {
  const auto& ds = MiniDataset();
  auto q = WorkloadGenerator::SimpleQuery(ds, 0, 0,
                                          AggregateFunction::kCount);
  auto bs = BranchSampler::Build(ds.graph(), ds.reference_embedding(),
                                 q.query.branches[0], {});
  ASSERT_TRUE(bs.ok()) << bs.status();
  ASSERT_GT((*bs)->NumCandidates(), 0u);
  double total = 0.0;
  TypeId target = ds.graph().TypeIdOf(ds.domains()[0].answer_type);
  for (size_t i = 0; i < (*bs)->NumCandidates(); ++i) {
    EXPECT_TRUE(ds.graph().HasType((*bs)->CandidateNode(i), target));
    total += (*bs)->CandidateProbability(i);
    EXPECT_EQ((*bs)->CandidateIndex((*bs)->CandidateNode(i)), i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT((*bs)->build_millis(), 0.0);
}

TEST(BranchSamplerTest, UnknownSpecificNodeFails) {
  const auto& ds = MiniDataset();
  QueryBranch b;
  b.specific_name = "Nowhere";
  b.hops.push_back({"product", {"Automobile"}});
  auto bs = BranchSampler::Build(ds.graph(), ds.reference_embedding(), b, {});
  EXPECT_EQ(bs.status().code(), StatusCode::kNotFound);
}

TEST(BranchSamplerTest, UnknownPredicateFails) {
  const auto& ds = MiniDataset();
  QueryBranch b;
  b.specific_name = ds.graph().NodeName(ds.hubs()[0]);
  b.hops.push_back({"no_such_predicate", {"Automobile"}});
  auto bs = BranchSampler::Build(ds.graph(), ds.reference_embedding(), b, {});
  EXPECT_EQ(bs.status().code(), StatusCode::kNotFound);
}

TEST(BranchSamplerTest, DrawsAreReproducible) {
  const auto& ds = MiniDataset();
  auto q = WorkloadGenerator::SimpleQuery(ds, 0, 0,
                                          AggregateFunction::kCount);
  auto bs = BranchSampler::Build(ds.graph(), ds.reference_embedding(),
                                 q.query.branches[0], {});
  ASSERT_TRUE(bs.ok());
  Rng r1(5), r2(5);
  EXPECT_EQ((*bs)->Draw(100, r1), (*bs)->Draw(100, r2));
}

TEST(BranchSamplerTest, ValidationNeverExceedsSsbExact) {
  // Branch validation (greedy / A*) is false-positive free relative to the
  // SSB exact similarity, for both simple and chain branches.
  const auto& ds = MiniDataset();
  Ssb ssb(ds.graph(), ds.reference_embedding(), {});
  for (bool chain : {false, true}) {
    auto q = chain ? WorkloadGenerator::ChainQuery(ds, 0, 0,
                                                   AggregateFunction::kCount)
                   : WorkloadGenerator::SimpleQuery(
                         ds, 0, 0, AggregateFunction::kCount);
    auto bs = BranchSampler::Build(ds.graph(), ds.reference_embedding(),
                                   q.query.branches[0], {});
    ASSERT_TRUE(bs.ok());
    auto exact = ssb.BranchSimilarities(q.query.branches[0]);
    ASSERT_TRUE(exact.ok());
    for (size_t i = 0; i < (*bs)->NumCandidates(); ++i) {
      NodeId u = (*bs)->CandidateNode(i);
      double v = (*bs)->ValidateSimilarity(u);
      auto it = exact->find(u);
      double e = it == exact->end() ? 0.0 : it->second;
      EXPECT_LE(v, e + 1e-6)
          << (chain ? "chain " : "simple ") << ds.graph().NodeName(u);
    }
  }
}

TEST(BranchSamplerTest, ChainCandidatesComposeAcrossStages) {
  const auto& ds = MiniDataset();
  auto q = WorkloadGenerator::ChainQuery(ds, 0, 0, AggregateFunction::kCount);
  auto bs = BranchSampler::Build(ds.graph(), ds.reference_embedding(),
                                 q.query.branches[0], {});
  ASSERT_TRUE(bs.ok());
  EXPECT_GT((*bs)->NumCandidates(), 0u);
  double total = 0.0;
  for (size_t i = 0; i < (*bs)->NumCandidates(); ++i) {
    total += (*bs)->CandidateProbability(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// ---------- ApproxEngine (Algorithm 2) ----------

class EngineFunctionTest
    : public ::testing::TestWithParam<AggregateFunction> {};

TEST_P(EngineFunctionTest, MeetsErrorBoundAgainstTauGt) {
  const auto& ds = MiniDataset();
  const auto& model = ds.reference_embedding();
  EngineOptions opts;
  opts.error_bound = 0.02;
  ApproxEngine engine(ds.graph(), model, opts);
  Ssb ssb(ds.graph(), model, {});
  // Domain 2 has the highest relevant fraction in the Mini profile.
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 1, GetParam());
  auto gt = ssb.Execute(q);
  ASSERT_TRUE(gt.ok()) << gt.status();
  ASSERT_GT(gt->value, 0.0);
  auto res = engine.Execute(q);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_TRUE(res->satisfied);
  const double rel = std::abs(res->v_hat - gt->value) / gt->value;
  // Theorem 2 holds with 95% confidence; allow 3x slack for flakiness.
  EXPECT_LT(rel, 3 * opts.error_bound)
      << "v_hat=" << res->v_hat << " gt=" << gt->value;
  EXPECT_GT(res->total_draws, 0u);
  EXPECT_GE(res->num_candidates, res->correct_draws > 0 ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(Functions, EngineFunctionTest,
                         ::testing::Values(AggregateFunction::kCount,
                                           AggregateFunction::kSum,
                                           AggregateFunction::kAvg));

TEST(ApproxEngineTest, TraceIsMonotoneInDraws) {
  const auto& ds = MiniDataset();
  EngineOptions opts;
  opts.error_bound = 0.01;
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kAvg);
  auto res = engine.Execute(q);
  ASSERT_TRUE(res.ok());
  ASSERT_GE(res->trace.size(), 1u);
  for (size_t i = 1; i < res->trace.size(); ++i) {
    EXPECT_GE(res->trace[i].total_draws, res->trace[i - 1].total_draws);
  }
  EXPECT_EQ(res->trace.back().total_draws, res->total_draws);
}

TEST(ApproxEngineTest, InvalidQueryRejected) {
  const auto& ds = MiniDataset();
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), {});
  AggregateQuery q;
  q.query = QueryGraph::Simple("Nowhere", {"Country"}, "product",
                               {"Automobile"});
  EXPECT_FALSE(engine.Execute(q).ok());
}

TEST(ApproxEngineTest, FiltersReduceEstimate) {
  const auto& ds = MiniDataset();
  const auto& dom = ds.domains()[2];
  EngineOptions opts;
  opts.error_bound = 0.02;
  opts.seed = 3;
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kCount);
  auto unfiltered = engine.Execute(q);
  ASSERT_TRUE(unfiltered.ok());
  // An impossible range filters everything out.
  q.filters.push_back({dom.attributes[0].name, -2.0, -1.0});
  auto filtered = engine.Execute(q);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->v_hat, 0.0);
  EXPECT_GT(unfiltered->v_hat, 0.0);
}

TEST(ApproxEngineTest, FilterMatchesSsbSemantics) {
  const auto& ds = MiniDataset();
  const auto& dom = ds.domains()[2];
  EngineOptions opts;
  opts.error_bound = 0.03;
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
  Ssb ssb(ds.graph(), ds.reference_embedding(), {});
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kCount);
  // A permissive range keeping roughly the lower half of values.
  q.filters.push_back({dom.attributes[0].name, 0.0, 1e18});
  auto gt = ssb.Execute(q);
  auto res = engine.Execute(q);
  ASSERT_TRUE(gt.ok() && res.ok());
  if (gt->value > 0) {
    EXPECT_LT(std::abs(res->v_hat - gt->value) / gt->value, 0.1);
  }
}

TEST(ApproxEngineTest, GroupByProducesBucketEstimates) {
  const auto& ds = MiniDataset();
  const auto& dom = ds.domains()[2];
  // Pick a uniform attribute for stable buckets.
  std::string attr = dom.attributes[0].name;
  double width = 0;
  for (const auto& a : dom.attributes) {
    if (a.kind == AttributeSpec::Kind::kUniform) {
      attr = a.name;
      width = (a.b - a.a) / 3.0;
      break;
    }
  }
  if (width == 0) GTEST_SKIP() << "no uniform attribute in domain";
  EngineOptions opts;
  opts.error_bound = 0.05;
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kCount);
  q.group_by.attribute = attr;
  q.group_by.bucket_width = width;
  auto res = engine.Execute(q);
  ASSERT_TRUE(res.ok()) << res.status();
  ASSERT_GE(res->groups.size(), 2u);
  double group_total = 0.0;
  for (const auto& ge : res->groups) {
    EXPECT_GE(ge.support, 1u);
    group_total += ge.v_hat;
  }
  // Bucket COUNTs add up to the overall COUNT (same estimator, disjoint
  // indicator masks).
  EXPECT_NEAR(group_total, res->v_hat, 0.05 * std::max(1.0, res->v_hat));
}

TEST(ApproxEngineTest, MaxMinHaveNoGuaranteeButRun) {
  const auto& ds = MiniDataset();
  EngineOptions opts;
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kMax);
  auto res = engine.Execute(q);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->satisfied);  // no guarantee for extremes
  EXPECT_EQ(res->moe, 0.0);
  EXPECT_GT(res->v_hat, 0.0);

  q.function = AggregateFunction::kMin;
  auto res2 = engine.Execute(q);
  ASSERT_TRUE(res2.ok());
  EXPECT_LE(res2->v_hat, res->v_hat);
}

TEST(ApproxEngineTest, InteractiveRefinementReusesSample) {
  const auto& ds = MiniDataset();
  EngineOptions opts;
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kAvg);
  auto session = engine.CreateSession(q);
  ASSERT_TRUE(session.ok());
  auto coarse = (*session)->RunToErrorBound(0.05);
  auto fine = (*session)->RunToErrorBound(0.01);
  EXPECT_GE(fine.total_draws, coarse.total_draws);
  EXPECT_TRUE(fine.satisfied);
  // Theorem 2 target is tighter for the finer bound.
  EXPECT_LE(fine.moe, MoeTargetFor(fine.v_hat, 0.01) + 1e-9);
  // S1 is charged only once (to the first run).
  EXPECT_GT(coarse.timings.s1_sampling_ms, 0.0);
  EXPECT_EQ(fine.timings.s1_sampling_ms, 0.0);
}

TEST(ApproxEngineTest, ComplexShapesExecute) {
  const auto& ds = MiniDataset();
  EngineOptions opts;
  opts.error_bound = 0.05;
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
  Ssb ssb(ds.graph(), ds.reference_embedding(), {});
  // Cycle: two predicates between the same hub and target types.
  const auto& dom = ds.domains()[2];
  QueryBranch b1;
  b1.specific_name = ds.graph().NodeName(ds.hubs()[0]);
  b1.specific_types = {"Country"};
  b1.hops.push_back({dom.query_predicate, {dom.answer_type}});
  QueryBranch b2 = b1;
  b2.hops[0].predicate = dom.direct_predicate;
  AggregateQuery q;
  q.query = QueryGraph::Complex(QueryShape::kCycle, {b1, b2});
  q.function = AggregateFunction::kCount;
  auto gt = ssb.Execute(q);
  auto res = engine.Execute(q);
  ASSERT_TRUE(gt.ok()) << gt.status();
  ASSERT_TRUE(res.ok()) << res.status();
  if (gt->value >= 5) {
    EXPECT_LT(std::abs(res->v_hat - gt->value) / gt->value, 0.2);
  }
}

TEST(ApproxEngineTest, DeterministicForFixedSeed) {
  const auto& ds = MiniDataset();
  EngineOptions opts;
  opts.seed = 1234;
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kAvg);
  auto r1 = engine.Execute(q);
  auto r2 = engine.Execute(q);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->v_hat, r2->v_hat);
  EXPECT_EQ(r1->total_draws, r2->total_draws);
}


// ---------- Census cutover ----------

/// The documented census fold: ascending candidate index, count and
/// sum from 0.0, AVG = sum / count (0 without correct candidates), one
/// std::map group per key.
struct CensusFold {
  size_t count = 0;
  double sum = 0.0;
  double Value(AggregateFunction f) const {
    if (f == AggregateFunction::kCount) return static_cast<double>(count);
    if (f == AggregateFunction::kSum) return sum;
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

AggregateQuery MiniGroupByQuery(AggregateFunction f) {
  const auto& ds = MiniDataset();
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, f);
  for (const auto& a : ds.domains()[2].attributes) {
    if (a.kind == AttributeSpec::Kind::kUniform) {
      q.group_by.attribute = a.name;
      q.group_by.bucket_width = (a.b - a.a) / 3.0;
      break;
    }
  }
  return q;
}

TEST(CensusCutoverTest, CensusEqualsOrderedFoldOfEvaluateBatchBitwise) {
  const auto& ds = MiniDataset();
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), {});
  std::vector<AggregateQuery> queries;
  for (AggregateFunction f :
       {AggregateFunction::kCount, AggregateFunction::kSum,
        AggregateFunction::kAvg}) {
    queries.push_back(WorkloadGenerator::SimpleQuery(ds, 2, 0, f));
  }
  queries.push_back(MiniGroupByQuery(AggregateFunction::kCount));
  queries.push_back(MiniGroupByQuery(AggregateFunction::kSum));
  ASSERT_TRUE(queries.back().group_by.enabled());

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const AggregateQuery& q = queries[qi];
    auto res = engine.Execute(q);
    ASSERT_TRUE(res.ok()) << res.status();
    ASSERT_TRUE(res->exact) << "query " << qi;
    EXPECT_TRUE(res->satisfied);
    EXPECT_EQ(res->moe, 0.0);
    EXPECT_LT(res->total_draws, res->num_candidates);

    auto session = engine.CreateSession(q);
    ASSERT_TRUE(session.ok());
    std::vector<size_t> all((*session)->num_candidates());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    std::vector<NodeOutcome> out;
    (*session)->EvaluateBatch(all, out);
    CensusFold total;
    std::map<int64_t, CensusFold> groups;
    for (const NodeOutcome& o : out) {
      if (!o.correct) continue;
      ++total.count;
      total.sum += o.value;
      if (q.group_by.enabled()) {
        ++groups[o.group_key].count;
        groups[o.group_key].sum += o.value;
      }
    }
    EXPECT_EQ(res->v_hat, total.Value(q.function)) << "query " << qi;
    EXPECT_EQ(groups.empty(), !q.group_by.enabled()) << "query " << qi;
    ASSERT_EQ(res->groups.size(), groups.size()) << "query " << qi;
    size_t gi = 0;
    for (const auto& [key, g] : groups) {
      const GroupEstimate& ge = res->groups[gi++];
      EXPECT_EQ(ge.bucket_lower,
                static_cast<double>(key) * q.group_by.bucket_width);
      EXPECT_EQ(ge.v_hat, g.Value(q.function));
      EXPECT_EQ(ge.moe, 0.0);
      EXPECT_EQ(ge.support, g.count);
      EXPECT_TRUE(ge.satisfied);
    }
  }

  // MAX/MIN keep the extreme sampling path: never a census.
  auto max = engine.Execute(
      WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kMax));
  ASSERT_TRUE(max.ok());
  EXPECT_FALSE(max->exact);
}

TEST(CensusCutoverTest, ZeroAnswerCountEndsExactBelowTheCap) {
  const auto& ds = MiniDataset();
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), {});
  auto q = WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kCount);
  q.filters.push_back({ds.domains()[2].attributes[0].name, -2.0, -1.0});
  auto res = engine.Execute(q);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_TRUE(res->exact);
  EXPECT_EQ(res->v_hat, 0.0);
  EXPECT_EQ(res->moe, 0.0);
  EXPECT_TRUE(res->satisfied);
  EXPECT_GT(res->num_candidates, 0u);
  EXPECT_LT(res->total_draws, res->num_candidates);
}

TEST(CensusCutoverTest, ExactSessionAnswersTighterBoundWithoutDrawing) {
  const auto& ds = MiniDataset();
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), {});
  auto session = engine.CreateSession(
      WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kAvg));
  ASSERT_TRUE(session.ok());
  const AggregateResult first = (*session)->RunToErrorBound(0.05);
  ASSERT_TRUE(first.exact);
  const AggregateResult second = (*session)->RunToErrorBound(1e-6);
  EXPECT_TRUE(second.exact);
  EXPECT_TRUE(second.satisfied);
  EXPECT_EQ(second.v_hat, first.v_hat);
  EXPECT_EQ(second.moe, 0.0);
  EXPECT_EQ(second.error_bound, 1e-6);
  EXPECT_EQ(second.total_draws, first.total_draws);
  EXPECT_EQ(second.rounds, 0u);
  EXPECT_EQ((*session)->rounds_completed(), first.rounds);
}

// With the cutover off the engine is the paper's sampling loop; these
// values pin it bitwise (Mini profile seed 7), with pi from the
// closed-form Eq. 6 solve.
TEST(CensusCutoverTest, SamplingPathReproducesPreCutoverGolden) {
  const auto& ds = MiniDataset();
  EngineOptions opts;
  opts.seed = 1234;
  opts.census_cutover = false;
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
  auto avg = engine.Execute(
      WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kAvg));
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(avg->v_hat, 20396758.126932245);
  EXPECT_EQ(avg->moe, 184758.84768299886);
  EXPECT_EQ(avg->total_draws, 7797u);
  EXPECT_FALSE(avg->exact);

  auto zero_q =
      WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kCount);
  zero_q.filters.push_back({ds.domains()[2].attributes[0].name, -2.0, -1.0});
  auto zero = engine.Execute(zero_q);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->v_hat, 0.0);
  EXPECT_TRUE(std::isinf(zero->moe));
  EXPECT_EQ(zero->total_draws, 500000u);
  EXPECT_FALSE(zero->satisfied);
}


// ---------- Prepared-branch cache ----------

void ExpectResultsBitwiseEqual(const AggregateResult& a,
                               const AggregateResult& b,
                               const std::string& what) {
  EXPECT_EQ(a.v_hat, b.v_hat) << what;
  EXPECT_EQ(a.moe, b.moe) << what;
  EXPECT_EQ(a.satisfied, b.satisfied) << what;
  EXPECT_EQ(a.exact, b.exact) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.total_draws, b.total_draws) << what;
  EXPECT_EQ(a.correct_draws, b.correct_draws) << what;
  EXPECT_EQ(a.num_candidates, b.num_candidates) << what;
  ASSERT_EQ(a.groups.size(), b.groups.size()) << what;
  for (size_t gi = 0; gi < a.groups.size(); ++gi) {
    EXPECT_EQ(a.groups[gi].bucket_lower, b.groups[gi].bucket_lower) << what;
    EXPECT_EQ(a.groups[gi].v_hat, b.groups[gi].v_hat) << what;
    EXPECT_EQ(a.groups[gi].moe, b.groups[gi].moe) << what;
    EXPECT_EQ(a.groups[gi].support, b.groups[gi].support) << what;
  }
}

// Every Mini shape (simple, filter, GROUP-BY, chain, star, cycle,
// flower): one warm context answers bitwise like a fresh context per
// query, with the census cutover on and off, over two seeds. The second
// pass over the warm context builds no plan at all.
TEST(PreparedBranchCacheTest, WarmContextMatchesFreshContextPerQuery) {
  const auto& ds = MiniDataset();
  WorkloadOptions wopts;
  wopts.num_simple = 2;
  wopts.num_filter = 2;
  wopts.num_group_by = 2;
  wopts.num_chain = 2;
  wopts.num_star = 2;
  wopts.num_cycle = 2;
  wopts.num_flower = 2;
  const auto workload = WorkloadGenerator::Generate(ds, wopts);
  ASSERT_EQ(workload.size(), 14u);

  for (bool cutover : {true, false}) {
    for (uint64_t seed : {11u, 12u}) {
      EngineOptions opts;
      opts.seed = seed;
      opts.census_cutover = cutover;
      // Keeps the sampling path's cap-hit queries short; parity does not
      // depend on where the draw budget ends.
      opts.max_total_draws = 20000;
      auto warm = std::make_shared<EngineContext>(ds.graph(),
                                                  ds.reference_embedding());
      ApproxEngine warm_engine(warm, opts);
      for (const auto& bq : workload) {
        ASSERT_TRUE(warm_engine.Execute(bq.query).ok()) << bq.id;
      }
      const auto warmed = warm->Stats();
      ASSERT_GT(warmed.plan_misses, 0u);

      for (const auto& bq : workload) {
        const std::string what = bq.id + " seed " + std::to_string(seed) +
                                 (cutover ? " cutover" : " sampling");
        ApproxEngine fresh(ds.graph(), ds.reference_embedding(), opts);
        auto expected = fresh.Execute(bq.query);
        auto got = warm_engine.Execute(bq.query);
        ASSERT_TRUE(expected.ok()) << what << ": " << expected.status();
        ASSERT_TRUE(got.ok()) << what << ": " << got.status();
        ExpectResultsBitwiseEqual(*got, *expected, what);
      }
      const auto after = warm->Stats();
      EXPECT_EQ(after.plan_misses, warmed.plan_misses);
      EXPECT_GT(after.plan_hits, warmed.plan_hits);
      EXPECT_EQ(after.core_misses, warmed.core_misses);
    }
  }
}

// Concurrent first requests for one branch deduplicate in flight: eight
// sessions, one plan build.
TEST(PreparedBranchCacheTest, ConcurrentColdSessionsBuildThePlanOnce) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  ApproxEngine engine(ctx, {});
  const auto q =
      WorkloadGenerator::ChainQuery(ds, 0, 0, AggregateFunction::kCount);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> built{0};
  std::vector<size_t> candidates(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto session = engine.CreateSession(q);
      if (!session.ok()) return;
      candidates[t] = (*session)->num_candidates();
      built.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(built.load(), kThreads);
  const auto stats = ctx->Stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.plan_entries, 1u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(candidates[t], candidates[0]);
}

}  // namespace
}  // namespace kgaq
