// Property-based sweeps over randomized inputs: invariants that must hold
// for every seed / profile / parameter combination, exercised with
// parameterized gtest suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "baselines/ssb.h"
#include "core/approx_engine.h"
#include "core/branch_sampler.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "estimate/accuracy.h"
#include "estimate/ht_estimator.h"
#include "kg/bfs.h"
#include "sampling/cnarw.h"
#include "sampling/random_walk.h"
#include "sampling/transition_model.h"

namespace kgaq {
namespace {

// ---------- Dataset invariants across seeds ----------

class DatasetPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    auto r = KgGenerator::Generate(DatasetProfile::Mini(GetParam()));
    ASSERT_TRUE(r.ok());
    ds_ = std::make_unique<GeneratedDataset>(std::move(*r));
  }
  std::unique_ptr<GeneratedDataset> ds_;
};

TEST_P(DatasetPropertyTest, GraphIsStructurallySound) {
  const auto& g = ds_->graph();
  // Every arc appears in both orientations.
  size_t forward = 0, backward = 0;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const Neighbor& nb : g.Neighbors(u)) {
      EXPECT_LT(nb.node, g.NumNodes());
      EXPECT_LT(nb.predicate, g.NumPredicates());
      (nb.forward ? forward : backward) += 1;
    }
  }
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward, g.NumEdges());
}

TEST_P(DatasetPropertyTest, StationaryDistributionIsProbability) {
  const auto& g = ds_->graph();
  const auto& model = ds_->reference_embedding();
  for (size_t d = 0; d < 2; ++d) {
    PredicateSimilarityCache sims(
        model, g.PredicateIdOf(ds_->domains()[d].query_predicate));
    auto scope = BoundedBfs(g, ds_->hubs()[d % ds_->hubs().size()], 3);
    TransitionModel tm(g, scope, sims);
    auto st = ComputeStationaryDistribution(tm);
    const double total =
        std::accumulate(st.pi.begin(), st.pi.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-8);
    for (double p : st.pi) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST_P(DatasetPropertyTest, ClosedFormStationaryIsExactFixedPoint) {
  // Both the semantic-aware (Eq. 5) and the CNARW weights are symmetric,
  // so detailed balance gives Eq. 6's fixed point exactly: the residual
  // ||pi P - pi||_1 is rounding noise, and every node keeps mass (Lemma 1).
  const auto& g = ds_->graph();
  for (size_t d = 0; d < 2; ++d) {
    PredicateSimilarityCache sims(
        ds_->reference_embedding(),
        g.PredicateIdOf(ds_->domains()[d].query_predicate));
    auto scope = BoundedBfs(g, ds_->hubs()[d % ds_->hubs().size()], 3);
    const TransitionModel semantic(g, scope, sims);
    const TransitionModel cnarw = BuildCnarwTransitionModel(g, scope);
    for (const TransitionModel* tm : {&semantic, &cnarw}) {
      auto st = ComputeStationaryDistribution(*tm);
      ASSERT_EQ(st.pi.size(), tm->NumScopeNodes());
      EXPECT_TRUE(st.converged);
      EXPECT_LE(st.final_delta, 1e-12);
      EXPECT_NEAR(std::accumulate(st.pi.begin(), st.pi.end(), 0.0), 1.0,
                  1e-12);
      for (double p : st.pi) EXPECT_GT(p, 0.0);
    }
  }
}

TEST_P(DatasetPropertyTest, ValidatorIsFalsePositiveFree) {
  // For every candidate: greedy-validated similarity <= exact Eq. 3
  // similarity. An incorrect answer can therefore never validate correct.
  const auto& ds = *ds_;
  Ssb ssb(ds.graph(), ds.reference_embedding(), {});
  auto q =
      WorkloadGenerator::SimpleQuery(ds, 1, 0, AggregateFunction::kCount);
  auto bs = BranchSampler::Build(ds.graph(), ds.reference_embedding(),
                                 q.query.branches[0], {});
  ASSERT_TRUE(bs.ok());
  auto exact = ssb.BranchSimilarities(q.query.branches[0]);
  ASSERT_TRUE(exact.ok());
  for (size_t i = 0; i < (*bs)->NumCandidates(); ++i) {
    NodeId u = (*bs)->CandidateNode(i);
    auto it = exact->find(u);
    const double e = it == exact->end() ? 0.0 : it->second;
    EXPECT_LE((*bs)->ValidateSimilarity(u), e + 1e-6);
  }
}

TEST_P(DatasetPropertyTest, EngineCiCoversTauGtForCount) {
  const auto& ds = *ds_;
  EngineOptions opts;
  opts.error_bound = 0.05;
  opts.seed = GetParam() * 13 + 1;
  ApproxEngine engine(ds.graph(), ds.reference_embedding(), opts);
  Ssb ssb(ds.graph(), ds.reference_embedding(), {});
  auto q =
      WorkloadGenerator::SimpleQuery(ds, 2, 1, AggregateFunction::kCount);
  auto gt = ssb.Execute(q);
  auto res = engine.Execute(q);
  ASSERT_TRUE(gt.ok() && res.ok());
  if (gt->answers.size() < 5) GTEST_SKIP() << "degenerate A+";
  // 95% CI + slack: |V_hat - V| <= 3 * max(moe, eb target). Tiny Mini A+
  // sets additionally admit a couple of r=3 validation false negatives
  // (Fig. 6c), hence the absolute floor.
  const double slack =
      3.0 * std::max(res->moe, MoeTargetFor(res->v_hat, opts.error_bound));
  EXPECT_LE(std::abs(res->v_hat - gt->value),
            std::max(slack, 0.15 * gt->value + 1.0))
      << "v_hat=" << res->v_hat << " gt=" << gt->value;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatasetPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(StationaryClosedFormTest, PowerIterationEndsNearClosedForm) {
  // How far the closed form sits from a fixed-budget power iteration on
  // the DBpedia profile's hub scopes: 500 sweeps of pi <- pi P from
  // pi0 = {1 at the source} end visibly off the fixed point (L1 gap
  // 3.8e-4 to 6.3e-3 over the six domains) but within 1e-2 of it.
  auto ds = KgGenerator::Generate(DatasetProfile::Dbpedia());
  ASSERT_TRUE(ds.ok());
  const auto& g = ds->graph();
  double max_l1 = 0.0;
  for (size_t d = 0; d < ds->domains().size(); ++d) {
    PredicateSimilarityCache sims(
        ds->reference_embedding(),
        g.PredicateIdOf(ds->domains()[d].query_predicate));
    auto scope = BoundedBfs(g, ds->hubs()[d % ds->hubs().size()], 3);
    const TransitionModel tm(g, scope, sims);
    const size_t n = tm.NumScopeNodes();
    std::vector<double> pi(n, 0.0), next(n);
    pi[tm.SourceLocal()] = 1.0;
    for (int sweep = 0; sweep < 500; ++sweep) {
      std::fill(next.begin(), next.end(), 0.0);
      for (size_t u = 0; u < n; ++u) {
        for (const TransitionModel::Arc& a : tm.Arcs(u)) {
          next[a.target] += pi[u] * a.probability;
        }
      }
      pi.swap(next);
    }
    const auto st = ComputeStationaryDistribution(tm);
    double l1 = 0.0;
    for (size_t u = 0; u < n; ++u) l1 += std::abs(pi[u] - st.pi[u]);
    EXPECT_LT(l1, 1e-2) << "domain " << d;
    max_l1 = std::max(max_l1, l1);
  }
  EXPECT_GT(max_l1, 1e-4);
}

// ---------- Estimator invariants across parameter grid ----------

struct EstimatorCase {
  size_t population;
  size_t num_correct;
  size_t draws;
};

class EstimatorPropertyTest
    : public ::testing::TestWithParam<EstimatorCase> {};

TEST_P(EstimatorPropertyTest, CountEstimateIsNonNegativeAndScales) {
  const auto& c = GetParam();
  Rng rng(c.population * 31 + c.draws);
  std::vector<double> pi(c.population);
  double total = 0;
  for (auto& p : pi) {
    p = 0.1 + rng.NextDouble();
    total += p;
  }
  for (auto& p : pi) p /= total;
  std::vector<SampleItem> sample;
  for (size_t i = 0; i < c.draws; ++i) {
    size_t pick = rng.NextWeighted(pi);
    sample.push_back({static_cast<NodeId>(pick), 1.0, pi[pick],
                      pick < c.num_correct});
  }
  const double count = HtEstimator::EstimateCount(sample);
  EXPECT_GE(count, 0.0);
  // Rough consistency: within a factor of 2.5 of the truth for these
  // well-conditioned populations.
  if (c.draws >= 2000) {
    EXPECT_NEAR(count, static_cast<double>(c.num_correct),
                1.5 * c.num_correct);
  }
  // AVG of the all-ones attribute is exactly 1 whenever any draw validates.
  if (HtEstimator::CountCorrect(sample) > 0) {
    EXPECT_NEAR(HtEstimator::EstimateAvg(sample), 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EstimatorPropertyTest,
    ::testing::Values(EstimatorCase{20, 5, 500}, EstimatorCase{20, 5, 4000},
                      EstimatorCase{100, 30, 2000},
                      EstimatorCase{100, 30, 8000},
                      EstimatorCase{300, 10, 8000},
                      EstimatorCase{300, 200, 2000}));

// ---------- Theorem 2 / Eq. 12 algebraic properties ----------

class AccuracyPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(AccuracyPropertyTest, TargetIsTighterThanNaiveBound) {
  const double eb = GetParam();
  for (double v : {1.0, 596.0, 4.4e4, 7.5e9}) {
    const double target = MoeTargetFor(v, eb);
    EXPECT_LT(target, v * eb + 1e-12);      // tighter than V_hat * eb
    EXPECT_GT(target, 0.0);
    EXPECT_TRUE(SatisfiesErrorBound(target, v, eb));
    EXPECT_FALSE(SatisfiesErrorBound(target * 1.01, v, eb));
  }
}

TEST_P(AccuracyPropertyTest, IncrementSatisfiesEq12Algebra) {
  const double eb = GetParam();
  const double m = 0.6;
  for (size_t n : {50u, 100u, 1000u}) {
    for (double ratio : {1.5, 2.0, 5.0}) {
      const double v = 100.0;
      const double eps = ratio * MoeTargetFor(v, eb);
      const size_t delta = ConfigureSampleIncrement(n, eps, v, eb, m, 1);
      const double expected = n * (std::pow(ratio, 2 * m) - 1.0);
      EXPECT_NEAR(static_cast<double>(delta), expected,
                  std::max(2.0, 0.02 * expected));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ErrorBounds, AccuracyPropertyTest,
                         ::testing::Values(0.005, 0.01, 0.02, 0.05, 0.1));

// ---------- Random-walk invariants across hop bounds ----------

class HopBoundPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HopBoundPropertyTest, ScopeGrowsMonotonicallyWithN) {
  auto r = KgGenerator::Generate(DatasetProfile::Mini(3));
  ASSERT_TRUE(r.ok());
  const auto& g = r->graph();
  const NodeId hub = r->hubs()[0];
  const int n = GetParam();
  auto scope_n = BoundedBfs(g, hub, n);
  auto scope_n1 = BoundedBfs(g, hub, n + 1);
  EXPECT_LE(scope_n.nodes.size(), scope_n1.nodes.size());
  for (NodeId u : scope_n.nodes) {
    EXPECT_TRUE(scope_n1.Contains(u));
    EXPECT_LE(scope_n.distance[u], n);
  }
}

INSTANTIATE_TEST_SUITE_P(Hops, HopBoundPropertyTest,
                         ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace kgaq
