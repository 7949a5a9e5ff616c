#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "embedding/embedding_model.h"
#include "embedding/predicate_similarity.h"
#include "kg/bfs.h"
#include "kg/graph_builder.h"
#include "sampling/answer_sampler.h"
#include "sampling/cnarw.h"
#include "sampling/node2vec.h"
#include "sampling/random_walk.h"
#include "sampling/transition_model.h"

namespace kgaq {
namespace {

struct Fixture {
  KnowledgeGraph g;
  std::unique_ptr<FixedEmbedding> embedding;
  NodeId source;
};

// Hub with two "good" (high-similarity) answers, one "bad" answer behind a
// low-similarity edge, and chaff.
Fixture MakeFixture() {
  GraphBuilder b;
  NodeId hub = b.AddNode("hub", {"Country"});
  NodeId good1 = b.AddNode("good1", {"Automobile"});
  NodeId good2 = b.AddNode("good2", {"Automobile"});
  NodeId bad = b.AddNode("bad", {"Automobile"});
  NodeId mid = b.AddNode("mid", {"Company"});
  NodeId chaff = b.AddNode("chaff", {"Person"});
  b.AddEdge(good1, "rel_hi", hub);
  b.AddEdge(good2, "rel_hi", mid);
  b.AddEdge(mid, "rel_mid", hub);
  b.AddEdge(bad, "rel_lo", hub);
  b.AddEdge(chaff, "rel_lo", hub);
  // Odd cycle hub-chaff-mid-hub: keeps the chain aperiodic enough for the
  // simulated walk to mix (trees are bipartite; the tiny source self-loop
  // alone mixes too slowly). Real KGs have abundant odd cycles.
  b.AddEdge(chaff, "rel_lo", mid);
  auto g = std::move(b).Build();
  Fixture f{std::move(*g), nullptr, hub};
  f.embedding = std::make_unique<FixedEmbedding>(
      "planted", f.g.NumNodes(), f.g.NumPredicates(), 4, 4);
  auto plant = [&](const char* name, double cos) {
    // Distinct orthogonal axes per predicate so planted cosines are exact.
    PredicateId p = f.g.PredicateIdOf(name);
    auto v = f.embedding->MutablePredicateVector(p);
    v[0] = static_cast<float>(cos);
    v[1 + p % 3] = static_cast<float>(std::sqrt(1 - cos * cos));
  };
  plant("rel_hi", 0.95);
  plant("rel_mid", 0.85);
  plant("rel_lo", 0.15);
  return f;
}

// ---------- TransitionModel ----------

TEST(TransitionModelTest, RowsAreStochastic) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding,
                                f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  for (size_t u = 0; u < tm.NumScopeNodes(); ++u) {
    double total = 0.0;
    for (const auto& arc : tm.Arcs(u)) {
      EXPECT_GT(arc.probability, 0.0);
      total += arc.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "row " << u;
  }
}

TEST(TransitionModelTest, SourceHasSelfLoop) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  bool self = false;
  for (const auto& arc : tm.Arcs(tm.SourceLocal())) {
    if (arc.target == tm.SourceLocal()) self = true;
  }
  EXPECT_TRUE(self);  // Lemma 2: aperiodicity via source self-loop
}

TEST(TransitionModelTest, HigherSimilarityGetsHigherProbability) {
  // Eq. 5 / Example 4: out of the hub, the rel_hi arc must beat rel_lo.
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  double p_good = 0, p_bad = 0;
  const uint32_t good1 = tm.LocalId(f.g.FindNodeByName("good1"));
  const uint32_t bad = tm.LocalId(f.g.FindNodeByName("bad"));
  for (const auto& arc : tm.Arcs(tm.SourceLocal())) {
    if (arc.target == good1) p_good += arc.probability;
    if (arc.target == bad) p_bad += arc.probability;
  }
  EXPECT_GT(p_good, p_bad * 3);
}

TEST(TransitionModelTest, ScopeRestriction) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 1);  // 1-hop only
  TransitionModel tm(f.g, scope, sims);
  // good2 is 2 hops away -> outside scope.
  EXPECT_EQ(tm.LocalId(f.g.FindNodeByName("good2")), kInvalidId);
  EXPECT_NE(tm.LocalId(f.g.FindNodeByName("good1")), kInvalidId);
  // Arcs never point outside the scope.
  for (size_t u = 0; u < tm.NumScopeNodes(); ++u) {
    for (const auto& arc : tm.Arcs(u)) {
      EXPECT_LT(arc.target, tm.NumScopeNodes());
    }
  }
}

TEST(TransitionModelTest, LocalIdOutOfGraphIsInvalid) {
  // Regression: LocalId used to index locals_ unchecked, returning garbage
  // (or UB) for NodeIds outside the graph entirely.
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  EXPECT_EQ(tm.LocalId(static_cast<NodeId>(f.g.NumNodes())), kInvalidId);
  EXPECT_EQ(tm.LocalId(static_cast<NodeId>(f.g.NumNodes() + 1000)),
            kInvalidId);
  EXPECT_EQ(tm.LocalId(kInvalidId - 1), kInvalidId);
  EXPECT_NE(tm.LocalId(f.source), kInvalidId);
}

TEST(TransitionModelTest, DrawPoliciesPassChiSquareAgainstExactRow) {
  // Distribution parity of all three step policies — O(1) alias draw,
  // reference CDF binary search, walking-with-rejection — against the
  // row's exact categorical distribution, via a chi-square GOF statistic.
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionOptions topts;
  topts.keep_cdf = true;  // exercise the stored-CDF binary-search path
  TransitionModel tm(f.g, scope, sims, topts);
  ASSERT_TRUE(tm.has_cdf());
  const size_t local = tm.SourceLocal();
  const auto arcs = tm.Arcs(local);
  ASSERT_GE(arcs.size(), 3u);

  const int n = 300000;
  auto chi_square = [&](auto&& draw_fn, uint64_t seed) {
    Rng rng(seed);
    std::vector<double> expected(tm.NumScopeNodes(), 0.0);
    for (const auto& arc : arcs) expected[arc.target] += arc.probability;
    std::vector<int> observed(tm.NumScopeNodes(), 0);
    for (int i = 0; i < n; ++i) ++observed[draw_fn(rng)];
    double x2 = 0.0;
    for (size_t u = 0; u < expected.size(); ++u) {
      if (expected[u] == 0.0) {
        EXPECT_EQ(observed[u], 0);
        continue;
      }
      const double e = expected[u] * n;
      const double d = observed[u] - e;
      x2 += d * d / e;
    }
    return x2;
  };
  // df = arcs - 1 (<= 5 here); 30 is far past the 99.9th percentile, so a
  // systematically wrong policy fails while seeded noise never does.
  EXPECT_LT(chi_square([&](Rng& r) { return tm.SampleNext(local, r); }, 11),
            30.0);
  EXPECT_LT(
      chi_square([&](Rng& r) { return tm.SampleNextCdf(local, r); }, 12),
      30.0);
  EXPECT_LT(chi_square(
                [&](Rng& r) { return tm.SampleNextRejection(local, r); }, 13),
            30.0);
}

TEST(TransitionModelTest, ExactAndRejectionSamplersAgree) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  Rng rng(5);
  const size_t local = tm.SourceLocal();
  std::vector<double> freq_exact(tm.NumScopeNodes(), 0);
  std::vector<double> freq_rej(tm.NumScopeNodes(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    freq_exact[tm.SampleNext(local, rng)] += 1.0 / n;
    freq_rej[tm.SampleNextRejection(local, rng)] += 1.0 / n;
  }
  for (size_t u = 0; u < tm.NumScopeNodes(); ++u) {
    EXPECT_NEAR(freq_exact[u], freq_rej[u], 0.01);
  }
}

TEST(TransitionModelTest, ViewGatingDropsCdf) {
  // Memory audit: by default no cumulative array is materialized. Every
  // draw policy must keep producing the identical stream.
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);

  TransitionOptions full;
  full.keep_cdf = true;
  TransitionModel tm_full(f.g, scope, sims, full);
  TransitionModel tm_default(f.g, scope, sims);

  EXPECT_TRUE(tm_full.has_cdf());
  EXPECT_FALSE(tm_default.has_cdf());
  EXPECT_LT(tm_default.MemoryBytes(), tm_full.MemoryBytes());

  // The alias and CDF-fallback draws are untouched by gating: identical
  // streams under identical seeds.
  for (uint64_t seed : {3u, 11u}) {
    Rng a(seed), b(seed);
    size_t ua = tm_full.SourceLocal(), ub = ua;
    for (int i = 0; i < 500; ++i) {
      ua = tm_full.SampleNext(ua, a);
      ub = tm_default.SampleNext(ub, b);
      EXPECT_EQ(ua, ub);
    }
  }
  // SampleNextCdf without the stored CDF: same draw via the linear-scan
  // fallback over the same partial sums.
  {
    Rng a(7), b(7);
    size_t ua = tm_full.SourceLocal(), ub = ua;
    for (int i = 0; i < 500; ++i) {
      ua = tm_full.SampleNextCdf(ua, a);
      ub = tm_default.SampleNextCdf(ub, b);
      EXPECT_EQ(ua, ub);
    }
  }
}

// ---------- Stationary distribution ----------

TEST(StationaryTest, ConvergesAndSumsToOne) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  auto st = ComputeStationaryDistribution(tm);
  EXPECT_TRUE(st.converged);
  double total = std::accumulate(st.pi.begin(), st.pi.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (double p : st.pi) EXPECT_GT(p, 0.0);  // irreducible (Lemma 1)
}

TEST(StationaryTest, IsFixedPoint) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  auto st = ComputeStationaryDistribution(tm);
  // pi P == pi.
  std::vector<double> next(st.pi.size(), 0.0);
  for (size_t u = 0; u < st.pi.size(); ++u) {
    for (const auto& arc : tm.Arcs(u)) {
      next[arc.target] += st.pi[u] * arc.probability;
    }
  }
  for (size_t u = 0; u < st.pi.size(); ++u) {
    EXPECT_NEAR(next[u], st.pi[u], 1e-9);
  }
}

TEST(StationaryTest, MatchesEmpiricalWalkFrequencies) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  auto st = ComputeStationaryDistribution(tm);
  Rng rng(9);
  auto freq = SimulateWalkFrequencies(tm, 400000, 1000, rng);
  for (size_t u = 0; u < st.pi.size(); ++u) {
    EXPECT_NEAR(freq[u], st.pi[u], 0.01) << "node " << u;
  }
}

TEST(StationaryTest, GoodAnswersGetMoreMass) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  auto st = ComputeStationaryDistribution(tm);
  const double pi_good = st.pi[tm.LocalId(f.g.FindNodeByName("good1"))];
  const double pi_bad = st.pi[tm.LocalId(f.g.FindNodeByName("bad"))];
  EXPECT_GT(pi_good, 2 * pi_bad);
}

TEST(StationaryTest, AsymmetricWeightsAreNotAFixedPoint) {
  // The closed form needs w(u,v) == w(v,u); a weight that depends on the
  // arc's tail breaks detailed balance, and the residual check reports it.
  Fixture f = MakeFixture();
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, [](NodeId u, const Neighbor&) {
    return 1.0 + static_cast<double>(u);
  });
  auto st = ComputeStationaryDistribution(tm);
  EXPECT_FALSE(st.converged);
  EXPECT_GT(st.final_delta, 1e-6);
  EXPECT_NEAR(std::accumulate(st.pi.begin(), st.pi.end(), 0.0), 1.0, 1e-12);
}

// ---------- AnswerSampler ----------

TEST(AnswerSamplerTest, RestrictsToTargetTypesAndNormalizes) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  auto st = ComputeStationaryDistribution(tm);
  std::vector<TypeId> types = {f.g.TypeIdOf("Automobile")};
  AnswerSampler sampler(f.g, tm, st.pi, types);
  EXPECT_EQ(sampler.NumCandidates(), 3u);  // good1, good2, bad
  double total = 0.0;
  for (size_t i = 0; i < sampler.NumCandidates(); ++i) {
    EXPECT_TRUE(f.g.HasType(sampler.CandidateNode(i), types[0]));
    total += sampler.CandidateProbability(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // The source itself and non-matching nodes are excluded.
  EXPECT_EQ(sampler.ProbabilityOf(f.source), 0.0);
  EXPECT_EQ(sampler.ProbabilityOf(f.g.FindNodeByName("chaff")), 0.0);
}

TEST(AnswerSamplerTest, DrawFrequenciesMatchProbabilities) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  auto st = ComputeStationaryDistribution(tm);
  std::vector<TypeId> types = {f.g.TypeIdOf("Automobile")};
  AnswerSampler sampler(f.g, tm, st.pi, types);
  Rng rng(21);
  auto draws = sampler.Draw(200000, rng);
  std::vector<double> freq(sampler.NumCandidates(), 0.0);
  for (size_t i : draws) freq[i] += 1.0 / draws.size();
  for (size_t i = 0; i < sampler.NumCandidates(); ++i) {
    EXPECT_NEAR(freq[i], sampler.CandidateProbability(i), 0.01);
  }
}

TEST(AnswerSamplerTest, WalkingDrawMatchesIidDraw) {
  // Theorem 1: the continuous-walk collection realizes the same
  // distribution as i.i.d. draws from pi_A.
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  auto st = ComputeStationaryDistribution(tm);
  std::vector<TypeId> types = {f.g.TypeIdOf("Automobile")};
  AnswerSampler sampler(f.g, tm, st.pi, types);
  Rng rng(33);
  auto walked = sampler.DrawByWalking(100000, rng);
  ASSERT_EQ(walked.size(), 100000u);
  std::vector<double> freq(sampler.NumCandidates(), 0.0);
  for (size_t i : walked) freq[i] += 1.0 / walked.size();
  for (size_t i = 0; i < sampler.NumCandidates(); ++i) {
    EXPECT_NEAR(freq[i], sampler.CandidateProbability(i), 0.02);
  }
}

TEST(AnswerSamplerTest, EmptyCandidatesSafe) {
  Fixture f = MakeFixture();
  PredicateSimilarityCache sims(*f.embedding, f.g.PredicateIdOf("rel_hi"));
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm(f.g, scope, sims);
  auto st = ComputeStationaryDistribution(tm);
  std::vector<TypeId> types = {};  // nothing matches
  AnswerSampler sampler(f.g, tm, st.pi, types);
  EXPECT_EQ(sampler.NumCandidates(), 0u);
  Rng rng(1);
  EXPECT_TRUE(sampler.Draw(10, rng).empty());
  EXPECT_TRUE(sampler.DrawByWalking(10, rng).empty());
}

// ---------- CNARW / Node2Vec (topology-aware ablation baselines) ----------

TEST(CnarwTest, BuildsStochasticModelIgnoringSemantics) {
  Fixture f = MakeFixture();
  auto scope = BoundedBfs(f.g, f.source, 3);
  TransitionModel tm = BuildCnarwTransitionModel(f.g, scope);
  for (size_t u = 0; u < tm.NumScopeNodes(); ++u) {
    double total = 0.0;
    for (const auto& arc : tm.Arcs(u)) total += arc.probability;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  // CNARW does not favor the semantically good edge the way Eq. 5 does:
  // out of the hub, good1 and bad have identical topology, so their
  // transition probabilities are (near) equal.
  double p_good = 0, p_bad = 0;
  const uint32_t good1 = tm.LocalId(f.g.FindNodeByName("good1"));
  const uint32_t bad = tm.LocalId(f.g.FindNodeByName("bad"));
  for (const auto& arc : tm.Arcs(tm.SourceLocal())) {
    if (arc.target == good1) p_good += arc.probability;
    if (arc.target == bad) p_bad += arc.probability;
  }
  EXPECT_NEAR(p_good, p_bad, 1e-9);
}

TEST(Node2VecTest, ProducesNormalizedCandidateDistribution) {
  Fixture f = MakeFixture();
  auto scope = BoundedBfs(f.g, f.source, 3);
  Rng rng(7);
  Node2VecSampler::Options opts;
  opts.walk_steps = 20000;
  Node2VecSampler sampler(f.g, scope, {f.g.TypeIdOf("Automobile")}, opts,
                          rng);
  EXPECT_EQ(sampler.NumCandidates(), 3u);
  double total = 0.0;
  for (size_t i = 0; i < sampler.NumCandidates(); ++i) {
    total += sampler.CandidateProbability(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  auto draws = sampler.Draw(1000, rng);
  EXPECT_EQ(draws.size(), 1000u);
  for (size_t i : draws) EXPECT_LT(i, sampler.NumCandidates());
}

}  // namespace
}  // namespace kgaq
