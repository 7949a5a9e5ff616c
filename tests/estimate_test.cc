#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/random.h"
#include "estimate/accuracy.h"
#include "estimate/bootstrap.h"
#include "estimate/ht_estimator.h"
#include "estimate/normal.h"

namespace kgaq {
namespace {

// A tiny synthetic population for estimator tests: `n` answers, the first
// `correct` of which are correct with value v_i, sampled i.i.d. with
// probabilities proportional to given weights.
struct Population {
  std::vector<double> values;
  std::vector<double> pi;
  std::vector<bool> correct;

  double TrueSum() const {
    double s = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      if (correct[i]) s += values[i];
    }
    return s;
  }
  double TrueCount() const {
    double c = 0;
    for (size_t i = 0; i < values.size(); ++i) c += correct[i] ? 1 : 0;
    return c;
  }
  double TrueAvg() const {
    return TrueCount() == 0 ? 0.0 : TrueSum() / TrueCount();
  }

  std::vector<SampleItem> Draw(size_t k, Rng& rng) const {
    std::vector<SampleItem> out;
    out.reserve(k);
    for (size_t d = 0; d < k; ++d) {
      size_t i = rng.NextWeighted(pi);
      out.push_back({static_cast<NodeId>(i), values[i], pi[i], correct[i]});
    }
    return out;
  }
};

Population MakePopulation(size_t n, size_t num_correct, Rng& rng) {
  Population p;
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    p.values.push_back(10.0 + static_cast<double>(i % 17));
    p.correct.push_back(i < num_correct);
    // Correct answers get higher sampling mass (semantic-aware shape).
    double w = (i < num_correct ? 4.0 : 1.0) * (0.5 + rng.NextDouble());
    p.pi.push_back(w);
    total += w;
  }
  for (auto& x : p.pi) x /= total;
  return p;
}

// ---------- NormalQuantile ----------

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.95), 1.644854, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.99), 2.326348, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
}

TEST(NormalQuantileTest, SymmetricAroundHalf) {
  for (double p : {0.6, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(NormalQuantile(p), -NormalQuantile(1 - p), 1e-8);
  }
}

TEST(NormalQuantileTest, CriticalValueMatchesConfidence) {
  EXPECT_NEAR(NormalCriticalValue(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(NormalCriticalValue(0.90), 1.644854, 1e-5);
  EXPECT_NEAR(NormalCriticalValue(0.98), 2.326348, 1e-5);
}

TEST(NormalQuantileTest, MonotoneIncreasing) {
  double prev = NormalQuantile(0.01);
  for (double p = 0.02; p < 1.0; p += 0.01) {
    double q = NormalQuantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

// ---------- HtEstimator ----------

TEST(HtEstimatorTest, EmptySampleYieldsZero) {
  std::vector<SampleItem> empty;
  EXPECT_EQ(HtEstimator::EstimateSum(empty), 0.0);
  EXPECT_EQ(HtEstimator::EstimateCount(empty), 0.0);
  EXPECT_EQ(HtEstimator::EstimateAvg(empty), 0.0);
}

TEST(HtEstimatorTest, AllIncorrectYieldsZero) {
  std::vector<SampleItem> s = {{0, 5.0, 0.5, false}, {1, 7.0, 0.5, false}};
  EXPECT_EQ(HtEstimator::EstimateSum(s), 0.0);
  EXPECT_EQ(HtEstimator::EstimateCount(s), 0.0);
  EXPECT_EQ(HtEstimator::CountCorrect(s), 0u);
}

TEST(HtEstimatorTest, SingleUniformItemExact) {
  // One correct answer sampled with probability 1: every draw returns it,
  // so COUNT = 1 and SUM = value exactly.
  std::vector<SampleItem> s(5, SampleItem{0, 42.0, 1.0, true});
  EXPECT_DOUBLE_EQ(HtEstimator::EstimateCount(s), 1.0);
  EXPECT_DOUBLE_EQ(HtEstimator::EstimateSum(s), 42.0);
  EXPECT_DOUBLE_EQ(HtEstimator::EstimateAvg(s), 42.0);
}

TEST(HtEstimatorTest, MaxMinOverCorrectOnly) {
  std::vector<SampleItem> s = {{0, 5.0, 0.3, true},
                               {1, 100.0, 0.3, false},
                               {2, 9.0, 0.4, true}};
  EXPECT_DOUBLE_EQ(HtEstimator::Estimate(AggregateFunction::kMax, s), 9.0);
  EXPECT_DOUBLE_EQ(HtEstimator::Estimate(AggregateFunction::kMin, s), 5.0);
}

TEST(HtEstimatorTest, WeightedMatchesUnweightedWithUnitWeights) {
  Rng rng(5);
  Population p = MakePopulation(50, 20, rng);
  auto sample = p.Draw(500, rng);
  std::vector<double> w(sample.size(), 1.0);
  for (auto f : {AggregateFunction::kCount, AggregateFunction::kSum,
                 AggregateFunction::kAvg}) {
    EXPECT_NEAR(HtEstimator::WeightedEstimate(f, sample, w),
                HtEstimator::Estimate(f, sample), 1e-9);
  }
}

TEST(HtEstimatorTest, WeightedZeroWeightsIgnoresItems) {
  std::vector<SampleItem> s = {{0, 5.0, 0.5, true}, {1, 7.0, 0.5, true}};
  std::vector<double> w = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(
      HtEstimator::WeightedEstimate(AggregateFunction::kSum, s, w),
      5.0 / 0.5);
}

// Unbiasedness (Lemmas 3-4): the mean over many independent samples
// converges to the true population aggregate.
class HtUnbiasednessTest : public ::testing::TestWithParam<int> {};

TEST_P(HtUnbiasednessTest, SumAndCountConvergeToTruth) {
  Rng rng(1000 + GetParam());
  Population p = MakePopulation(60, 25, rng);
  double sum_acc = 0, count_acc = 0, avg_acc = 0;
  const int reps = 300;
  for (int r = 0; r < reps; ++r) {
    auto s = p.Draw(400, rng);
    sum_acc += HtEstimator::EstimateSum(s);
    count_acc += HtEstimator::EstimateCount(s);
    avg_acc += HtEstimator::EstimateAvg(s);
  }
  EXPECT_NEAR(sum_acc / reps / p.TrueSum(), 1.0, 0.02);
  EXPECT_NEAR(count_acc / reps / p.TrueCount(), 1.0, 0.02);
  EXPECT_NEAR(avg_acc / reps / p.TrueAvg(), 1.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtUnbiasednessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- Bootstrap / BLB ----------

TEST(BootstrapTest, SigmaMatchesTheoryForMeanEstimator) {
  // With all items correct and pi = 1/n ... the COUNT estimator over a
  // sample where values vary: use SUM so the estimator is a sample mean of
  // v_i / pi_i; bootstrap sigma should approximate sd/sqrt(n).
  Rng rng(7);
  const size_t n = 400;
  std::vector<SampleItem> s;
  double mean = 0;
  for (size_t i = 0; i < n; ++i) {
    double v = rng.NextGaussian() * 3.0 + 10.0;
    s.push_back({static_cast<NodeId>(i), v, 1.0, true});
    mean += v;
  }
  auto res = Bootstrap(s, AggregateFunction::kSum, 300, rng);
  // Estimator = sample mean of v; theory sigma = 3/sqrt(400) = 0.15.
  EXPECT_NEAR(res.sigma, 0.15, 0.05);
  EXPECT_NEAR(res.mean, mean / n, 0.1);
}

TEST(BootstrapTest, EmptyInputsAreSafe) {
  Rng rng(1);
  std::vector<SampleItem> empty;
  auto res = Bootstrap(empty, AggregateFunction::kSum, 50, rng);
  EXPECT_EQ(res.sigma, 0.0);
  auto blb = BagOfLittleBootstraps(empty, AggregateFunction::kSum, 0.95, {},
                                   rng);
  EXPECT_EQ(blb.moe, 0.0);
}

TEST(BlbTest, SigmaMatchesTheoryForMeanEstimator) {
  // All items correct with pi = 1: the SUM estimator is the sample mean
  // of the values, so the BLB sigma should approximate sd/sqrt(n).
  Rng rng(7);
  const size_t n = 400;
  std::vector<SampleItem> s;
  for (size_t i = 0; i < n; ++i) {
    double v = rng.NextGaussian() * 3.0 + 10.0;
    s.push_back({static_cast<NodeId>(i), v, 1.0, true});
  }
  auto res = BagOfLittleBootstraps(s, AggregateFunction::kSum, 0.95, {}, rng);
  // Theory sigma = 3/sqrt(400) = 0.15.
  EXPECT_NEAR(res.sigma, 0.15, 0.05);
  EXPECT_NEAR(res.moe, NormalCriticalValue(0.95) * res.sigma, 1e-12);
}

TEST(BlbTest, MoeShrinksWithSampleSize) {
  Rng rng(11);
  Population p = MakePopulation(80, 30, rng);
  auto small = p.Draw(200, rng);
  auto large = p.Draw(3200, rng);
  BlbOptions opts;
  auto m_small = BagOfLittleBootstraps(small, AggregateFunction::kCount,
                                       0.95, opts, rng);
  auto m_large = BagOfLittleBootstraps(large, AggregateFunction::kCount,
                                       0.95, opts, rng);
  EXPECT_GT(m_small.moe, 0.0);
  EXPECT_LT(m_large.moe, m_small.moe);
}

TEST(BlbTest, AllIncorrectSampleYieldsInfiniteMoe) {
  Rng rng(13);
  std::vector<SampleItem> s(100, SampleItem{0, 1.0, 0.01, false});
  auto res =
      BagOfLittleBootstraps(s, AggregateFunction::kCount, 0.95, {}, rng);
  EXPECT_TRUE(std::isinf(res.moe));
}

TEST(BlbTest, HigherConfidenceWidensMoe) {
  Rng rng(17);
  Population p = MakePopulation(60, 25, rng);
  auto s = p.Draw(800, rng);
  Rng r1(5), r2(5);  // identical randomness for both levels
  auto lo = BagOfLittleBootstraps(s, AggregateFunction::kSum, 0.86, {}, r1);
  auto hi = BagOfLittleBootstraps(s, AggregateFunction::kSum, 0.98, {}, r2);
  EXPECT_GT(hi.moe, lo.moe);
  // Ratio of critical values is deterministic given equal sigmas.
  EXPECT_NEAR(hi.moe / lo.moe,
              NormalCriticalValue(0.98) / NormalCriticalValue(0.86), 1e-6);
}

TEST(BlbTest, CoverageOfTrueValue) {
  // The 95% CI should cover the true COUNT in a clear majority of trials
  // (loose bound: >= 80% of 50 trials to keep the test fast and stable).
  Rng rng(23);
  Population p = MakePopulation(60, 25, rng);
  int covered = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    auto s = p.Draw(1500, rng);
    double est = HtEstimator::EstimateCount(s);
    auto blb =
        BagOfLittleBootstraps(s, AggregateFunction::kCount, 0.95, {}, rng);
    if (std::abs(est - p.TrueCount()) <= blb.moe) ++covered;
  }
  EXPECT_GE(covered, 40);
}

// ---------- Poisson table sampler ----------

class PoissonTableTest : public ::testing::TestWithParam<double> {};

// Empirical pmf (chi-square over bins of expected count >= 5, tails
// pooled), mean and variance of 200k draws match Poisson(lambda). Above
// lambda = 32 the pre-table kernel used a Gaussian approximation.
TEST_P(PoissonTableTest, MatchesPoissonDistribution) {
  const double lambda = GetParam();
  const PoissonTable table(lambda);
  Rng rng(static_cast<uint64_t>(lambda * 1000) + 1);
  const size_t draws = 200000;
  std::vector<double> counts;
  double sum = 0.0, sum_sq = 0.0;
  for (size_t d = 0; d < draws; ++d) {
    const uint32_t k = table.Draw(rng);
    if (k >= counts.size()) counts.resize(k + 1, 0.0);
    counts[k] += 1.0;
    sum += k;
    sum_sq += static_cast<double>(k) * k;
  }
  const double mean = sum / draws;
  const double var = sum_sq / draws - mean * mean;
  EXPECT_NEAR(mean, lambda, 5.0 * std::sqrt(lambda / draws));
  EXPECT_NEAR(var, lambda,
              5.0 * std::sqrt((2.0 * lambda * lambda + lambda) / draws));

  // Bins [0, lo), lo..hi-1 one each, [hi, inf), with lo/hi chosen so every
  // bin expects at least 5 draws.
  auto pmf = [&](size_t k) {
    return std::exp(k * std::log(lambda) - lambda - std::lgamma(k + 1.0));
  };
  auto observed = [&](size_t k) { return k < counts.size() ? counts[k] : 0.0; };
  size_t lo = 0;
  double lo_p = 0.0, lo_obs = 0.0;
  while (lo_p * draws < 5.0) {
    lo_p += pmf(lo);
    lo_obs += observed(lo);
    ++lo;
  }
  double chi2 = (lo_obs - lo_p * draws) * (lo_obs - lo_p * draws) /
                (lo_p * draws);
  double cum_p = lo_p, cum_obs = lo_obs;
  size_t bins = 1;
  for (size_t k = lo; (1.0 - cum_p - pmf(k)) * draws >= 5.0; ++k, ++bins) {
    const double e = pmf(k) * draws;
    chi2 += (observed(k) - e) * (observed(k) - e) / e;
    cum_p += pmf(k);
    cum_obs += observed(k);
  }
  const double tail_e = (1.0 - cum_p) * draws;
  const double tail_obs = draws - cum_obs;
  chi2 += (tail_obs - tail_e) * (tail_obs - tail_e) / tail_e;
  ++bins;
  const double df = static_cast<double>(bins - 1);
  EXPECT_LT(chi2, df + 6.0 * std::sqrt(2.0 * df)) << "bins=" << bins;
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonTableTest,
                         ::testing::Values(0.5, 6.7, 16.0, 40.0, 100.0));

// A synthetic with-replacement sample: 30% correct draws, values in
// [10, 15), pi in [0.001, 0.011).
std::vector<SampleItem> SyntheticSample(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<SampleItem> s(n);
  for (size_t i = 0; i < n; ++i) {
    s[i].node = static_cast<NodeId>(i);
    s[i].value = 10.0 + 5.0 * rng.NextDouble();
    s[i].pi = 0.001 + 0.01 * rng.NextDouble();
    s[i].correct = rng.NextBernoulli(0.3);
  }
  return s;
}

double MeanBlbSigma(AggregateFunction f, size_t n, size_t seeds) {
  double acc = 0.0;
  for (size_t seed = 1; seed <= seeds; ++seed) {
    const auto sample = SyntheticSample(n, seed);
    Rng rng(seed + 1000003);
    acc += BagOfLittleBootstraps(sample, f, 0.95, {}, rng).sigma;
  }
  return acc / static_cast<double>(seeds);
}

// The table kernel changes the BLB's random stream, not its statistics:
// over the same samples and seeds, its mean sigma stays within 2% of the
// mean measured with the Knuth-product Poisson kernel it replaced (the
// reference constants; mean over seeds 1..8000 at n=100, 1..2000 at
// n=1000).
TEST(BlbTest, MeanSigmaMatchesPreTableKernel) {
  struct Case {
    AggregateFunction f;
    size_t n;
    size_t seeds;
    double reference;
  };
  for (const Case& c : {Case{AggregateFunction::kAvg, 100, 8000, 0.211942482},
                        Case{AggregateFunction::kCount, 100, 8000, 12.9505376},
                        Case{AggregateFunction::kAvg, 1000, 2000, 0.0929976331},
                        Case{AggregateFunction::kCount, 1000, 2000,
                             4.52423431}}) {
    const double mean = MeanBlbSigma(c.f, c.n, c.seeds);
    EXPECT_NEAR(mean / c.reference, 1.0, 0.02)
        << AggregateFunctionToString(c.f) << " n=" << c.n;
  }
}

// Replays the BLB's stream with explicit weight vectors through
// HtEstimator::WeightedEstimate: bag draws by partial Fisher-Yates, then
// one table draw per weight, item by item.
double ReplayBlbSigma(std::span<const SampleItem> sample, AggregateFunction f,
                      Rng& rng) {
  const BlbOptions opts;
  const size_t n = sample.size();
  const size_t b = static_cast<size_t>(std::pow(n, opts.m));
  const PoissonTable table(static_cast<double>(n) / b);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  std::vector<SampleItem> bag(b);
  std::vector<double> w(b);
  double sigma_acc = 0.0;
  for (size_t t = 0; t < opts.t; ++t) {
    for (size_t i = 0; i < b; ++i) {
      std::swap(idx[i], idx[i + rng.NextBounded(n - i)]);
      bag[i] = sample[idx[i]];
    }
    std::vector<double> est;
    for (size_t r = 0; r < opts.num_resamples; ++r) {
      for (double& x : w) x = table.Draw(rng);
      est.push_back(HtEstimator::WeightedEstimate(f, bag, w));
    }
    double mean = 0.0, var = 0.0;
    for (double e : est) mean += e;
    mean /= est.size();
    for (double e : est) var += (e - mean) * (e - mean);
    sigma_acc += std::sqrt(var / (est.size() - 1));
  }
  return sigma_acc / opts.t;
}

// MAX/MIN resamples go through WeightedEstimate (bitwise the replay) and
// give a finite, positive sigma; the folded COUNT/SUM/AVG sums agree with
// the replay up to rounding.
TEST(BlbTest, KernelMatchesWeightedEstimateReplay) {
  std::vector<SampleItem> s = SyntheticSample(400, 9);
  for (SampleItem& it : s) it.correct = true;  // no bag can starve
  for (auto f : {AggregateFunction::kMax, AggregateFunction::kMin,
                 AggregateFunction::kCount, AggregateFunction::kSum,
                 AggregateFunction::kAvg}) {
    Rng r1(31), r2(31);
    const BlbResult blb = BagOfLittleBootstraps(s, f, 0.95, {}, r1);
    const double replay = ReplayBlbSigma(s, f, r2);
    EXPECT_TRUE(std::isfinite(blb.sigma)) << AggregateFunctionToString(f);
    EXPECT_GT(blb.sigma, 0.0) << AggregateFunctionToString(f);
    if (f == AggregateFunction::kMax || f == AggregateFunction::kMin) {
      EXPECT_EQ(blb.sigma, replay) << AggregateFunctionToString(f);
    } else {
      EXPECT_NEAR(blb.sigma / replay, 1.0, 1e-9)
          << AggregateFunctionToString(f);
    }
    EXPECT_EQ(r1.Next(), r2.Next()) << "same stream length";
  }
}

// ---------- Accuracy (Theorem 2, Eq. 12) ----------

TEST(AccuracyTest, MoeTargetFormula) {
  EXPECT_DOUBLE_EQ(MoeTargetFor(100.0, 0.01), 100.0 * 0.01 / 1.01);
  EXPECT_DOUBLE_EQ(MoeTargetFor(0.0, 0.01), 0.0);
}

TEST(AccuracyTest, SatisfiesErrorBound) {
  EXPECT_TRUE(SatisfiesErrorBound(0.9, 100.0, 0.01));
  EXPECT_FALSE(SatisfiesErrorBound(1.1, 100.0, 0.01));
}

TEST(AccuracyTest, TheoremTwoGuarantee) {
  // If |V_hat - V| <= eps and eps <= V_hat*eb/(1+eb) then relative error
  // <= eb. Verify over a grid of scenarios.
  for (double v_hat : {50.0, 578.0, 1e6}) {
    for (double eb : {0.01, 0.05, 0.2}) {
      const double eps = MoeTargetFor(v_hat, eb);
      for (double delta : {-eps, -eps / 2, 0.0, eps / 2, eps}) {
        const double v_true = v_hat + delta;  // truth inside the CI
        EXPECT_LE(std::abs(v_hat - v_true) / v_true, eb + 1e-12)
            << "v_hat=" << v_hat << " eb=" << eb;
      }
    }
  }
}

TEST(AccuracyTest, SampleIncrementMatchesPaperExample5) {
  // Example 5: |S_A| = 100, V_hat = 578, eps = 6.5, eb = 0.01, m = 0.6
  // gives roughly 16 additional answers.
  size_t delta = ConfigureSampleIncrement(100, 6.5, 578.0, 0.01, 0.6, 1);
  EXPECT_GE(delta, 14u);
  EXPECT_LE(delta, 18u);
}

TEST(AccuracyTest, IncrementIsMinimalWhenAlreadySatisfied) {
  EXPECT_EQ(ConfigureSampleIncrement(100, 0.5, 578.0, 0.01, 0.6, 8), 8u);
}

TEST(AccuracyTest, IncrementGrowsWithGap) {
  size_t d_small = ConfigureSampleIncrement(100, 7.0, 578.0, 0.01, 0.6, 1);
  size_t d_large = ConfigureSampleIncrement(100, 30.0, 578.0, 0.01, 0.6, 1);
  EXPECT_GT(d_large, d_small);
}

}  // namespace
}  // namespace kgaq
