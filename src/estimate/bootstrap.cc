#include "estimate/bootstrap.h"

#include <cmath>
#include <limits>

#include "estimate/normal.h"

namespace kgaq {

PoissonTable::PoissonTable(double lambda) {
  // The pmf up to a constant, q(mode) = 1, by the ratio recurrence out
  // from the mode: no exp or lgamma, no overflow, and far-left terms
  // underflow harmlessly to 0 at any lambda. Past the mode the terms fall
  // geometrically, so the tail from k on is at most q(k) (k+1)/(k+1-lambda).
  const size_t mode = static_cast<size_t>(lambda);
  cdf_.assign(mode + 1, 1.0);
  for (size_t k = mode; k > 0; --k) cdf_[k - 1] = cdf_[k] * k / lambda;
  double total = 0.0;
  for (double q : cdf_) total += q;
  for (double k = mode + 1.0;; ++k) {
    total += cdf_.emplace_back(cdf_.back() * lambda / k);
    if (cdf_.back() * (k + 1.0) < 1e-15 * total * (k + 1.0 - lambda)) break;
  }
  double acc = 0.0;
  for (double& c : cdf_) c = (acc += c) / total;
  cdf_.back() = 1.0;
  for (size_t j = 0, k = 0; j < kGuideSize; ++j) {
    while (cdf_[k] <= static_cast<double>(j) / kGuideSize) ++k;
    guide_[j] = static_cast<uint32_t>(k);
  }
}

BootstrapResult Bootstrap(std::span<const SampleItem> sample,
                          AggregateFunction f, size_t num_resamples,
                          Rng& rng) {
  BootstrapResult out;
  if (sample.empty() || num_resamples == 0) return out;

  std::vector<SampleItem> resample(sample.size());
  out.resample_estimates.reserve(num_resamples);
  for (size_t b = 0; b < num_resamples; ++b) {
    for (size_t i = 0; i < sample.size(); ++i) {
      resample[i] = sample[rng.NextBounded(sample.size())];
    }
    out.resample_estimates.push_back(HtEstimator::Estimate(f, resample));
  }

  double mean = 0.0;
  for (double v : out.resample_estimates) mean += v;
  mean /= static_cast<double>(out.resample_estimates.size());
  double var = 0.0;
  for (double v : out.resample_estimates) var += (v - mean) * (v - mean);
  // Eq. 11 uses the (B - 1) divisor.
  if (out.resample_estimates.size() > 1) {
    var /= static_cast<double>(out.resample_estimates.size() - 1);
  }
  out.mean = mean;
  out.sigma = std::sqrt(var);
  return out;
}

BlbResult BagOfLittleBootstraps(std::span<const SampleItem> sample,
                                AggregateFunction f, double confidence_level,
                                const BlbOptions& options, Rng& rng) {
  BlbResult out;
  if (sample.empty() || options.t == 0) return out;
  const double z = NormalCriticalValue(confidence_level);

  const size_t n = sample.size();
  const size_t bag_size = std::max<size_t>(
      1, static_cast<size_t>(
             std::pow(static_cast<double>(n), options.m)));
  // Each virtual resample has the *full* sample size n drawn from the
  // bag — the BLB trick that keeps resamples statistically full-sized.
  // Realized via Poissonized multinomial multiplicities w_i ~
  // Poisson(n / b), each one uniform through the table, so a resample
  // costs O(bag), not O(n).
  const PoissonTable poisson(static_cast<double>(n) /
                             static_cast<double>(bag_size));
  const bool extreme =
      f == AggregateFunction::kMax || f == AggregateFunction::kMin;

  // Each bag subsamples without replacement (partial Fisher-Yates over an
  // index array), then bootstraps full-size resamples from the bag.
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;

  double moe_acc = 0.0;
  double sigma_acc = 0.0;
  size_t used_bags = 0;
  std::vector<SampleItem> bag(bag_size);
  // Per bag item: value / pi and 1 / pi of a correct draw, else 0 — the
  // Horvitz-Thompson terms, divided once per bag instead of per resample.
  std::vector<double> ratio(bag_size), inverse(bag_size);
  std::vector<double> weights(bag_size);
  std::vector<double> est(options.num_resamples);
  for (size_t bi = 0; bi < options.t; ++bi) {
    size_t bag_correct = 0;
    for (size_t i = 0; i < bag_size; ++i) {
      const size_t j = i + rng.NextBounded(n - i);
      std::swap(indices[i], indices[j]);
      const SampleItem& it = bag[i] = sample[indices[i]];
      bag_correct += it.correct ? 1 : 0;
      const bool live = it.correct && it.pi > 0.0;
      ratio[i] = live ? it.value / it.pi : 0.0;
      inverse[i] = live ? 1.0 / it.pi : 0.0;
    }
    // A bag with no correct draw yields identically-zero resample
    // estimates and a spurious sigma of 0; it carries no information about
    // the estimator's variability, so it is skipped. When low selectivity
    // starves every bag, the MoE is reported as +infinity — the caller
    // must keep sampling rather than terminate on a vacuous CI.
    if (bag_correct == 0) continue;
    double mean = 0.0;
    for (double& e : est) {
      // Sum w, sum w * value/pi and sum w / pi: the |S| divisor and the
      // SUM and COUNT numerators (Eq. 7-9) of the weighted resample.
      double sum_w = 0.0, sum_wa = 0.0, sum_wc = 0.0;
      for (size_t i = 0; i < bag_size; ++i) {
        const double w = weights[i] = poisson.Draw(rng);
        sum_w += w;
        sum_wa += w * ratio[i];
        sum_wc += w * inverse[i];
      }
      const double num = f == AggregateFunction::kCount ? sum_wc : sum_wa;
      const double den = f == AggregateFunction::kAvg ? sum_wc : sum_w;
      e = extreme ? HtEstimator::WeightedEstimate(f, bag, weights)
                  : den == 0.0 ? 0.0 : num / den;
      mean += e;
    }
    mean /= static_cast<double>(est.size());
    double var = 0.0;
    for (double v : est) var += (v - mean) * (v - mean);
    if (est.size() > 1) var /= static_cast<double>(est.size() - 1);
    const double sigma = std::sqrt(var);
    sigma_acc += sigma;
    moe_acc += z * sigma;  // Eq. 10 per bag
    ++used_bags;
  }
  if (used_bags == 0) {
    out.moe = std::numeric_limits<double>::infinity();
    out.sigma = std::numeric_limits<double>::infinity();
    return out;
  }
  out.moe = moe_acc / static_cast<double>(used_bags);
  out.sigma = sigma_acc / static_cast<double>(used_bags);
  return out;
}

}  // namespace kgaq
