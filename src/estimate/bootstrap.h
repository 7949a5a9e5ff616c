#ifndef KGAQ_ESTIMATE_BOOTSTRAP_H_
#define KGAQ_ESTIMATE_BOOTSTRAP_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "estimate/ht_estimator.h"
#include "query/aggregate.h"

namespace kgaq {

/// Poisson(lambda) sampler by table inversion: one uniform per draw. The
/// CDF is tabulated up to where the upper tail falls below 1e-15 (its last
/// entry forced to 1), and a 256-entry guide table starts each search at
/// the first index the uniform can map to, so a draw costs O(1) expected
/// comparisons. Exact (up to that tail) at any lambda > 0.
class PoissonTable {
 public:
  explicit PoissonTable(double lambda);

  uint32_t Draw(Rng& rng) const {
    const double u = rng.NextDouble();
    uint32_t k = guide_[static_cast<size_t>(u * kGuideSize)];
    while (cdf_[k] <= u) ++k;
    return k;
  }

 private:
  static constexpr size_t kGuideSize = 256;
  std::vector<double> cdf_;                   ///< P(X <= k)
  std::array<uint32_t, kGuideSize> guide_{};  ///< first k, cdf_[k] > j/256
};

/// Standard bootstrap estimate of the point estimator's standard deviation
/// (Eq. 11): draws B resamples with replacement, evaluates the estimator on
/// each, and returns the empirical sigma of the resample estimates.
struct BootstrapResult {
  double mean = 0.0;
  double sigma = 0.0;
  std::vector<double> resample_estimates;
};

BootstrapResult Bootstrap(std::span<const SampleItem> sample,
                          AggregateFunction f, size_t num_resamples,
                          Rng& rng);

/// Bag of Little Bootstraps (Kleiner et al.) estimate of the Margin of
/// Error (Eq. 10): splits the sample into t subsamples of size |S|^m,
/// bootstraps each with resamples of the full size |S|, converts each
/// sigma into a per-bag MoE eps_i = z * sigma_i, and averages. Resample
/// weights are Poisson(|S| / bag) draws from one PoissonTable per call;
/// COUNT/SUM/AVG fold them inline, MAX/MIN use WeightedEstimate.
struct BlbOptions {
  size_t t = 3;             ///< Number of little bags (paper: t >= 3).
  double m = 0.6;           ///< Subsample size exponent (paper: m = 0.6).
  size_t num_resamples = 50;  ///< Bootstrap resamples per bag (B >= 50).
};

struct BlbResult {
  double moe = 0.0;    ///< Averaged eps over bags.
  double sigma = 0.0;  ///< Averaged sigma over bags.
};

BlbResult BagOfLittleBootstraps(std::span<const SampleItem> sample,
                                AggregateFunction f, double confidence_level,
                                const BlbOptions& options, Rng& rng);

}  // namespace kgaq

#endif  // KGAQ_ESTIMATE_BOOTSTRAP_H_
