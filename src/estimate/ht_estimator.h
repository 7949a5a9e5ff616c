#ifndef KGAQ_ESTIMATE_HT_ESTIMATOR_H_
#define KGAQ_ESTIMATE_HT_ESTIMATOR_H_

#include <span>
#include <vector>

#include "kg/types.h"
#include "query/aggregate.h"

namespace kgaq {

/// One validated element of the random sample S_A.
struct SampleItem {
  NodeId node = kInvalidId;
  /// Value of the aggregate attribute u.a (0 for COUNT or missing attr).
  double value = 0.0;
  /// Stationary sampling probability pi'_i of the answer (Theorem 1).
  double pi = 0.0;
  /// Result of correctness validation (s_i >= tau AND filters pass):
  /// items failing it belong to S_A \ S_A^+ and contribute zero mass.
  bool correct = false;
};

/// Horvitz-Thompson estimators for the non-uniform i.i.d. sample (Eq. 7-9).
///
/// Implementation note on the divisor: the paper's Eq. 7-8 write the outer
/// mean over |S_A^+|, while the Lemma 3/4 proofs treat every draw as an
/// i.i.d. variable from pi_A whose incorrect draws contribute zero. The two
/// coincide exactly when all draws validate correct; when some draws are
/// incorrect, dividing the inner sums by the total number of draws |S_A|
/// (with indicator weights 1{correct}) is the estimator the proofs actually
/// establish as unbiased: E[1{correct} * X/pi'] = sum over A+ of X. We use
/// the |S_A| divisor so Lemmas 3-4 hold verbatim; the AVG ratio (Eq. 9) is
/// divisor-free either way.
class HtEstimator {
 public:
  /// SUM estimate (Eq. 7): (1/|S_A|) * sum_{S_A^+} value_i / pi_i.
  static double EstimateSum(std::span<const SampleItem> sample);

  /// COUNT estimate (Eq. 8): (1/|S_A|) * sum_{S_A^+} 1 / pi_i.
  static double EstimateCount(std::span<const SampleItem> sample);

  /// AVG estimate (Eq. 9): EstimateSum / EstimateCount (0 if no correct
  /// draws). Consistent by the SLLN importance-sampling argument (Lemma 5).
  static double EstimateAvg(std::span<const SampleItem> sample);

  /// Dispatch on the aggregate function. MAX/MIN return the extreme value
  /// among correct draws — the paper's guarantee-free fallback (§VII-B).
  static double Estimate(AggregateFunction f,
                         std::span<const SampleItem> sample);

  /// Number of correct draws |S_A^+|.
  static size_t CountCorrect(std::span<const SampleItem> sample);

  /// Weighted variant: item i appears `weights[i]` times in the virtual
  /// resample (weights need not be integral). Equivalent to Estimate() on
  /// the expanded multiset; total weight plays the |S_A| divisor role.
  /// MAX/MIN ignore weights beyond presence (> 0). The Poissonized BLB
  /// uses it for MAX/MIN only; it folds COUNT/SUM/AVG weights inline.
  static double WeightedEstimate(AggregateFunction f,
                                 std::span<const SampleItem> sample,
                                 std::span<const double> weights);
};

}  // namespace kgaq

#endif  // KGAQ_ESTIMATE_HT_ESTIMATOR_H_
