#ifndef KGAQ_COMMON_RANDOM_H_
#define KGAQ_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kgaq {

/// Deterministic, fast pseudo-random generator (xoshiro256++).
///
/// Every stochastic component in kgaq (random walks, bootstrap resampling,
/// data generation, negative sampling) takes an explicit `Rng&` so that runs
/// are reproducible given a seed. Satisfies the C++ UniformRandomBitGenerator
/// concept so it can also drive <random> distributions when convenient.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit draw.
  uint64_t operator()() { return Next(); }
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound) using Lemire's rejection method.
  /// `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Standard normal draw (Marsaglia polar method, cached spare).
  double NextGaussian();

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Weights must be non-negative with positive sum; otherwise
  /// falls back to uniform.
  size_t NextWeighted(const std::vector<double>& weights);

  /// Forks an independent generator (splitmix of the current state);
  /// used to hand deterministic child streams to worker threads.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// In-place Fisher-Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    size_t j = rng.NextBounded(i);
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

}  // namespace kgaq

#endif  // KGAQ_COMMON_RANDOM_H_
