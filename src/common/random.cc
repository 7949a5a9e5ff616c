#include "common/random.h"

#include <cmath>

namespace kgaq {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextGaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * mul;
  has_spare_ = true;
  return u * mul;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0 || weights.empty()) {
    return weights.empty() ? 0 : NextBounded(weights.size());
  }
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() {
  uint64_t child_seed = Next() ^ 0xA0761D6478BD642FULL;
  return Rng(child_seed);
}

}  // namespace kgaq
