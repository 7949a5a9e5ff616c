#include "sampling/random_walk.h"

#include <cmath>

namespace kgaq {

StationaryResult ComputeStationaryDistribution(const TransitionModel& model) {
  const size_t n = model.NumScopeNodes();
  StationaryResult out;
  if (n == 0) return out;

  // Detailed balance: pi(u) p_uv = d(u) w(u,v) / (d(u) D) = w(u,v) / D is
  // symmetric in (u, v) when the weights are, so pi = d / D.
  double total = 0.0;
  for (size_t u = 0; u < n; ++u) total += model.RowWeight(u);
  out.pi.resize(n);
  for (size_t u = 0; u < n; ++u) out.pi[u] = model.RowWeight(u) / total;

  std::vector<double> next(n, 0.0);
  for (size_t u = 0; u < n; ++u) {
    for (const TransitionModel::Arc& a : model.Arcs(u)) {
      next[a.target] += out.pi[u] * a.probability;
    }
  }
  for (size_t u = 0; u < n; ++u) {
    out.final_delta += std::abs(next[u] - out.pi[u]);
  }
  out.converged = out.final_delta < kStationaryTolerance;
  return out;
}

std::vector<double> SimulateWalkFrequencies(const TransitionModel& model,
                                            size_t num_steps, size_t burn_in,
                                            Rng& rng,
                                            bool use_rejection_policy) {
  const size_t n = model.NumScopeNodes();
  std::vector<double> freq(n, 0.0);
  if (n == 0 || num_steps == 0) return freq;
  size_t current = model.SourceLocal();
  for (size_t step = 0; step < burn_in; ++step) {
    current = use_rejection_policy ? model.SampleNextRejection(current, rng)
                                   : model.SampleNext(current, rng);
  }
  for (size_t step = 0; step < num_steps; ++step) {
    current = use_rejection_policy ? model.SampleNextRejection(current, rng)
                                   : model.SampleNext(current, rng);
    freq[current] += 1.0;
  }
  for (double& f : freq) f /= static_cast<double>(num_steps);
  return freq;
}

}  // namespace kgaq
