#ifndef KGAQ_SAMPLING_RANDOM_WALK_H_
#define KGAQ_SAMPLING_RANDOM_WALK_H_

#include <vector>

#include "common/random.h"
#include "sampling/transition_model.h"

namespace kgaq {

/// Outcome of the "random walk until convergence" phase (§IV-A2(2)).
struct StationaryResult {
  /// Stationary visiting probability per scope-local node; sums to 1.
  std::vector<double> pi;
  /// L1 residual ||pi P - pi||_1 of the returned distribution.
  double final_delta = 0.0;
  /// Whether final_delta is below kStationaryTolerance, i.e. pi is the
  /// fixed point of Eq. 6. False when the arc weights are not symmetric.
  bool converged = false;
};

/// Largest residual ||pi P - pi||_1 accepted as a fixed point.
inline constexpr double kStationaryTolerance = 1e-12;

/// Solves Eq. 6 (pi = pi P) in closed form by detailed balance. Every
/// weight function in the tree is symmetric, w(u,v) == w(v,u): Eq. 5
/// weights an arc by its edge's predicate alone (CNARW by the common
/// neighbours of its endpoints), and KnowledgeGraph::Neighbors lists each
/// triple in both directions. A reversible chain's fixed point is
/// pi(u) = d(u) / sum_v d(v), where d(u) is u's row weight including the
/// Lemma 2 source self-loop (TransitionModel::RowWeight). The chain is
/// irreducible (Lemma 1) and aperiodic (Lemma 2), so this pi is also the
/// unique limit of the walk.
///
/// One scatter pass over the outgoing arcs then measures the residual
/// ||pi P - pi||_1; an asymmetric weight function shows up as
/// `converged == false`. Cost: O(n + arcs).
StationaryResult ComputeStationaryDistribution(const TransitionModel& model);

/// Monte-Carlo cross-check used by tests and the micro bench: walks
/// `num_steps` steps from the source and returns empirical visit
/// frequencies per scope-local node (after `burn_in` discarded steps).
std::vector<double> SimulateWalkFrequencies(const TransitionModel& model,
                                            size_t num_steps, size_t burn_in,
                                            Rng& rng,
                                            bool use_rejection_policy = true);

}  // namespace kgaq

#endif  // KGAQ_SAMPLING_RANDOM_WALK_H_
