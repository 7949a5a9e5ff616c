#ifndef KGAQ_SAMPLING_TRANSITION_MODEL_H_
#define KGAQ_SAMPLING_TRANSITION_MODEL_H_

#include <functional>
#include <span>
#include <vector>

#include "common/random.h"
#include "embedding/predicate_similarity.h"
#include "kg/bfs.h"
#include "kg/knowledge_graph.h"

namespace kgaq {

/// Build options of a TransitionModel. The outgoing CSR and alias rows are
/// always built (~28 bytes/arc: they are the walk hot path); the optional
/// CDF view adds 8 more.
struct TransitionOptions {
  /// Lemma 2 self-loop similarity injected at the walk source.
  double self_loop_similarity = 0.001;
  /// Materialize the per-arc cumulative distribution behind SampleNextCdf
  /// (+8 bytes/arc). Off by default: the alias rows serve exact draws in
  /// O(1), so only the CDF-baseline benches/tests need this. Without it
  /// SampleNextCdf falls back to a linear row scan (same draws, slower).
  bool keep_cdf = false;
};

/// Row-stochastic transition structure of the random walk, restricted to
/// an n-bounded subgraph scope (§IV-A2).
///
/// Nodes are renumbered to dense *local* ids (scope.nodes order, source at
/// local id 0). Arc weights come from a caller-supplied weight function;
/// the semantic-aware walk (Eq. 5) weights each arc by the predicate
/// similarity of its edge, while CNARW supplies topology-derived weights.
/// Per Lemma 2, a small self-loop is added at the source so the chain is
/// aperiodic.
///
/// Besides the outgoing CSR the model keeps each row's unnormalized weight
/// (the Eq. 6 closed form reads it, see ComputeStationaryDistribution) and
/// a pooled per-node alias table (one flat prob/alias array sharing the CSR
/// offsets) making SampleNext O(1) per step instead of a binary search
/// over per-node cumulative sums.
class TransitionModel {
 public:
  /// Weight of one traversal arc out of node `u`; must be > 0 (Lemma 1).
  /// ComputeStationaryDistribution's closed form also needs it symmetric:
  /// the weight of the arc u -> v equals that of v -> u over the same edge.
  using ArcWeightFn =
      std::function<double(NodeId u, const Neighbor& neighbor)>;

  struct Arc {
    uint32_t target;     ///< Local id of the node this arc reaches.
    double probability;  ///< Normalized transition probability p_ij.
  };

  /// Builds the semantic-aware model of Eq. 5: p_ij proportional to
  /// sim(L_G(e'), L_Q(e)).
  TransitionModel(const KnowledgeGraph& g, const BoundedSubgraph& scope,
                  const PredicateSimilarityCache& sims,
                  double self_loop_similarity = 0.001);
  TransitionModel(const KnowledgeGraph& g, const BoundedSubgraph& scope,
                  const PredicateSimilarityCache& sims,
                  const TransitionOptions& options);

  /// Builds a model with arbitrary positive arc weights (CNARW etc.).
  TransitionModel(const KnowledgeGraph& g, const BoundedSubgraph& scope,
                  const ArcWeightFn& weight_fn,
                  double self_loop_similarity = 0.001);
  TransitionModel(const KnowledgeGraph& g, const BoundedSubgraph& scope,
                  const ArcWeightFn& weight_fn,
                  const TransitionOptions& options);

  size_t NumScopeNodes() const { return globals_.size(); }

  /// Total number of arcs in the model.
  size_t NumArcs() const { return arcs_.size(); }

  /// Local id of the walk source (always 0).
  size_t SourceLocal() const { return 0; }

  NodeId GlobalId(size_t local) const { return globals_[local]; }

  /// Local id of `u` or kInvalidId when `u` is outside the scope (including
  /// NodeIds outside the graph entirely).
  uint32_t LocalId(NodeId u) const {
    return u < locals_.size() ? locals_[u] : kInvalidId;
  }

  /// Outgoing arcs (normalized probabilities summing to 1) of `local`.
  std::span<const Arc> Arcs(size_t local) const {
    return {arcs_.data() + offsets_[local],
            offsets_[local + 1] - offsets_[local]};
  }

  /// Unnormalized total weight d(local) of `local`'s arcs, including the
  /// Lemma 2 self-loop at the source: Eq. 5's row normalizer.
  double RowWeight(size_t local) const { return row_weight_[local]; }

  /// True when the per-arc cumulative distribution was materialized
  /// (TransitionOptions::keep_cdf).
  bool has_cdf() const { return !cumulative_.empty(); }

  /// Resident bytes of every materialized per-arc/per-node view; drives
  /// the ROADMAP memory audit (bytes/arc before vs after gating).
  size_t MemoryBytes() const;

  /// Draws the next node exactly from the categorical distribution of
  /// `local`'s arcs in O(1): one uniform slot pick plus one biased coin
  /// against the node's alias row (Walker/Vose), independent of degree.
  size_t SampleNext(size_t local, Rng& rng) const {
    const size_t begin = offsets_[local];
    const size_t slot = begin + rng.NextBounded(offsets_[local + 1] - begin);
    const size_t k = rng.NextDouble() < alias_prob_[slot]
                         ? slot
                         : begin + alias_index_[slot];
    return arcs_[k].target;
  }

  /// Reference draw via binary search over per-node cumulative sums — the
  /// pre-alias O(log degree) hot path, kept as the distribution baseline
  /// for tests and the micro bench. Requires TransitionOptions::keep_cdf
  /// for the O(log degree) path; without it a linear row scan over the
  /// same partial sums produces the identical draw.
  size_t SampleNextCdf(size_t local, Rng& rng) const;

  /// Draws the next node with the paper's walking-with-rejection policy:
  /// pick a uniform neighbor, accept with probability proportional to its
  /// transition weight; repeat until accepted. Distributionally equivalent
  /// to SampleNext; kept for fidelity and cross-checked in tests.
  size_t SampleNextRejection(size_t local, Rng& rng) const;

 private:
  void BuildArcs(const KnowledgeGraph& g, const BoundedSubgraph& scope,
                 const ArcWeightFn& weight_fn,
                 const TransitionOptions& options);

  std::vector<NodeId> globals_;    // local -> global
  std::vector<uint32_t> locals_;   // global -> local (kInvalidId outside)
  std::vector<size_t> offsets_;    // CSR offsets into arcs_
  std::vector<Arc> arcs_;
  std::vector<double> cumulative_;  // per-arc cumulative (keep_cdf only)
  std::vector<double> max_prob_;    // per-node max arc probability
  std::vector<double> row_weight_;  // per-node unnormalized row total

  // Pooled per-node alias rows, sharing offsets_. alias_index_ entries are
  // row-local, so one uint32 suffices regardless of pool size.
  std::vector<double> alias_prob_;
  std::vector<uint32_t> alias_index_;
};

}  // namespace kgaq

#endif  // KGAQ_SAMPLING_TRANSITION_MODEL_H_
