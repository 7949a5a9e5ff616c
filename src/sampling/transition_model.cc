#include "sampling/transition_model.h"

#include <algorithm>

#include "sampling/alias_table.h"

namespace kgaq {

namespace {

TransitionOptions LegacyOptions(double self_loop_similarity) {
  TransitionOptions options;
  options.self_loop_similarity = self_loop_similarity;
  return options;
}

}  // namespace

TransitionModel::TransitionModel(const KnowledgeGraph& g,
                                 const BoundedSubgraph& scope,
                                 const PredicateSimilarityCache& sims,
                                 double self_loop_similarity)
    : TransitionModel(g, scope, sims, LegacyOptions(self_loop_similarity)) {}

TransitionModel::TransitionModel(const KnowledgeGraph& g,
                                 const BoundedSubgraph& scope,
                                 const PredicateSimilarityCache& sims,
                                 const TransitionOptions& options) {
  BuildArcs(
      g, scope,
      [&sims](NodeId, const Neighbor& nb) {
        return sims.Similarity(nb.predicate);
      },
      options);
}

TransitionModel::TransitionModel(const KnowledgeGraph& g,
                                 const BoundedSubgraph& scope,
                                 const ArcWeightFn& weight_fn,
                                 double self_loop_similarity)
    : TransitionModel(g, scope, weight_fn,
                      LegacyOptions(self_loop_similarity)) {}

TransitionModel::TransitionModel(const KnowledgeGraph& g,
                                 const BoundedSubgraph& scope,
                                 const ArcWeightFn& weight_fn,
                                 const TransitionOptions& options) {
  BuildArcs(g, scope, weight_fn, options);
}

void TransitionModel::BuildArcs(const KnowledgeGraph& g,
                                const BoundedSubgraph& scope,
                                const ArcWeightFn& weight_fn,
                                const TransitionOptions& options) {
  globals_ = scope.nodes;  // BFS order; source first
  locals_.assign(g.NumNodes(), kInvalidId);
  for (uint32_t i = 0; i < globals_.size(); ++i) {
    locals_[globals_[i]] = i;
  }

  const size_t n = globals_.size();
  offsets_.assign(n + 1, 0);
  // First pass: count in-scope arcs (+1 self-loop at the source).
  for (size_t local = 0; local < n; ++local) {
    size_t count = local == 0 ? 1 : 0;
    for (const Neighbor& nb : g.Neighbors(globals_[local])) {
      if (LocalId(nb.node) != kInvalidId) ++count;
    }
    offsets_[local + 1] = offsets_[local] + count;
  }
  const size_t num_arcs = offsets_[n];
  arcs_.resize(num_arcs);
  if (options.keep_cdf) cumulative_.resize(num_arcs);
  max_prob_.assign(n, 0.0);
  row_weight_.resize(n);
  alias_prob_.resize(num_arcs);
  alias_index_.resize(num_arcs);

  AliasRowBuilder row_builder;
  std::vector<double> row_weights;  // scratch: one row's probabilities
  for (size_t local = 0; local < n; ++local) {
    const NodeId u = globals_[local];
    size_t cursor = offsets_[local];
    double total = 0.0;
    if (local == 0) {
      arcs_[cursor++] = {0u, options.self_loop_similarity};
      total += options.self_loop_similarity;
    }
    for (const Neighbor& nb : g.Neighbors(u)) {
      const uint32_t v = LocalId(nb.node);
      if (v == kInvalidId) continue;
      double w = weight_fn(u, nb);
      if (w <= 0.0) w = 1e-12;  // Lemma 1: keep the chain irreducible.
      arcs_[cursor++] = {v, w};
      total += w;
    }
    row_weight_[local] = total;
    // Normalize this row and build its cumulative distribution (Eq. 5's
    // constraint: probabilities out of u sum to one).
    const size_t begin = offsets_[local];
    const size_t end = offsets_[local + 1];
    double acc = 0.0;
    row_weights.clear();
    for (size_t k = begin; k < end; ++k) {
      arcs_[k].probability /= total;
      acc += arcs_[k].probability;
      if (options.keep_cdf) cumulative_[k] = acc;
      max_prob_[local] = std::max(max_prob_[local], arcs_[k].probability);
      row_weights.push_back(arcs_[k].probability);
    }
    if (end > begin) {
      if (options.keep_cdf) cumulative_[end - 1] = 1.0;  // rounding guard
      row_builder.BuildRow(
          row_weights, std::span<double>(alias_prob_.data() + begin, end - begin),
          std::span<uint32_t>(alias_index_.data() + begin, end - begin));
    }
  }
}

size_t TransitionModel::MemoryBytes() const {
  return globals_.capacity() * sizeof(NodeId) +
         locals_.capacity() * sizeof(uint32_t) +
         offsets_.capacity() * sizeof(size_t) +
         arcs_.capacity() * sizeof(Arc) +
         cumulative_.capacity() * sizeof(double) +
         max_prob_.capacity() * sizeof(double) +
         row_weight_.capacity() * sizeof(double) +
         alias_prob_.capacity() * sizeof(double) +
         alias_index_.capacity() * sizeof(uint32_t);
}

size_t TransitionModel::SampleNextCdf(size_t local, Rng& rng) const {
  const size_t begin = offsets_[local];
  const size_t end = offsets_[local + 1];
  const double target = rng.NextDouble();
  if (cumulative_.empty()) {
    // keep_cdf off: walk the same partial sums the stored CDF would hold.
    // The stored version pins the row's final entry to exactly 1.0, so a
    // target past the accumulated total likewise lands on the last arc.
    double acc = 0.0;
    for (size_t k = begin; k < end; ++k) {
      acc += arcs_[k].probability;
      if (target <= acc || k + 1 == end) return arcs_[k].target;
    }
    return arcs_[end - 1].target;
  }
  auto first = cumulative_.begin() + begin;
  auto last = cumulative_.begin() + end;
  auto it = std::lower_bound(first, last, target);
  if (it == last) --it;
  return arcs_[static_cast<size_t>(it - cumulative_.begin())].target;
}

size_t TransitionModel::SampleNextRejection(size_t local, Rng& rng) const {
  const size_t begin = offsets_[local];
  const size_t count = offsets_[local + 1] - begin;
  const double cap = max_prob_[local];
  // Uniform proposal, accept with probability p_ij / max_j p_ij. The
  // normalization by the row maximum keeps the acceptance rate usable on
  // high-degree nodes while preserving the target distribution.
  for (;;) {
    const size_t k = begin + rng.NextBounded(count);
    if (rng.NextDouble() * cap <= arcs_[k].probability) {
      return arcs_[k].target;
    }
  }
}

}  // namespace kgaq
