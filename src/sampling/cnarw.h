#ifndef KGAQ_SAMPLING_CNARW_H_
#define KGAQ_SAMPLING_CNARW_H_

#include "kg/bfs.h"
#include "kg/knowledge_graph.h"
#include "sampling/transition_model.h"

namespace kgaq {

/// Common Neighbor Aware Random Walk (Li et al., ICDE'19) — a
/// topology-aware sampler used as the S1 ablation baseline (Fig. 5a).
///
/// CNARW biases the walker away from neighbors sharing many common
/// neighbors with the current node (they carry redundant information),
/// with arc weight w(u, v) = 1 - |N(u) ∩ N(v)| / min(|N(u)|, |N(v)|),
/// floored at a small positive value. It ignores predicate semantics
/// entirely — which is exactly the deficiency the paper's semantic-aware
/// walk fixes.
TransitionModel BuildCnarwTransitionModel(const KnowledgeGraph& g,
                                          const BoundedSubgraph& scope,
                                          double self_loop_similarity = 0.001);

/// Same, with explicit build options (e.g. TransitionOptions::keep_cdf).
TransitionModel BuildCnarwTransitionModel(const KnowledgeGraph& g,
                                          const BoundedSubgraph& scope,
                                          const TransitionOptions& options);

}  // namespace kgaq

#endif  // KGAQ_SAMPLING_CNARW_H_
