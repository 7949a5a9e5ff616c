#ifndef KGAQ_CORE_BRANCH_SAMPLER_H_
#define KGAQ_CORE_BRANCH_SAMPLER_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/branch_plan.h"
#include "core/chain_validation_cache.h"
#include "core/engine_context.h"
#include "embedding/embedding_model.h"
#include "kg/knowledge_graph.h"
#include "query/query_graph.h"

namespace kgaq {

/// Sampling + validation machinery for ONE query branch (a simple query or
/// a chain), rooted at the branch's specific node.
///
/// The paper's S1 step (n-bounded scoping, Eq. 5 transition model, Eq. 6
/// convergence, pi_A extraction, §V-B stage composition) is a pure
/// function of the branch and the options, so it lives in the context's
/// prepared-branch cache (PrepareBranch); a sampler is that shared plan
/// plus the per-session validation state.
///
/// The sampler exposes the i.i.d. answer distribution and per-answer
/// greedy validation of the full multi-stage match similarity.
class BranchSampler {
 public:
  /// Resolves the branch to its BranchKey and borrows the prepared
  /// branch, the hop similarity rows and (for chains) the chain-profile
  /// store from the context's caches — only a cold key runs the S1
  /// build. With `pins` attached (a QuerySession's borrow epoch), those
  /// borrowed structures are pinned — a governed context's eviction
  /// cannot reclaim them until the scope releases. The returned object is
  /// immutable apart from the validation cache. Fails when the specific
  /// node or a predicate cannot be resolved, or a cache build throws
  /// (e.g. an injected cache fault).
  static Result<std::unique_ptr<BranchSampler>> Build(
      const EngineContext& ctx, const QueryBranch& branch,
      const BranchSamplerOptions& options, CachePinScope* pins = nullptr);

  /// Standalone build: derives everything through an ephemeral context
  /// (the borrowed structures live on inside this sampler, nothing is
  /// reused across calls), so S1 always runs cold.
  static Result<std::unique_ptr<BranchSampler>> Build(
      const KnowledgeGraph& g, const EmbeddingModel& model,
      const QueryBranch& branch, const BranchSamplerOptions& options);

  size_t NumCandidates() const { return plan_->candidates.size(); }
  NodeId CandidateNode(size_t i) const { return plan_->candidates[i]; }
  double CandidateProbability(size_t i) const {
    return plan_->probabilities[i];
  }

  /// Index of `u` among the candidates, or kInvalidId.
  uint32_t CandidateIndex(NodeId u) const;

  /// Draws `k` i.i.d. candidate indices from the branch's pi_A in O(k)
  /// via the alias table (no per-draw binary search).
  std::vector<size_t> Draw(size_t k, Rng& rng) const;

  /// Allocation-free variant: draws into `out` (resized to `k`), reusing
  /// its capacity across rounds.
  void Draw(size_t k, Rng& rng, std::vector<size_t>& out) const;

  /// Greedy-validated overall match similarity of candidate `u` (geometric
  /// mean over all edges of the best found multi-stage path; §IV-B2 + §V-B).
  /// Returns 0 when no match is found. A 1-hop branch reads the plan's
  /// frozen similarities (0 for a node that is not a candidate); a chain
  /// validates on first use and caches per node.
  double ValidateSimilarity(NodeId u) const;

  /// Validates every (distinct, not-yet-cached) node of `nodes` and fills
  /// the per-node cache, running chain validations as parallel tasks on
  /// `pool`. Subsequent ValidateSimilarity calls for these nodes are cache
  /// hits. Per-node results are identical to serial validation (each
  /// search is independent and deterministic), so parallelism never
  /// changes engine output.
  void WarmValidationCache(std::span<const NodeId> nodes,
                           ThreadPool& pool) const;

  /// Wall-clock milliseconds spent in Build (the paper's S1 on a cold
  /// key; a plan-cache lookup on a warm one).
  double build_millis() const { return build_millis_; }

 private:
  BranchSampler() = default;

  const KnowledgeGraph* g_ = nullptr;
  /// The resolved branch: specific node, hop predicates + types, options.
  BranchKey key_;
  /// Per-hop similarity rows from the EngineContext's cache, read by
  /// chain validation.
  std::vector<std::shared_ptr<const PredicateSimilarityCache>> hop_sims_;

  /// Multi-stage validation: the best overall Eq. 2 similarity of a match
  /// from `u` back to the specific node — each segment's predicates are
  /// scored against its own hop predicate and segment boundaries must land
  /// on hop-typed nodes. Dispatches to the memoized stage decomposition
  /// (key_.options.chain_memo) with the per-answer best-first search as the
  /// fallback when the enumeration budget is exceeded.
  double ValidateChainSimilarity(NodeId u) const;

  /// The original per-answer backward best-first (A*) search.
  double ValidateChainSimilarityAstar(NodeId u) const;

  /// Returns the profile for boundary state (stage, x) — see
  /// ChainCompletionProfile in core/chain_validation_cache.h — computing
  /// and memoizing it in chain_cache_ on first use; nullptr when it is
  /// invalid. Each profile's own segment enumeration gets a fresh
  /// chain_validation_max_expansions budget of DFS edge visits and
  /// sub-profiles are budgeted the same way recursively, making validity
  /// a pure function of (stage, x) — whether the cache happens to be warm
  /// (parallel warm-up, or an earlier query sharing the branch signature
  /// through the EngineContext) can never change which answers fall back
  /// to the best-first search.
  const ChainCompletionProfile* ChainCompletionsFrom(int stage,
                                                     NodeId x) const;

  /// DFS over the simple segment paths out of `node` (stage's predicate
  /// scoring), recording completions into `profile`; false when `budget`
  /// is exhausted.
  bool EnumerateCompletions(int stage, NodeId node, int len, double log_sum,
                            std::vector<NodeId>& path, size_t& budget,
                            ChainCompletionProfile& profile) const;

  /// The branch's S1 output, shared through the context's plan cache.
  std::shared_ptr<const PreparedBranch> plan_;

  /// Chain branches: per-node validation results of this session.
  mutable std::unordered_map<NodeId, double> validation_cache_;
  /// Boundary-state profiles for chain validation, keyed
  /// (stage << 32) | node. Shared through the EngineContext (per
  /// BranchKey), so sessions with equal branches share it; null for
  /// simple branches.
  std::shared_ptr<ChainValidationCache> chain_cache_;
  double build_millis_ = 0.0;
};

}  // namespace kgaq

#endif  // KGAQ_CORE_BRANCH_SAMPLER_H_
