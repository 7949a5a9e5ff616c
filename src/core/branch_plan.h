#ifndef KGAQ_CORE_BRANCH_PLAN_H_
#define KGAQ_CORE_BRANCH_PLAN_H_

#include <compare>
#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kg/types.h"
#include "sampling/alias_table.h"

namespace kgaq {

class CachePinScope;
class EngineContext;

/// Tuning knobs for building one branch's sampling machinery.
struct BranchSamplerOptions {
  int n_hops = 3;                   ///< n-bounded subgraph bound per stage.
  double self_loop_similarity = 0.001;
  int repeat_factor = 3;            ///< Validator r.
  /// Chain queries: how many stage intermediates (highest stationary mass)
  /// seed the next stage's samplings (§V-B runs one per thread). Wide
  /// enough by default to cover foreign intermediates that leak into the
  /// scope — truncation here biases the candidate set.
  size_t chain_branch_width = 48;
  /// Expansion cap for the multi-stage validation search.
  size_t chain_validation_max_expansions = 60000;
  /// Memoize per-stage boundary states of the chain validation search:
  /// answers sharing a stage-k intermediate reuse its backward-search
  /// results instead of re-running the full multi-stage search. Falls back
  /// to the capped best-first search when the exhaustive enumeration behind
  /// the memo would exceed chain_validation_max_expansions.
  bool chain_memo = true;

  auto operator<=>(const BranchSamplerOptions&) const = default;
};

/// Cache key of everything derived from one query branch: the prepared
/// branch (S1's answer distribution) and the chain-validation profile
/// store. Both are pure functions of (graph, model, key), so every input
/// they read must be a field here; the defaulted comparison picks up any
/// option added to BranchSamplerOptions in both caches at once.
struct BranchKey {
  struct Hop {
    PredicateId predicate = kInvalidId;
    std::vector<TypeId> types;  ///< resolved; unknown type names dropped

    auto operator<=>(const Hop&) const = default;
  };

  NodeId specific = kInvalidId;
  std::vector<Hop> hops;
  double sims_floor = 0.0;  ///< Eq. 4 similarity clamp of every hop row
  BranchSamplerOptions options;

  auto operator<=>(const BranchKey&) const = default;
};

/// The immutable output of one branch's S1 step (§IV-A, §V-B): the
/// candidate answers with their composed stationary probabilities pi_A,
/// the alias table drawing from them, and — for a 1-hop branch — each
/// candidate's greedy-validated match similarity (§IV-B2) from the one
/// batched traversal of the stage-0 scope.
///
/// It deliberately holds no walk core and no validator: a cached entry
/// may outlive its eviction in a holder's shared_ptr without being
/// charged, so a plan that kept cores alive would hide their bytes from
/// the cache budget. Chains validate lazily through the chain-profile
/// store, which needs only the hop similarity rows.
struct PreparedBranch {
  std::vector<NodeId> candidates;
  std::vector<double> probabilities;
  AliasTable alias;
  std::unordered_map<NodeId, uint32_t> candidate_index;
  /// 1-hop branches: similarity of candidate i (0 when no match was
  /// found); empty for chains.
  std::vector<double> similarities;

  /// Approximate heap + struct bytes (the plan cache's byte charge).
  size_t MemoryBytes() const;
};

/// Runs the S1 build for `key` against `ctx`: per stage, the n-bounded
/// scope's walk core from the context's cache (pinned into `pins` while
/// the build runs), pi_A extraction, and for chains the top
/// chain_branch_width intermediates' stage-0 matches seeding the next
/// stage; second-stage samplings run as parallel tasks on GlobalPool()
/// and compose pi' = pi'_i * pi'_j. Bitwise-deterministic under any
/// schedule. Throws std::runtime_error when a stage build fails (e.g. an
/// injected core.cache.build fault).
std::shared_ptr<const PreparedBranch> PrepareBranch(const EngineContext& ctx,
                                                    const BranchKey& key,
                                                    CachePinScope* pins);

}  // namespace kgaq

#endif  // KGAQ_CORE_BRANCH_PLAN_H_
