#ifndef KGAQ_CORE_ENGINE_CONTEXT_H_
#define KGAQ_CORE_ENGINE_CONTEXT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/branch_plan.h"
#include "core/cache_governor.h"
#include "core/chain_validation_cache.h"
#include "embedding/embedding_model.h"
#include "embedding/predicate_similarity.h"
#include "kg/knowledge_graph.h"
#include "kg/snapshot.h"
#include "sampling/transition_model.h"

namespace kgaq {

/// Memory-governance knobs of one EngineContext — see docs/memory.md.
/// The defaults reproduce the ungoverned behavior exactly: unbounded
/// budget, every build admitted, nothing ever evicted.
struct EngineCacheOptions {
  /// Shared byte budget across all four caches (similarity rows, walk
  /// cores, prepared branches, chain-profile stores). 0 = unbounded (no
  /// eviction, no pressure, no admission control by pressure).
  size_t budget_bytes = 0;
  /// Frequency-based admission (the CPU analogue of SamGraph's
  /// frequency-hashmap hot-feature cache): cache a walk core or prepared
  /// branch (core_*) / chain store (chain_*) only once its key has been
  /// requested this many times. 1 =
  /// always admit. Similarity rows are always admitted — they are small,
  /// shared by every key that touches the predicate, and evicting them
  /// buys nothing.
  uint64_t core_admission_min_requests = 1;
  uint64_t chain_admission_min_requests = 1;
  /// Pressure hysteresis over the pinned budget fill (see MemoryPressure).
  double pressured_enter = 0.70;
  double pressured_exit = 0.50;
  double critical_enter = 0.90;
  double critical_exit = 0.70;
  /// Bound on each cache's admission counter table.
  size_t max_tracked_keys = 65536;
};

/// The immutable, build-once share of the query stack: one knowledge
/// graph, one embedding, and every expensive derived structure that is a
/// pure function of the two, in four caches:
///
///   - predicate-similarity rows (Eq. 4), per query predicate;
///   - walk cores: per-scope transition models with their alias rows
///     (Eq. 5; the Eq. 6 pi follows in closed form), per stage root;
///   - prepared branches: a branch's whole S1 output (candidates, pi_A,
///     alias table, 1-hop validation similarities — see PreparedBranch),
///     per BranchKey. A warm query reads its answer distribution here
///     and consults no walk core at all;
///   - chain-validation profile stores, per BranchKey.
///
/// Sessions (QuerySession) and services (QueryService) borrow a context
/// through shared_ptr<const EngineContext> and stay cheap: a warm session
/// shares its prepared branch's distribution (or builds only the branches'
/// intersection), while repeated or concurrent queries over the same KG
/// reuse the heavy state instead of re-deriving it per ApproxEngine.
///
/// Logical immutability: the caches below are internally synchronized
/// memo tables over pure functions, so concurrent readers can never
/// observe different values for the same key — sharing a context across
/// threads changes wall-clock, never results. With a cache budget set
/// (EngineCacheOptions::budget_bytes), the caches are governed: byte-
/// cost LRU eviction against the shared budget, epoch pinning so
/// in-flight sessions never lose entries they borrowed (CachePinScope),
/// frequency-based admission, and pressure-aware build shedding — all of
/// which degrade only to rebuilding or to ephemeral structures, so
/// governance too changes wall-clock and memory, never results. See
/// docs/memory.md.
class EngineContext {
 public:
  /// Borrowing constructor: `g` and `model` must outlive the context.
  EngineContext(const KnowledgeGraph& g, const EmbeddingModel& model,
                EngineCacheOptions cache_options = {});

  /// Owning constructor: adopts snapshot-loaded storage.
  EngineContext(KnowledgeGraph graph, std::unique_ptr<EmbeddingModel> model,
                EngineCacheOptions cache_options = {});

  /// One-call resident-engine bring-up: loads a combined binary snapshot
  /// (kg/snapshot.h) and wraps it in an owning context. Fails when the
  /// snapshot carries no embedding section.
  static Result<std::shared_ptr<EngineContext>> LoadFromSnapshot(
      const std::string& path, EngineCacheOptions cache_options = {});

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  const KnowledgeGraph& graph() const { return *g_; }
  const EmbeddingModel& model() const { return *model_; }
  const EngineCacheOptions& cache_options() const { return cache_options_; }

  /// Shared Eq. 4 similarity rows for (query predicate, clamp floor),
  /// computed once per key across every borrowing query. With `pins`
  /// attached the row is pinned into the scope for its borrow epoch.
  std::shared_ptr<const PredicateSimilarityCache> PredicateSimilarities(
      PredicateId query_predicate,
      double floor = PredicateSimilarityCache::kDefaultFloor,
      CachePinScope* pins = nullptr) const;

  /// One branch stage's shared walk machinery: the n-bounded scope's
  /// Eq. 5 transition model (alias rows). The plan build that reads its
  /// Eq. 6 pi derives it (StationaryPi), not the core.
  struct WalkCore {
    TransitionModel transitions;
  };

  /// Cache key for a walk core. Everything the built structure depends on
  /// (beyond the context's fixed graph/model) must appear here.
  struct WalkCoreKey {
    NodeId root = kInvalidId;
    PredicateId query_predicate = kInvalidId;
    int n_hops = 0;
    double self_loop_similarity = 0.0;
    double sims_floor = 0.0;

    auto operator<=>(const WalkCoreKey&) const = default;
  };

  /// The walk core for `key`, building (scope BFS + transition model +
  /// stationary solve) on first use. Concurrent first requests for the
  /// same key deduplicate in flight: one caller builds, the rest block on
  /// its future — cores are pure functions of (graph, model, key), so
  /// which caller wins never affects any result. Under governance a
  /// declined admission returns an ephemeral core (same pure function,
  /// just not cached).
  std::shared_ptr<const WalkCore> ScopedWalkCore(
      const WalkCoreKey& key, CachePinScope* pins = nullptr) const;

  /// The prepared branch (S1 output) for `key`, running PrepareBranch on
  /// a miss. The build's walk cores are pinned only while it runs (into a
  /// build-local scope); a core build shed under Critical pressure marks
  /// `pins` shed like a shed plan build does. Throws what the build
  /// throws (std::runtime_error on a failed stage).
  std::shared_ptr<const PreparedBranch> PreparedBranchFor(
      const BranchKey& key, CachePinScope* pins = nullptr) const;

  /// The chain-validation profile store for one branch. Queries with
  /// equal keys share profiles; a store's post-admission growth is
  /// charged to the budget live through its byte sink.
  std::shared_ptr<ChainValidationCache> ChainProfiles(
      const BranchKey& key, CachePinScope* pins = nullptr) const;

  /// Aggregate cache counters plus entry counts and approximate resident
  /// bytes per cache, for tests / ops introspection (surfaced by the
  /// serving layer's /stats endpoint). Byte figures cover the cached
  /// payloads and flat container-overhead allowances, not exact
  /// allocator accounting; in-flight builds (futures not yet ready)
  /// count as entries with zero bytes and are charged once materialized.
  struct CacheStats {
    uint64_t sims_hits = 0;
    uint64_t sims_misses = 0;
    size_t sims_entries = 0;
    size_t sims_bytes = 0;
    uint64_t core_hits = 0;
    uint64_t core_misses = 0;
    size_t core_entries = 0;
    size_t core_bytes = 0;
    uint64_t plan_hits = 0;
    uint64_t plan_misses = 0;
    size_t plan_entries = 0;
    size_t plan_bytes = 0;
    /// Summed over every per-signature ChainValidationCache (profile-
    /// level reuse counters); chain_bytes is the governed accounting of
    /// the signature-level store (baseline + live growth).
    uint64_t chain_hits = 0;
    uint64_t chain_misses = 0;
    size_t chain_entries = 0;
    size_t chain_bytes = 0;

    // Governance counters (across all four caches).
    size_t budget_bytes = 0;   ///< 0 = unbounded
    size_t charged_bytes = 0;  ///< the budget's live resident tally
    size_t pinned_bytes = 0;   ///< subset pinned by live sessions
    uint64_t evictions = 0;
    uint64_t admission_rejects = 0;  ///< frequency-declined builds
    uint64_t shed_builds = 0;        ///< pressure-declined builds
    uint64_t alloc_failures = 0;     ///< injected core.cache.alloc
    uint64_t build_failures = 0;     ///< builder threw (incl. injected)
    MemoryPressure pressure = MemoryPressure::kHealthy;

    size_t TotalBytes() const {
      return sims_bytes + core_bytes + plan_bytes + chain_bytes;
    }
  };
  CacheStats Stats() const;

  /// Current memory-pressure state of the shared budget.
  MemoryPressure memory_pressure() const { return budget_->pressure(); }

  /// Runs an eviction sweep toward the budget. Called by sessions after
  /// releasing their pin scope (FinishRun) so newly unpinned bytes are
  /// reclaimed promptly; safe to call from any thread, cheap when the
  /// charge already fits.
  void EvictToBudget() const { budget_->Rebalance(); }

 private:
  using SimsKey = std::pair<PredicateId, double>;

  /// Wires the four governed caches' sizers and the chain growth sink.
  void InitCaches();

  // Owning-mode storage (empty in borrowing mode). Declared before the
  // borrowed pointers so the pointers can reference it.
  std::optional<KnowledgeGraph> owned_graph_;
  std::unique_ptr<EmbeddingModel> owned_model_;

  const KnowledgeGraph* g_;
  const EmbeddingModel* model_;

  EngineCacheOptions cache_options_;
  std::shared_ptr<CacheBudget> budget_;
  mutable std::unique_ptr<
      GovernedCache<SimsKey, const PredicateSimilarityCache>>
      sims_;
  mutable std::unique_ptr<GovernedCache<WalkCoreKey, const WalkCore>> cores_;
  mutable std::unique_ptr<GovernedCache<BranchKey, const PreparedBranch>>
      plans_;
  mutable std::unique_ptr<GovernedCache<BranchKey, ChainValidationCache>>
      chain_;
};

}  // namespace kgaq

#endif  // KGAQ_CORE_ENGINE_CONTEXT_H_
