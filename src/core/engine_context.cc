#include "core/engine_context.h"

#include <utility>

#include "kg/bfs.h"

namespace kgaq {

namespace {

/// Flat allowance per cache-map node (key + slot + red-black
/// bookkeeping), folded into each sizer so the governed byte figures
/// stay comparable to the pre-governor Stats() accounting.
constexpr size_t kMapNodeOverhead = 64;

}  // namespace

EngineContext::EngineContext(const KnowledgeGraph& g,
                             const EmbeddingModel& model,
                             EngineCacheOptions cache_options)
    : g_(&g), model_(&model), cache_options_(cache_options) {
  InitCaches();
}

EngineContext::EngineContext(KnowledgeGraph graph,
                             std::unique_ptr<EmbeddingModel> model,
                             EngineCacheOptions cache_options)
    : owned_graph_(std::move(graph)),
      owned_model_(std::move(model)),
      cache_options_(cache_options) {
  g_ = &*owned_graph_;
  model_ = owned_model_.get();
  InitCaches();
}

void EngineContext::InitCaches() {
  CacheBudgetOptions b;
  b.budget_bytes = cache_options_.budget_bytes;
  b.pressured_enter = cache_options_.pressured_enter;
  b.pressured_exit = cache_options_.pressured_exit;
  b.critical_enter = cache_options_.critical_enter;
  b.critical_exit = cache_options_.critical_exit;
  budget_ = std::make_shared<CacheBudget>(b);

  // Similarity rows are always admitted: they are tiny relative to walk
  // cores, and every core build for the predicate needs one anyway.
  GovernedCache<SimsKey, const PredicateSimilarityCache>::Options sims_opts;
  sims_opts.max_tracked_keys = cache_options_.max_tracked_keys;
  sims_ = std::make_unique<
      GovernedCache<SimsKey, const PredicateSimilarityCache>>(
      budget_,
      [](const PredicateSimilarityCache& row) {
        return sizeof(row) + row.size() * sizeof(double) + kMapNodeOverhead;
      },
      sims_opts);

  GovernedCache<WalkCoreKey, const WalkCore>::Options core_opts;
  core_opts.admission_min_requests =
      cache_options_.core_admission_min_requests;
  core_opts.max_tracked_keys = cache_options_.max_tracked_keys;
  cores_ = std::make_unique<GovernedCache<WalkCoreKey, const WalkCore>>(
      budget_,
      [](const WalkCore& core) {
        return sizeof(core) + core.transitions.MemoryBytes() + kMapNodeOverhead;
      },
      core_opts);

  // Plans share the core admission threshold: a plan is the distilled
  // output of its stage cores, admitted on the same evidence of reuse.
  GovernedCache<BranchKey, const PreparedBranch>::Options plan_opts;
  plan_opts.admission_min_requests = core_opts.admission_min_requests;
  plan_opts.max_tracked_keys = core_opts.max_tracked_keys;
  plans_ = std::make_unique<GovernedCache<BranchKey, const PreparedBranch>>(
      budget_,
      [](const PreparedBranch& plan) {
        return plan.MemoryBytes() + kMapNodeOverhead;
      },
      plan_opts);

  GovernedCache<BranchKey, ChainValidationCache>::Options chain_opts;
  chain_opts.admission_min_requests =
      cache_options_.chain_admission_min_requests;
  chain_opts.max_tracked_keys = cache_options_.max_tracked_keys;
  chain_ = std::make_unique<GovernedCache<BranchKey, ChainValidationCache>>(
      budget_,
      [](const ChainValidationCache& store) {
        // Baseline only: a store is empty at admission and reports every
        // profile it later lands through its byte sink.
        return sizeof(store) + kMapNodeOverhead;
      },
      chain_opts);
  // Wire each admitted store's live growth into its entry control, so
  // profiles inserted after admission keep the budget honest (and the
  // store evictable at its true cost).
  chain_->set_materialize_hook(
      [](ChainValidationCache& store,
         const std::shared_ptr<governor_internal::EntryControl>& control) {
        store.SetByteSink([control](size_t delta) { control->Grow(delta); });
      });
}

Result<std::shared_ptr<EngineContext>> EngineContext::LoadFromSnapshot(
    const std::string& path, EngineCacheOptions cache_options) {
  auto snap = LoadEngineSnapshot(path);
  if (!snap.ok()) return snap.status();
  if (snap->embedding == nullptr) {
    return Status::FailedPrecondition(
        "snapshot '" + path +
        "' has no embedding section; a resident engine context needs one "
        "(save with SaveEngineSnapshot(graph, &model, path))");
  }
  // The embedding must cover the graph it is served with, or the first
  // query would index past the vector tables.
  if (snap->embedding->num_entities() < snap->graph.NumNodes() ||
      snap->embedding->num_predicates() < snap->graph.NumPredicates()) {
    return Status::FailedPrecondition(
        "snapshot '" + path + "' embedding covers " +
        std::to_string(snap->embedding->num_entities()) + " entities / " +
        std::to_string(snap->embedding->num_predicates()) +
        " predicates but the graph has " +
        std::to_string(snap->graph.NumNodes()) + " nodes / " +
        std::to_string(snap->graph.NumPredicates()) +
        " predicates — it was trained for a different graph");
  }
  return std::make_shared<EngineContext>(
      std::move(snap->graph), std::move(snap->embedding), cache_options);
}

std::shared_ptr<const PredicateSimilarityCache>
EngineContext::PredicateSimilarities(PredicateId query_predicate, double floor,
                                     CachePinScope* pins) const {
  const SimsKey key{query_predicate, floor};
  return sims_->GetOrBuild(
      key,
      [&] {
        return std::make_shared<const PredicateSimilarityCache>(
            *model_, query_predicate, floor);
      },
      pins);
}

std::shared_ptr<const EngineContext::WalkCore> EngineContext::ScopedWalkCore(
    const WalkCoreKey& key, CachePinScope* pins) const {
  return cores_->GetOrBuild(
      key,
      [&] {
        // The similarity row is only read during TransitionModel
        // construction (nothing in the finished core references it), so
        // the internal lookup borrows without the caller's pin scope.
        auto sims =
            PredicateSimilarities(key.query_predicate, key.sims_floor);
        const BoundedSubgraph scope = BoundedBfs(*g_, key.root, key.n_hops);
        TransitionOptions t_opts;
        t_opts.self_loop_similarity = key.self_loop_similarity;
        return std::make_shared<const WalkCore>(
            WalkCore{TransitionModel(*g_, scope, *sims, t_opts)});
      },
      pins);
}

std::shared_ptr<const PreparedBranch> EngineContext::PreparedBranchFor(
    const BranchKey& key, CachePinScope* pins) const {
  return plans_->GetOrBuild(
      key,
      [&] {
        // The stage cores are read only while the plan is built, so they
        // are pinned for the build alone: a session holding the finished
        // plan keeps none of them resident.
        CachePinScope build_pins;
        auto plan = PrepareBranch(*this, key, &build_pins);
        if (pins != nullptr && build_pins.shed_builds() > 0) {
          pins->NoteShedBuild();
        }
        build_pins.Release();
        budget_->Rebalance();
        return plan;
      },
      pins);
}

std::shared_ptr<ChainValidationCache> EngineContext::ChainProfiles(
    const BranchKey& key, CachePinScope* pins) const {
  // A declined admission hands back a fresh ephemeral store (no byte
  // sink): the query still memoizes its own backward searches, it just
  // doesn't share them — profiles are pure functions of their key, so
  // results are identical either way.
  return chain_->GetOrBuild(
      key, [] { return std::make_shared<ChainValidationCache>(); }, pins);
}

EngineContext::CacheStats EngineContext::Stats() const {
  CacheStats out;
  const GovernedCacheStats sims = sims_->Stats();
  const GovernedCacheStats cores = cores_->Stats();
  const GovernedCacheStats plans = plans_->Stats();
  const GovernedCacheStats chain = chain_->Stats();

  out.sims_hits = sims.hits;
  out.sims_misses = sims.misses;
  out.sims_entries = sims.entries;
  out.sims_bytes = sims.bytes;
  out.core_hits = cores.hits;
  out.core_misses = cores.misses;
  out.core_entries = cores.entries;
  out.core_bytes = cores.bytes;
  out.plan_hits = plans.hits;
  out.plan_misses = plans.misses;
  out.plan_entries = plans.entries;
  out.plan_bytes = plans.bytes;

  // Chain hits/misses/entries keep their pre-governor meaning: profile-
  // level reuse summed over every resident per-signature store. The byte
  // figure is the governed accounting (baseline + sink-reported growth),
  // i.e. exactly what the shared budget was charged for these stores.
  for (const auto& store : chain_->Values()) {
    const ChainValidationCache::Stats s = store->stats();
    out.chain_hits += s.hits;
    out.chain_misses += s.misses;
    out.chain_entries += s.entries;
  }
  out.chain_bytes = chain.bytes;

  out.budget_bytes = budget_->budget_bytes();
  out.charged_bytes = budget_->charged_bytes();
  out.pinned_bytes = budget_->pinned_bytes();
  for (const GovernedCacheStats* c : {&sims, &cores, &plans, &chain}) {
    out.evictions += c->evictions;
    out.admission_rejects += c->admission_rejects;
    out.shed_builds += c->shed_builds;
    out.alloc_failures += c->alloc_failures;
    out.build_failures += c->build_failures;
  }
  out.pressure = budget_->pressure();
  return out;
}

}  // namespace kgaq
