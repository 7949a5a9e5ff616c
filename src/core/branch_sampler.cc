#include "core/branch_sampler.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <queue>
#include <unordered_set>

#include "common/timer.h"

namespace kgaq {

namespace {

std::vector<TypeId> ResolveTypes(const KnowledgeGraph& g,
                                 const std::vector<std::string>& names) {
  std::vector<TypeId> out;
  for (const auto& t : names) {
    TypeId id = g.TypeIdOf(t);
    if (id != kInvalidId) out.push_back(id);
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<BranchSampler>> BranchSampler::Build(
    const KnowledgeGraph& g, const EmbeddingModel& model,
    const QueryBranch& branch, const BranchSamplerOptions& options) {
  // Ephemeral context: the shared structures it hands out are kept alive
  // by the sampler's shared_ptrs; nothing is reused across calls.
  EngineContext ctx(g, model);
  return Build(ctx, branch, options);
}

Result<std::unique_ptr<BranchSampler>> BranchSampler::Build(
    const EngineContext& ctx, const QueryBranch& branch,
    const BranchSamplerOptions& options, CachePinScope* pins) {
  WallTimer timer;
  const KnowledgeGraph& g = ctx.graph();
  auto sampler = std::unique_ptr<BranchSampler>(new BranchSampler());
  sampler->g_ = &g;
  BranchKey& key = sampler->key_;
  key.specific = g.FindNodeByName(branch.specific_name);
  if (key.specific == kInvalidId) {
    return Status::NotFound("specific node '" + branch.specific_name +
                            "' not found");
  }
  if (branch.hops.empty()) {
    return Status::InvalidArgument("branch has no hops");
  }
  for (const QueryHop& hop : branch.hops) {
    BranchKey::Hop rh;
    rh.predicate = g.PredicateIdOf(hop.predicate);
    if (rh.predicate == kInvalidId) {
      return Status::NotFound("query predicate '" + hop.predicate +
                              "' is unknown to the KG embedding");
    }
    rh.types = ResolveTypes(g, hop.node_types);
    key.hops.push_back(std::move(rh));
  }
  key.sims_floor = PredicateSimilarityCache::kDefaultFloor;
  key.options = options;

  // Cache lookups (and a cold plan build) throw on failure — e.g. an
  // injected cache fault; the sampler reports it as a Status.
  try {
    for (const BranchKey::Hop& hop : key.hops) {
      sampler->hop_sims_.push_back(
          ctx.PredicateSimilarities(hop.predicate, key.sims_floor, pins));
    }
    if (key.hops.size() > 1) {
      sampler->chain_cache_ = ctx.ChainProfiles(key, pins);
    }
    sampler->plan_ = ctx.PreparedBranchFor(key, pins);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("branch build failed: ") + e.what());
  }

  sampler->build_millis_ = timer.ElapsedMillis();
  return sampler;
}

uint32_t BranchSampler::CandidateIndex(NodeId u) const {
  auto it = plan_->candidate_index.find(u);
  return it == plan_->candidate_index.end() ? kInvalidId : it->second;
}

std::vector<size_t> BranchSampler::Draw(size_t k, Rng& rng) const {
  std::vector<size_t> out;
  Draw(k, rng, out);
  return out;
}

void BranchSampler::Draw(size_t k, Rng& rng,
                         std::vector<size_t>& out) const {
  plan_->alias.Draw(k, rng, out);
}

void BranchSampler::WarmValidationCache(std::span<const NodeId> nodes,
                                        ThreadPool& pool) const {
  // Simple branches carry their similarities in the plan.
  if (key_.hops.size() == 1) return;
  std::vector<NodeId> todo;
  std::unordered_set<NodeId> seen;
  for (NodeId u : nodes) {
    if (validation_cache_.count(u) != 0 || !seen.insert(u).second) continue;
    todo.push_back(u);
  }
  if (todo.empty()) return;
  std::vector<double> sims(todo.size());
  if (todo.size() == 1) {
    sims[0] = ValidateChainSimilarity(todo[0]);
  } else {
    ParallelFor(pool, todo.size(),
                [&](size_t i) { sims[i] = ValidateChainSimilarity(todo[i]); });
  }
  for (size_t i = 0; i < todo.size(); ++i) {
    validation_cache_.emplace(todo[i], sims[i]);
  }
}

double BranchSampler::ValidateSimilarity(NodeId u) const {
  if (key_.hops.size() == 1) {
    // Simple query: the paper's pi-guided greedy validation (§IV-B2),
    // frozen into the plan at build time.
    const uint32_t i = CandidateIndex(u);
    return i == kInvalidId ? 0.0 : plan_->similarities[i];
  }
  auto it = validation_cache_.find(u);
  if (it != validation_cache_.end()) return it->second;
  const double best = ValidateChainSimilarity(u);
  validation_cache_.emplace(u, best);
  return best;
}

double BranchSampler::ValidateChainSimilarity(NodeId u) const {
  if (key_.options.chain_memo) {
    const ChainCompletionProfile* profile =
        ChainCompletionsFrom(static_cast<int>(key_.hops.size()) - 1, u);
    if (profile != nullptr) {
      double best = 0.0;
      for (size_t len = 1; len < profile->best_log.size(); ++len) {
        const double lg = profile->best_log[len];
        if (lg == -std::numeric_limits<double>::infinity()) continue;
        best = std::max(best, std::exp(lg / static_cast<double>(len)));
      }
      return best;
    }
    // The exhaustive enumeration behind the memo would exceed the budget
    // (dense neighborhood); fall back to the capped best-first search.
  }
  return ValidateChainSimilarityAstar(u);
}

const ChainCompletionProfile* BranchSampler::ChainCompletionsFrom(
    int stage, NodeId x) const {
  const uint64_t key = (static_cast<uint64_t>(stage) << 32) | x;
  if (const ChainCompletionProfile* found = chain_cache_->Find(key)) {
    return found->valid ? found : nullptr;
  }

  ChainCompletionProfile profile;
  profile.best_log.assign(
      static_cast<size_t>(stage + 1) * key_.options.n_hops + 1,
      -std::numeric_limits<double>::infinity());
  // A fresh per-profile budget (rather than one shared by the whole
  // answer) keeps validity a pure function of (stage, x): a profile that
  // enumerates within its own budget succeeds no matter how much work its
  // caller already did, so warm and cold caches yield identical results.
  size_t budget = key_.options.chain_validation_max_expansions;
  std::vector<NodeId> path = {x};
  profile.valid = EnumerateCompletions(stage, x, 0, 0.0, path, budget,
                                       profile);
  if (!profile.valid) profile.best_log.clear();

  const ChainCompletionProfile* resident =
      chain_cache_->Insert(key, std::move(profile));
  return resident->valid ? resident : nullptr;
}

bool BranchSampler::EnumerateCompletions(int stage, NodeId node, int len,
                                         double log_sum,
                                         std::vector<NodeId>& path,
                                         size_t& budget,
                                         ChainCompletionProfile& profile)
    const {
  // Mirrors the best-first search's expansion rules exactly — simple paths
  // within a segment (the path vector holds the current segment only),
  // stage switches at hop-typed nodes with >= 1 segment edge, completions
  // at the specific node inside stage 0 — but enumerates the whole bounded
  // space instead of racing a priority queue toward the single best
  // completion, so the result can be shared across prefixes.
  const PredicateSimilarityCache& sims = *hop_sims_[stage];
  for (const Neighbor& nb : g_->Neighbors(node)) {
    if (budget == 0) return false;
    --budget;
    if (std::find(path.begin(), path.end(), nb.node) != path.end()) {
      continue;
    }
    const double lg = log_sum + std::log(sims.Similarity(nb.predicate));
    const int seg_len = len + 1;
    if (stage == 0) {
      if (nb.node == key_.specific) {
        // A segment-0 path completes at its (only) arrival at u_s; simple
        // paths cannot revisit it, so there is nothing past this node.
        auto& slot = profile.best_log[seg_len];
        slot = std::max(slot, lg);
        continue;
      }
    } else {
      bool typed = false;
      for (TypeId t : key_.hops[stage - 1].types) {
        if (g_->HasType(nb.node, t)) {
          typed = true;
          break;
        }
      }
      if (typed) {
        const ChainCompletionProfile* rest =
            ChainCompletionsFrom(stage - 1, nb.node);
        if (rest == nullptr) return false;
        for (size_t rest_len = 1; rest_len < rest->best_log.size();
             ++rest_len) {
          const double rest_lg = rest->best_log[rest_len];
          if (rest_lg == -std::numeric_limits<double>::infinity()) continue;
          auto& slot = profile.best_log[seg_len + rest_len];
          slot = std::max(slot, lg + rest_lg);
        }
      }
    }
    if (seg_len < key_.options.n_hops) {
      path.push_back(nb.node);
      const bool ok =
          EnumerateCompletions(stage, nb.node, seg_len, lg, path, budget,
                               profile);
      path.pop_back();
      if (!ok) return false;
    }
  }
  return true;
}

double BranchSampler::ValidateChainSimilarityAstar(NodeId u) const {
  // Backward best-first search from the answer toward the specific node.
  // A full match decomposes into one segment per query hop: segment s
  // (1..n edges) has its predicates scored against hop s's predicate and
  // ends (in forward orientation) at a node carrying hop s's types. The
  // search walks segments in reverse (hop K-1 down to 0), switching to the
  // previous hop whenever it stands on a node typed for it, and completes
  // when segment 0 reaches u_s.
  //
  // States are ordered by an *admissible* bound on the final geometric
  // mean: every future edge contributes log-similarity <= 0, so
  // log_sum / (total_len + min_remaining_edges) never underestimates the
  // best completion through the state. Best-first on that bound makes the
  // first completion popped optimal within the segment-length-bounded
  // search space (A* argument), up to the expansion cap.
  const int num_stages = static_cast<int>(key_.hops.size());
  const int max_seg = key_.options.n_hops;

  struct State {
    NodeId node;
    int32_t parent;  // arena index, -1 at the root
    int16_t stage;   // hop index currently being traversed (backward)
    int16_t seg_len;
    int16_t total_len;
    double log_sum;
  };
  std::vector<State> arena;
  arena.push_back({u, -1, static_cast<int16_t>(num_stages - 1), 0, 0, 0.0});

  // Admissible upper bound on the final geometric-mean log: log_sum only
  // accumulates non-positive terms, and *adding* perfect (log 0) edges
  // raises the mean, so the optimistic completion fills the entire
  // remaining segment capacity with perfect edges:
  //   bound = log_sum / (total_len + max_remaining_edges).
  // Goal states (segment 0 standing on u_s) use their exact value.
  auto bound = [this, max_seg](const State& s) {
    if (s.stage == 0 && s.node == key_.specific && s.seg_len >= 1) {
      return s.log_sum / static_cast<double>(s.total_len);
    }
    const int max_rem = s.stage * max_seg + (max_seg - s.seg_len);
    const int denom = s.total_len + max_rem;
    return denom == 0 ? 0.0 : s.log_sum / static_cast<double>(denom);
  };
  auto cmp = [](const std::pair<double, int32_t>& a,
                const std::pair<double, int32_t>& b) {
    return a.first < b.first;
  };
  std::priority_queue<std::pair<double, int32_t>,
                      std::vector<std::pair<double, int32_t>>, decltype(cmp)>
      frontier(cmp);
  frontier.push({0.0, 0});

  double best = 0.0;
  size_t expansions = 0;
  std::vector<NodeId> path_nodes;
  while (!frontier.empty() &&
         expansions < key_.options.chain_validation_max_expansions) {
    ++expansions;
    const int32_t si = frontier.top().second;
    frontier.pop();
    const State s = arena[si];

    // Completion: inside segment 0 (>= 1 edge) standing on u_s. With the
    // admissible ordering the first completion is the best one reachable.
    if (s.stage == 0 && s.seg_len >= 1 && s.node == key_.specific) {
      best = std::exp(s.log_sum / static_cast<double>(s.total_len));
      break;
    }

    // Stage switch (epsilon move): if this node carries the previous
    // hop's type and the current segment is non-empty, start that hop.
    if (s.stage > 0 && s.seg_len >= 1) {
      bool typed = false;
      for (TypeId t : key_.hops[s.stage - 1].types) {
        if (g_->HasType(s.node, t)) {
          typed = true;
          break;
        }
      }
      if (typed) {
        arena.push_back({s.node, s.parent,
                         static_cast<int16_t>(s.stage - 1), 0, s.total_len,
                         s.log_sum});
        frontier.push({bound(arena.back()),
                       static_cast<int32_t>(arena.size() - 1)});
      }
    }

    if (s.seg_len >= max_seg) continue;

    // Simplicity is enforced per segment (stages are sampled and matched
    // independently in §V-B, so a chain match may revisit a node across
    // segment boundaries — SSB's exact enumeration composes stages the
    // same way). The walk back stops at the segment's start state.
    path_nodes.clear();
    for (int32_t cur = si; cur >= 0; cur = arena[cur].parent) {
      path_nodes.push_back(arena[cur].node);
      if (arena[cur].seg_len == 0) break;
    }

    const PredicateSimilarityCache& sims = *hop_sims_[s.stage];
    for (const Neighbor& nb : g_->Neighbors(s.node)) {
      if (std::find(path_nodes.begin(), path_nodes.end(), nb.node) !=
          path_nodes.end()) {
        continue;
      }
      arena.push_back({nb.node, si, s.stage,
                       static_cast<int16_t>(s.seg_len + 1),
                       static_cast<int16_t>(s.total_len + 1),
                       s.log_sum + std::log(sims.Similarity(nb.predicate))});
      frontier.push({bound(arena.back()),
                     static_cast<int32_t>(arena.size() - 1)});
    }
  }
  return best;
}

}  // namespace kgaq
