#include "core/branch_plan.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/thread_pool.h"
#include "core/engine_context.h"
#include "core/greedy_validator.h"
#include "sampling/answer_sampler.h"
#include "sampling/random_walk.h"

namespace kgaq {

size_t PreparedBranch::MemoryBytes() const {
  // Flat allowance per unordered_map node (key/value + next pointer +
  // allocator header), plus the bucket array.
  constexpr size_t kIndexNodeBytes = 32;
  return sizeof(*this) + candidates.capacity() * sizeof(NodeId) +
         probabilities.capacity() * sizeof(double) + alias.MemoryBytes() +
         candidate_index.size() * kIndexNodeBytes +
         candidate_index.bucket_count() * sizeof(void*) +
         similarities.capacity() * sizeof(double);
}

std::shared_ptr<const PreparedBranch> PrepareBranch(const EngineContext& ctx,
                                                    const BranchKey& key,
                                                    CachePinScope* pins) {
  const KnowledgeGraph& g = ctx.graph();
  const BranchSamplerOptions& options = key.options;
  const size_t num_stages = key.hops.size();

  std::vector<std::shared_ptr<const PredicateSimilarityCache>> sims;
  sims.reserve(num_stages);
  for (const BranchKey::Hop& hop : key.hops) {
    sims.push_back(
        ctx.PredicateSimilarities(hop.predicate, key.sims_floor, pins));
  }

  // Stage s > 0 holds one unit per retained intermediate of stage s - 1.
  // A unit's walk core and validator live only while this build runs.
  struct StageUnit {
    NodeId root = kInvalidId;
    double weight = 0.0;        // renormalized pi' of the root's chain
    double root_log_sim = 0.0;  // accumulated log-sim to reach the root
    int root_length = 0;        // accumulated path length to the root
    std::shared_ptr<const EngineContext::WalkCore> core;
    std::vector<double> pi;  // the core's stationary distribution
    std::unique_ptr<GreedyValidator> validator;
  };
  std::vector<std::vector<StageUnit>> stage_units(num_stages);
  {
    StageUnit root_unit;
    root_unit.root = key.specific;
    root_unit.weight = 1.0;
    stage_units[0].push_back(std::move(root_unit));
  }

  std::unordered_map<NodeId, double> answer_mass;

  for (size_t s = 0; s < num_stages; ++s) {
    const std::vector<TypeId>& hop_types = key.hops[s].types;
    const bool last = s + 1 == num_stages;

    auto& units = stage_units[s];
    // Next-stage seeds gathered per unit (node, weight, log-sim, len) so
    // the merge below is in unit order regardless of task scheduling —
    // chain builds are bit-for-bit reproducible.
    struct Seed {
      NodeId node;
      double weight;
      double log_sim;
      int length;
    };
    std::vector<std::vector<Seed>> unit_seeds(units.size());
    std::vector<std::vector<std::pair<NodeId, double>>> unit_mass(
        units.size());

    // Each unit's scoping + convergence + extraction is independent; the
    // chain case runs them as parallel tasks on the shared pool (§V-B:
    // "each second sampling is run as a thread"). The pool has no
    // exception handling (a throwing task would terminate the process),
    // so each unit captures its own failure — e.g. an injected
    // core.cache.build fault — and the first one is rethrown after the
    // join.
    std::vector<std::exception_ptr> unit_errors(units.size());
    auto build_unit_impl = [&](size_t ui) {
      StageUnit& unit = units[ui];
      EngineContext::WalkCoreKey core_key;
      core_key.root = unit.root;
      core_key.query_predicate = key.hops[s].predicate;
      core_key.n_hops = options.n_hops;
      core_key.self_loop_similarity = options.self_loop_similarity;
      core_key.sims_floor = key.sims_floor;
      unit.core = ctx.ScopedWalkCore(core_key, pins);
      unit.pi = StationaryPi(unit.core->transitions);
      GreedyValidator::Options v_opts;
      v_opts.repeat_factor = options.repeat_factor;
      v_opts.max_hops = options.n_hops;
      unit.validator = std::make_unique<GreedyValidator>(
          g, unit.core->transitions, unit.pi, *sims[s], v_opts);

      AnswerSampler extraction(g, unit.core->transitions, unit.pi,
                               hop_types);
      if (last) {
        // Record this unit's pi' = pi'_i * pi'_j contributions; they are
        // accumulated per answer after the join (an answer reachable
        // through several intermediates accumulates all of them, per §V-B
        // step (3)).
        auto& mass = unit_mass[ui];
        mass.reserve(extraction.NumCandidates());
        for (size_t i = 0; i < extraction.NumCandidates(); ++i) {
          mass.emplace_back(extraction.CandidateNode(i),
                            unit.weight * extraction.CandidateProbability(i));
        }
      } else {
        // Retain the top-width intermediates by stationary mass as next-
        // stage roots, weighted by their (renormalized) probabilities.
        std::vector<size_t> order(extraction.NumCandidates());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        const size_t keep =
            std::min(options.chain_branch_width, order.size());
        std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                          [&](size_t a, size_t b) {
                            return extraction.CandidateProbability(a) >
                                   extraction.CandidateProbability(b);
                          });
        double kept_mass = 0.0;
        for (size_t i = 0; i < keep; ++i) {
          kept_mass += extraction.CandidateProbability(order[i]);
        }
        if (kept_mass <= 0.0) return;
        // FindBestMatch is const with purely call-local state, so the
        // kept intermediates validate concurrently (nested fork-join on
        // the shared pool is deadlock-free — TaskGroup::Wait helps). The
        // Seed assembly below stays serial in slot order, so the stage
        // remains bit-for-bit reproducible under any schedule.
        std::vector<GreedyValidator::Match> matches(keep);
        if (keep > 1) {
          ParallelFor(GlobalPool(), keep, [&](size_t i) {
            matches[i] = unit.validator->FindBestMatch(
                extraction.CandidateNode(order[i]));
          });
        } else if (keep == 1) {
          matches[0] =
              unit.validator->FindBestMatch(extraction.CandidateNode(order[0]));
        }
        for (size_t i = 0; i < keep; ++i) {
          const NodeId m = extraction.CandidateNode(order[i]);
          const GreedyValidator::Match& match = matches[i];
          if (!match.found || match.similarity <= 0.0) continue;
          Seed seed;
          seed.node = m;
          seed.weight = unit.weight *
                        extraction.CandidateProbability(order[i]) / kept_mass;
          seed.log_sim = unit.root_log_sim +
                         match.length * std::log(match.similarity);
          seed.length = unit.root_length + match.length;
          unit_seeds[ui].push_back(seed);
        }
      }
    };
    auto build_unit = [&](size_t ui) {
      try {
        build_unit_impl(ui);
      } catch (...) {
        unit_errors[ui] = std::current_exception();
      }
    };

    if (units.size() > 1) {
      ParallelFor(GlobalPool(), units.size(), build_unit);
    } else {
      for (size_t ui = 0; ui < units.size(); ++ui) build_unit(ui);
    }
    for (const std::exception_ptr& err : unit_errors) {
      if (!err) continue;
      try {
        std::rethrow_exception(err);
      } catch (const std::exception& e) {
        throw std::runtime_error(std::string("branch stage build failed: ") +
                                 e.what());
      } catch (...) {
        throw std::runtime_error("branch stage build failed");
      }
    }

    if (last) {
      for (const auto& mass : unit_mass) {
        for (const auto& [node, m] : mass) answer_mass[node] += m;
      }
    } else {
      double total = 0.0;
      size_t num_seeds = 0;
      for (const auto& seeds : unit_seeds) {
        num_seeds += seeds.size();
        for (const Seed& seed : seeds) total += seed.weight;
      }
      if (num_seeds == 0) break;  // chain dead-ends; zero candidates
      auto& next_units = stage_units[s + 1];
      next_units.reserve(num_seeds);
      for (const auto& seeds : unit_seeds) {
        for (const Seed& seed : seeds) {
          StageUnit u;
          u.root = seed.node;
          u.weight = total > 0.0 ? seed.weight / total : 0.0;
          u.root_log_sim = seed.log_sim;
          u.root_length = seed.length;
          next_units.push_back(std::move(u));
        }
      }
    }
  }

  // Freeze the final answer distribution.
  auto plan = std::make_shared<PreparedBranch>();
  double total = 0.0;
  for (const auto& [node, mass] : answer_mass) total += mass;
  plan->candidates.reserve(answer_mass.size());
  plan->probabilities.reserve(answer_mass.size());
  for (const auto& [node, mass] : answer_mass) {
    plan->candidates.push_back(node);
    plan->probabilities.push_back(total > 0.0 ? mass / total : 0.0);
  }
  plan->alias = AliasTable(plan->probabilities);
  plan->candidate_index.reserve(plan->candidates.size());
  for (uint32_t i = 0; i < plan->candidates.size(); ++i) {
    plan->candidate_index.emplace(plan->candidates[i], i);
  }

  // A simple branch validates every candidate through one batched
  // traversal of its stage-0 scope (identical per-node results to
  // per-target searches, see GreedyValidator::ComputeAllMatches), so the
  // similarities are frozen with the plan and the core can be dropped.
  if (num_stages == 1 && !plan->candidates.empty()) {
    const StageUnit& unit = stage_units[0][0];
    const std::vector<GreedyValidator::Match> matches =
        unit.validator->ComputeAllMatches();
    plan->similarities.reserve(plan->candidates.size());
    for (NodeId u : plan->candidates) {
      const uint32_t local = unit.core->transitions.LocalId(u);
      plan->similarities.push_back(
          local != kInvalidId && matches[local].found
              ? matches[local].similarity
              : 0.0);
    }
  }
  return plan;
}

}  // namespace kgaq
