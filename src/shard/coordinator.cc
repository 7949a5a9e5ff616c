#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"

namespace kgaq {

Coordinator::Coordinator(std::vector<std::unique_ptr<ShardChannel>> channels,
                         CoordinatorOptions options)
    : channels_(std::move(channels)), options_(std::move(options)) {}

CoordinatorStats Coordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<ChannelHealth> Coordinator::channel_health() const {
  std::vector<ChannelHealth> out;
  out.reserve(channels_.size());
  for (const auto& ch : channels_) out.push_back(ch->health());
  return out;
}

QueryResponse Coordinator::Execute(const QueryRequest& request) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto started = std::chrono::steady_clock::now();
  const uint64_t id = next_index_++;
  ++stats_.submitted;

  // Same effective-options assembly as QueryService's admit path, so a
  // coordinator and an unsharded service given the same request sequence
  // run identical engine configurations (the parity tests rely on it).
  const uint64_t seed = request.seed.has_value()
                            ? *request.seed
                            : QueryService::QuerySeed(options_.base_seed, id);
  EngineOptions opts = options_.engine;
  opts.seed = seed;
  if (request.error_bound.has_value()) opts.error_bound = *request.error_bound;
  if (request.confidence_level.has_value()) {
    opts.confidence_level = *request.confidence_level;
  }
  if (request.max_rounds.has_value()) opts.max_rounds = *request.max_rounds;
  const Deadline deadline = request.deadline_ms > 0.0
                                ? Deadline::AfterMillis(request.deadline_ms)
                                : Deadline::Infinite();

  QueryResponse response;
  if (channels_.empty()) {
    response.state = QueryState::kFailed;
    response.status = Status::FailedPrecondition("coordinator has no shards");
  } else {
    response = ExecuteDeterministic(request.query, opts, deadline);
  }
  response.id = id;
  response.seed_used = seed;
  response.run_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - started)
                        .count();

  switch (response.state) {
    case QueryState::kDone:
      ++stats_.done;
      break;
    case QueryState::kFailed:
      ++stats_.failed;
      break;
    case QueryState::kDeadlineExceeded:
      ++stats_.deadline_expired;
      break;
    case QueryState::kCancelled:
      ++stats_.cancelled;
      break;
    case QueryState::kQueued:
    case QueryState::kRunning:
      // Execute only returns terminal states; count defensively as done.
      ++stats_.done;
      break;
  }
  if (response.degraded) ++stats_.degraded;
  return response;
}

Result<Coordinator::MergedPlan> Coordinator::ScatterPlan(
    const AggregateQuery& query, const EngineOptions& options,
    Deadline deadline) {
  const size_t n = channels_.size();
  std::vector<Result<ShardPlanResult>> plans(
      n, Result<ShardPlanResult>(ShardPlanResult{}));
  ParallelFor(GlobalPool(), n, [&](size_t s) {
    plans[s] = channels_[s]->Plan(ShardPlanRequest{query, options, deadline});
  });

  MergedPlan merged;
  merged.tokens.assign(n, 0);
  merged.shard_live.assign(n, false);
  size_t live = 0;
  Status last_error;
  for (size_t s = 0; s < n; ++s) {
    if (!plans[s].ok()) {
      last_error = plans[s].status();
      continue;
    }
    merged.shard_live[s] = true;
    merged.tokens[s] = plans[s]->token;
    ++live;
  }
  if (live == 0) {
    return Status::Unavailable("all " + std::to_string(n) +
                               " shards failed at plan; last error: " +
                               last_error.ToString());
  }

  if (KGAQ_FAULT_POINT("shard.merge")) {
    // Release what we planned before failing, or shards leak sessions.
    for (size_t s = 0; s < n; ++s) {
      if (merged.shard_live[s]) channels_[s]->Release(merged.tokens[s]);
    }
    return Status::Internal("injected: shard merge failed");
  }

  // Cross-shard consistency: every live shard must have planned the same
  // global candidate array (same size, same GROUP-BY shape). A mismatch
  // means the shards disagree about the query or the partition — an
  // internal error, never silently a wrong answer.
  bool first = true;
  for (size_t s = 0; s < n; ++s) {
    if (!merged.shard_live[s]) continue;
    if (first) {
      merged.num_candidates = plans[s]->num_candidates;
      merged.group_by_enabled = plans[s]->group_by_enabled;
      first = false;
    } else if (plans[s]->num_candidates != merged.num_candidates ||
               plans[s]->group_by_enabled != merged.group_by_enabled) {
      return Status::Internal(
          "shards disagree on the global candidate array (nc " +
          std::to_string(plans[s]->num_candidates) + " vs " +
          std::to_string(merged.num_candidates) + ")");
    }
  }

  // k-way merge by ascending global index. Each shard's slice is already
  // ascending, so a sort of the concatenation is deterministic and cheap
  // relative to planning.
  struct Entry {
    uint64_t index;
    NodeId node;
    double prob;
    uint32_t owner;
  };
  std::vector<Entry> entries;
  for (size_t s = 0; s < n; ++s) {
    if (!merged.shard_live[s]) continue;
    const ShardPlanResult& plan = *plans[s];
    for (size_t i = 0; i < plan.indices.size(); ++i) {
      entries.push_back(Entry{plan.indices[i], plan.nodes[i], plan.probs[i],
                              static_cast<uint32_t>(s)});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.index < b.index; });
  for (size_t i = 0; i + 1 < entries.size(); ++i) {
    if (entries[i].index == entries[i + 1].index) {
      return Status::Internal("two shards both claim candidate index " +
                              std::to_string(entries[i].index));
    }
  }

  merged.full_coverage = (live == n);
  if (merged.full_coverage) {
    // Coverage check: the union of owned slices must be EXACTLY the
    // global array — then merged position i IS global index i and the
    // distribution needs (and gets) no renormalization, preserving
    // bitwise parity with the unsharded run.
    if (entries.size() != merged.num_candidates) {
      return Status::Internal(
          "owned slices cover " + std::to_string(entries.size()) + " of " +
          std::to_string(merged.num_candidates) +
          " global candidates (halo too small?)");
    }
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].index != i) {
        return Status::Internal("candidate index " + std::to_string(i) +
                                " missing from every shard's owned slice");
      }
    }
  } else if (entries.empty()) {
    return Status::Unavailable(
        "the shards lost at plan time owned every candidate");
  }

  merged.nodes.reserve(entries.size());
  merged.probs.reserve(entries.size());
  merged.owner.reserve(entries.size());
  merged.global_index.reserve(entries.size());
  double prob_sum = 0.0;
  for (const Entry& e : entries) {
    merged.nodes.push_back(e.node);
    merged.probs.push_back(e.prob);
    merged.owner.push_back(e.owner);
    merged.global_index.push_back(e.index);
    prob_sum += e.prob;
  }
  if (!merged.full_coverage) {
    // Partial coverage: the draw distribution is the merged probs
    // renormalized by their own sum, so each item's recorded draw
    // probability equals its actual draw probability and the HT estimate
    // over the surviving shards stays unbiased FOR THE SURVIVING
    // CANDIDATES. The answer is marked degraded upstream.
    if (prob_sum <= 0.0) {
      return Status::Unavailable("surviving candidates carry no draw mass");
    }
    for (double& p : merged.probs) p /= prob_sum;
  }
  return merged;
}

void Coordinator::ReleasePlans(const MergedPlan& plan) {
  for (size_t s = 0; s < channels_.size(); ++s) {
    // Best-effort: a shard that died keeps nothing worth releasing, and
    // ShardNode::Release is idempotent.
    if (plan.shard_live[s]) channels_[s]->Release(plan.tokens[s]);
  }
}

QueryResponse Coordinator::ExecuteDeterministic(const AggregateQuery& query,
                                                const EngineOptions& options,
                                                Deadline deadline) {
  QueryResponse response;
  auto merged = ScatterPlan(query, options, deadline);
  if (!merged.ok()) {
    response.state = QueryState::kFailed;
    response.status = merged.status();
    return response;
  }
  const MergedPlan& plan = *merged;
  const size_t n = channels_.size();

  // The outsourced per-draw fold: map merged positions back to (owner
  // shard, global index), batch per shard, validate in parallel, scatter
  // the outcomes back into draw order. Any shard failure fails the whole
  // round — the session retires with kShardLost and its completed rounds
  // intact.
  std::vector<std::vector<size_t>> positions_by_shard(n);
  std::vector<std::vector<size_t>> indices_by_shard(n);
  RemoteEvaluator evaluator = [&](std::span<const size_t> draws,
                                  std::vector<NodeOutcome>& out) -> Status {
    for (auto& v : positions_by_shard) v.clear();
    for (auto& v : indices_by_shard) v.clear();
    for (size_t j = 0; j < draws.size(); ++j) {
      const size_t position = draws[j];
      const uint32_t owner = plan.owner[position];
      positions_by_shard[owner].push_back(j);
      indices_by_shard[owner].push_back(
          static_cast<size_t>(plan.global_index[position]));
    }
    out.assign(draws.size(), NodeOutcome{});
    std::vector<Status> statuses(n);
    ParallelFor(GlobalPool(), n, [&](size_t s) {
      if (indices_by_shard[s].empty()) return;
      ShardValidateRequest req;
      req.token = plan.tokens[s];
      req.indices = indices_by_shard[s];
      req.deadline = deadline;
      auto outcomes = channels_[s]->Validate(req);
      if (!outcomes.ok()) {
        statuses[s] = outcomes.status();
        return;
      }
      if (outcomes->size() != positions_by_shard[s].size()) {
        statuses[s] = Status::Internal("shard returned " +
                                       std::to_string(outcomes->size()) +
                                       " outcomes for " +
                                       std::to_string(indices_by_shard[s].size()) +
                                       " draws");
        return;
      }
      for (size_t j = 0; j < outcomes->size(); ++j) {
        out[positions_by_shard[s][j]] = (*outcomes)[j];
      }
    });
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  };

  ReplaySessionSpec spec;
  spec.options = options;
  spec.query = query;
  spec.candidates = plan.nodes;
  spec.probabilities = plan.probs;
  spec.group_by_enabled = plan.group_by_enabled;
  spec.evaluator = evaluator;
  std::unique_ptr<QuerySession> session =
      QuerySession::CreateReplay(std::move(spec));
  session->SetStopControl(nullptr, deadline);
  session->BeginRun(options.error_bound);
  while (!session->StepRound()) {
  }
  response.result = session->FinishRun();
  const StopCause cause = session->stop_cause();
  ReleasePlans(plan);

  switch (cause) {
    case StopCause::kNone:
      response.state = QueryState::kDone;
      response.degraded = !plan.full_coverage;
      break;
    case StopCause::kDeadlineExceeded:
      response.state = QueryState::kDeadlineExceeded;
      response.degraded = response.result.rounds >= 1;
      break;
    case StopCause::kShardLost:
      if (deadline.expired()) {
        // The "lost" shard was almost certainly a casualty of the query
        // deadline: channels clamp per-RPC timeouts to the remaining
        // budget, so once it hits zero every shard looks dead. Attribute
        // to the deadline, like an unsharded engine would.
        response.state = QueryState::kDeadlineExceeded;
        response.degraded = response.result.rounds >= 1;
      } else if (response.result.rounds >= 1) {
        // Completed rounds stand: a valid (if wider) estimate over the
        // full pre-loss schedule. An answer, not an error.
        response.state = QueryState::kDone;
        response.degraded = true;
      } else {
        response.state = QueryState::kFailed;
        response.status = Status::Unavailable(
            "a shard was lost before the first round completed");
      }
      break;
    case StopCause::kCancelled:
    case StopCause::kShed:
      // Unreachable: the coordinator installs no cancel flag and never
      // requests shedding. Treat as done defensively.
      response.state = QueryState::kDone;
      break;
  }
  AggregateResult& r = response.result;
  if (response.degraded && r.exact) {
    // A census after plan-time loss is exact for the live shards' slice
    // only and says nothing about the lost shards' candidates: it claims
    // no bound at all (moe and achieved error_bound +inf).
    r.exact = false;
    r.satisfied = false;
    r.moe = std::numeric_limits<double>::infinity();
    r.error_bound = r.moe;
  } else if (response.degraded && r.rounds > 0 && std::abs(r.v_hat) > 0.0) {
    // Same contract as QueryService::Retire: a degraded answer reports
    // the relative CI half-width it actually achieved.
    r.error_bound = r.moe / std::abs(r.v_hat);
  }
  return response;
}

std::string RenderShardTierJson(const Coordinator& coordinator) {
  const CoordinatorStats stats = coordinator.stats();
  const std::vector<ChannelHealth> health = coordinator.channel_health();
  std::string out = "\"shard_tier\":{\"shards\":[";
  for (size_t s = 0; s < health.size(); ++s) {
    const ChannelHealth& h = health[s];
    if (s > 0) out += ',';
    out += "{\"replicas\":" + std::to_string(h.replicas) +
           ",\"healthy\":" + std::to_string(h.healthy) +
           ",\"failovers\":" + std::to_string(h.failovers) +
           ",\"failed_rpcs\":" + std::to_string(h.failed_rpcs) +
           ",\"breaker_opens\":" + std::to_string(h.breaker_opens) +
           ",\"breaker_rejected\":" + std::to_string(h.breaker_rejected) +
           ",\"hedges_launched\":" + std::to_string(h.hedges_launched) +
           ",\"hedges_won\":" + std::to_string(h.hedges_won) +
           ",\"budget_denied\":" + std::to_string(h.budget_denied) +
           ",\"probes\":" + std::to_string(h.probes) +
           ",\"probe_failures\":" + std::to_string(h.probe_failures) +
           ",\"divergent_plans\":" + std::to_string(h.divergent_plans) +
           ",\"breakers\":[";
    for (size_t r = 0; r < h.states.size(); ++r) {
      if (r > 0) out += ',';
      out += '"';
      out += BreakerStateToString(h.states[r]);
      out += '"';
    }
    out += "]}";
  }
  out += "],\"coordinator\":{\"submitted\":" + std::to_string(stats.submitted) +
         ",\"done\":" + std::to_string(stats.done) +
         ",\"failed\":" + std::to_string(stats.failed) +
         ",\"deadline_expired\":" + std::to_string(stats.deadline_expired) +
         ",\"degraded\":" + std::to_string(stats.degraded) + "}}";
  return out;
}

}  // namespace kgaq
