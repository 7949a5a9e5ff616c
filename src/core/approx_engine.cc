#include "core/approx_engine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "common/timer.h"
#include "estimate/accuracy.h"
#include "estimate/evt.h"

namespace kgaq {

const char* StopCauseToString(StopCause c) {
  switch (c) {
    case StopCause::kNone:
      return "none";
    case StopCause::kCancelled:
      return "cancelled";
    case StopCause::kDeadlineExceeded:
      return "deadline_exceeded";
    case StopCause::kShed:
      return "shed";
    case StopCause::kShardLost:
      return "shard_lost";
  }
  return "unknown";
}

ApproxEngine::ApproxEngine(const KnowledgeGraph& g,
                           const EmbeddingModel& model, EngineOptions options)
    : ctx_(std::make_shared<EngineContext>(g, model)),
      options_(options) {}

ApproxEngine::ApproxEngine(std::shared_ptr<const EngineContext> context,
                           EngineOptions options)
    : ctx_(std::move(context)), options_(options) {}

Result<AggregateResult> ApproxEngine::Execute(
    const AggregateQuery& query) const {
  auto session = CreateSession(query);
  if (!session.ok()) return session.status();
  return (*session)->RunToErrorBound(options_.error_bound);
}

Result<std::unique_ptr<QuerySession>> ApproxEngine::CreateSession(
    const AggregateQuery& query) const {
  const KnowledgeGraph& g = ctx_->graph();
  KGAQ_RETURN_IF_ERROR(query.Validate(g));

  auto session = std::unique_ptr<QuerySession>(new QuerySession());
  session->ctx_ = ctx_;
  session->g_ = &g;
  session->options_ = options_;
  session->query_ = query;
  session->rng_ = Rng(options_.seed);

  WallTimer s1_timer;
  // A failed branch build (e.g. an injected cache fault) comes back as a
  // Status, so the ticket retires kFailed instead of unwinding through
  // the scheduler.
  for (const QueryBranch& branch : query.query.branches) {
    auto bs = BranchSampler::Build(*ctx_, branch, options_.branch,
                                   &session->pins_);
    if (!bs.ok()) return bs.status();
    session->branches_.push_back(std::move(*bs));
  }

  // Combined candidate distribution.
  const auto& branches = session->branches_;
  if (branches.size() == 1) {
    const BranchSampler& b = *branches[0];
    session->candidates_.reserve(b.NumCandidates());
    session->probabilities_.reserve(b.NumCandidates());
    for (size_t i = 0; i < b.NumCandidates(); ++i) {
      session->candidates_.push_back(b.CandidateNode(i));
      session->probabilities_.push_back(b.CandidateProbability(i));
    }
  } else {
    // Decomposition-assembly (§V-B): candidates present in every branch's
    // sample space, weighted by the product of branch probabilities.
    for (size_t i = 0; i < branches[0]->NumCandidates(); ++i) {
      const NodeId u = branches[0]->CandidateNode(i);
      double mass = branches[0]->CandidateProbability(i);
      bool in_all = true;
      for (size_t bi = 1; bi < branches.size(); ++bi) {
        const uint32_t idx = branches[bi]->CandidateIndex(u);
        if (idx == kInvalidId) {
          in_all = false;
          break;
        }
        mass *= branches[bi]->CandidateProbability(idx);
      }
      if (in_all && mass > 0.0) {
        session->candidates_.push_back(u);
        session->probabilities_.push_back(mass);
      }
    }
    double total = 0.0;
    for (double p : session->probabilities_) total += p;
    if (total > 0.0) {
      for (double& p : session->probabilities_) p /= total;
    }
  }
  session->alias_ = AliasTable(session->probabilities_);

  // Resolve attribute ids once.
  if (!query.attribute.empty()) {
    session->value_attr_ = g.AttributeIdOf(query.attribute);
  }
  if (query.group_by.enabled()) {
    session->group_attr_ = g.AttributeIdOf(query.group_by.attribute);
  }
  for (const Filter& f : query.filters) {
    session->resolved_filters_.emplace_back(g.AttributeIdOf(f.attribute), f);
  }
  session->s1_ms_ = s1_timer.ElapsedMillis();
  return session;
}

void QuerySession::DrawAndValidate(size_t k) {
  if (candidates_.empty() || k == 0) return;
  ThreadPool& pool = GlobalPool();

  // (1) Draw k candidate indices through the alias table. Large batches
  // are partitioned into fixed slices, each filled by its own Rng forked
  // (in slice order, on this thread) from the session stream. The slice
  // count is a function of k alone — never of the pool size — so a given
  // seed produces the same sample on any machine, not just any run.
  draw_scratch_.resize(k);
  const size_t kMinDrawsPerSlice = 4096;
  const size_t kMaxSlices = 16;
  const size_t slices =
      std::min(kMaxSlices, std::max<size_t>(1, k / kMinDrawsPerSlice));
  if (slices <= 1) {
    for (size_t d = 0; d < k; ++d) draw_scratch_[d] = alias_.Draw(rng_);
  } else {
    const size_t per = (k + slices - 1) / slices;
    std::vector<Rng> slice_rng;
    slice_rng.reserve(slices);
    for (size_t s = 0; s < slices; ++s) slice_rng.push_back(rng_.Fork());
    ParallelFor(pool, slices, [&](size_t s) {
      const size_t lo = s * per;
      const size_t hi = std::min(k, lo + per);
      for (size_t d = lo; d < hi; ++d) {
        draw_scratch_[d] = alias_.Draw(slice_rng[s]);
      }
    });
  }

  // (2) Validate the drawn candidates — on the owning shards in a
  // coordinator's replay session — then (3) fold each draw into the sample. A lost
  // shard retires the run with NOTHING from the aborted round appended:
  // the partial estimate is the prior rounds', whole.
  if (!ValidateIndices(draw_scratch_)) return;
  for (size_t d = 0; d < k; ++d) {
    const size_t ci = draw_scratch_[d];
    const NodeOutcome& o = outcome_scratch_[d];
    SampleItem item;
    item.node = candidates_[ci];
    item.pi = probabilities_[ci];
    item.value = o.value;
    item.correct = o.correct;
    items_.push_back(item);
    group_keys_.push_back(o.group_key);
  }
}

bool QuerySession::ValidateIndices(std::span<const size_t> indices) {
  if (!evaluator_) {
    EvaluateBatch(indices, outcome_scratch_);
    return true;
  }
  const Status st = evaluator_(indices, outcome_scratch_);
  if (!st.ok() || outcome_scratch_.size() != indices.size()) {
    stop_cause_ = StopCause::kShardLost;
    return false;
  }
  return true;
}

void QuerySession::RunCensus() {
  draw_scratch_.resize(candidates_.size());
  std::iota(draw_scratch_.begin(), draw_scratch_.end(), size_t{0});
  if (!ValidateIndices(draw_scratch_)) return;

  // Fold in ascending candidate index, sum from 0.0: the order is part of
  // the contract (docs/serving.md), since with moe = 0 a last-bit
  // difference against any other exact fold is a miss.
  struct Fold {
    size_t count = 0;
    double sum = 0.0;
    double Value(AggregateFunction f) const {
      if (f == AggregateFunction::kCount) return static_cast<double>(count);
      if (f == AggregateFunction::kSum) return sum;
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };
  Fold all;
  std::map<int64_t, Fold> groups;
  const bool group_by = group_attr_ != kInvalidId;
  for (const NodeOutcome& o : outcome_scratch_) {
    if (!o.correct) continue;
    ++all.count;
    all.sum += o.value;
    if (group_by) {
      Fold& g = groups[o.group_key];
      ++g.count;
      g.sum += o.value;
    }
  }

  AggregateResult& out = run_.out;
  out.v_hat = all.Value(query_.function);
  out.moe = 0.0;
  out.satisfied = true;
  out.exact = true;
  out.groups.clear();
  for (const auto& [key, g] : groups) {
    GroupEstimate ge;
    ge.bucket_lower = static_cast<double>(key) * query_.group_by.bucket_width;
    ge.v_hat = g.Value(query_.function);
    ge.support = g.count;
    ge.satisfied = true;
    out.groups.push_back(ge);
  }
  trace_.push_back({rounds_total_, out.v_hat, 0.0, items_.size(),
                    HtEstimator::CountCorrect(items_)});
  census_ = out;
}

NodeOutcome QuerySession::EvaluateCandidate(size_t index) const {
  const NodeId u = candidates_[index];
  NodeOutcome out;

  // Correctness validation (§IV-B2): the branch-combined greedy match
  // similarity must reach tau; for complex shapes every branch must
  // match (the intersection semantics of §V-B), so the minimum governs.
  bool correct = true;
  if (options_.validate_correctness) {
    double sim = 1.0;
    for (const auto& b : branches_) {
      sim = std::min(sim, b->ValidateSimilarity(u));
      if (sim <= 0.0) break;
    }
    correct = sim >= options_.tau;
  }

  // Filter predicates fold into validation (Definition 6: c(u) = 1 iff
  // L <= u.b <= U and s_i >= tau).
  if (correct) {
    for (const auto& [attr, f] : resolved_filters_) {
      auto v = g_->Attribute(u, attr);
      if (!v.has_value() || *v < f.lower || *v > f.upper) {
        correct = false;
        break;
      }
    }
  }

  const bool needs_value = query_.function != AggregateFunction::kCount &&
                           value_attr_ != kInvalidId;
  double value = 0.0;
  if (correct && needs_value) {
    auto v = g_->Attribute(u, value_attr_);
    if (v.has_value()) {
      value = *v;
    } else {
      // SUM/AVG/MAX/MIN cannot use an answer without the attribute.
      correct = false;
    }
  }
  out.value = value;
  out.correct = correct;

  if (group_attr_ != kInvalidId) {
    auto v = g_->Attribute(u, group_attr_);
    if (v.has_value()) {
      out.group_key = static_cast<int64_t>(
          std::floor(*v / query_.group_by.bucket_width));
    } else {
      out.correct = false;  // ungroupable answers drop out
    }
  }
  return out;
}

void QuerySession::EvaluateBatch(std::span<const size_t> indices,
                                 std::vector<NodeOutcome>& out) const {
  // Validate the distinct nodes up front, in parallel across the shared
  // pool; the per-index loop below then only takes cache hits. Later
  // branches are warmed only with nodes every earlier branch scored
  // positive — the same short-circuit EvaluateCandidate applies, so no
  // branch runs a chain search the lazy path would have skipped. The
  // draw round, the census and a shard's validate RPC all come here.
  if (options_.validate_correctness && !branches_.empty()) {
    std::vector<NodeId> warm;
    warm.reserve(indices.size());
    for (size_t ci : indices) warm.push_back(candidates_[ci]);
    ThreadPool& pool = GlobalPool();
    for (const auto& b : branches_) {
      b->WarmValidationCache(warm, pool);
      if (&b != &branches_.back()) {
        size_t kept = 0;
        for (NodeId u : warm) {
          if (b->ValidateSimilarity(u) > 0.0) warm[kept++] = u;
        }
        warm.resize(kept);
      }
    }
  }
  out.clear();
  out.reserve(indices.size());
  for (size_t ci : indices) out.push_back(EvaluateCandidate(ci));
}

std::unique_ptr<QuerySession> QuerySession::CreateReplay(
    ReplaySessionSpec spec) {
  auto session = std::unique_ptr<QuerySession>(new QuerySession());
  session->options_ = spec.options;
  session->query_ = spec.query;
  session->rng_ = Rng(spec.options.seed);
  session->candidates_ = std::move(spec.candidates);
  session->probabilities_ = std::move(spec.probabilities);
  session->alias_ = AliasTable(session->probabilities_);
  session->evaluator_ = std::move(spec.evaluator);
  // GROUP-BY routing in StepRound keys off group_attr_ != kInvalidId; the
  // id itself is never dereferenced here because the local fold (the only
  // consumer of the id) is bypassed by the evaluator.
  session->group_attr_ = spec.group_by_enabled ? 0 : kInvalidId;
  return session;
}

std::vector<SampleItem> QuerySession::GroupView(int64_t key) const {
  // Same draw vector with out-of-group items masked incorrect: keeps the
  // |S_A| divisor of the HT estimators intact so each group's estimate
  // targets f_a over that group's correct answers.
  std::vector<SampleItem> view(items_.begin(), items_.end());
  for (size_t i = 0; i < view.size(); ++i) {
    if (group_keys_[i] != key) view[i].correct = false;
  }
  return view;
}

void QuerySession::SetStopControl(const std::atomic<bool>* cancel,
                                  Deadline deadline) {
  cancel_requested_ = cancel;
  deadline_ = deadline;
  shed_requested_.store(false, std::memory_order_release);
  stop_cause_ = StopCause::kNone;
}

bool QuerySession::ShouldStop() {
  if (stop_cause_ != StopCause::kNone) return true;
  if (cancel_requested_ != nullptr &&
      cancel_requested_->load(std::memory_order_acquire)) {
    stop_cause_ = StopCause::kCancelled;
    return true;
  }
  if (deadline_.expired()) {
    stop_cause_ = StopCause::kDeadlineExceeded;
    return true;
  }
  if (shed_requested_.load(std::memory_order_acquire)) {
    stop_cause_ = StopCause::kShed;
    return true;
  }
  return false;
}

void QuerySession::BeginRun(double error_bound) {
  run_ = RunState{};
  run_.error_bound = error_bound;
  run_.finished = false;
  stop_cause_ = StopCause::kNone;
  s2_.Reset();
  s3_.Reset();

  if (!HasAccuracyGuarantee(query_.function)) {
    run_.extreme = true;
    run_.per_round = std::max<size_t>(
        8, static_cast<size_t>(std::ceil(options_.extreme_sample_fraction *
                                         static_cast<double>(
                                             candidates_.size()))));
    // extreme_rounds == 0 means "estimate from the sample already
    // collected, draw nothing" — finish before any StepRound draws.
    if (options_.extreme_rounds == 0) run_.finished = true;
    return;
  }

  run_.out.confidence_level = options_.confidence_level;
  run_.out.error_bound = error_bound;
  run_.out.num_candidates = candidates_.size();
  if (candidates_.empty()) {
    run_.out.satisfied = true;
    run_.finished = true;
    return;
  }
  if (census_.exact) {
    // Already answered by census: no bound can be tighter than exact.
    run_.out = census_;
    run_.out.error_bound = error_bound;
    run_.finished = true;
    return;
  }

  // Initial desired sample: |S_A| = t * N^m with N = lambda |A| (§IV-C).
  const double n_desired =
      options_.sample_ratio * static_cast<double>(candidates_.size());
  run_.target = std::max(
      options_.min_initial_draws,
      static_cast<size_t>(std::ceil(
          static_cast<double>(options_.blb.t) *
          std::pow(std::max(n_desired, 1.0), options_.blb.m))));
}

bool QuerySession::StepRound() {
  if (run_.finished) return true;

  // Cooperative stop point: checked before the round's draws, so a
  // cancelled or expired query consumes no further Rng stream and every
  // completed round's sample stays intact for the partial estimate.
  if (ShouldStop()) {
    run_.finished = true;
    return true;
  }

  if (run_.extreme) {
    s2_.Start();
    DrawAndValidate(run_.per_round);
    s2_.Stop();
    if (stop_cause_ == StopCause::kShardLost) {
      // The aborted round appended nothing; retire on what prior rounds
      // collected (possibly an empty sample — the caller checks rounds).
      run_.finished = true;
      return true;
    }
    ++rounds_total_;
    if (++run_.extreme_rounds_done >= options_.extreme_rounds) {
      run_.finished = true;
    }
    return run_.finished;
  }

  ++run_.rounds_this_call;
  ++rounds_total_;

  s2_.Start();
  // Draws are taken with replacement from a finite A, so once the target
  // reaches |A| validating every candidate once is cheaper and exact.
  const bool census =
      options_.census_cutover && run_.target >= candidates_.size();
  if (census) {
    RunCensus();
  } else if (items_.size() < run_.target) {
    DrawAndValidate(run_.target - items_.size());
  }
  if (stop_cause_ == StopCause::kShardLost) {
    // A replay round lost its shard mid-draw: the round appended
    // nothing, so back out its round counts (rounds_completed() drives
    // "has a single-round estimate" degradation decisions) and keep
    // run_.out as the last completed round's estimate.
    s2_.Stop();
    --run_.rounds_this_call;
    --rounds_total_;
    run_.finished = true;
    return true;
  }
  if (census) {
    s2_.Stop();
    run_.finished = true;
    return true;
  }
  const double v_hat = HtEstimator::Estimate(query_.function, items_);
  s2_.Stop();

  s3_.Start();
  const BlbResult blb = BagOfLittleBootstraps(
      items_, query_.function, options_.confidence_level, options_.blb,
      rng_);
  s3_.Stop();

  run_.out.v_hat = v_hat;
  run_.out.moe = blb.moe;
  trace_.push_back({rounds_total_, v_hat, blb.moe, items_.size(),
                    HtEstimator::CountCorrect(items_)});

  bool satisfied;
  const size_t correct = HtEstimator::CountCorrect(items_);
  if (correct < options_.min_correct_draws) {
    // Too few correct draws: both the estimate and its bootstrap CI are
    // vacuous; force more sampling instead of terminating on them.
    satisfied = false;
  } else if (group_attr_ != kInvalidId) {
    // GROUP-BY: every group with enough support must meet Theorem 2.
    s3_.Start();
    std::set<int64_t> keys;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (items_[i].correct) keys.insert(group_keys_[i]);
    }
    run_.out.groups.clear();
    satisfied = true;
    for (int64_t key : keys) {
      auto view = GroupView(key);
      GroupEstimate ge;
      ge.bucket_lower =
          static_cast<double>(key) * query_.group_by.bucket_width;
      ge.v_hat = HtEstimator::Estimate(query_.function, view);
      ge.support = HtEstimator::CountCorrect(view);
      const BlbResult gb = BagOfLittleBootstraps(
          view, query_.function, options_.confidence_level, options_.blb,
          rng_);
      ge.moe = gb.moe;
      ge.satisfied = SatisfiesErrorBound(gb.moe, ge.v_hat, run_.error_bound);
      if (ge.support >= options_.group_min_support && !ge.satisfied) {
        satisfied = false;
      }
      run_.out.groups.push_back(ge);
    }
    s3_.Stop();
  } else {
    satisfied = SatisfiesErrorBound(blb.moe, v_hat, run_.error_bound);
  }

  if (satisfied) {
    run_.out.satisfied = true;
    run_.finished = true;
    return true;
  }
  if (run_.rounds_this_call >= options_.max_rounds ||
      items_.size() >= options_.max_total_draws) {
    run_.finished = true;
    return true;
  }

  // Error-based |Delta S_A| configuration (Eq. 12), or the fixed
  // increment of the Fig. 5c ablation.
  size_t delta;
  if (options_.fixed_increment > 0) {
    delta = options_.fixed_increment;
  } else if (correct < options_.min_correct_draws || v_hat == 0.0 ||
             !std::isfinite(blb.moe)) {
    delta = items_.size();  // geometric growth until signal appears
  } else {
    delta = ConfigureSampleIncrement(items_.size(), blb.moe, v_hat,
                                     run_.error_bound, options_.blb.m);
  }
  run_.target = std::min(items_.size() + delta, options_.max_total_draws);
  return false;
}

AggregateResult QuerySession::FinishRun() {
  run_.finished = true;

  // The borrow epoch ends here: unpin everything acquired at session
  // build (idempotent across repeated runs) and give a governed context
  // the chance to reclaim the newly unpinned bytes right away.
  pins_.Release();
  if (ctx_ != nullptr) ctx_->EvictToBudget();

  if (run_.extreme) {
    s2_.Start();
    AggregateResult out;
    out.v_hat = options_.use_evt_for_extremes
                    ? EstimateExtremeEvt(query_.function, items_)
                    : HtEstimator::Estimate(query_.function, items_);
    out.moe = 0.0;
    out.confidence_level = options_.confidence_level;
    out.error_bound = run_.error_bound;
    out.satisfied = false;  // extreme functions carry no guarantee (§VII-B)
    out.rounds = rounds_total_;
    out.total_draws = items_.size();
    out.num_candidates = candidates_.size();
    out.correct_draws = HtEstimator::CountCorrect(items_);
    s2_.Stop();
    out.timings.s2_estimation_ms = s2_.TotalMillis();
    if (!s1_reported_) {
      out.timings.s1_sampling_ms = s1_ms_;
      s1_reported_ = true;
    }
    out.timings.total_ms =
        out.timings.s1_sampling_ms + out.timings.s2_estimation_ms;
    return out;
  }

  AggregateResult out = std::move(run_.out);
  run_.out = AggregateResult{};
  if (candidates_.empty()) {
    if (!s1_reported_) {
      out.timings.s1_sampling_ms = s1_ms_;
      s1_reported_ = true;
    }
    out.timings.total_ms = out.timings.s1_sampling_ms;
    return out;
  }

  out.rounds = run_.rounds_this_call;
  out.total_draws = items_.size();
  out.correct_draws = HtEstimator::CountCorrect(items_);
  out.trace = trace_;
  out.timings.s2_estimation_ms = s2_.TotalMillis();
  out.timings.s3_accuracy_ms = s3_.TotalMillis();
  if (!s1_reported_) {
    out.timings.s1_sampling_ms = s1_ms_;
    s1_reported_ = true;
  }
  out.timings.total_ms = out.timings.s1_sampling_ms +
                         out.timings.s2_estimation_ms +
                         out.timings.s3_accuracy_ms;
  return out;
}

AggregateResult QuerySession::RunToErrorBound(double error_bound) {
  BeginRun(error_bound);
  while (!StepRound()) {
  }
  return FinishRun();
}

}  // namespace kgaq
