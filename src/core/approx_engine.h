#ifndef KGAQ_CORE_APPROX_ENGINE_H_
#define KGAQ_CORE_APPROX_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "common/deadline.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/branch_plan.h"
#include "core/branch_sampler.h"
#include "core/engine_context.h"
#include "embedding/embedding_model.h"
#include "estimate/bootstrap.h"
#include "estimate/ht_estimator.h"
#include "kg/knowledge_graph.h"
#include "query/query_graph.h"

namespace kgaq {

/// All tunables of the sampling-estimation pipeline, with the paper's
/// default configuration (§VII-A "Parameters"): eb = 1%, 1-alpha = 95%,
/// r = 3, lambda = 0.3, n = 3, BLB t = 3 / m = 0.6 / B = 50.
struct EngineOptions {
  double error_bound = 0.01;
  double confidence_level = 0.95;
  /// Semantic-similarity threshold tau; dataset-tuned via Table V.
  double tau = 0.85;
  /// Desired sample ratio lambda: N = lambda * |A|.
  double sample_ratio = 0.3;
  BlbOptions blb;
  BranchSamplerOptions branch;
  /// Safety cap on Algorithm 2 iterations (paper observes Ne <= 10).
  size_t max_rounds = 60;
  size_t min_initial_draws = 30;
  /// Termination requires at least this many correct draws in S_A^+; a
  /// near-empty S_A^+ makes both the estimate and its bootstrap CI
  /// vacuous, so low-selectivity queries keep sampling instead.
  size_t min_correct_draws = 25;
  /// Hard budget on |S_A| across all rounds.
  size_t max_total_draws = 500000;
  /// MAX/MIN (no guarantee): rounds x fraction-of-candidates sampling.
  /// The paper observes the exact extreme enters the sample after ~8
  /// rounds on average at 5% per round.
  size_t extreme_rounds = 8;
  double extreme_sample_fraction = 0.08;
  /// Extreme-value-theory extrapolation for MAX/MIN (the paper's stated
  /// future work): fit a GPD tail to the correct draws and report the
  /// 1 - 1/N tail quantile instead of the raw sample extreme.
  bool use_evt_for_extremes = false;
  /// GROUP-BY termination ignores groups with fewer correct draws.
  size_t group_min_support = 5;
  /// Ablation (Fig. 5b): when false, §IV-B2 correctness validation is
  /// skipped and every draw counts as correct (filters still apply).
  bool validate_correctness = true;
  /// Ablation (Fig. 5c): when > 0, |Delta S_A| is this fixed value instead
  /// of the Eq. 12 error-based configuration.
  size_t fixed_increment = 0;
  /// Census cutover (COUNT/SUM/AVG only): once a round's Eq. 12 target
  /// |S_A| reaches |A|, validate every candidate once instead of drawing
  /// and answer exactly (moe = 0, AggregateResult::exact). False keeps the
  /// paper's sampling loop, which the figure and table benches reproduce.
  bool census_cutover = true;
  uint64_t seed = 7;
};

/// Per-iteration trace of Algorithm 2 (drives Table IX).
struct RoundTrace {
  size_t round = 0;
  double v_hat = 0.0;
  double moe = 0.0;
  size_t total_draws = 0;
  size_t correct_draws = 0;
};

/// One GROUP-BY bucket's estimate (§V-A).
struct GroupEstimate {
  /// Inclusive lower edge of the bucket: key * bucket_width.
  double bucket_lower = 0.0;
  double v_hat = 0.0;
  double moe = 0.0;
  size_t support = 0;  ///< Correct draws in the bucket.
  bool satisfied = false;
};

/// Time attribution to the paper's three steps (Table XII): S1 semantic-
/// aware sampling, S2 validation + estimation, S3 accuracy guarantee.
struct StepTimings {
  double s1_sampling_ms = 0.0;
  double s2_estimation_ms = 0.0;
  double s3_accuracy_ms = 0.0;
  double total_ms = 0.0;
};

/// Final (or intermediate, for interactive use) result of an aggregate
/// query: the point estimate with its confidence interval V_hat +- MoE at
/// the configured confidence level.
struct AggregateResult {
  double v_hat = 0.0;
  double moe = 0.0;
  double confidence_level = 0.95;
  double error_bound = 0.01;
  /// True iff Theorem 2's termination condition was met (always false for
  /// MAX/MIN, which carry no guarantee).
  bool satisfied = false;
  /// True when the answer is a census (EngineOptions::census_cutover):
  /// v_hat is the exact aggregate over the correct candidates and moe = 0.
  /// Never set on a degraded answer.
  bool exact = false;
  size_t rounds = 0;
  size_t total_draws = 0;
  size_t num_candidates = 0;
  size_t correct_draws = 0;
  std::vector<RoundTrace> trace;
  std::vector<GroupEstimate> groups;  ///< Empty unless GROUP-BY.
  StepTimings timings;
};

class QuerySession;

/// Why a stepwise run retired before meeting its error bound. Checked at
/// round boundaries only (cooperative), so a stopped session's already-
/// completed rounds — and every other session's draws — are unaffected.
enum class StopCause {
  kNone,              ///< ran to its natural end (bound met or budget spent)
  kCancelled,         ///< the installed cancel flag was set
  kDeadlineExceeded,  ///< the installed deadline expired
  kShed,              ///< RequestShed(): overload asked the run to retire
  kShardLost,         ///< a replay session's shard (RemoteEvaluator) failed
};

const char* StopCauseToString(StopCause c);

/// Validation outcome of one candidate: the exact per-draw facts the
/// DrawAndValidate fold records into the sample. Factored out so a shard
/// can compute them remotely (QuerySession::EvaluateBatch) and a
/// coordinator's replay session can fold them in bitwise-identically to
/// a local run (docs/sharding.md).
struct NodeOutcome {
  bool correct = false;
  double value = 0.0;
  int64_t group_key = 0;
};

/// Outsourced per-draw validation for replay sessions: given the
/// candidate *indices* of one round's draws (duplicates included, in draw
/// order; every index once, ascending, for a census round), fills `out`
/// with one NodeOutcome per index, aligned with the input. A non-OK status means the owning shard is unreachable; the
/// session retires with StopCause::kShardLost and its pre-round partial
/// estimate intact.
using RemoteEvaluator = std::function<Status(
    std::span<const size_t> draw_indices, std::vector<NodeOutcome>& out)>;

/// Everything needed to replay the global draw schedule without a graph:
/// the merged candidate distribution (exactly the unsharded session's
/// arrays, no renormalization) plus the evaluator that reaches the
/// shards. See QuerySession::CreateReplay.
struct ReplaySessionSpec {
  EngineOptions options;
  AggregateQuery query;
  std::vector<NodeId> candidates;
  std::vector<double> probabilities;
  bool group_by_enabled = false;
  RemoteEvaluator evaluator;
};

/// The sampling-estimation engine (Algorithm 2).
///
///   ApproxEngine engine(graph, embedding);
///   auto result = engine.Execute(query);
///   // result->v_hat +- result->moe covers the tau-relevant ground truth
///   // with the configured confidence, and |V_hat - V| / V <= eb.
///
/// Or, resident-engine style with explicit shared state:
///
///   auto ctx = std::make_shared<EngineContext>(graph, embedding);
///   ApproxEngine engine(ctx);   // many engines/queries can share ctx
///
/// The engine is stateless across queries and safe to share between
/// threads as long as each call uses its own session. All expensive
/// derived state (similarity rows, walk cores, chain-validation profiles)
/// lives in the EngineContext, so engines borrowing one context reuse it
/// across queries; the two-argument constructor creates a private context
/// with the same lifetime as the engine.
class ApproxEngine {
 public:
  ApproxEngine(const KnowledgeGraph& g, const EmbeddingModel& model,
               EngineOptions options = {});
  explicit ApproxEngine(std::shared_ptr<const EngineContext> context,
                        EngineOptions options = {});

  /// One-shot execution: creates a session and runs Algorithm 2 to the
  /// configured error bound.
  Result<AggregateResult> Execute(const AggregateQuery& query) const;

  /// Creates a resumable session for interactive error-bound refinement
  /// (Fig. 6a): RunToErrorBound can be called repeatedly with shrinking
  /// bounds, reusing all previously collected sample.
  Result<std::unique_ptr<QuerySession>> CreateSession(
      const AggregateQuery& query) const;

  const EngineOptions& options() const { return options_; }
  const KnowledgeGraph& graph() const { return ctx_->graph(); }
  const EmbeddingModel& model() const { return ctx_->model(); }
  const std::shared_ptr<const EngineContext>& context() const {
    return ctx_;
  }

 private:
  std::shared_ptr<const EngineContext> ctx_;
  EngineOptions options_;
};

/// Resumable Algorithm-2 state bound to one query: branch samplers, the
/// combined candidate distribution, and every draw validated so far. The
/// session borrows the engine's EngineContext (pinning it alive) and is
/// itself cheap — building one derives only the query-specific candidate
/// distribution; the heavy shared state comes from the context's caches.
///
/// Two equivalent driving modes:
///  * RunToErrorBound(eb): run rounds to completion (the classic API);
///  * BeginRun(eb) / StepRound() / FinishRun(): one draw-validate-estimate
///    round per StepRound call, so a scheduler (serve/QueryService) can
///    interleave many sessions' rounds over the shared pool. Both modes
///    execute the identical sequence of draws and estimator calls, so for
///    a fixed seed they produce bitwise-identical results.
class QuerySession {
 public:
  /// Runs (or continues) the sampling-estimation loop until the Theorem 2
  /// condition holds for `error_bound`, then returns the current result.
  /// Reported timings cover only the work done by this call, so a
  /// subsequent call with a tighter bound reports the *incremental* cost.
  AggregateResult RunToErrorBound(double error_bound);

  /// Starts a stepwise run toward `error_bound`. Any previous run must
  /// have finished.
  void BeginRun(double error_bound);

  /// Executes one Algorithm-2 round (draw + validate + estimate + check),
  /// or the census that ends the run (EngineOptions::census_cutover).
  /// Returns true when the run has finished (bound satisfied, census done
  /// or budget exhausted) — call FinishRun() then.
  bool StepRound();

  /// Completes the stepwise run and returns its result.
  AggregateResult FinishRun();

  bool run_finished() const { return run_.finished; }

  /// Installs the cooperative stop control consulted between rounds.
  /// `cancel` (may be null) is an external flag — typically owned by a
  /// serving ticket — that any thread may set; `deadline` bounds the run
  /// on the monotonic clock. StepRound re-checks both before drawing, so
  /// a cancelled or expired session finishes at the next round boundary
  /// with whatever sample it has; FinishRun then reports the partial
  /// estimate and stop_cause() says why the run stopped short. The flag
  /// must outlive the session (or be cleared with another SetStopControl).
  void SetStopControl(const std::atomic<bool>* cancel, Deadline deadline);

  /// Asks the run to retire at its next round boundary with the sample it
  /// already holds — the overload ("load shedding") analogue of Cancel,
  /// distinguishable from it via stop_cause() == kShed so the serving
  /// layer can report a *degraded completion* rather than a cancellation.
  /// Lowest priority of the three stop signals: a concurrent cancel or
  /// expired deadline wins attribution. Safe to call from any thread
  /// between rounds (the serve scheduler calls it at tick boundaries).
  void RequestShed() { shed_requested_.store(true, std::memory_order_release); }

  /// Why the most recent run stopped (kNone when it ran to completion).
  StopCause stop_cause() const { return stop_cause_; }

  /// Rounds completed across the session's lifetime (all runs). The
  /// scheduler uses this to guarantee "never shed a query that has not
  /// yet produced a single-round estimate".
  size_t rounds_completed() const { return rounds_total_; }

  /// True when a cache build this session needed was declined under
  /// Critical memory pressure — the query ran on ephemeral structures
  /// (identical results, nothing cached). The serving layer reports such
  /// completions degraded, mirroring shed runs.
  bool cache_builds_shed() const { return pins_.shed_builds() > 0; }

  const AggregateQuery& query() const { return query_; }
  size_t num_candidates() const { return dist_->candidates.size(); }

  /// The combined candidate distribution, in construction order (the
  /// index space EvaluateBatch and RemoteEvaluator speak).
  std::span<const NodeId> candidate_nodes() const { return dist_->candidates; }
  std::span<const double> candidate_probabilities() const {
    return dist_->probabilities;
  }

  /// Validates candidate `index` exactly as the DrawAndValidate fold
  /// would: branch-min similarity vs tau, filters, value lookup (missing
  /// value kills correctness when the aggregate needs one), group-key
  /// bucketing (missing group attribute kills correctness). Results come
  /// from the branch samplers' per-node caches, so repeated calls are
  /// cheap and identical.
  NodeOutcome EvaluateCandidate(size_t index) const;

  /// Batch form for shard validate handlers: warms the validation caches
  /// in parallel with the same inter-branch positive filter the local
  /// draw path applies, then evaluates each index. `out` is cleared and
  /// aligned with `indices` (duplicates allowed).
  void EvaluateBatch(std::span<const size_t> indices,
                     std::vector<NodeOutcome>& out) const;

  /// Builds a graph-less session that replays the global draw schedule —
  /// same alias table, same Rng stream, same BLB calls — over a merged
  /// candidate distribution, outsourcing per-draw validation to
  /// `spec.evaluator`. With spec arrays equal to an unsharded session's
  /// candidates/probabilities and an evaluator that answers exactly like
  /// EvaluateCandidate, results are bitwise-identical to the unsharded
  /// run (docs/sharding.md states the contract).
  static std::unique_ptr<QuerySession> CreateReplay(ReplaySessionSpec spec);

 private:
  friend class ApproxEngine;
  QuerySession() = default;

  struct DrawRecord {
    SampleItem item;
    int64_t group_key = 0;
  };

  void DrawAndValidate(size_t k);
  /// Fills outcome_scratch_ with one NodeOutcome per index: through
  /// evaluator_ in a replay session, else EvaluateBatch. Returns false
  /// (stop cause kShardLost) when the evaluator fails.
  bool ValidateIndices(std::span<const size_t> indices);
  /// Validates every candidate once and folds the exact answer into
  /// run_.out (see EngineOptions::census_cutover).
  void RunCensus();
  std::vector<SampleItem> GroupView(int64_t key) const;
  /// Consults the stop control; records the cause on first trigger.
  bool ShouldStop();

  std::shared_ptr<const EngineContext> ctx_;
  const KnowledgeGraph* g_ = nullptr;
  EngineOptions options_;
  AggregateQuery query_;
  Rng rng_{0};

  /// Borrow epoch over the context's governed caches: every structure the
  /// session's branch builds acquire stays pinned (never evicted) until
  /// FinishRun releases the scope (the destructor is the backstop).
  CachePinScope pins_;

  std::vector<std::unique_ptr<BranchSampler>> branches_;
  // Combined candidate distribution, drawn through its O(1) alias table:
  // a single branch's prepared plan, shared as is; complex shapes
  // (intersection with product weights, §V-B) and replay sessions build
  // one holding only candidates, probabilities and alias.
  std::shared_ptr<const PreparedBranch> dist_;
  // Per-session scratch reused by every round: drawn (or census)
  // candidate indices and their validation outcomes.
  std::vector<size_t> draw_scratch_;
  std::vector<NodeOutcome> outcome_scratch_;

  std::vector<SampleItem> items_;
  std::vector<int64_t> group_keys_;
  AttributeId value_attr_ = kInvalidId;
  AttributeId group_attr_ = kInvalidId;
  std::vector<std::pair<AttributeId, Filter>> resolved_filters_;

  /// Non-null only for replay sessions (CreateReplay): outsources
  /// the per-draw fold, so g_/ctx_/branches_ stay null/empty and the
  /// local validation path never runs.
  RemoteEvaluator evaluator_;

  double s1_ms_ = 0.0;        // charged to the first RunToErrorBound
  bool s1_reported_ = false;
  size_t rounds_total_ = 0;
  std::vector<RoundTrace> trace_;
  /// The census answer once one ran (census_.exact): every later run
  /// returns it without validating again.
  AggregateResult census_;

  /// State of the current BeginRun/StepRound/FinishRun cycle.
  struct RunState {
    double error_bound = 0.01;
    bool extreme = false;   // MAX/MIN path (no guarantee)
    bool finished = true;   // no run in progress
    AggregateResult out;
    size_t target = 0;              // guaranteed path: desired |S_A|
    size_t rounds_this_call = 0;    // guaranteed path
    size_t per_round = 0;           // extreme path: draws per round
    size_t extreme_rounds_done = 0;
  };
  RunState run_;
  StepTimer s2_;
  StepTimer s3_;

  /// Cooperative stop control (see SetStopControl / RequestShed).
  const std::atomic<bool>* cancel_requested_ = nullptr;
  Deadline deadline_;  // infinite by default
  std::atomic<bool> shed_requested_{false};
  StopCause stop_cause_ = StopCause::kNone;
};

}  // namespace kgaq

#endif  // KGAQ_CORE_APPROX_ENGINE_H_
