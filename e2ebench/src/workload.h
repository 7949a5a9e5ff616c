#ifndef KGAQ_E2EBENCH_WORKLOAD_H_
#define KGAQ_E2EBENCH_WORKLOAD_H_

// Shared pieces of the workloads: command-line options, the
// generated query lists, the oracles (census and SSB tau-GT), the log of
// answers with its determinism check, quality and latency statistics,
// and the metric report every workload fills in.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/approx_engine.h"
#include "core/engine_context.h"
#include "datagen/dataset.h"
#include "serve/query_service.h"
#include "shard/coordinator.h"
#include "trace.h"

namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span file of the traced run and the recorded
  /// seed-pinned counts.
  std::string out_dir = ".";
};

/// Client threads or connections any workload may use (the box has 4
/// cores; the load generator shares them with the system under test).
inline constexpr size_t kClients = 4;
/// Times set-up is repeated in one run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// One query of a workload. The seed is pinned from the workload seed
/// and the query's index, so every answer to it is reproducible under
/// any interleaving.
struct BenchQuery {
  std::string id;
  kgaq::AggregateQuery query;
  uint64_t seed = 0;
  /// Index of the base query in the oracle vectors (census, tau-GT).
  size_t oracle = 0;
};

/// The default 37-query WorkloadGenerator mix (seed 99) over `ds`.
std::vector<BenchQuery> GeneratedMix(const kgaq::GeneratedDataset& ds);

/// `variants` copies of every base query (variant-major), item k pinned
/// to seed QuerySeed(workload_seed, k). Seed variants multiply the
/// distinct estimates the quality metrics are computed over.
std::vector<BenchQuery> SeedVariants(const std::vector<BenchQuery>& base,
                                     size_t variants, uint64_t workload_seed);

/// A GROUP-BY query: seconds each, about 90% of it BLB, against tens of
/// ms for the others.
bool IsHeavy(const BenchQuery& q);

/// The items of SeedVariants(base, ...) a workload runs: every variant of
/// a light query, the first `heavy_variants` of a heavy one (completing
/// a heavy variant costs seconds).
std::vector<bool> ActiveItems(const std::vector<BenchQuery>& queries,
                              size_t base_size, size_t heavy_variants);

/// Exact answer of the engine's own validator: every candidate of the
/// query evaluated once (CreateSession + EvaluateBatch over all indices).
struct Census {
  size_t num_candidates = 0;
  size_t correct = 0;
  double value = 0.0;                ///< aggregate over correct answers
  std::map<int64_t, double> groups;  ///< GROUP-BY bucket key -> aggregate
};

/// Census of every query, `kClients` queries at a time. Doubles as the
/// warm-up pass: it fills the context's similarity, walk-core and chain
/// caches the way the queries' sessions will use them.
std::vector<Census> CensusPass(
    const std::shared_ptr<const kgaq::EngineContext>& ctx,
    const std::vector<BenchQuery>& queries);

/// Appends the zero-answer and tiny-answer queries (each a generated
/// simple query plus a filter) to `queries`. Errors when the census does
/// not confirm 0 and 1..9 answers.
kgaq::Status AddEdgeCaseQueries(
    const kgaq::GeneratedDataset& ds,
    const std::shared_ptr<const kgaq::EngineContext>& ctx,
    std::vector<BenchQuery>& queries);

/// SSB tau-GT of one query (the paper's exact oracle).
struct TauGt {
  double value = 0.0;
  std::map<int64_t, double> groups;  ///< GROUP-BY bucket key -> aggregate
};

std::vector<TauGt> TauGroundTruth(const kgaq::GeneratedDataset& ds,
                                  const std::vector<BenchQuery>& queries);

/// Runs fn(worker, i) for i in [0, n) on at most kClients threads;
/// `worker` numbers the thread from 0.
void ParallelFor(size_t n,
                 const std::function<void(size_t worker, size_t i)>& fn);

/// Prints `what` and exits 2: a set-up error, no result is printed.
[[noreturn]] void Fatal(const std::string& what);

/// "Answered": terminal kDone, status OK, not degraded.
bool IsAnswered(const kgaq::QueryResponse& r);

/// Bitwise equality on everything a client can see of an answer.
bool SameAnswer(const kgaq::AggregateResult& a,
                const kgaq::AggregateResult& b);

/// Every answered result per query. Adding a second answer to a query
/// checks it is bitwise-equal to the first (seed-pinned determinism).
/// Thread-safe.
class AnswerLog {
 public:
  void Add(size_t query, const kgaq::AggregateResult& result,
           const std::string& where);
  bool Has(size_t query) const;
  std::map<size_t, kgaq::AggregateResult> answers() const;
  std::vector<std::string> errors() const;

 private:
  mutable std::mutex mu_;
  std::map<size_t, kgaq::AggregateResult> first_;  ///< guarded by mu_
  std::vector<std::string> errors_;                ///< guarded by mu_
};

/// Seed-pinned quality of the distinct answered queries. An estimate is
/// a query's v_hat +- moe, or one group's for GROUP-BY queries.
struct Quality {
  size_t queries = 0;    ///< distinct answered queries
  size_t estimates = 0;
  double satisfied_share = 0.0;
  double ci_coverage = 0.0;
  double rel_error_p50_pct = 0.0;
  double draws_per_candidate = 0.0;
};

/// `ans` holds the answered results by query; `degraded` the partial
/// estimates of degraded answers whose degradation is itself seed-pinned
/// (a shard lost to an oversized request): they are reported estimates,
/// so they count in ci_coverage and rel_error_p50_pct, but not as
/// answered queries.
Quality ComputeQuality(const std::vector<BenchQuery>& queries,
                       const std::vector<Census>& census,
                       const std::vector<TauGt>& tau_gt,
                       const std::map<size_t, kgaq::AggregateResult>& ans,
                       const std::map<size_t, kgaq::AggregateResult>& degraded);

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> v, double p);
double Mean(const std::vector<double>& v);

/// Outcome of one timed window.
struct WindowStats {
  /// The window length.
  double seconds = 0.0;
  size_t attempted = 0;
  size_t answered = 0;
  std::vector<double> latency_ms;          ///< one per answered query
  std::map<std::string, size_t> failures;  ///< attempted, not answered
};

/// Failure cause of a terminal response that is not an answer.
/// "degraded" is a kDone, status-OK response flagged degraded: an answer
/// with a partial estimate and its achieved bound.
std::string FailureCause(const kgaq::QueryResponse& r);

/// Attempted queries that got no answer at all (error, rejection,
/// expiry): the result line's "failed". Degraded answers count against
/// answered_share but are answers, so they are not in it.
size_t Unanswered(const WindowStats& w);

/// Metrics of one run, printed for people and as the result JSON.
class Report {
 public:
  /// Adds a row. A name already present keeps its first value, so the
  /// probes fill only the rows a workload did not measure itself.
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples, const std::string& note = "");
  bool Has(const std::string& name) const;
  double Value(const std::string& name) const;
  void Print(const std::string& title) const;
  /// {"name":{"value":v,"unit":"u"},...}
  std::string Json() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
    std::string note;
  };
  std::vector<Row> rows_;
};

/// Every check a run makes; a failed one turns "correct" false and the
/// exit code non-zero.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  void Merge(const std::vector<std::string>& errors);
  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> errors_;
};

/// submitted == done+failed+cancelled+deadline_expired+rejected+shed.
bool IdentityHolds(const kgaq::QueryService::ServiceStats& s);
bool IdentityHolds(const kgaq::CoordinatorStats& s);

/// VmHWM of this process, in MiB. A workload reads it right after its
/// untraced window, before any oracle runs, so it covers the set-ups and
/// the window only.
double PeakRssMb();

/// Runs `setup` kSetupRepeats times and returns the median seconds; the
/// callee keeps whatever the last call built.
double TimeSetup(const std::function<void()>& setup);

/// What the clients of a closed-loop window run: `passes` seeded passes
/// over the base queries, pass p running seed variant p % light_variants
/// of every light query (shuffled) and p % heavy_variants of every
/// GROUP-BY query (in base order), as items v * base.size() + i the way
/// SeedVariants lays them out. Client 0 runs `heavy` back to back and the
/// other clients share `light`: a GROUP-BY round is 60-150 ms of BLB, and
/// when heavy queries overlapped by chance the deployment ran a
/// different regime (one sequence shared by all clients spread
/// mix_service's answered_qps by 20% IQR over 10 seeds); with one client
/// for them, one is in flight at all times and every run measures the
/// same mix.
struct ClientSequences {
  std::vector<size_t> heavy;
  std::vector<size_t> light;
};
ClientSequences MakeClientSequences(const std::vector<BenchQuery>& base,
                                    size_t light_variants,
                                    size_t heavy_variants, size_t passes,
                                    uint64_t seed);

/// The end-to-end rows every workload reports.
void AddEndToEnd(Report& report, const WindowStats& w, const Quality& q,
                 double setup_s, double peak_rss_mb);


/// One solo replay of a query: CreateSession, BeginRun, StepRound until
/// finished, FinishRun, with spans around each call.
struct SoloRun {
  size_t query = 0;
  double create_session_ms = 0.0;
  double run_ms = 0.0;  ///< BeginRun .. FinishRun
  kgaq::AggregateResult result;
};

/// Solo replays of queries [0, count) (the first seed variant of every
/// base query), one at a time, seed-pinned, on a fresh engine over `ctx`.
/// Each result is added to `log`.
std::vector<SoloRun> SoloReplay(
    const std::shared_ptr<const kgaq::EngineContext>& ctx,
    const std::vector<BenchQuery>& queries, size_t count, Tracer& tracer,
    AnswerLog& log);

/// core.* and estimate.* rows from solo replays and the context's cache
/// counters.
void AddCoreLayers(Report& layers, const std::vector<SoloRun>& solo,
                   const kgaq::EngineContext::CacheStats& before,
                   const kgaq::EngineContext::CacheStats& after,
                   size_t max_total_draws);

/// serve.* rows of the QueryService a window ran through: queue wait of
/// every terminal response, each answer's run_ms over the solo replay of
/// the same query and seed (`run_ms` holds query, ms pairs), and the
/// service counters' deltas over the window.
void AddServeLayers(Report& layers, const std::vector<double>& queue_ms,
                    const std::vector<std::pair<size_t, double>>& run_ms,
                    const std::vector<SoloRun>& solo,
                    const kgaq::QueryService::ServiceStats& before,
                    const kgaq::QueryService::ServiceStats& after);

/// Records the service's queue and run spans under `parent`, rebuilt
/// from the echoed queue_ms / run_ms starting at `submit`.
void RecordServiceSpans(Tracer& tracer, uint64_t request, uint64_t parent,
                        Clock::time_point submit, double queue_ms,
                        double run_ms);

/// Closes a traced run: adds the tracing-overhead rows (traced minus
/// untraced window) to `layers`, prints the traced window's end-to-end
/// report and the per-span-name self-time table, and writes the spans to
/// <out_dir>/trace_<workload>.json.
void FinishTrace(Report& layers, const Report& untraced,
                 const Report& traced, const Tracer& tracer,
                 const Options& opts);

/// Everything one workload run produces.
struct RunOutput {
  Report e2e;
  Report layers;
  size_t attempted = 0;
  size_t failed = 0;  ///< Unanswered() of the untraced window
  Quality quality;
  Checks checks;
};

RunOutput RunMixService(const Options& opts);
RunOutput RunShardHttp(const Options& opts);

/// serve.* rows from a light serial HTTP probe (POST /query + long-poll
/// GET /result through a fresh QueryService and HttpServer over `ctx`),
/// for workloads that do not route through the HTTP front door. Rows the
/// workload measured itself are kept. `solo` holds solo replays of the
/// probe queries (for serve.run_inflation).
void HttpProbe(const std::shared_ptr<const kgaq::EngineContext>& ctx,
               const std::vector<BenchQuery>& queries,
               const std::vector<size_t>& indices,
               const std::vector<SoloRun>& solo, Tracer& tracer,
               Report& layers, Checks& checks, AnswerLog& log);

/// shard.* rows from a light serial 2-shard HTTP deployment over `ds`,
/// for workloads that do not route through the shard tier.
void ShardProbe(const kgaq::GeneratedDataset& ds,
                const std::vector<BenchQuery>& queries,
                const std::vector<size_t>& indices,
                const std::vector<SoloRun>& solo, Tracer& tracer,
                Report& layers, Checks& checks, AnswerLog& log);

/// Solo replay of `query` in `solo`, or null.
const SoloRun* FindSolo(const std::vector<SoloRun>& solo, size_t query);

/// Indices of the cheap (AVG, no GROUP-BY) queries, at most `limit`.
std::vector<size_t> ProbeQueries(const std::vector<BenchQuery>& queries,
                                 size_t limit);

}  // namespace e2ebench

#endif  // KGAQ_E2EBENCH_WORKLOAD_H_
