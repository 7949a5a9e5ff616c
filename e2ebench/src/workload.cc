#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "baselines/ssb.h"
#include "common/random.h"
#include "datagen/workload_generator.h"

namespace e2ebench {

using kgaq::AggregateFunction;
using kgaq::AggregateQuery;
using kgaq::AggregateResult;
using kgaq::ApproxEngine;
using kgaq::EngineContext;
using kgaq::NodeOutcome;
using kgaq::QueryResponse;
using kgaq::QueryService;
using kgaq::QueryState;

namespace {

double Aggregate(AggregateFunction f, size_t count, double sum, double lo,
                 double hi) {
  switch (f) {
    case AggregateFunction::kCount:
      return static_cast<double>(count);
    case AggregateFunction::kSum:
      return sum;
    case AggregateFunction::kAvg:
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    case AggregateFunction::kMax:
      return hi;
    case AggregateFunction::kMin:
      return lo;
  }
  return 0.0;
}

struct Fold {
  size_t count = 0;
  double sum = 0.0;
  double lo = INFINITY;
  double hi = -INFINITY;
  void Add(double v) {
    ++count;
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
};

Census CensusOf(const AggregateQuery& q, const std::vector<NodeOutcome>& out,
                bool group_by) {
  Census c;
  c.num_candidates = out.size();
  Fold all;
  std::map<int64_t, Fold> groups;
  for (const NodeOutcome& o : out) {
    if (!o.correct) continue;
    all.Add(o.value);
    if (group_by) groups[o.group_key].Add(o.value);
  }
  c.correct = all.count;
  c.value = Aggregate(q.function, all.count, all.sum, all.lo, all.hi);
  for (const auto& [key, f] : groups) {
    c.groups[key] = Aggregate(q.function, f.count, f.sum, f.lo, f.hi);
  }
  return c;
}

/// Census plus the correct answers' aggregate-attribute values.
std::pair<Census, std::vector<double>> CensusWithValues(
    const ApproxEngine& engine, const BenchQuery& bq) {
  auto session = engine.CreateSession(bq.query);
  if (!session.ok()) {
    Fatal("census of " + bq.id + ": " + session.status().ToString());
  }
  std::vector<size_t> all((*session)->num_candidates());
  std::iota(all.begin(), all.end(), size_t{0});
  std::vector<NodeOutcome> out;
  (*session)->EvaluateBatch(all, out);
  std::vector<double> values;
  for (const NodeOutcome& o : out) {
    if (o.correct) values.push_back(o.value);
  }
  return {CensusOf(bq.query, out, bq.query.group_by.enabled()),
          std::move(values)};
}

}  // namespace

void ParallelFor(size_t n,
                 const std::function<void(size_t worker, size_t i)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < std::min(kClients, n); ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next++; i < n; i = next++) fn(t, i);
    });
  }
  for (std::thread& t : threads) t.join();
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  std::exit(2);
}

std::vector<BenchQuery> GeneratedMix(const kgaq::GeneratedDataset& ds) {
  kgaq::WorkloadOptions wopts;  // the default 37-query mix, seed 99
  std::vector<BenchQuery> out;
  for (auto& bq : kgaq::WorkloadGenerator::Generate(ds, wopts)) {
    out.push_back({bq.id, std::move(bq.query), 0, out.size()});
  }
  return out;
}

std::vector<BenchQuery> SeedVariants(const std::vector<BenchQuery>& base,
                                     size_t variants, uint64_t workload_seed) {
  std::vector<BenchQuery> out;
  for (size_t v = 0; v < variants; ++v) {
    for (size_t i = 0; i < base.size(); ++i) {
      BenchQuery q = base[i];
      q.id += "#" + std::to_string(v);
      q.seed = QueryService::QuerySeed(workload_seed, out.size());
      q.oracle = i;
      out.push_back(std::move(q));
    }
  }
  return out;
}

bool IsHeavy(const BenchQuery& q) { return q.query.group_by.enabled(); }

std::vector<bool> ActiveItems(const std::vector<BenchQuery>& queries,
                              size_t base_size, size_t heavy_variants) {
  std::vector<bool> active(queries.size());
  for (size_t item = 0; item < queries.size(); ++item) {
    active[item] = item < heavy_variants * base_size || !IsHeavy(queries[item]);
  }
  return active;
}

std::vector<Census> CensusPass(const std::shared_ptr<const EngineContext>& ctx,
                               const std::vector<BenchQuery>& queries) {
  ApproxEngine engine(ctx);
  std::vector<Census> out(queries.size());
  ParallelFor(queries.size(), [&](size_t, size_t i) {
    out[i] = CensusWithValues(engine, queries[i]).first;
  });
  return out;
}

kgaq::Status AddEdgeCaseQueries(
    const kgaq::GeneratedDataset& ds,
    const std::shared_ptr<const EngineContext>& ctx,
    std::vector<BenchQuery>& queries) {
  using kgaq::WorkloadGenerator;
  ApproxEngine engine(ctx);
  const std::string attr = ds.domains()[0].attributes[0].name;

  // Zero answers: a COUNT whose filter range lies beyond every value.
  BenchQuery zero{"ZERO", WorkloadGenerator::SimpleQuery(
                              ds, 0, 0, AggregateFunction::kCount),
                  0};
  zero.query.filters.push_back({attr, 1e300, 1e301});

  // Tiny answer set: an AVG filtered down to the 5 smallest values of its
  // correct answers.
  BenchQuery tiny{"TINY", WorkloadGenerator::SimpleQuery(
                              ds, 0, 1, AggregateFunction::kAvg),
                  0};
  auto [base, values] = CensusWithValues(engine, tiny);
  if (values.size() < 5) {
    return kgaq::Status::FailedPrecondition(
        "tiny-answer base query has fewer than 5 answers");
  }
  std::sort(values.begin(), values.end());
  tiny.query.filters.push_back({attr, values[0], values[4]});

  const size_t zero_answers = CensusWithValues(engine, zero).first.correct;
  const size_t tiny_answers = CensusWithValues(engine, tiny).first.correct;
  if (zero_answers != 0) {
    return kgaq::Status::FailedPrecondition(
        "zero-answer query has " + std::to_string(zero_answers) +
        " answers");
  }
  if (tiny_answers == 0 || tiny_answers >= 10) {
    return kgaq::Status::FailedPrecondition(
        "tiny-answer query has " + std::to_string(tiny_answers) +
        " answers");
  }
  for (BenchQuery* bq : {&zero, &tiny}) {
    bq->oracle = queries.size();
    queries.push_back(std::move(*bq));
  }
  return kgaq::Status::OK();
}

std::vector<TauGt> TauGroundTruth(const kgaq::GeneratedDataset& ds,
                                  const std::vector<BenchQuery>& queries) {
  kgaq::Ssb ssb(ds.graph(), ds.reference_embedding(), kgaq::Ssb::Options{});
  std::vector<TauGt> out(queries.size());
  ParallelFor(queries.size(), [&](size_t, size_t i) {
    auto r = ssb.Execute(queries[i].query);
    if (!r.ok()) Fatal("SSB on " + queries[i].id + ": " + r.status().ToString());
    out[i] = {r->value, r->group_values};
  });
  return out;
}

bool IsAnswered(const QueryResponse& r) {
  return r.state == QueryState::kDone && r.status.ok() && !r.degraded;
}

bool SameAnswer(const AggregateResult& a, const AggregateResult& b) {
  if (!(a.v_hat == b.v_hat || (std::isnan(a.v_hat) && std::isnan(b.v_hat))) ||
      a.moe != b.moe || a.satisfied != b.satisfied || a.rounds != b.rounds ||
      a.total_draws != b.total_draws || a.correct_draws != b.correct_draws ||
      a.num_candidates != b.num_candidates ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  for (size_t g = 0; g < a.groups.size(); ++g) {
    if (a.groups[g].bucket_lower != b.groups[g].bucket_lower ||
        a.groups[g].v_hat != b.groups[g].v_hat ||
        a.groups[g].moe != b.groups[g].moe ||
        a.groups[g].satisfied != b.groups[g].satisfied) {
      return false;
    }
  }
  return true;
}

void AnswerLog::Add(size_t query, const AggregateResult& result,
                    const std::string& where) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = first_.emplace(query, result);
  if (!inserted && !SameAnswer(it->second, result)) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "query #%zu answered differently (%s): v=%.17g moe=%.17g "
                  "draws=%zu vs v=%.17g moe=%.17g draws=%zu",
                  query, where.c_str(), result.v_hat, result.moe,
                  result.total_draws, it->second.v_hat, it->second.moe,
                  it->second.total_draws);
    errors_.push_back(buf);
  }
}

bool AnswerLog::Has(size_t query) const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_.count(query) != 0;
}

std::map<size_t, AggregateResult> AnswerLog::answers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

std::vector<std::string> AnswerLog::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

Quality ComputeQuality(const std::vector<BenchQuery>& queries,
                       const std::vector<Census>& census,
                       const std::vector<TauGt>& tau_gt,
                       const std::map<size_t, AggregateResult>& ans,
                       const std::map<size_t, AggregateResult>& degraded) {
  Quality q;
  size_t satisfied = 0, covered = 0, draws = 0, candidates = 0;
  std::vector<double> rel_errors;
  auto estimate = [&](double v_hat, double moe, double census_value,
                      double truth) {
    ++q.estimates;
    covered += std::abs(v_hat - census_value) <= moe ? 1 : 0;
    rel_errors.push_back(
        truth == 0.0 ? (v_hat == 0.0 ? 0.0 : 100.0)
                     : 100.0 * std::abs(v_hat - truth) / std::abs(truth));
  };
  auto lookup = [](const std::map<int64_t, double>& m, int64_t key) {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  auto estimates = [&](size_t i, const AggregateResult& r) {
    const size_t o = queries[i].oracle;
    if (!queries[i].query.group_by.enabled()) {
      estimate(r.v_hat, r.moe, census[o].value, tau_gt[o].value);
      return;
    }
    const double width = queries[i].query.group_by.bucket_width;
    for (const auto& g : r.groups) {
      const int64_t key = std::llround(g.bucket_lower / width);
      estimate(g.v_hat, g.moe, lookup(census[o].groups, key),
               lookup(tau_gt[o].groups, key));
    }
  };
  for (const auto& [i, r] : ans) {
    ++q.queries;
    satisfied += r.satisfied ? 1 : 0;
    draws += r.total_draws;
    candidates += r.num_candidates;
    estimates(i, r);
  }
  for (const auto& [i, r] : degraded) estimates(i, r);
  if (q.queries > 0) {
    q.satisfied_share = static_cast<double>(satisfied) / q.queries;
  }
  if (q.estimates > 0) {
    q.ci_coverage = static_cast<double>(covered) / q.estimates;
    q.rel_error_p50_pct = Percentile(rel_errors, 50.0);
  }
  if (candidates > 0) {
    q.draws_per_candidate = static_cast<double>(draws) / candidates;
  }
  return q;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::string FailureCause(const QueryResponse& r) {
  switch (r.state) {
    case QueryState::kDone:
      return r.status.ok() && r.degraded ? "degraded" : "failed";
    case QueryState::kDeadlineExceeded:
      return "deadline_expired";
    case QueryState::kCancelled:
      return "cancelled";
    case QueryState::kFailed:
      return r.status.code() == kgaq::StatusCode::kResourceExhausted
                 ? "rejected_or_shed"
                 : "failed";
    default:
      return "not_terminal";
  }
}

size_t Unanswered(const WindowStats& w) {
  const auto degraded = w.failures.find("degraded");
  return w.attempted - w.answered -
         (degraded == w.failures.end() ? 0 : degraded->second);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples,
                 const std::string& note) {
  if (Has(name)) return;
  rows_.push_back({name, value, unit, samples, note});
}

bool Report::Has(const std::string& name) const {
  return std::any_of(rows_.begin(), rows_.end(),
                     [&](const Row& r) { return r.name == name; });
}

double Report::Value(const std::string& name) const {
  for (const Row& r : rows_) {
    if (r.name == name) return r.value;
  }
  return 0.0;
}

void Report::Print(const std::string& title) const {
  std::printf("--- %s ---\n", title.c_str());
  for (const Row& r : rows_) {
    std::printf("  %-34s %14.6g %-6s  n=%-6zu %s\n", r.name.c_str(), r.value,
                r.unit.c_str(), r.samples, r.note.c_str());
  }
}

std::string Report::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < rows_.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(rows_[i].value) ? rows_[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + rows_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + rows_[i].unit + "\"}";
  }
  return out + "}";
}

void Checks::Expect(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Checks::Merge(const std::vector<std::string>& errors) {
  errors_.insert(errors_.end(), errors.begin(), errors.end());
}

bool IdentityHolds(const QueryService::ServiceStats& s) {
  return s.submitted == s.done + s.failed + s.cancelled +
                            s.deadline_expired + s.rejected + s.shed;
}

bool IdentityHolds(const kgaq::CoordinatorStats& s) {
  return s.submitted == s.done + s.failed + s.cancelled +
                            s.deadline_expired + s.rejected + s.shed;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double TimeSetup(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    setup();
    seconds.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  return Percentile(seconds, 50.0);
}

ClientSequences MakeClientSequences(const std::vector<BenchQuery>& base,
                                    size_t light_variants,
                                    size_t heavy_variants, size_t passes,
                                    uint64_t seed) {
  kgaq::Rng rng(seed);
  const size_t n = base.size();
  ClientSequences out;
  for (size_t p = 0; p < passes; ++p) {
    // Rebuilt from base order, so no pass's shuffle starts from the
    // previous pass's order.
    std::vector<size_t> light;
    for (size_t i = 0; i < n; ++i) {
      if (IsHeavy(base[i])) {
        out.heavy.push_back((p % heavy_variants) * n + i);
      } else {
        light.push_back((p % light_variants) * n + i);
      }
    }
    for (size_t i = light.size(); i > 1; --i) {
      std::swap(light[i - 1], light[rng.NextBounded(i)]);
    }
    out.light.insert(out.light.end(), light.begin(), light.end());
  }
  return out;
}

void AddEndToEnd(Report& report, const WindowStats& w, const Quality& q,
                 double setup_s, double peak_rss_mb) {
  const size_t n = w.latency_ms.size();
  report.Add("answered_qps", w.answered / w.seconds, "1/s", w.answered);
  report.Add("latency_p50_ms", Percentile(w.latency_ms, 50.0), "ms", n);
  report.Add("latency_p90_ms", Percentile(w.latency_ms, 90.0), "ms", n);
  std::string causes;
  for (const auto& [cause, count] : w.failures) {
    causes += cause + "=" + std::to_string(count) + " ";
  }
  report.Add("answered_share",
             w.attempted == 0 ? 0.0
                              : static_cast<double>(w.answered) / w.attempted,
             "share", w.attempted,
             causes.empty() ? "all answered" : "not answered: " + causes);
  report.Add("satisfied_share", q.satisfied_share, "share", q.queries,
             "distinct queries");
  report.Add("ci_coverage", q.ci_coverage, "share", q.estimates,
             "estimates vs census");
  report.Add("rel_error_p50_pct", q.rel_error_p50_pct, "%", q.estimates,
             "estimates vs SSB tau-GT");
  report.Add("setup_s", setup_s, "s", kSetupRepeats, "median of set-ups");
  report.Add("peak_rss_mb", peak_rss_mb, "MiB", 1,
             "VmHWM after set-ups and untraced window");
}

std::vector<SoloRun> SoloReplay(const std::shared_ptr<const EngineContext>& ctx,
                                const std::vector<BenchQuery>& queries,
                                size_t count, Tracer& tracer, AnswerLog& log) {
  std::vector<SoloRun> out;
  for (size_t i = 0; i < count; ++i) {
    kgaq::EngineOptions eo;
    eo.seed = queries[i].seed;
    ApproxEngine engine(ctx, eo);
    const uint64_t root = tracer.NewId();
    const uint64_t request = 1'000'000 + i;
    const auto t0 = Clock::now();
    auto session = engine.CreateSession(queries[i].query);
    const auto t1 = Clock::now();
    if (!session.ok()) {
      Fatal("solo replay of " + queries[i].id + ": " +
            session.status().ToString());
    }
    tracer.Record("core.create_session", request, root, t0, t1);
    kgaq::QuerySession& s = **session;
    s.BeginRun(eo.error_bound);
    const auto t2 = Clock::now();
    tracer.Record("core.begin_run", request, root, t1, t2);
    bool done = false;
    auto round_start = t2;
    while (!done) {
      done = s.StepRound();
      const auto round_end = Clock::now();
      tracer.Record("core.step_round", request, root, round_start, round_end);
      round_start = round_end;
    }
    SoloRun run;
    run.query = i;
    run.result = s.FinishRun();
    const auto t3 = Clock::now();
    tracer.Record("core.finish_run", request, root, round_start, t3);
    tracer.Record(root, "solo.query", request, 0, t0, t3);
    run.create_session_ms = MsBetween(t0, t1);
    run.run_ms = MsBetween(t1, t3);
    log.Add(i, run.result, "solo replay");
    out.push_back(std::move(run));
  }
  return out;
}

void AddCoreLayers(Report& layers, const std::vector<SoloRun>& solo,
                   const EngineContext::CacheStats& before,
                   const EngineContext::CacheStats& after,
                   size_t max_total_draws) {
  std::vector<double> plan, s1, s2, s3, rounds;
  double draws = 0, candidates = 0, s3_total = 0, total = 0;
  size_t cap_hits = 0;
  for (const SoloRun& r : solo) {
    const auto& t = r.result.timings;
    plan.push_back(r.create_session_ms);
    s1.push_back(t.s1_sampling_ms);
    s2.push_back(t.s2_estimation_ms);
    s3.push_back(t.s3_accuracy_ms);
    rounds.push_back(static_cast<double>(r.result.rounds));
    draws += static_cast<double>(r.result.total_draws);
    candidates += static_cast<double>(r.result.num_candidates);
    cap_hits += r.result.total_draws >= max_total_draws ? 1 : 0;
    s3_total += t.s3_accuracy_ms;
    total += t.total_ms;
  }
  const size_t n = solo.size();
  layers.Add("core.plan_ms", Mean(plan), "ms", n,
             "CreateSession wall, mean; StepTimings.s1 (inside it) mean " +
                 std::to_string(Mean(s1)));
  layers.Add("core.draw_validate_ms", Mean(s2), "ms", n, "StepTimings.s2, mean");
  layers.Add("core.draws_per_candidate",
             candidates > 0 ? draws / candidates : 0.0, "ratio", n,
             "sum total_draws / sum num_candidates");
  layers.Add("core.cap_hit_share",
             n == 0 ? 0.0 : static_cast<double>(cap_hits) / n, "share", n,
             "ended at max_total_draws");
  layers.Add("core.rounds_per_query", Mean(rounds), "count", n);
  const uint64_t hits = (after.sims_hits - before.sims_hits) +
                        (after.core_hits - before.core_hits) +
                        (after.chain_hits - before.chain_hits);
  const uint64_t misses = (after.sims_misses - before.sims_misses) +
                          (after.core_misses - before.core_misses) +
                          (after.chain_misses - before.chain_misses);
  layers.Add("core.cache_hit_rate",
             hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) / (hits + misses),
             "share", hits + misses, "sims+core+chain, traced window");
  layers.Add("core.cache_bytes",
             static_cast<double>(after.TotalBytes()) / (1024.0 * 1024.0),
             "MiB", 1, "EngineContext::Stats().TotalBytes()");
  layers.Add("estimate.blb_ms", Mean(s3), "ms", n, "StepTimings.s3, mean");
  layers.Add("estimate.blb_share", total > 0 ? s3_total / total : 0.0,
             "share", n, "sum s3 / sum total");
}

void AddServeLayers(Report& layers, const std::vector<double>& queue_ms,
                    const std::vector<std::pair<size_t, double>>& run_ms,
                    const std::vector<SoloRun>& solo,
                    const QueryService::ServiceStats& before,
                    const QueryService::ServiceStats& after) {
  std::vector<double> run_inflation;
  for (const auto& [q, ms] : run_ms) {
    if (const SoloRun* s = FindSolo(solo, q)) {
      run_inflation.push_back(ms / (s->create_session_ms + s->run_ms));
    }
  }
  layers.Add("serve.queue_wait_p50_ms", Percentile(queue_ms, 50.0), "ms",
             queue_ms.size(), "QueryResponse::queue_ms");
  layers.Add("serve.queue_wait_p90_ms", Percentile(queue_ms, 90.0), "ms",
             queue_ms.size(), "QueryResponse::queue_ms");
  layers.Add("serve.run_inflation", Percentile(run_inflation, 50.0), "ratio",
             run_inflation.size(), "median run_ms / solo replay ms");
  layers.Add("serve.rejected", static_cast<double>(after.rejected - before.rejected),
             "count", 1);
  layers.Add("serve.shed", static_cast<double>(after.shed - before.shed),
             "count", 1);
  layers.Add("serve.expired",
             static_cast<double>(after.deadline_expired - before.deadline_expired),
             "count", 1);
  layers.Add("serve.degraded", static_cast<double>(after.degraded - before.degraded),
             "count", 1);
  const uint64_t submitted = after.submitted - before.submitted;
  layers.Add("serve.wakeups_per_query",
             submitted == 0
                 ? 0.0
                 : static_cast<double>(after.scheduler_wakeups -
                                       before.scheduler_wakeups) /
                       static_cast<double>(submitted),
             "ratio", submitted, "scheduler_wakeups / submitted");
}

void RecordServiceSpans(Tracer& tracer, uint64_t request, uint64_t parent,
                        Clock::time_point submit, double queue_ms,
                        double run_ms) {
  const auto admitted = AddMs(submit, queue_ms);
  tracer.Record("service.queue", request, parent, submit, admitted);
  tracer.Record("service.run", request, parent, admitted,
                AddMs(admitted, run_ms));
}

void FinishTrace(Report& layers, const Report& untraced,
                 const Report& traced, const Tracer& tracer,
                 const Options& opts) {
  layers.Add("trace.overhead_p50_ms",
             traced.Value("latency_p50_ms") - untraced.Value("latency_p50_ms"),
             "ms", 2, "traced minus untraced window");
  layers.Add("trace.overhead_qps",
             traced.Value("answered_qps") - untraced.Value("answered_qps"),
             "1/s", 2, "traced minus untraced window");
  traced.Print(opts.workload + " end-to-end, traced window");
  std::printf("--- spans (self = duration minus time covered by children) ---\n");
  std::printf("  %-26s %8s %12s %12s %10s\n", "span", "count", "total_ms",
              "self_ms", "self/span");
  for (const SpanSummary& s : tracer.Summarize()) {
    std::printf("  %-26s %8zu %12.1f %12.1f %10.3f\n", s.name.c_str(),
                s.count, s.total_ms, s.self_ms,
                s.count == 0 ? 0.0 : s.self_ms / s.count);
  }
  const std::string path = opts.out_dir + "/trace_" + opts.workload + ".json";
  if (tracer.WriteChromeTrace(path)) {
    std::printf("spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "e2ebench: could not write %s\n", path.c_str());
  }
}

const SoloRun* FindSolo(const std::vector<SoloRun>& solo, size_t query) {
  for (const SoloRun& r : solo) {
    if (r.query == query) return &r;
  }
  return nullptr;
}

std::vector<size_t> ProbeQueries(const std::vector<BenchQuery>& queries,
                                 size_t limit) {
  std::vector<size_t> out;
  for (size_t i = 0; i < queries.size() && out.size() < limit; ++i) {
    const AggregateQuery& q = queries[i].query;
    if (q.function == AggregateFunction::kAvg && !q.group_by.enabled() &&
        q.filters.empty()) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace e2ebench
