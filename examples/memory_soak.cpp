// Flat-RSS soak for the memory-governed engine caches, run by CI under
// Release (no sanitizer — ASan quarantine would skew RSS):
//
//   1. generate a small synthetic KG + planted embedding,
//   2. stand up a bounded QueryService over a context with a cache
//      budget far below the workload's unbounded footprint, plus
//      frequency-based admission,
//   3. arm the cache-build fault points (core.cache.alloc at p = 0.05,
//      core.cache.build at p = 0.01) so materialization failures and
//      build throws run alongside eviction the whole time,
//   4. hammer it with mixed traffic — simple and chain queries, tight
//      deadlines, cancels — for --seconds wall-clock seconds,
//   5. verify at the end that RSS plateaued (no monotonic growth after
//      warmup), eviction actually fired, the prepared-branch cache was
//      hit, the steady-state cache bytes respect the budget with nothing
//      left pinned, and the terminal-bucket accounting identity holds.
//
// Exits non-zero on any violation, making it the memory-governance
// robustness gate: "RSS is flat, the budget holds, and every submission
// is accounted for" under faults and churn.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "serve/query_service.h"

using namespace kgaq;

namespace {

size_t CurrentRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0;
  long resident = 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<size_t>(resident) * static_cast<size_t>(page);
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 10.0;
  uint64_t seed = 2024;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      seconds = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--seconds=N] [--seed=N]\n", argv[0]);
      return 2;
    }
  }

  auto generated = KgGenerator::Generate(DatasetProfile::Mini(7));
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const GeneratedDataset& ds = *generated;

  // A budget far below the workload's unbounded footprint (~1.3 MB on
  // Mini(7)): eviction and pressure episodes are constant, not rare.
  EngineCacheOptions copts;
  copts.budget_bytes = 256 * 1024;
  copts.core_admission_min_requests = 2;
  copts.chain_admission_min_requests = 2;
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding(), copts);

  ServiceOptions sopts;
  sopts.base_seed = seed;
  sopts.max_concurrent = 4;
  sopts.max_queue_depth = 16;
  sopts.max_queue_wait_ms = 500.0;
  sopts.engine.fixed_increment = 2000;
  sopts.engine.max_total_draws = static_cast<size_t>(1) << 40;
  QueryService service(ctx, sopts);

  fault_injection::Enable(seed);
  fault_injection::Arm("core.cache.alloc", 0.05);
  fault_injection::Arm("core.cache.build", 0.01);

  std::vector<AggregateQuery> workload;
  for (int domain = 0; domain < 3; ++domain) {
    for (int hub = 0; hub < 2; ++hub) {
      workload.push_back(WorkloadGenerator::SimpleQuery(
          ds, domain, hub,
          hub == 0 ? AggregateFunction::kCount : AggregateFunction::kAvg));
    }
    workload.push_back(WorkloadGenerator::ChainQuery(
        ds, domain, 0,
        domain == 1 ? AggregateFunction::kAvg : AggregateFunction::kCount));
  }

  // RSS plateau tracking: ignore samples during warmup (allocator
  // arenas, lazily-touched thread stacks), take the plateau as the MAX
  // over a settling window right after warmup, then require everything
  // later to stay within slack of it.
  WallTimer clock;
  const double warmup_ms = seconds * 1000.0 * 0.25;
  const double settle_end_ms = seconds * 1000.0 * 0.45;
  uint64_t sent = 0;
  size_t rss_plateau = 0;
  size_t rss_peak_after_settle = 0;
  // Outstanding tickets stay within what the service holds without
  // turning work away: every slot busy plus half the queue, below the
  // shedding threshold. Unpaced, most submissions would be queue-full
  // rejections that never touch a cache.
  const size_t max_open = sopts.max_concurrent + sopts.max_queue_depth / 2;
  std::deque<QueryTicket> open;
  while (clock.ElapsedMillis() < seconds * 1000.0) {
    const uint64_t turn = sent++;
    QueryRequest req;
    req.query = workload[turn % workload.size()];
    if (turn % 5 == 1) {
      req.error_bound = 1e-9;  // unsatisfiable: the deadline stops it
      req.max_rounds = 1000000;
      req.deadline_ms = 25.0;
    }
    auto ticket = service.SubmitAsync(std::move(req));
    if (turn % 7 == 3) {
      ticket.Cancel();
    }
    open.push_back(std::move(ticket));
    while (open.size() >= max_open) {
      open.front().Wait();
      open.pop_front();
    }
    if (turn % 16 == 0) {
      const size_t rss = CurrentRssBytes();
      const double t = clock.ElapsedMillis();
      if (t >= warmup_ms && t < settle_end_ms) {
        if (rss > rss_plateau) rss_plateau = rss;
      } else if (t >= settle_end_ms) {
        if (rss > rss_peak_after_settle) rss_peak_after_settle = rss;
      }
    }
  }

  // Quiesce: stop injecting, let every in-flight query retire, trim the
  // caches to their steady state.
  fault_injection::Disable();
  service.Drain();
  ctx->EvictToBudget();
  const size_t rss_final = CurrentRssBytes();
  if (rss_final > rss_peak_after_settle) rss_peak_after_settle = rss_final;
  if (rss_plateau == 0) {
    // A very short run can end inside warmup; degrade the plateau check
    // to a no-op rather than comparing against 0.
    rss_plateau = rss_peak_after_settle;
  }

  const auto sstats = service.stats();
  const auto cstats = ctx->Stats();
  std::printf("soak: %.1fs, %llu queries submitted\n", seconds,
              static_cast<unsigned long long>(sent));
  std::printf(
      "service: submitted=%llu done=%llu failed=%llu cancelled=%llu "
      "deadline=%llu rejected=%llu shed=%llu degraded=%llu "
      "watchdog_stalls=%llu\n",
      static_cast<unsigned long long>(sstats.submitted),
      static_cast<unsigned long long>(sstats.done),
      static_cast<unsigned long long>(sstats.failed),
      static_cast<unsigned long long>(sstats.cancelled),
      static_cast<unsigned long long>(sstats.deadline_expired),
      static_cast<unsigned long long>(sstats.rejected),
      static_cast<unsigned long long>(sstats.shed),
      static_cast<unsigned long long>(sstats.degraded),
      static_cast<unsigned long long>(sstats.watchdog_stalls));
  std::printf(
      "caches: budget=%zu charged=%zu pinned=%zu evictions=%llu "
      "admission_rejects=%llu shed_builds=%llu alloc_failures=%llu "
      "build_failures=%llu pressure=%s\n",
      cstats.budget_bytes, cstats.charged_bytes, cstats.pinned_bytes,
      static_cast<unsigned long long>(cstats.evictions),
      static_cast<unsigned long long>(cstats.admission_rejects),
      static_cast<unsigned long long>(cstats.shed_builds),
      static_cast<unsigned long long>(cstats.alloc_failures),
      static_cast<unsigned long long>(cstats.build_failures),
      MemoryPressureToString(cstats.pressure));
  std::printf("plans: hits=%llu misses=%llu entries=%zu bytes=%zu\n",
              static_cast<unsigned long long>(cstats.plan_hits),
              static_cast<unsigned long long>(cstats.plan_misses),
              cstats.plan_entries, cstats.plan_bytes);
  std::printf("rss: plateau=%.1f MB peak=%.1f MB final=%.1f MB\n",
              rss_plateau / 1048576.0, rss_peak_after_settle / 1048576.0,
              rss_final / 1048576.0);
  for (const auto& p : fault_injection::Snapshot()) {
    std::printf("fault %-28s hits=%llu failures=%llu\n", p.name.c_str(),
                static_cast<unsigned long long>(p.hits),
                static_cast<unsigned long long>(p.failures));
  }

  int violations = 0;

  // The flat-RSS line: after the settling window, resident memory must
  // plateau. Allowance: 8 MB or 10% of the plateau, whichever is larger
  // — allocator slack, not unbounded cache growth (a leak of even
  // ~0.2 MB/s blows through this over a 60 s CI run).
  const size_t slack =
      rss_plateau / 10 > (8u << 20) ? rss_plateau / 10 : (8u << 20);
  if (rss_peak_after_settle > rss_plateau + slack) {
    std::fprintf(stderr,
                 "RSS VIOLATION: peak %.1f MB exceeds plateau %.1f MB + "
                 "%.1f MB slack\n",
                 rss_peak_after_settle / 1048576.0, rss_plateau / 1048576.0,
                 slack / 1048576.0);
    ++violations;
  }

  // The budget line: the governor actually worked, and held.
  if (cstats.evictions == 0) {
    std::fprintf(stderr, "GOVERNOR VIOLATION: no evictions under a "
                         "budget far below the footprint\n");
    ++violations;
  }
  // The prepared-branch cache is exercised under the budget: the soak
  // cycles seven queries, so once admitted their plans must be reused.
  if (cstats.plan_hits == 0) {
    std::fprintf(stderr, "PLAN CACHE VIOLATION: the soak never hit the "
                         "prepared-branch cache\n");
    ++violations;
  }
  if (cstats.charged_bytes > cstats.budget_bytes) {
    std::fprintf(stderr,
                 "BUDGET VIOLATION: charged=%zu > budget=%zu after drain\n",
                 cstats.charged_bytes, cstats.budget_bytes);
    ++violations;
  }
  if (cstats.pinned_bytes != 0) {
    std::fprintf(stderr, "PIN LEAK: pinned=%zu after drain\n",
                 cstats.pinned_bytes);
    ++violations;
  }

  // The PR 6 accounting identity: every submission ended in exactly one
  // terminal bucket.
  const uint64_t buckets = sstats.done + sstats.failed + sstats.cancelled +
                           sstats.deadline_expired + sstats.rejected +
                           sstats.shed;
  if (sstats.submitted != buckets) {
    std::fprintf(stderr,
                 "ACCOUNTING VIOLATION: submitted=%llu != buckets=%llu\n",
                 static_cast<unsigned long long>(sstats.submitted),
                 static_cast<unsigned long long>(buckets));
    ++violations;
  }
  if (sstats.queued != 0 || sstats.running != 0) {
    std::fprintf(stderr, "DRAIN VIOLATION: queued=%zu running=%zu\n",
                 sstats.queued, sstats.running);
    ++violations;
  }

  if (violations > 0) return 1;
  std::printf("memory soak passed: flat RSS, budget held, accounting "
              "identity holds\n");
  return 0;
}
