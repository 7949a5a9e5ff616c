// e2ebench: end-to-end benchmark of answered aggregate queries.
//
//   e2ebench --workload mix_service|shard_http --seed N --seconds S
//            --trace 0|1 [--out-dir DIR]
//
// Prints every metric by name with its unit and sample count, then, as
// the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
// (measured in a separate traced window, plus the tracing overhead)
// with --trace 1. "failed" counts the attempted queries that got no
// answer; degraded answers are answers and show in answered_share.
// Exits 1 when a correctness check fails, 2 on a usage or set-up error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "workload.h"

namespace e2ebench {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mix_service|shard_http --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               argv0);
  return 2;
}

/// FNV-1a hash of this program's binary, which links libkgaq statically:
/// it names the code that produced a set of counts.
uint64_t BinaryHash() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  uint64_t h = 14695981039346656037ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
    }
  }
  return h;
}

/// The seed-pinned counts of a run must repeat exactly for the same
/// workload, seed and binary. The first run that passes every other
/// check records them under `out_dir`, in a file named after the
/// binary's hash (a commit that changes the estimates on purpose gets a
/// file of its own); later runs of that binary compare.
void CheckSeedCounts(const Options& opts, const Quality& q, Checks& checks) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "satisfied_share=%.17g ci_coverage=%.17g "
                "rel_error_p50_pct=%.17g draws_per_candidate=%.17g",
                q.satisfied_share, q.ci_coverage, q.rel_error_p50_pct,
                q.draws_per_candidate);
  std::printf("seed-pinned counts: %s\n", line);
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(BinaryHash()));
  const std::string path = opts.out_dir + "/counts_" + opts.workload + "_" +
                           std::to_string(opts.seed) + "_" + hash + ".txt";
  std::ifstream in(path);
  std::string previous;
  if (std::getline(in, previous)) {
    checks.Expect(previous == line,
                  "seed-pinned counts differ from an earlier run of seed " +
                      std::to_string(opts.seed) + ": " + previous);
    return;
  }
  if (checks.ok()) std::ofstream(path) << line << "\n";
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value);
      have_seconds = opts.seconds > 0;
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "1") == 0;
      have_trace = opts.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage(argv[0]);
  }

  RunOutput out;
  if (opts.workload == "mix_service") {
    out = RunMixService(opts);
  } else if (opts.workload == "shard_http") {
    out = RunShardHttp(opts);
  } else {
    return Usage(argv[0]);
  }
  CheckSeedCounts(opts, out.quality, out.checks);

  const std::string title = opts.workload + " seed " +
                            std::to_string(opts.seed) + ", " +
                            std::to_string(opts.seconds) + " s window";
  out.e2e.Print(title + ": end-to-end (untraced window)");
  if (opts.trace) out.layers.Print(title + ": per-layer (traced window)");
  for (const std::string& e : out.checks.errors()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      out.checks.ok() ? "true" : "false", out.attempted, out.failed,
      (opts.trace ? out.layers : out.e2e).Json().c_str());
  std::fflush(stdout);
  return out.checks.ok() ? 0 : 1;
}
