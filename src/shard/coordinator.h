#ifndef KGAQ_SHARD_COORDINATOR_H_
#define KGAQ_SHARD_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "serve/query_service.h"
#include "shard/channel.h"

namespace kgaq {

struct CoordinatorOptions {
  /// Seed derivation matches QueryService: the id-th executed query
  /// draws with QueryService::QuerySeed(base_seed, id) unless its
  /// request pins a seed — so a coordinator and an unsharded service
  /// fed the same request sequence use the same per-query seeds.
  uint64_t base_seed = 7;
  /// Engine defaults; request overrides apply on top, exactly as at a
  /// QueryService.
  EngineOptions engine;
};

/// Coordinator-level counters, mirroring QueryService::ServiceStats'
/// accounting identity — every Execute lands in exactly one bucket:
///   submitted == done + failed + cancelled + deadline_expired
///                + rejected + shed
/// The coordinator never queues (Execute is synchronous), so cancelled /
/// rejected / shed stay zero today; they exist so shard and coordinator
/// tiers satisfy the SAME identity and tests can assert it uniformly.
struct CoordinatorStats {
  uint64_t submitted = 0;
  uint64_t done = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_expired = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;  ///< overlay: done/deadline with partial answer
};

/// The scatter-gather tier over N ShardChannels: one Execute call takes
/// a QueryRequest through plan-scatter, deterministic merge and the
/// coordinator-side replay loop, and back to a QueryResponse with the
/// same surface a QueryService returns.
///
/// Deterministic merge: scatter a plan, merge the shards' owned candidate
/// slices into the GLOBAL candidate distribution (no renormalization when
/// coverage is full), then replay the unsharded engine's exact draw
/// schedule on the coordinator — same alias table, same Rng stream, same
/// BLB estimator calls — outsourcing only per-draw validation to the
/// owning shards. Answers are BITWISE-IDENTICAL to the unsharded engine
/// for the same seed (docs/sharding.md states the contract in full);
/// per-round validation batches are the scaling axis.
///
/// Failure semantics (PR 6 taxonomy): a shard lost at PLAN time shrinks
/// coverage — the merged distribution is renormalized over the live
/// shards and the answer comes back degraded=true (an answer, not an
/// error). A shard lost MID-RUN retires the session at the round
/// boundary with StopCause::kShardLost: completed rounds stand, the
/// response is a degraded partial with the ACHIEVED error bound; only a
/// query that lost a shard before its first round completes fails
/// (kUnavailable). Deadlines propagate per round exactly as at a
/// QueryService. Execute never hangs and never crashes on shard loss.
///
/// Execute is serialized (one query at a time): the scatter layer
/// parallelizes ACROSS shards per round, which is where the scaling
/// lives; cross-query concurrency belongs to the caller (front doors
/// put a QueryService-like queue in front).
class Coordinator {
 public:
  Coordinator(std::vector<std::unique_ptr<ShardChannel>> channels,
              CoordinatorOptions options = {});

  /// Runs one query to a terminal QueryResponse (kDone, kFailed or
  /// kDeadlineExceeded; the coordinator has no queue, so kQueued /
  /// kRunning / kCancelled never surface).
  QueryResponse Execute(const QueryRequest& request);

  CoordinatorStats stats() const;
  size_t num_shards() const { return channels_.size(); }

  /// Per-channel replica-health snapshots, index-aligned with shards.
  /// Deliberately does NOT take the Execute lock: channels_ is immutable
  /// after construction and ChannelHealth snapshots are internally
  /// synchronized, so /stats stays responsive mid-query.
  std::vector<ChannelHealth> channel_health() const;

 private:
  /// One live shard's contribution to the merged global distribution.
  struct MergedPlan {
    /// Parallel arrays over merged positions, ascending global index.
    std::vector<NodeId> nodes;
    std::vector<double> probs;
    std::vector<uint32_t> owner;          ///< shard per position
    std::vector<uint64_t> global_index;   ///< global index per position
    std::vector<uint64_t> tokens;         ///< live plan token per shard
    std::vector<bool> shard_live;         ///< plan succeeded per shard
    uint64_t num_candidates = 0;          ///< full (global) array size
    bool group_by_enabled = false;
    bool full_coverage = false;
  };

  QueryResponse ExecuteDeterministic(const AggregateQuery& query,
                                     const EngineOptions& options,
                                     Deadline deadline);
  /// Scatters Plan to every shard and merges the owned slices; non-OK
  /// when no shard answered or the merge found an inconsistency. The
  /// query deadline rides on every plan RPC so remote channels clamp
  /// their per-RPC timeouts to the remaining budget.
  Result<MergedPlan> ScatterPlan(const AggregateQuery& query,
                                 const EngineOptions& options,
                                 Deadline deadline);
  void ReleasePlans(const MergedPlan& plan);

  std::vector<std::unique_ptr<ShardChannel>> channels_;
  CoordinatorOptions options_;

  mutable std::mutex mu_;
  uint64_t next_index_ = 0;
  CoordinatorStats stats_;
};

/// Renders the shard tier's health as a `"shard_tier":{...}` JSON
/// fragment for HttpServer::SetStatsAugmenter: the coordinator's
/// accounting buckets plus one row per shard with replica counts,
/// breaker states, and failover/hedge/budget counters.
std::string RenderShardTierJson(const Coordinator& coordinator);

}  // namespace kgaq

#endif  // KGAQ_SHARD_COORDINATOR_H_
