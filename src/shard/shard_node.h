#ifndef KGAQ_SHARD_SHARD_NODE_H_
#define KGAQ_SHARD_SHARD_NODE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "core/engine_context.h"
#include "serve/query_service.h"
#include "shard/wire.h"

namespace kgaq {

/// One shard's serving state: an EngineContext over the shard-local
/// (halo-replicated) graph, a cache of live plan sessions for the
/// coordinator's plan/validate/release RPCs, and a QueryService over the
/// same context.
///
/// The coordinator's RPCs terminate here — the LocalShardChannel calls
/// these methods in-process, the HTTP shard endpoints
/// (MakeShardHttpHandler, shard/channel.h) decode the wire format into
/// the same calls. The SamGraph dist_engine analogy: this is the
/// per-worker engine; the coordinator is the message loop.
///
/// The QueryService answers a query over the shard-local graph only: it
/// is what a shard host's own HTTP front door (`POST /query`, `/stats`)
/// serves, not the deployment's answer. Clients query the coordinator.
class ShardNode {
 public:
  /// `context` must be built over a shard-cut graph consistent with
  /// `info` (the context's graph/model stay shared-owned here).
  static Result<std::unique_ptr<ShardNode>> Create(
      std::shared_ptr<const EngineContext> context, KgPartitionInfo info,
      ServiceOptions service_options);

  /// Loads a per-shard v2 snapshot (KgPartitioner::WriteShardSnapshots
  /// output); the snapshot must carry both a partition section and an
  /// embedding.
  static Result<std::unique_ptr<ShardNode>> FromSnapshot(
      const std::string& path, ServiceOptions service_options);

  // --- coordinator RPC surface (docs/sharding.md) ---------------------

  /// Builds the FULL unrestricted plan for the query on the shard-local
  /// graph (identical candidate array to the global engine's, by the
  /// partitioner's id-preserving construction) and reports the owned
  /// slice. The session stays resident under the returned token until
  /// Release.
  Result<ShardPlanResult> Plan(const AggregateQuery& query,
                               const EngineOptions& options);

  /// Validates a round's draws (global candidate indices, duplicates
  /// allowed) against the plan session `token`; one outcome per index.
  Result<std::vector<NodeOutcome>> Validate(uint64_t token,
                                            std::span<const size_t> indices);

  /// Drops the plan session `token` (idempotent).
  void Release(uint64_t token);

  const KgPartitionInfo& info() const { return info_; }
  QueryService& service() { return *service_; }
  QueryService::ServiceStats service_stats() const {
    return service_->stats();
  }
  /// Live plan sessions (leak check for tests).
  size_t live_plan_sessions() const;

 private:
  ShardNode(std::shared_ptr<const EngineContext> context,
            KgPartitionInfo info, ServiceOptions service_options);

  std::shared_ptr<const EngineContext> ctx_;
  KgPartitionInfo info_;
  std::unique_ptr<QueryService> service_;

  mutable std::mutex mu_;
  uint64_t next_token_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<QuerySession>> sessions_;
};

}  // namespace kgaq

#endif  // KGAQ_SHARD_SHARD_NODE_H_
