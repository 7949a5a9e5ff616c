#ifndef KGAQ_SHARD_SHARDED_ENGINE_H_
#define KGAQ_SHARD_SHARDED_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "shard/coordinator.h"
#include "shard/partitioner.h"
#include "shard/replica_set.h"
#include "shard/shard_node.h"

namespace kgaq {

struct ShardedEngineOptions {
  uint32_t num_shards = 2;
  /// Replication radius for the partitioner (see KgPartitioner::Options);
  /// the default keeps every shard's local graph walk-complete on the
  /// bench KGs, which is what the deterministic-merge parity contract
  /// needs.
  uint32_t halo_hops = 16;
  /// Per-shard QueryService knobs. `service.engine` doubles as the
  /// coordinator's engine defaults, so shard plans and the coordinator
  /// replay agree on every tunable.
  ServiceOptions service;
  /// Coordinator-level seed derivation base (QueryService::QuerySeed).
  uint64_t base_seed = 7;
  /// Replicas per logical shard. 1 (the default) wires plain channels —
  /// byte-for-byte the pre-replication deployment. R > 1 stands up R
  /// bit-identical ShardNodes per cut behind a ShardReplicaSet, buying
  /// transparent failover: any query finishes undegraded while at least
  /// one replica of every shard survives.
  uint32_t replicas_per_shard = 1;
  /// Replica-tier tuning (breakers, hedging, probing); used when
  /// replicas_per_shard > 1.
  ReplicaSetOptions replica;
  /// Failover/hedge retry budget, shared across ALL of this engine's
  /// replica sets so a multi-shard brownout cannot multiply attempts.
  RetryBudgetOptions retry_budget;
  /// Test/chaos seam: when set, every replica channel is passed through
  /// this wrapper before wiring (e.g. KillSwitchChannel). Applied to
  /// plain channels too when replicas_per_shard == 1.
  std::function<std::unique_ptr<ShardChannel>(std::unique_ptr<ShardChannel>,
                                              uint32_t shard, uint32_t replica)>
      wrap_channel;
};

/// The in-process sharded deployment, assembled end to end: partition the
/// KG, stand up one ShardNode (EngineContext + plan sessions) per cut,
/// wire LocalShardChannels, and front them with a Coordinator —
/// the same QueryRequest -> QueryResponse surface as a single
/// QueryService, behind which the engine tier is now horizontal.
///
///   auto engine = ShardedEngine::Create(graph, model, {.num_shards = 4});
///   QueryResponse r = (*engine)->Execute({query});
///
/// Everything is owned here (cuts, contexts, nodes, channels,
/// coordinator) except the source graph/model behind Create, which are
/// only borrowed during partitioning for the graph and for the engine
/// lifetime for the model. The remote deployment uses the same pieces à
/// la carte: KgPartitioner::WriteShardSnapshots -> one
/// ShardNode::FromSnapshot + HttpServer + MakeShardHttpHandler per host,
/// and a Coordinator over HttpShardChannels (tests/shard_test.cc builds
/// exactly that).
class ShardedEngine {
 public:
  /// Partitions `graph` and builds the full in-process stack. `model` is
  /// borrowed and must outlive the engine; `graph` is only read during
  /// partitioning.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const KnowledgeGraph& graph, const EmbeddingModel& model,
      ShardedEngineOptions options = {});

  /// Builds the stack from per-shard snapshot files
  /// (KgPartitioner::WriteShardSnapshots output), one path per shard in
  /// shard order. num_shards/halo_hops come from the snapshots'
  /// partition sections; options.num_shards is ignored.
  static Result<std::unique_ptr<ShardedEngine>> FromShardSnapshots(
      const std::vector<std::string>& paths, ShardedEngineOptions options = {});

  QueryResponse Execute(const QueryRequest& request) {
    return coordinator_->Execute(request);
  }

  Coordinator& coordinator() { return *coordinator_; }
  ShardNode& node(size_t shard) { return *nodes_[shard][0]; }
  ShardNode& node(size_t shard, size_t replica) {
    return *nodes_[shard][replica];
  }
  size_t num_shards() const { return nodes_.size(); }
  size_t num_replicas(size_t shard) const { return nodes_[shard].size(); }
  /// Per-node service counters, shard-major then replica (each satisfies
  /// the accounting identity).
  std::vector<QueryService::ServiceStats> shard_stats() const;

 private:
  ShardedEngine() = default;
  static Result<std::unique_ptr<ShardedEngine>> Assemble(
      std::unique_ptr<ShardedEngine> engine, const ShardedEngineOptions& options);

  /// Owning order matters: cuts_ hold the shard graphs the contexts
  /// borrow, so they must outlive contexts_/nodes_ (members destroy in
  /// reverse declaration order). cuts_ is fully built before any context
  /// is created and never resized after — the borrowed references cannot
  /// dangle. nodes_ is shard-major: nodes_[s] holds that shard's R
  /// replicas (all sharing one context — the snapshot is immutable, so
  /// replicas differ only in session state, which is exactly the
  /// bit-identical premise the replica tier rides on).
  std::vector<ShardCut> cuts_;
  std::vector<std::shared_ptr<const EngineContext>> contexts_;
  std::vector<std::vector<std::unique_ptr<ShardNode>>> nodes_;
  std::unique_ptr<Coordinator> coordinator_;
};

}  // namespace kgaq

#endif  // KGAQ_SHARD_SHARDED_ENGINE_H_
