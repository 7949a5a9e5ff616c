#include "shard/sharded_engine.h"

#include <algorithm>
#include <utility>

namespace kgaq {

std::vector<QueryService::ServiceStats> ShardedEngine::shard_stats() const {
  std::vector<QueryService::ServiceStats> out;
  for (const auto& replicas : nodes_) {
    for (const auto& node : replicas) out.push_back(node->service_stats());
  }
  return out;
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Assemble(
    std::unique_ptr<ShardedEngine> engine,
    const ShardedEngineOptions& options) {
  // One retry budget for the whole engine: failover on shard 0 and a
  // hedge on shard 3 drain the same bucket, which is the point.
  auto budget = std::make_shared<RetryBudget>(options.retry_budget);
  std::vector<std::unique_ptr<ShardChannel>> channels;
  channels.reserve(engine->nodes_.size());
  for (uint32_t s = 0; s < engine->nodes_.size(); ++s) {
    auto& replicas = engine->nodes_[s];
    std::vector<std::unique_ptr<ShardChannel>> members;
    members.reserve(replicas.size());
    for (uint32_t r = 0; r < replicas.size(); ++r) {
      std::unique_ptr<ShardChannel> ch =
          std::make_unique<LocalShardChannel>(replicas[r].get());
      if (options.wrap_channel) ch = options.wrap_channel(std::move(ch), s, r);
      members.push_back(std::move(ch));
    }
    if (members.size() == 1) {
      // Unreplicated shards keep the plain channel — byte-for-byte the
      // pre-replication wiring, no breaker or lease layer in the path.
      channels.push_back(std::move(members[0]));
    } else {
      channels.push_back(std::make_unique<ShardReplicaSet>(
          std::move(members), options.replica, budget));
    }
  }
  CoordinatorOptions coordinator_options;
  coordinator_options.base_seed = options.base_seed;
  coordinator_options.engine = options.service.engine;
  engine->coordinator_ = std::make_unique<Coordinator>(
      std::move(channels), std::move(coordinator_options));
  return engine;
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const KnowledgeGraph& graph, const EmbeddingModel& model,
    ShardedEngineOptions options) {
  KgPartitioner::Options part_options;
  part_options.num_shards = options.num_shards;
  part_options.halo_hops = options.halo_hops;
  auto cuts = KgPartitioner::Partition(graph, part_options);
  if (!cuts.ok()) return cuts.status();

  const uint32_t replicas = std::max<uint32_t>(1, options.replicas_per_shard);
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine());
  // The cuts vector is moved in whole and never touched again: contexts
  // below borrow references INTO it, so it must stay at its final
  // addresses for the engine's lifetime.
  engine->cuts_ = std::move(*cuts);
  for (const ShardCut& cut : engine->cuts_) {
    // Replicas share one immutable context (snapshot, embeddings); each
    // gets its own ShardNode, i.e. its own session/service state.
    engine->contexts_.push_back(
        std::make_shared<EngineContext>(cut.graph, model));
    engine->nodes_.emplace_back();
    for (uint32_t r = 0; r < replicas; ++r) {
      auto node = ShardNode::Create(engine->contexts_.back(), cut.info,
                                    options.service);
      if (!node.ok()) return node.status();
      engine->nodes_.back().push_back(std::move(*node));
    }
  }
  return Assemble(std::move(engine), options);
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::FromShardSnapshots(
    const std::vector<std::string>& paths, ShardedEngineOptions options) {
  if (paths.empty()) {
    return Status::InvalidArgument("no shard snapshot paths given");
  }
  const uint32_t replicas = std::max<uint32_t>(1, options.replicas_per_shard);
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine());
  for (size_t s = 0; s < paths.size(); ++s) {
    engine->nodes_.emplace_back();
    // Each replica loads the snapshot independently — honest about the
    // memory cost of replication from files (Create shares contexts
    // because it builds them in-process).
    for (uint32_t r = 0; r < replicas; ++r) {
      auto node = ShardNode::FromSnapshot(paths[s], options.service);
      if (!node.ok()) return node.status();
      if (r == 0) {
        const KgPartitionInfo& info = (*node)->info();
        if (info.num_shards != paths.size() || info.shard_index != s) {
          return Status::InvalidArgument(
              "'" + paths[s] + "' is shard " +
              std::to_string(info.shard_index) + " of " +
              std::to_string(info.num_shards) + ", expected shard " +
              std::to_string(s) + " of " + std::to_string(paths.size()));
        }
      }
      engine->nodes_.back().push_back(std::move(*node));
    }
  }
  return Assemble(std::move(engine), options);
}

}  // namespace kgaq
