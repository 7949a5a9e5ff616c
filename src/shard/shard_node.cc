#include "shard/shard_node.h"

#include <utility>

#include "common/shard_hash.h"
#include "kg/snapshot.h"

namespace kgaq {

ShardNode::ShardNode(std::shared_ptr<const EngineContext> context,
                     KgPartitionInfo info, ServiceOptions service_options)
    : ctx_(std::move(context)),
      info_(info),
      service_(
          std::make_unique<QueryService>(ctx_, std::move(service_options))) {}

Result<std::unique_ptr<ShardNode>> ShardNode::Create(
    std::shared_ptr<const EngineContext> context, KgPartitionInfo info,
    ServiceOptions service_options) {
  if (context == nullptr) {
    return Status::InvalidArgument("shard node needs an engine context");
  }
  if (info.num_shards == 0 || info.shard_index >= info.num_shards) {
    return Status::InvalidArgument("inconsistent shard partition info");
  }
  return std::unique_ptr<ShardNode>(
      new ShardNode(std::move(context), info, std::move(service_options)));
}

Result<std::unique_ptr<ShardNode>> ShardNode::FromSnapshot(
    const std::string& path, ServiceOptions service_options) {
  auto snap = LoadEngineSnapshot(path);
  if (!snap.ok()) return snap.status();
  if (!snap->partition.has_value()) {
    return Status::InvalidArgument(
        "'" + path + "' carries no partition section (not a shard snapshot)");
  }
  if (snap->embedding == nullptr) {
    return Status::InvalidArgument(
        "'" + path + "' carries no embedding; a shard node cannot serve");
  }
  const KgPartitionInfo info = *snap->partition;
  auto ctx = std::make_shared<EngineContext>(std::move(snap->graph),
                                             std::move(snap->embedding));
  return Create(std::move(ctx), info, std::move(service_options));
}

Result<ShardPlanResult> ShardNode::Plan(const AggregateQuery& query,
                                        const EngineOptions& options) {
  // The plan session covers every candidate: it must reproduce the global
  // candidate array exactly, because the wire references candidates by
  // their position in it.
  ApproxEngine engine(ctx_, options);
  auto session = engine.CreateSession(query);
  if (!session.ok()) return session.status();

  ShardPlanResult out;
  out.group_by_enabled = query.group_by.enabled();
  const auto nodes = (*session)->candidate_nodes();
  const auto probs = (*session)->candidate_probabilities();
  out.num_candidates = nodes.size();
  const KnowledgeGraph& g = ctx_->graph();
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (ShardOfName(g.NodeName(nodes[i]), info_.num_shards) ==
        info_.shard_index) {
      out.indices.push_back(i);
      out.nodes.push_back(nodes[i]);
      out.probs.push_back(probs[i]);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.token = next_token_++;
    sessions_.emplace(out.token,
                      std::shared_ptr<QuerySession>(std::move(*session)));
  }
  return out;
}

Result<std::vector<NodeOutcome>> ShardNode::Validate(
    uint64_t token, std::span<const size_t> indices) {
  std::shared_ptr<QuerySession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(token);
    if (it == sessions_.end()) {
      return Status::NotFound("unknown shard plan token " +
                              std::to_string(token));
    }
    session = it->second;
  }
  for (size_t idx : indices) {
    if (idx >= session->num_candidates()) {
      return Status::OutOfRange("candidate index " + std::to_string(idx) +
                                " out of range");
    }
  }
  std::vector<NodeOutcome> outcomes;
  session->EvaluateBatch(indices, outcomes);
  return outcomes;
}

void ShardNode::Release(uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(token);
}

size_t ShardNode::live_plan_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace kgaq
