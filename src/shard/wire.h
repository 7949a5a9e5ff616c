#ifndef KGAQ_SHARD_WIRE_H_
#define KGAQ_SHARD_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/approx_engine.h"
#include "kg/types.h"

namespace kgaq {

/// Text wire format for the shard RPC surface (docs/sharding.md).
///
/// Line-based `key=value` bodies carried over the existing HTTP front
/// door: queries travel as ParseAggregateQuery/FormatAggregateQuery
/// canonical text (single-line, byte-stable) and every double goes
/// through AppendRoundTripDouble, whose shortest-round-trip rendering
/// parses back bit-exact — the deterministic-merge parity contract rides
/// on that. Candidates are referenced by *global candidate index* (the
/// position in the shard's full unrestricted candidate array, identical
/// on every shard by construction), so no node names cross the wire on
/// the hot validate path.

/// Scatter-phase request: build the full unrestricted plan for `query`
/// under `options` and report the candidates this shard owns.
struct ShardPlanRequest {
  AggregateQuery query;
  EngineOptions options;
  /// The QUERY's deadline, not a per-RPC one: channels clamp their own
  /// per-RPC timeout to whatever budget remains, so a failover retry can
  /// never outlive the query. Channel-local — never serialized (the
  /// server side has its own connection timeouts).
  Deadline deadline = Deadline::Infinite();
};

/// One shard's slice of the global candidate distribution.
struct ShardPlanResult {
  /// Session handle for subsequent Validate/Release calls.
  uint64_t token = 0;
  /// Size of the FULL candidate array (identical across shards); the
  /// coordinator's merge coverage check compares against this.
  uint64_t num_candidates = 0;
  bool group_by_enabled = false;
  /// Owned candidates, ascending global index. Parallel arrays.
  std::vector<uint64_t> indices;
  std::vector<NodeId> nodes;
  std::vector<double> probs;
};

/// Per-round validation batch: global candidate indices, duplicates
/// allowed; the response is one NodeOutcome per index, aligned.
struct ShardValidateRequest {
  uint64_t token = 0;
  std::vector<size_t> indices;
  /// Query deadline; see ShardPlanRequest::deadline. Channel-local.
  Deadline deadline = Deadline::Infinite();
};

std::string EncodePlanRequest(const ShardPlanRequest& req);
Result<ShardPlanRequest> DecodePlanRequest(std::string_view body);

std::string EncodePlanResult(const ShardPlanResult& res);
Result<ShardPlanResult> DecodePlanResult(std::string_view body);

std::string EncodeValidateRequest(const ShardValidateRequest& req);
Result<ShardValidateRequest> DecodeValidateRequest(std::string_view body);

std::string EncodeOutcomes(std::span<const NodeOutcome> outcomes);
Result<std::vector<NodeOutcome>> DecodeOutcomes(std::string_view body);

/// Non-200 shard responses carry `error=<code> <message>`; these round-
/// trip a Status through that line.
std::string EncodeError(const Status& status);
Status DecodeError(std::string_view body);

}  // namespace kgaq

#endif  // KGAQ_SHARD_WIRE_H_
