#ifndef KGAQ_SHARD_CHANNEL_H_
#define KGAQ_SHARD_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/http_client.h"
#include "serve/http_server.h"
#include "shard/health.h"
#include "shard/shard_node.h"
#include "shard/wire.h"

namespace kgaq {

/// Transport abstraction between the coordinator and one shard. The
/// coordinator never talks to a ShardNode directly; it speaks this
/// interface, so swapping in-process shards for remote ones — or a
/// ShardReplicaSet fanning over R of either — is a construction-time
/// choice, not a code path.
///
/// Every implementation evaluates the `shard.rpc.send` fault point at
/// the entry of every call (returning kUnavailable when it fires), so
/// chaos tests exercise the coordinator's degradation paths — degraded
/// partial answers, kShardLost round abort — without real networks.
///
/// Thread-safety: Plan/Validate/Release may be called from the
/// coordinator's scatter threads concurrently with calls for OTHER
/// channels, but a single channel instance is only ever driven by one
/// in-flight query at a time per method (the coordinator serializes
/// queries; a replica set's hedged validates race DIFFERENT replicas'
/// channels, never the same one). Probe() is the exception: the replica
/// tier's background prober may call it concurrently with anything, so
/// implementations keep Probe thread-safe. LocalShardChannel is fully
/// thread-safe; HttpShardChannel serializes its transport internally.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// Scatter-phase: full unrestricted plan, owned slice back.
  virtual Result<ShardPlanResult> Plan(const ShardPlanRequest& request) = 0;

  /// Per-round validation of draws against a live plan token.
  virtual Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) = 0;

  /// Drops the plan session behind `token`. Best-effort (a shard that
  /// died keeps nothing to drop); failures are reported but benign.
  virtual Status Release(uint64_t token) = 0;

  /// Retired: the coordinator no longer sends sub-queries. Kept as a
  /// non-pure virtual only because e2ebench's TimedChannel still declares
  /// an override of it; drop it once that override goes.
  virtual Result<QueryResponse> SubQuery(const QueryRequest& /*request*/) {
    return Status::Unimplemented("shard sub-queries are retired");
  }

  /// Active liveness check, driven by the replica tier's background
  /// prober to close an open breaker. Cheap and side-effect-free: OK
  /// means "the replica answers", not "the replica is idle". Must be
  /// thread-safe. Default: an in-process channel is alive by definition.
  virtual Status Probe() { return Status::OK(); }

  /// Hook invoked by the replica tier when this channel's circuit
  /// breaker trips open: the replica is presumed dead, so transports
  /// drop cached state (HttpShardChannel evicts its host's pooled
  /// connections — failback reconnects fresh instead of reusing
  /// half-dead sockets). Default: nothing to drop.
  virtual void OnQuarantined() {}

  /// Health snapshot for the /stats shard_tier rows. Plain channels
  /// report the default single-healthy-replica row; ShardReplicaSet
  /// reports real breaker states and failover/hedge counters.
  virtual ChannelHealth health() const { return ChannelHealth{}; }
};

/// In-process channel: calls straight into a ShardNode the caller owns
/// elsewhere (ShardedEngine keeps node and channel side by side). Still
/// passes through the `shard.rpc.send` fault point so in-process
/// deployments rehearse the same failures as remote ones.
class LocalShardChannel final : public ShardChannel {
 public:
  explicit LocalShardChannel(ShardNode* node) : node_(node) {}

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override;
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override;
  Status Release(uint64_t token) override;

 private:
  ShardNode* node_;  ///< not owned; must outlive the channel
};

struct HttpShardChannelOptions {
  /// Wall-clock ceiling on each plan/validate/release RPC attempt's
  /// socket operations. The EFFECTIVE timeout of a plan/validate RPC is
  /// min(rpc_timeout_ms, the query's remaining deadline) — a failover
  /// retry can never outlive the query's budget. <= 0 disables the
  /// ceiling (the query deadline alone bounds the RPC).
  double rpc_timeout_ms = 5000.0;
  /// Timeout for the /healthz probe RPC; probes should fail fast.
  double probe_timeout_ms = 1000.0;
};

/// Remote channel over the existing HTTP front door: wire.h bodies
/// POSTed to /shard/* routes served by MakeShardHttpHandler on the
/// remote server. Rides RetryingHttpClient, so connect failures and
/// server-side idle reaps retry transparently; non-200 responses decode
/// the `error=` envelope back into a Status. Probe() GETs /healthz (any
/// HTTP answer — even a shedding 503 — counts as alive); OnQuarantined()
/// evicts the client's pooled connections to this host so failback after
/// recovery reconnects fresh.
class HttpShardChannel final : public ShardChannel {
 public:
  /// `client` is borrowed and must outlive the channel. The client is
  /// thread-safe (per-host pooling), so one client can back every
  /// shard's channel.
  HttpShardChannel(std::string host, uint16_t port,
                   RetryingHttpClient* client,
                   HttpShardChannelOptions options = {})
      : host_(std::move(host)),
        port_(port),
        client_(client),
        options_(options) {}

  Result<ShardPlanResult> Plan(const ShardPlanRequest& request) override;
  Result<std::vector<NodeOutcome>> Validate(
      const ShardValidateRequest& request) override;
  Status Release(uint64_t token) override;
  Status Probe() override;
  void OnQuarantined() override;

  /// The deadline-clamp rule, exposed for tests: min(per-RPC ceiling,
  /// remaining query budget), where a <= 0 ceiling and an infinite
  /// deadline both mean "unbounded" (+inf). 0 means already expired.
  static double EffectiveTimeoutMs(const Deadline& deadline,
                                   double rpc_timeout_ms);

 private:
  /// POST one wire body; 200 yields the response body, non-200 decodes
  /// the error envelope. `timeout_ms` bounds each attempt's socket
  /// operations (+inf = unbounded).
  Result<std::string> Post(const std::string& path, const std::string& body,
                           double timeout_ms);

  std::string host_;
  uint16_t port_;
  RetryingHttpClient* client_;  ///< not owned
  HttpShardChannelOptions options_;
};

/// Builds the HttpServer extra-route handler exposing `node` as the
/// remote end of HttpShardChannel:
///
///   POST /shard/plan      EncodePlanRequest  -> EncodePlanResult
///   POST /shard/validate  EncodeValidateRequest -> EncodeOutcomes
///   POST /shard/release   decimal token      -> "ok"
///
/// Any other /shard/* path answers 404 with a "no shard route" error
/// envelope. Handlers run inline on the server's event-loop threads,
/// which is fine for plan/validate/release (bounded CPU work).
/// `node` must outlive the server the handler is installed on.
HttpServer::ExtraHandler MakeShardHttpHandler(ShardNode& node);

}  // namespace kgaq

#endif  // KGAQ_SHARD_CHANNEL_H_
