#include "shard/channel.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <utility>

#include "common/fault_injection.h"

namespace kgaq {

namespace {

Status InjectedSendFault() {
  return Status::Unavailable("injected: shard rpc send failed");
}

}  // namespace

// --- LocalShardChannel -----------------------------------------------

Result<ShardPlanResult> LocalShardChannel::Plan(
    const ShardPlanRequest& request) {
  if (KGAQ_FAULT_POINT("shard.rpc.send")) return InjectedSendFault();
  return node_->Plan(request.query, request.options);
}

Result<std::vector<NodeOutcome>> LocalShardChannel::Validate(
    const ShardValidateRequest& request) {
  if (KGAQ_FAULT_POINT("shard.rpc.send")) return InjectedSendFault();
  return node_->Validate(request.token, request.indices);
}

Status LocalShardChannel::Release(uint64_t token) {
  if (KGAQ_FAULT_POINT("shard.rpc.send")) return InjectedSendFault();
  node_->Release(token);
  return Status::OK();
}

// --- HttpShardChannel ------------------------------------------------

double HttpShardChannel::EffectiveTimeoutMs(const Deadline& deadline,
                                            double rpc_timeout_ms) {
  const double ceiling = rpc_timeout_ms > 0.0
                             ? rpc_timeout_ms
                             : std::numeric_limits<double>::infinity();
  // remaining_millis() is +inf for an infinite deadline and exactly 0
  // once expired — the clamp therefore fails an expired query fast
  // without ever touching the transport.
  return std::min(ceiling, deadline.remaining_millis());
}

Result<std::string> HttpShardChannel::Post(const std::string& path,
                                           const std::string& body,
                                           double timeout_ms) {
  if (KGAQ_FAULT_POINT("shard.rpc.send")) return InjectedSendFault();
  if (timeout_ms <= 0.0) {
    // The query's budget is already spent; don't burn a socket on an RPC
    // whose answer nobody can use. kUnavailable: nothing was sent.
    return Status::Unavailable("shard rpc not sent: query deadline expired");
  }
  const double fetch_timeout = std::isinf(timeout_ms) ? 0.0 : timeout_ms;
  auto response =
      client_->Fetch(host_, port_, "POST", path, body, fetch_timeout);
  if (!response.ok()) return response.status();
  if (response->status_code != 200) return DecodeError(response->body);
  return response->body;
}

Result<ShardPlanResult> HttpShardChannel::Plan(
    const ShardPlanRequest& request) {
  auto body = Post("/shard/plan", EncodePlanRequest(request),
                   EffectiveTimeoutMs(request.deadline,
                                      options_.rpc_timeout_ms));
  if (!body.ok()) return body.status();
  return DecodePlanResult(*body);
}

Result<std::vector<NodeOutcome>> HttpShardChannel::Validate(
    const ShardValidateRequest& request) {
  auto body = Post("/shard/validate", EncodeValidateRequest(request),
                   EffectiveTimeoutMs(request.deadline,
                                      options_.rpc_timeout_ms));
  if (!body.ok()) return body.status();
  return DecodeOutcomes(*body);
}

Status HttpShardChannel::Release(uint64_t token) {
  // Release is cleanup, not query work: it gets the full per-RPC ceiling
  // rather than the (possibly spent) query deadline, or leases would
  // leak on every deadline expiry.
  auto body = Post("/shard/release", std::to_string(token),
                   EffectiveTimeoutMs(Deadline::Infinite(),
                                      options_.rpc_timeout_ms));
  return body.ok() ? Status::OK() : body.status();
}

Status HttpShardChannel::Probe() {
  // Any HTTP answer — including a shedding 503 — proves the process is
  // alive and reachable; only transport failures count as dead.
  auto response = client_->Fetch(host_, port_, "GET", "/healthz", "",
                                 std::max(1.0, options_.probe_timeout_ms));
  return response.ok() ? Status::OK() : response.status();
}

void HttpShardChannel::OnQuarantined() {
  client_->EvictHost(host_, port_);
}

// --- server-side routes ----------------------------------------------

HttpServer::ExtraHandler MakeShardHttpHandler(ShardNode& node) {
  return [&node](const std::string& method, const std::string& path,
                 const std::string& body)
             -> std::optional<std::pair<int, std::string>> {
    if (path.rfind("/shard/", 0) != 0) return std::nullopt;
    if (method != "POST") {
      return std::make_pair(
          405, EncodeError(Status::InvalidArgument(
                   "shard routes are POST-only")));
    }
    auto fail = [](const Status& status) {
      return std::make_pair(HttpStatusForCode(status.code()),
                            EncodeError(status));
    };

    if (path == "/shard/plan") {
      auto request = DecodePlanRequest(body);
      if (!request.ok()) return fail(request.status());
      auto result = node.Plan(request->query, request->options);
      if (!result.ok()) return fail(result.status());
      return std::make_pair(200, EncodePlanResult(*result));
    }
    if (path == "/shard/validate") {
      auto request = DecodeValidateRequest(body);
      if (!request.ok()) return fail(request.status());
      auto outcomes = node.Validate(request->token, request->indices);
      if (!outcomes.ok()) return fail(outcomes.status());
      return std::make_pair(200, EncodeOutcomes(*outcomes));
    }
    if (path == "/shard/release") {
      uint64_t token = 0;
      auto [end, ec] =
          std::from_chars(body.data(), body.data() + body.size(), token);
      // Tolerate a trailing newline from hand-driven curls.
      if (ec != std::errc{} ||
          (end != body.data() + body.size() &&
           std::string_view(end, body.data() + body.size() - end) != "\n")) {
        return fail(Status::InvalidArgument(
            "release body must be a decimal token"));
      }
      node.Release(token);
      return std::make_pair(200, std::string("ok\n"));
    }
    return fail(Status::NotFound("no shard route for '" + path + "'"));
  };
}

}  // namespace kgaq
