#include "shard/wire.h"

#include <charconv>
#include <cstdlib>

#include "query/query_text.h"

namespace kgaq {

namespace {

void AppendU64(std::string& out, uint64_t v) { out += std::to_string(v); }

void AppendI64(std::string& out, int64_t v) { out += std::to_string(v); }

bool ParseU64(std::string_view s, uint64_t& v) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc() && p == s.data() + s.size();
}

bool ParseI64(std::string_view s, int64_t& v) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc() && p == s.data() + s.size();
}

bool ParseF64(std::string_view s, double& v) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc() && p == s.data() + s.size();
}

/// Splits off the first space-separated field of `s`.
std::string_view TakeField(std::string_view& s) {
  const size_t sp = s.find(' ');
  std::string_view field = s.substr(0, sp);
  s = sp == std::string_view::npos ? std::string_view{} : s.substr(sp + 1);
  return field;
}

/// Calls `fn(key, value)` for every non-empty line; stops on false.
template <typename Fn>
bool ForEachLine(std::string_view body, Fn&& fn) {
  while (!body.empty()) {
    const size_t nl = body.find('\n');
    std::string_view line = body.substr(0, nl);
    body = nl == std::string_view::npos ? std::string_view{}
                                        : body.substr(nl + 1);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) return false;
    if (!fn(line.substr(0, eq), line.substr(eq + 1))) return false;
  }
  return true;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed shard wire body: ") +
                                 what);
}

// --- EngineOptions, field by field (schema in docs/sharding.md) --------

void AppendEngineOptions(std::string& out, const EngineOptions& o) {
  auto d = [&out](const char* key, double v) {
    out += key;
    out += '=';
    AppendRoundTripDouble(out, v);
    out += '\n';
  };
  auto u = [&out](const char* key, uint64_t v) {
    out += key;
    out += '=';
    AppendU64(out, v);
    out += '\n';
  };
  d("o.error_bound", o.error_bound);
  d("o.confidence_level", o.confidence_level);
  d("o.tau", o.tau);
  d("o.sample_ratio", o.sample_ratio);
  u("o.blb.t", o.blb.t);
  d("o.blb.m", o.blb.m);
  u("o.blb.num_resamples", o.blb.num_resamples);
  u("o.branch.n_hops", static_cast<uint64_t>(o.branch.n_hops));
  d("o.branch.self_loop_similarity", o.branch.self_loop_similarity);
  u("o.branch.repeat_factor", static_cast<uint64_t>(o.branch.repeat_factor));
  u("o.branch.chain_branch_width", o.branch.chain_branch_width);
  u("o.branch.chain_validation_max_expansions",
    o.branch.chain_validation_max_expansions);
  u("o.branch.chain_memo", o.branch.chain_memo ? 1 : 0);
  u("o.max_rounds", o.max_rounds);
  u("o.min_initial_draws", o.min_initial_draws);
  u("o.min_correct_draws", o.min_correct_draws);
  u("o.max_total_draws", o.max_total_draws);
  u("o.extreme_rounds", o.extreme_rounds);
  d("o.extreme_sample_fraction", o.extreme_sample_fraction);
  u("o.use_evt_for_extremes", o.use_evt_for_extremes ? 1 : 0);
  u("o.group_min_support", o.group_min_support);
  u("o.validate_correctness", o.validate_correctness ? 1 : 0);
  u("o.fixed_increment", o.fixed_increment);
  u("o.seed", o.seed);
}

/// Applies one `o.*` line onto `o`; unknown keys are ignored (forward
/// compatibility: an older shard keeps its defaults for fields it does
/// not know). Returns false only on an unparsable value.
bool ApplyEngineOption(std::string_view key, std::string_view val,
                       EngineOptions& o) {
  auto d = [&val](double& field) { return ParseF64(val, field); };
  auto u = [&val](auto& field) {
    uint64_t v = 0;
    if (!ParseU64(val, v)) return false;
    field = static_cast<std::remove_reference_t<decltype(field)>>(v);
    return true;
  };
  auto b = [&val](bool& field) {
    uint64_t v = 0;
    if (!ParseU64(val, v)) return false;
    field = v != 0;
    return true;
  };
  if (key == "o.error_bound") return d(o.error_bound);
  if (key == "o.confidence_level") return d(o.confidence_level);
  if (key == "o.tau") return d(o.tau);
  if (key == "o.sample_ratio") return d(o.sample_ratio);
  if (key == "o.blb.t") return u(o.blb.t);
  if (key == "o.blb.m") return d(o.blb.m);
  if (key == "o.blb.num_resamples") return u(o.blb.num_resamples);
  if (key == "o.branch.n_hops") return u(o.branch.n_hops);
  if (key == "o.branch.self_loop_similarity") {
    return d(o.branch.self_loop_similarity);
  }
  if (key == "o.branch.repeat_factor") return u(o.branch.repeat_factor);
  if (key == "o.branch.chain_branch_width") {
    return u(o.branch.chain_branch_width);
  }
  if (key == "o.branch.chain_validation_max_expansions") {
    return u(o.branch.chain_validation_max_expansions);
  }
  if (key == "o.branch.chain_memo") return b(o.branch.chain_memo);
  if (key == "o.max_rounds") return u(o.max_rounds);
  if (key == "o.min_initial_draws") return u(o.min_initial_draws);
  if (key == "o.min_correct_draws") return u(o.min_correct_draws);
  if (key == "o.max_total_draws") return u(o.max_total_draws);
  if (key == "o.extreme_rounds") return u(o.extreme_rounds);
  if (key == "o.extreme_sample_fraction") {
    return d(o.extreme_sample_fraction);
  }
  if (key == "o.use_evt_for_extremes") return b(o.use_evt_for_extremes);
  if (key == "o.group_min_support") return u(o.group_min_support);
  if (key == "o.validate_correctness") return b(o.validate_correctness);
  if (key == "o.fixed_increment") return u(o.fixed_increment);
  if (key == "o.seed") return u(o.seed);
  return true;  // unknown o.* key: ignore
}

}  // namespace

// --- plan ---------------------------------------------------------------

std::string EncodePlanRequest(const ShardPlanRequest& req) {
  std::string out = "query=";
  out += FormatAggregateQuery(req.query);
  out += '\n';
  AppendEngineOptions(out, req.options);
  return out;
}

Result<ShardPlanRequest> DecodePlanRequest(std::string_view body) {
  ShardPlanRequest req;
  bool have_query = false;
  Status query_error = Status::OK();
  const bool ok = ForEachLine(body, [&](std::string_view key,
                                        std::string_view val) {
    if (key == "query") {
      auto q = ParseAggregateQuery(val);
      if (!q.ok()) {
        query_error = q.status();
        return false;
      }
      req.query = std::move(*q);
      have_query = true;
      return true;
    }
    return ApplyEngineOption(key, val, req.options);
  });
  if (!query_error.ok()) return query_error;
  if (!ok || !have_query) return Malformed("plan request");
  return req;
}

std::string EncodePlanResult(const ShardPlanResult& res) {
  std::string out = "token=";
  AppendU64(out, res.token);
  out += "\nnc=";
  AppendU64(out, res.num_candidates);
  out += "\ngroup_by=";
  out += res.group_by_enabled ? '1' : '0';
  out += "\ncount=";
  AppendU64(out, res.indices.size());
  out += '\n';
  for (size_t i = 0; i < res.indices.size(); ++i) {
    out += "c=";
    AppendU64(out, res.indices[i]);
    out += ' ';
    AppendU64(out, res.nodes[i]);
    out += ' ';
    AppendRoundTripDouble(out, res.probs[i]);
    out += '\n';
  }
  return out;
}

Result<ShardPlanResult> DecodePlanResult(std::string_view body) {
  ShardPlanResult res;
  uint64_t count = 0;
  const bool ok = ForEachLine(body, [&](std::string_view key,
                                        std::string_view val) {
    if (key == "token") return ParseU64(val, res.token);
    if (key == "nc") return ParseU64(val, res.num_candidates);
    if (key == "group_by") {
      uint64_t v = 0;
      if (!ParseU64(val, v)) return false;
      res.group_by_enabled = v != 0;
      return true;
    }
    if (key == "count") return ParseU64(val, count);
    if (key == "c") {
      uint64_t index = 0, node = 0;
      double prob = 0.0;
      if (!ParseU64(TakeField(val), index) ||
          !ParseU64(TakeField(val), node) || !ParseF64(val, prob)) {
        return false;
      }
      res.indices.push_back(index);
      res.nodes.push_back(static_cast<NodeId>(node));
      res.probs.push_back(prob);
      return true;
    }
    return true;
  });
  if (!ok || res.indices.size() != count) return Malformed("plan result");
  return res;
}

// --- validate -----------------------------------------------------------

std::string EncodeValidateRequest(const ShardValidateRequest& req) {
  std::string out = "token=";
  AppendU64(out, req.token);
  out += "\ncount=";
  AppendU64(out, req.indices.size());
  out += '\n';
  for (size_t idx : req.indices) {
    out += "i=";
    AppendU64(out, idx);
    out += '\n';
  }
  return out;
}

Result<ShardValidateRequest> DecodeValidateRequest(std::string_view body) {
  ShardValidateRequest req;
  uint64_t count = 0;
  const bool ok = ForEachLine(body, [&](std::string_view key,
                                        std::string_view val) {
    if (key == "token") return ParseU64(val, req.token);
    if (key == "count") return ParseU64(val, count);
    if (key == "i") {
      uint64_t v = 0;
      if (!ParseU64(val, v)) return false;
      req.indices.push_back(static_cast<size_t>(v));
      return true;
    }
    return true;
  });
  if (!ok || req.indices.size() != count) {
    return Malformed("validate request");
  }
  return req;
}

std::string EncodeOutcomes(std::span<const NodeOutcome> outcomes) {
  std::string out = "count=";
  AppendU64(out, outcomes.size());
  out += '\n';
  for (const NodeOutcome& o : outcomes) {
    out += "o=";
    out += o.correct ? '1' : '0';
    out += ' ';
    AppendRoundTripDouble(out, o.value);
    out += ' ';
    AppendI64(out, o.group_key);
    out += '\n';
  }
  return out;
}

Result<std::vector<NodeOutcome>> DecodeOutcomes(std::string_view body) {
  std::vector<NodeOutcome> outcomes;
  uint64_t count = 0;
  const bool ok = ForEachLine(body, [&](std::string_view key,
                                        std::string_view val) {
    if (key == "count") return ParseU64(val, count);
    if (key == "o") {
      NodeOutcome o;
      uint64_t correct = 0;
      if (!ParseU64(TakeField(val), correct) ||
          !ParseF64(TakeField(val), o.value) || !ParseI64(val, o.group_key)) {
        return false;
      }
      o.correct = correct != 0;
      outcomes.push_back(o);
      return true;
    }
    return true;
  });
  if (!ok || outcomes.size() != count) return Malformed("outcomes");
  return outcomes;
}

// --- error envelope -----------------------------------------------------

std::string EncodeError(const Status& status) {
  std::string out = "error=";
  AppendU64(out, static_cast<uint64_t>(status.code()));
  out += ' ';
  for (char c : status.message()) out += c == '\n' ? ' ' : c;
  out += '\n';
  return out;
}

Status DecodeError(std::string_view body) {
  Status decoded = Status::Unavailable("shard error (unparsable body)");
  ForEachLine(body, [&](std::string_view key, std::string_view val) {
    if (key == "error") {
      uint64_t code = 0;
      const std::string_view code_field = TakeField(val);
      if (ParseU64(code_field, code) &&
          code <= static_cast<uint64_t>(StatusCode::kUnavailable) &&
          code != 0) {
        decoded = Status(static_cast<StatusCode>(code), std::string(val));
      }
      return false;  // first error line wins
    }
    return true;
  });
  return decoded;
}

}  // namespace kgaq
