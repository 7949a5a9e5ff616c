// End-to-end smoke of the async serving + HTTP front-end, run by CI:
//
//   1. generate a small synthetic KG + planted embedding,
//   2. start a QueryService and an HTTP server on an ephemeral loopback
//      port,
//   3. POST every example query in the textual wire format, after
//      checking each round-trips Format ∘ Parse exactly,
//   4. poll /result/<id> to completion and verify each served estimate
//      is bitwise-identical to a solo cold-engine run with the same
//      derived seed — once cold, then again with the same seeds once the
//      context's prepared-branch cache is warm,
//   5. exercise /cancel, a microscopic deadline, /healthz and /stats
//      (which must show the warm pass as plan-cache hits).
//
// Exits non-zero on any mismatch, making it a cheap release gate.

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/approx_engine.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "query/query_text.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/query_service.h"

using namespace kgaq;

namespace {

/// Shared flat-JSON field scraper from the server library.
std::string JsonField(const std::string& body, const std::string& key) {
  return ExtractJsonField(body, key);
}

}  // namespace

int main() {
  auto generated = KgGenerator::Generate(DatasetProfile::Mini(7));
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const GeneratedDataset& ds = *generated;
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());

  ServiceOptions sopts;
  sopts.base_seed = 2026;
  // Fixed per-round increments + an unreachable draw cap: the eb=1e-9
  // cancel/deadline probes below then run until stopped instead of
  // sprinting to the default 500k-draw budget and finishing DONE before
  // the control request lands. The solo references mirror these options.
  sopts.engine.fixed_increment = 2000;
  sopts.engine.max_total_draws = static_cast<size_t>(1) << 40;
  QueryService service(ctx, sopts);
  HttpServer server(service);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "http server start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("http front-end listening on 127.0.0.1:%u\n", server.port());

  auto fetch = [&](const std::string& method, const std::string& target,
                   const std::string& body = "") -> HttpResponse {
    auto r = HttpFetch("127.0.0.1", server.port(), method, target, body);
    if (!r.ok()) {
      std::fprintf(stderr, "%s %s failed: %s\n", method.c_str(),
                   target.c_str(), r.status().ToString().c_str());
      std::exit(1);
    }
    return *r;
  };

  int failures = 0;

  // Health first.
  if (fetch("GET", "/healthz").status_code != 200) {
    std::fprintf(stderr, "healthz not 200\n");
    ++failures;
  }

  // The example workload, as wire text. Exercise the full shape mix.
  std::vector<AggregateQuery> workload;
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 0, 0, AggregateFunction::kCount));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 1, 0, AggregateFunction::kAvg));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 2, 1, AggregateFunction::kSum));
  workload.push_back(
      WorkloadGenerator::ChainQuery(ds, 0, 0, AggregateFunction::kCount));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 1, 1, AggregateFunction::kCount));
  workload.push_back(
      WorkloadGenerator::ChainQuery(ds, 1, 0, AggregateFunction::kAvg));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 0, 1, AggregateFunction::kMax));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kAvg));

  // Acceptance: every example query round-trips the wire format exactly
  // before it ever touches the network.
  std::vector<std::string> texts;
  for (size_t i = 0; i < workload.size(); ++i) {
    const std::string text = FormatAggregateQuery(workload[i]);
    auto reparsed = ParseAggregateQuery(text);
    if (!reparsed.ok() || !(*reparsed == workload[i]) ||
        FormatAggregateQuery(*reparsed) != text) {
      std::fprintf(stderr, "query %zu failed wire round-trip: %s\n", i,
                   text.c_str());
      ++failures;
    }
    texts.push_back(text);
  }
  std::printf("wire format: %zu/%zu example queries round-trip exactly\n",
              texts.size() - failures, texts.size());

  // Submit everything over loopback.
  std::vector<std::string> ids;
  for (size_t i = 0; i < texts.size(); ++i) {
    auto r = fetch("POST", "/query", texts[i]);
    if (r.status_code != 202 || JsonField(r.body, "query") != texts[i]) {
      std::fprintf(stderr, "query %zu submission failed (%d): %s\n", i,
                   r.status_code, r.body.c_str());
      ++failures;
      ids.push_back("");
      continue;
    }
    ids.push_back(JsonField(r.body, "id"));
  }

  // A 9th query, cancelled while the batch runs.
  auto cancel_me = fetch("POST", "/query?eb=1e-9&max_rounds=1000000",
                         texts[0]);
  const std::string cancel_id = JsonField(cancel_me.body, "id");
  fetch("POST", "/cancel/" + cancel_id);

  // And a 10th with a microscopic deadline.
  auto expire_me =
      fetch("POST", "/query?eb=1e-9&deadline_ms=0.0001", texts[1]);
  const std::string expire_id = JsonField(expire_me.body, "id");

  auto await = [&](const std::string& id) -> std::string {
    for (int i = 0; i < 60000; ++i) {
      auto r = fetch("GET", "/result/" + id);
      const std::string state = JsonField(r.body, "state");
      if (state != "QUEUED" && state != "RUNNING") return r.body;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::fprintf(stderr, "query %s never finished\n", id.c_str());
    std::exit(1);
  };

  // Verify bitwise parity with solo cold-engine runs (shortest
  // round-trip double renderings are injective, so string equality is
  // double equality).
  std::vector<std::optional<AggregateResult>> expected(ids.size());
  auto matches_solo = [&](size_t i, const std::string& body,
                          const char* pass) {
    std::string v_hat, moe;
    AppendRoundTripDouble(v_hat, expected[i]->v_hat);
    AppendRoundTripDouble(moe, expected[i]->moe);
    const bool same =
        JsonField(body, "state") == "DONE" &&
        JsonField(body, "v_hat") == v_hat &&
        JsonField(body, "moe") == moe &&
        JsonField(body, "total_draws") ==
            std::to_string(expected[i]->total_draws) &&
        JsonField(body, "correct_draws") ==
            std::to_string(expected[i]->correct_draws);
    std::printf("  %s q%zu: state=%s v_hat=%s moe=%s draws=%s  %s\n", pass,
                i, JsonField(body, "state").c_str(),
                JsonField(body, "v_hat").c_str(),
                JsonField(body, "moe").c_str(),
                JsonField(body, "total_draws").c_str(),
                same ? "MATCH" : "MISMATCH vs solo");
    if (!same) ++failures;
  };
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i].empty()) continue;
    const std::string body = await(ids[i]);
    EngineOptions eopts = sopts.engine;
    eopts.seed = QueryService::QuerySeed(sopts.base_seed, i);
    ApproxEngine solo(ds.graph(), ds.reference_embedding(), eopts);
    auto result = solo.Execute(workload[i]);
    if (!result.ok()) {
      std::fprintf(stderr, "query %zu failed solo: %s\n", i,
                   result.status().ToString().c_str());
      ++failures;
      continue;
    }
    expected[i] = std::move(*result);
    matches_solo(i, body, "cold");
  }

  // The same queries again with their first-pass seeds: every branch is
  // now read from the context's prepared-branch cache, and the answers
  // must not move by a bit.
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!expected[i].has_value()) continue;
    auto r = fetch("POST",
                   "/query?seed=" + std::to_string(QueryService::QuerySeed(
                                        sopts.base_seed, i)),
                   texts[i]);
    matches_solo(i, await(JsonField(r.body, "id")), "warm");
  }

  const std::string cancel_body = await(cancel_id);
  if (JsonField(cancel_body, "state") != "CANCELLED") {
    std::fprintf(stderr, "cancelled query ended as %s\n",
                 JsonField(cancel_body, "state").c_str());
    ++failures;
  }
  const std::string expire_body = await(expire_id);
  if (JsonField(expire_body, "state") != "DEADLINE_EXCEEDED") {
    std::fprintf(stderr, "deadline query ended as %s\n",
                 JsonField(expire_body, "state").c_str());
    ++failures;
  }

  // Malformed input comes back 400 with a line:col position.
  auto bad = fetch("POST", "/query", "COUNT(x WHERE nope");
  if (bad.status_code != 400 ||
      bad.body.find("1:9") == std::string::npos) {
    std::fprintf(stderr, "malformed query not rejected with position: %s\n",
                 bad.body.c_str());
    ++failures;
  }

  auto stats = fetch("GET", "/stats");
  std::printf("stats: %s", stats.body.c_str());
  if (JsonField(stats.body, "total_bytes") == "0") {
    std::fprintf(stderr, "cache stats report zero resident bytes\n");
    ++failures;
  }
  // JsonField does not understand nesting, so read "hits" inside the
  // "plans" object only.
  const size_t plans_at = stats.body.find("\"plans\":{");
  const std::string plans =
      plans_at == std::string::npos
          ? ""
          : stats.body.substr(plans_at,
                              stats.body.find('}', plans_at) - plans_at);
  const std::string plan_hits = JsonField(plans, "hits");
  if (plan_hits.empty() || plan_hits == "0") {
    std::fprintf(stderr,
                 "stats lack a plans block with hits > 0 after the warm "
                 "pass (hits=\"%s\")\n",
                 plan_hits.c_str());
    ++failures;
  }

  server.Stop();
  if (failures != 0) {
    std::fprintf(stderr, "http smoke FAILED: %d failures\n", failures);
    return 1;
  }
  std::printf("http smoke OK: %zu served queries bitwise-match solo runs "
              "cold and warm; cancel + deadline + stats verified\n",
              ids.size());
  return 0;
}
