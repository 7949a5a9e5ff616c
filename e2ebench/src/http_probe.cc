// The light serial HTTP probe: POST /query, then long-poll GET /result,
// one query at a time through a fresh QueryService and HttpServer. It
// gives a traced run the serve.* rows its workload does not measure
// itself, the serve.http_* ones always.

#include <cstdlib>
#include <optional>
#include <string_view>

#include "query/query_text.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "workload.h"

namespace e2ebench {

using kgaq::EngineContext;
using kgaq::QueryService;

namespace {

/// Long-poll wait of each GET /result.
constexpr int kLongPollMs = 1000;

std::optional<std::string_view> JsonRaw(std::string_view body,
                                        std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = body.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view rest = body.substr(at + needle.size());
  const size_t end = rest.find_first_of(",}]");
  return rest.substr(0, end);
}

double JsonNumber(std::string_view body, std::string_view key) {
  auto raw = JsonRaw(body, key);
  return raw ? std::strtod(std::string(*raw).c_str(), nullptr) : 0.0;
}

/// What a client sees of a /result ticket JSON. Result fields are parsed
/// from the first "result" object; bucket rows are not parsed (the probe
/// runs no GROUP-BY).
struct TicketView {
  std::string state;
  bool degraded = false;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  kgaq::AggregateResult result;

  bool terminal() const {
    return state == "DONE" || state == "FAILED" || state == "CANCELLED" ||
           state == "DEADLINE_EXCEEDED";
  }
  bool answered() const { return state == "DONE" && !degraded; }
};

TicketView ParseTicket(std::string_view body) {
  TicketView t;
  if (auto s = JsonRaw(body, "state"); s && s->size() >= 2) {
    t.state = std::string(s->substr(1, s->size() - 2));
  }
  t.degraded = JsonRaw(body, "degraded") == std::string_view("true");
  t.queue_ms = JsonNumber(body, "queue_ms");
  t.run_ms = JsonNumber(body, "run_ms");
  const size_t at = body.find("\"result\":");
  if (at != std::string_view::npos) {
    std::string_view r = body.substr(at);
    kgaq::AggregateResult& a = t.result;
    a.v_hat = JsonNumber(r, "v_hat");
    a.moe = JsonNumber(r, "moe");
    a.confidence_level = JsonNumber(r, "confidence_level");
    a.error_bound = JsonNumber(r, "error_bound");
    a.satisfied = JsonRaw(r, "satisfied") == std::string_view("true");
    a.rounds = static_cast<size_t>(JsonNumber(r, "rounds"));
    a.total_draws = static_cast<size_t>(JsonNumber(r, "total_draws"));
    a.correct_draws = static_cast<size_t>(JsonNumber(r, "correct_draws"));
    a.num_candidates = static_cast<size_t>(JsonNumber(r, "num_candidates"));
  }
  return t;
}

/// POST /query target pinning the query's seed.
std::string QueryTarget(const BenchQuery& q) {
  return "/query?seed=" + std::to_string(q.seed);
}

/// Long-poll GET /result target.
std::string ResultTarget(uint64_t id) {
  return "/result/" + std::to_string(id) +
         "?wait=" + std::to_string(kLongPollMs);
}

}  // namespace

void HttpProbe(const std::shared_ptr<const EngineContext>& ctx,
               const std::vector<BenchQuery>& queries,
               const std::vector<size_t>& indices,
               const std::vector<SoloRun>& solo, Tracer& tracer,
               Report& layers, Checks& checks, AnswerLog& log) {
  kgaq::ServiceOptions so;
  so.max_concurrent = kClients;
  QueryService service(ctx, so);
  kgaq::HttpServer server(service);
  checks.Expect(server.Start().ok(), "probe server failed to start");
  kgaq::HttpClientConnection conn;
  checks.Expect(conn.Connect("127.0.0.1", server.port()).ok(),
                "probe connect failed");
  const QueryService::ServiceStats before = service.stats();
  std::vector<double> queue_ms, overhead_ms;
  std::vector<std::pair<size_t, double>> run_ms;
  size_t polls = 0, answered = 0;
  for (size_t q : indices) {
    const uint64_t request = 2'000'000 + q;
    const uint64_t span = tracer.NewId();
    const auto t0 = Clock::now();
    auto reply = conn.RoundTrip("POST", QueryTarget(queries[q]),
                                kgaq::FormatAggregateQuery(queries[q].query));
    const auto t1 = Clock::now();
    tracer.Record("http.post", request, span, t0, t1);
    if (!reply.ok() || reply->status_code != 202) {
      checks.Expect(false, "probe POST /query failed for " + queries[q].id);
      continue;
    }
    const uint64_t id = static_cast<uint64_t>(JsonNumber(reply->body, "id"));
    TicketView t;
    auto poll_start = t1;
    do {
      ++polls;
      reply = conn.RoundTrip("GET", ResultTarget(id));
      const auto now = Clock::now();
      tracer.Record("http.poll", request, span, poll_start, now);
      poll_start = now;
      if (!reply.ok() || reply->status_code != 200) break;
      t = ParseTicket(reply->body);
    } while (!t.terminal());
    const auto t2 = Clock::now();
    tracer.Record(span, "client.query", request, 0, t0, t2);
    if (!t.answered()) {
      checks.Expect(false, "probe query " + queries[q].id + " not answered");
      continue;
    }
    RecordServiceSpans(tracer, request, span,
                       AddMs(t2, -(t.queue_ms + t.run_ms)), t.queue_ms,
                       t.run_ms);
    ++answered;
    log.Add(q, t.result, "http probe");
    queue_ms.push_back(t.queue_ms);
    overhead_ms.push_back(MsBetween(t0, t2) - t.queue_ms - t.run_ms);
    run_ms.emplace_back(q, t.run_ms);
  }
  conn.Close();
  service.Drain();
  const QueryService::ServiceStats after = service.stats();
  checks.Expect(IdentityHolds(after),
                "probe service accounting identity violated");
  server.Stop();
  AddServeLayers(layers, queue_ms, run_ms, solo, before, after);
  layers.Add("serve.http_overhead_ms", Percentile(overhead_ms, 50.0), "ms",
             overhead_ms.size(), "median client latency - queue_ms - run_ms");
  layers.Add("serve.polls_per_answer",
             answered == 0 ? 0.0 : static_cast<double>(polls) / answered,
             "ratio", answered, "GET /result calls per answered query");
}

}  // namespace e2ebench
