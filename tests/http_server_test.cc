#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "core/approx_engine.h"
#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "query/query_text.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/query_service.h"

namespace kgaq {
namespace {

const GeneratedDataset& MiniDataset() {
  static GeneratedDataset* ds = [] {
    auto r = KgGenerator::Generate(DatasetProfile::Mini(7));
    return new GeneratedDataset(std::move(*r));
  }();
  return *ds;
}

/// Shared flat-JSON field scraper from the server library.
std::string JsonField(const std::string& body, const std::string& key) {
  return ExtractJsonField(body, key);
}

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& ds = MiniDataset();
    ctx_ = std::make_shared<EngineContext>(ds.graph(),
                                           ds.reference_embedding());
    ServiceOptions sopts;
    sopts.base_seed = 404;
    // Pin the per-round increment and open the draw budget so an
    // eb=1e-9 query runs until cancelled/expired in small rounds instead
    // of sprinting to the 500k cap before a cancel can land. The solo
    // references below mirror these options.
    sopts.engine.fixed_increment = 2000;
    sopts.engine.max_total_draws = static_cast<size_t>(1) << 40;
    // Keep sampling: a census would answer the query exactly as soon as
    // the target reached the Mini candidate set, before any cancel lands.
    sopts.engine.census_cutover = false;
    engine_options_ = sopts.engine;
    service_ = std::make_unique<QueryService>(ctx_, sopts);
    server_ = std::make_unique<HttpServer>(*service_);
    auto started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    server_.reset();  // Stop() joins before the service dies
    service_.reset();
  }

  Result<HttpResponse> Fetch(const std::string& method,
                             const std::string& target,
                             const std::string& body = "") {
    return HttpFetch("127.0.0.1", server_->port(), method, target, body);
  }

  /// Polls /result/<id> until the state is terminal.
  std::string AwaitResult(const std::string& id) {
    for (int i = 0; i < 20000; ++i) {
      auto r = Fetch("GET", "/result/" + id);
      EXPECT_TRUE(r.ok()) << r.status();
      const std::string state = JsonField(r->body, "state");
      if (state != "QUEUED" && state != "RUNNING") return r->body;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "query " << id << " never reached a terminal state";
    return "";
  }

  std::shared_ptr<EngineContext> ctx_;
  EngineOptions engine_options_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, HealthzIsAlive) {
  auto r = Fetch("GET", "/healthz");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->status_code, 200);
  EXPECT_EQ(r->body, "ok\n");
}

// Acceptance criterion: every example query is servable over the HTTP
// front-end, and the served result is bitwise-identical to a solo run
// with the same derived seed (doubles compared via their shortest
// round-trip renderings, which are injective).
TEST_F(HttpServerTest, ExampleQueriesServedOverLoopbackMatchSoloBitwise) {
  const auto& ds = MiniDataset();
  std::vector<AggregateQuery> workload;
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 0, 0, AggregateFunction::kCount));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 1, 0, AggregateFunction::kAvg));
  workload.push_back(
      WorkloadGenerator::ChainQuery(ds, 0, 0, AggregateFunction::kCount));
  workload.push_back(
      WorkloadGenerator::SimpleQuery(ds, 2, 1, AggregateFunction::kSum));

  std::vector<std::string> ids;
  for (const AggregateQuery& q : workload) {
    const std::string text = FormatAggregateQuery(q);
    auto r = Fetch("POST", "/query", text);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->status_code, 202) << r->body;
    EXPECT_EQ(JsonField(r->body, "state"), "QUEUED");
    // The submission echo is the canonical rendering.
    EXPECT_EQ(JsonField(r->body, "query"), text);
    ids.push_back(JsonField(r->body, "id"));
    ASSERT_FALSE(ids.back().empty()) << r->body;
  }

  for (size_t i = 0; i < ids.size(); ++i) {
    const std::string body = AwaitResult(ids[i]);
    ASSERT_EQ(JsonField(body, "state"), "DONE") << body;

    EngineOptions eopts = engine_options_;
    eopts.seed = QueryService::QuerySeed(404, i);
    ApproxEngine solo(ds.graph(), ds.reference_embedding(), eopts);
    auto expected = solo.Execute(workload[i]);
    ASSERT_TRUE(expected.ok()) << expected.status();

    std::string v_hat, moe;
    AppendRoundTripDouble(v_hat, expected->v_hat);
    AppendRoundTripDouble(moe, expected->moe);
    EXPECT_EQ(JsonField(body, "v_hat"), v_hat) << body;
    EXPECT_EQ(JsonField(body, "moe"), moe) << body;
    EXPECT_EQ(JsonField(body, "total_draws"),
              std::to_string(expected->total_draws));
    EXPECT_EQ(JsonField(body, "correct_draws"),
              std::to_string(expected->correct_draws));
    EXPECT_EQ(JsonField(body, "seed_used"),
              std::to_string(QueryService::QuerySeed(404, i)));
  }
}

TEST_F(HttpServerTest, CanonicalEchoSurvivesEscapesAndControlChars) {
  // A name with a quote, backslash, newline and tab: the JSON echo
  // escapes them (\" \\ \n \t) and the shared scraper must decode them
  // back to the exact canonical wire text.
  AggregateQuery q;
  QueryBranch b;
  b.specific_name = "we\"ird\\na\nme\tx";
  b.hops.push_back({"p", {"T"}});
  q.query = QueryGraph::Chain(b);
  q.function = AggregateFunction::kCount;
  const std::string text = FormatAggregateQuery(q);
  auto r = Fetch("POST", "/query", text);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->status_code, 202) << r->body;
  EXPECT_EQ(JsonField(r->body, "query"), text) << r->body;
}

TEST_F(HttpServerTest, MalformedQueryRejectedWithPosition) {
  auto r = Fetch("POST", "/query", "COUNT(x WHERE oops");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->status_code, 400);
  EXPECT_NE(r->body.find("1:9"), std::string::npos) << r->body;

  auto stats = Fetch("GET", "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(JsonField(stats->body, "bad_requests"), "0");
}

TEST_F(HttpServerTest, OverridesDeadlineAndCancelWork) {
  const auto& ds = MiniDataset();
  const std::string text = FormatAggregateQuery(
      WorkloadGenerator::SimpleQuery(ds, 0, 0, AggregateFunction::kAvg));

  // Unparseable override → 400.
  auto bad = Fetch("POST", "/query?eb=banana", text);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status_code, 400);
  // Unknown parameter → 400.
  auto unknown = Fetch("POST", "/query?speed=9", text);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status_code, 400);

  // A microscopic deadline: expires before the first round boundary.
  auto submitted = Fetch("POST", "/query?eb=1e-9&deadline_ms=0.0001", text);
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->status_code, 202) << submitted->body;
  const std::string id = JsonField(submitted->body, "id");
  const std::string body = AwaitResult(id);
  EXPECT_EQ(JsonField(body, "state"), "DEADLINE_EXCEEDED") << body;

  // Cancel: an unsatisfiable query retires as CANCELLED.
  auto hog = Fetch("POST", "/query?eb=1e-9&max_rounds=1000000", text);
  ASSERT_TRUE(hog.ok());
  const std::string hog_id = JsonField(hog->body, "id");
  auto cancel = Fetch("POST", "/cancel/" + hog_id);
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel->status_code, 200);
  const std::string hog_body = AwaitResult(hog_id);
  EXPECT_EQ(JsonField(hog_body, "state"), "CANCELLED") << hog_body;

  // Unknown ids 404.
  EXPECT_EQ(Fetch("GET", "/result/99999")->status_code, 404);
  EXPECT_EQ(Fetch("POST", "/cancel/99999")->status_code, 404);
  EXPECT_EQ(Fetch("GET", "/nope")->status_code, 404);
  // Submitting with GET is a method error.
  EXPECT_EQ(Fetch("GET", "/query", text)->status_code, 405);
}

TEST_F(HttpServerTest, StatsExposeServiceAndCacheState) {
  const auto& ds = MiniDataset();
  const std::string text = FormatAggregateQuery(
      WorkloadGenerator::SimpleQuery(ds, 1, 1, AggregateFunction::kCount));
  auto submitted = Fetch("POST", "/query", text);
  ASSERT_TRUE(submitted.ok());
  AwaitResult(JsonField(submitted->body, "id"));

  auto r = Fetch("GET", "/stats");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->status_code, 200);
  const std::string& body = r->body;
  EXPECT_EQ(JsonField(body, "submitted"), "1") << body;
  EXPECT_EQ(JsonField(body, "done"), "1") << body;
  // Cache sections surface entries and resident bytes (satellite:
  // groundwork for LRU eviction).
  EXPECT_NE(body.find("\"caches\""), std::string::npos);
  EXPECT_NE(JsonField(body, "total_bytes"), "0") << body;
  const EngineContext::CacheStats cstats = ctx_->Stats();
  EXPECT_NE(body.find("\"entries\":" +
                      std::to_string(cstats.sims_entries)),
            std::string::npos)
      << body;
  // Governance surface: the governor object (an unbounded context still
  // reports its zero budget and counters), the round watchdog, and
  // the memory-pressure state.
  EXPECT_NE(body.find("\"governor\""), std::string::npos) << body;
  EXPECT_EQ(JsonField(body, "budget_bytes"), "0") << body;
  EXPECT_EQ(JsonField(body, "evictions"), "0") << body;
  EXPECT_NE(body.find("\"memory_pressure\":\"healthy\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"last_tick_age_ms\""), std::string::npos) << body;
  EXPECT_EQ(JsonField(body, "watchdog_stalls"), "0") << body;
}

/// Server + bounded service wired together for the overload tests; the
/// member order gives the required destruction order (server first).
struct BoundedStack {
  std::shared_ptr<EngineContext> ctx;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<HttpServer> server;

  explicit BoundedStack(ServiceOptions sopts, HttpServerOptions hopts = {}) {
    const auto& ds = MiniDataset();
    ctx = std::make_shared<EngineContext>(ds.graph(),
                                          ds.reference_embedding());
    sopts.engine.fixed_increment = 2000;
    sopts.engine.max_total_draws = static_cast<size_t>(1) << 40;
    sopts.engine.census_cutover = false;  // keep long queries sampling
    service = std::make_unique<QueryService>(ctx, sopts);
    server = std::make_unique<HttpServer>(*service, hopts);
    auto started = server->Start();
    EXPECT_TRUE(started.ok()) << started;
  }
  ~BoundedStack() {
    server.reset();
    service.reset();
  }

  Result<HttpResponse> Fetch(const std::string& method,
                             const std::string& target,
                             const std::string& body = "") {
    return HttpFetch("127.0.0.1", server->port(), method, target, body);
  }
};

std::string UnsatisfiableText() {
  return FormatAggregateQuery(WorkloadGenerator::SimpleQuery(
      MiniDataset(), 0, 0, AggregateFunction::kAvg));
}

// A census answer says so in /result: "exact":true with moe 0.
TEST(HttpResultJsonTest, CensusAnswerRendersExact) {
  const auto& ds = MiniDataset();
  auto ctx = std::make_shared<EngineContext>(ds.graph(),
                                             ds.reference_embedding());
  QueryService service(ctx, ServiceOptions{});
  HttpServer server(service);
  ASSERT_TRUE(server.Start().ok());
  const std::string text = FormatAggregateQuery(
      WorkloadGenerator::SimpleQuery(ds, 2, 0, AggregateFunction::kCount));
  auto submitted = HttpFetch("127.0.0.1", server.port(), "POST", "/query",
                             text);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  ASSERT_EQ(submitted->status_code, 202) << submitted->body;
  const std::string id = JsonField(submitted->body, "id");
  auto result = HttpFetch("127.0.0.1", server.port(), "GET",
                          "/result/" + id + "?wait=30000");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(JsonField(result->body, "state"), "DONE") << result->body;
  EXPECT_EQ(JsonField(result->body, "exact"), "true") << result->body;
  EXPECT_EQ(JsonField(result->body, "moe"), "0") << result->body;
  server.Stop();
}

// Backpressure end-to-end: a full bounded queue turns POST /query into
// 429 Too Many Requests with a Retry-After header the client can parse.
// shedding_enter is parked out of reach so the rejection is purely the
// deterministic queue-full path.
TEST(HttpOverloadTest, FullQueueAnswers429WithRetryAfterOverLoopback) {
  ServiceOptions sopts;
  sopts.base_seed = 505;
  sopts.max_concurrent = 1;
  sopts.max_queue_depth = 2;
  sopts.shedding_enter = 10.0;  // never shed: isolate the queue-full path
  BoundedStack stack(sopts);

  const std::string text = UnsatisfiableText();
  const std::string params = "?eb=1e-9&max_rounds=1000000";
  // One running (await it), two queued: the queue is now at depth.
  auto running = stack.Fetch("POST", "/query" + params, text);
  ASSERT_TRUE(running.ok());
  ASSERT_EQ(running->status_code, 202) << running->body;
  const std::string running_id = JsonField(running->body, "id");
  for (int i = 0; i < 2000; ++i) {
    auto r = stack.Fetch("GET", "/result/" + running_id);
    ASSERT_TRUE(r.ok());
    if (JsonField(r->body, "state") == "RUNNING") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 2; ++i) {
    auto r = stack.Fetch("POST", "/query" + params, text);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status_code, 202) << r->body;
  }

  auto rejected = stack.Fetch("POST", "/query" + params, text);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->status_code, 429) << rejected->body;
  EXPECT_GE(rejected->retry_after_s, 1.0);  // header present and parsed
  EXPECT_NE(rejected->body.find("error"), std::string::npos);

  auto stats = stack.Fetch("GET", "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(JsonField(stats->body, "rejected"), "1") << stats->body;
  EXPECT_EQ(JsonField(stats->body, "submitted"), "4") << stats->body;
}

// /healthz mirrors the overload state machine. Thresholds are pinned so
// each state is a steady fixture, not a race: enter values of 0 make the
// state unconditional, exits below 0 make it sticky.
TEST(HttpOverloadTest, HealthzReflectsOverloadState) {
  {
    ServiceOptions healthy;
    healthy.max_queue_depth = 8;
    BoundedStack stack(healthy);
    auto r = stack.Fetch("GET", "/healthz");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status_code, 200);
    EXPECT_EQ(r->body, "ok\n");
  }
  {
    ServiceOptions saturated;
    saturated.max_queue_depth = 8;
    saturated.saturated_enter = 0.0;  // q >= 0 always: pinned Saturated
    saturated.saturated_exit = -1.0;
    saturated.shedding_enter = 10.0;
    BoundedStack stack(saturated);
    // The state machine is evaluated at submit/retire; one (failing)
    // submit is enough to move it off its initial Healthy.
    (void)stack.service->SubmitAsync(QueryRequest{});
    stack.service->Drain();
    auto r = stack.Fetch("GET", "/healthz");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status_code, 200);
    EXPECT_EQ(r->body, "saturated\n");
  }
  {
    ServiceOptions shedding;
    shedding.max_queue_depth = 8;
    shedding.shedding_enter = 0.0;  // q >= 0 always: pinned Shedding
    shedding.shedding_exit = -1.0;
    BoundedStack stack(shedding);
    auto first = stack.Fetch("POST", "/query", UnsatisfiableText());
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->status_code, 429) << first->body;  // shedding rejects
    auto r = stack.Fetch("GET", "/healthz");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status_code, 503);
    EXPECT_EQ(r->body, "shedding\n");
    EXPECT_GE(r->retry_after_s, 1.0);
    auto stats = stack.Fetch("GET", "/stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(JsonField(stats->body, "overload"), "shedding");
  }
}

// A query shed mid-run completes over the wire as DONE with
// "degraded":true and the achieved (not requested) error bound.
TEST(HttpOverloadTest, ShedQueryServesDegradedPartialResult) {
  ServiceOptions sopts;
  sopts.base_seed = 506;
  sopts.max_concurrent = 1;
  sopts.max_queue_depth = 2;  // default thresholds: 2/2 queued -> Shedding
  BoundedStack stack(sopts);

  const std::string text = UnsatisfiableText();
  const std::string params = "?eb=1e-9&max_rounds=1000000";
  auto first = stack.Fetch("POST", "/query" + params, text);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status_code, 202) << first->body;
  const std::string id = JsonField(first->body, "id");
  for (int i = 0; i < 2000; ++i) {
    auto r = stack.Fetch("GET", "/result/" + id);
    ASSERT_TRUE(r.ok());
    if (JsonField(r->body, "state") == "RUNNING") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Fill the queue; the service enters Shedding and retires `first` at
  // its next round boundary with a partial answer.
  for (int i = 0; i < 2; ++i) {
    auto r = stack.Fetch("POST", "/query" + params, text);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status_code, 202) << r->body;
  }

  std::string body;
  for (int i = 0; i < 20000; ++i) {
    auto r = stack.Fetch("GET", "/result/" + id);
    ASSERT_TRUE(r.ok());
    body = r->body;
    const std::string state = JsonField(body, "state");
    if (state != "QUEUED" && state != "RUNNING") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(JsonField(body, "state"), "DONE") << body;
  EXPECT_EQ(JsonField(body, "degraded"), "true") << body;
  EXPECT_EQ(JsonField(body, "satisfied"), "false") << body;
  EXPECT_NE(JsonField(body, "rounds"), "0") << body;
}

// ====================================================================
// Event-loop front-door wire tests: raw sockets against the epoll/poll
// server, exercising keep-alive, pipelining, framing-error closes, and
// the loop-driven timers that HttpFetch's one-shot transport hides.
// ====================================================================

/// A bare TCP client for byte-level wire tests: send arbitrary fragments,
/// frame responses by Content-Length, observe EOF.
struct RawConn {
  int fd = -1;
  std::string buf;  ///< unconsumed received bytes (pipelined responses)

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  bool Connect(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool Send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// One recv into buf, waiting up to timeout_ms for readability.
  /// Returns bytes read, 0 on orderly EOF, -1 on timeout/error.
  int Pump(int timeout_ms) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return -1;
    char tmp[4096];
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return n == 0 ? 0 : -1;
    buf.append(tmp, static_cast<size_t>(n));
    return static_cast<int>(n);
  }

  /// Consumes one complete Content-Length-framed response off the front
  /// of buf (receiving more as needed), leaving any pipelined successor
  /// bytes in place.
  bool ReadResponse(int* code, std::string* head_out, std::string* body_out,
                    int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      const size_t head_end = buf.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::string head = buf.substr(0, head_end + 4);
        std::string lower = head;
        for (char& c : lower) c = static_cast<char>(std::tolower(c));
        size_t length = 0;
        const size_t cl = lower.find("content-length:");
        if (cl != std::string::npos) {
          length = std::strtoull(lower.c_str() + cl + 15, nullptr, 10);
        }
        if (buf.size() >= head_end + 4 + length) {
          if (code) *code = std::atoi(head.c_str() + 9);
          if (head_out) *head_out = head;
          if (body_out) *body_out = buf.substr(head_end + 4, length);
          buf.erase(0, head_end + 4 + length);
          return true;
        }
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      if (Pump(static_cast<int>(left.count())) <= 0) return false;
    }
  }

  /// True if the server closes the connection within timeout_ms (any
  /// trailing bytes before the FIN are drained into buf).
  bool ExpectEof(int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      const int n = Pump(static_cast<int>(left.count()));
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }
};

TEST_F(HttpServerTest, PipelinedRequestsInOneSegmentAnswerInOrder) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_->port()));
  // Two complete requests in a single TCP segment; the loop parses both
  // from one read and answers back-to-back, in order, on one socket.
  const std::string two =
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_TRUE(c.Send(two));
  int code = 0;
  std::string head, body;
  ASSERT_TRUE(c.ReadResponse(&code, &head, &body));
  EXPECT_EQ(code, 200);
  EXPECT_EQ(body, "ok\n");
  EXPECT_NE(head.find("Connection: keep-alive"), std::string::npos) << head;
  ASSERT_TRUE(c.ReadResponse(&code, &head, &body));
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("\"server\""), std::string::npos) << body;
  // The second response was served on a reused connection.
  const auto stats = server_->stats();
  EXPECT_GE(stats.keepalive_reuses, 1u);
  EXPECT_GE(stats.requests_parsed, 2u);
}

TEST_F(HttpServerTest, RequestSplitAcrossSegmentsParsesIncrementally) {
  const std::string text = FormatAggregateQuery(WorkloadGenerator::SimpleQuery(
      MiniDataset(), 0, 0, AggregateFunction::kCount));
  const std::string req = "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                          std::to_string(text.size()) + "\r\n\r\n" + text;
  RawConn c;
  ASSERT_TRUE(c.Connect(server_->port()));
  // Trickle the request in three fragments with loop ticks in between:
  // the parser must hold partial state across reads.
  const size_t a = req.size() / 3, b = 2 * req.size() / 3;
  ASSERT_TRUE(c.Send(req.substr(0, a)));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(c.Send(req.substr(a, b - a)));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(c.Send(req.substr(b)));
  int code = 0;
  std::string head, body;
  ASSERT_TRUE(c.ReadResponse(&code, &head, &body));
  EXPECT_EQ(code, 202) << body;
  EXPECT_EQ(JsonField(body, "state"), "QUEUED") << body;
}

TEST(HttpEventLoopTest, OversizedHeaderAnswers431AndCloses) {
  HttpServerOptions hopts;
  hopts.max_header_bytes = 256;
  BoundedStack stack(ServiceOptions{}, hopts);
  RawConn c;
  ASSERT_TRUE(c.Connect(stack.server->port()));
  ASSERT_TRUE(c.Send("GET /healthz HTTP/1.1\r\nX-Pad: " +
                     std::string(1024, 'a') + "\r\n\r\n"));
  int code = 0;
  std::string head, body;
  ASSERT_TRUE(c.ReadResponse(&code, &head, &body));
  EXPECT_EQ(code, 431) << body;
  EXPECT_NE(head.find("Connection: close"), std::string::npos) << head;
  EXPECT_TRUE(c.ExpectEof());
}

TEST(HttpEventLoopTest, OversizedBodyAnswers413FromTheDeclaredLength) {
  HttpServerOptions hopts;
  hopts.max_request_bytes = 128;
  BoundedStack stack(ServiceOptions{}, hopts);
  RawConn c;
  ASSERT_TRUE(c.Connect(stack.server->port()));
  // Head only: the declared length alone triggers the rejection; the
  // server must not wait for (or read) a body it will refuse.
  ASSERT_TRUE(c.Send("POST /query HTTP/1.1\r\nContent-Length: 4096\r\n\r\n"));
  int code = 0;
  ASSERT_TRUE(c.ReadResponse(&code, nullptr, nullptr));
  EXPECT_EQ(code, 413);
  EXPECT_TRUE(c.ExpectEof());
}

TEST(HttpEventLoopTest, IdleKeepAliveConnectionsAreReaped) {
  HttpServerOptions hopts;
  hopts.idle_timeout_ms = 100.0;
  BoundedStack stack(ServiceOptions{}, hopts);
  RawConn c;
  ASSERT_TRUE(c.Connect(stack.server->port()));
  ASSERT_TRUE(c.Send("GET /healthz HTTP/1.1\r\n\r\n"));
  int code = 0;
  ASSERT_TRUE(c.ReadResponse(&code, nullptr, nullptr));
  EXPECT_EQ(code, 200);
  // Now idle between requests: the loop's timer sweep closes silently
  // (no 4xx — an idle reap is not the client's fault).
  EXPECT_TRUE(c.ExpectEof(5000));
  EXPECT_TRUE(c.buf.empty()) << "idle reap should not write: " << c.buf;
  for (int i = 0; i < 500; ++i) {
    if (stack.server->stats().open_connections == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(stack.server->stats().open_connections, 0u);
}

TEST(HttpEventLoopTest, SlowLorisMidRequestAnswers408) {
  HttpServerOptions hopts;
  hopts.connection_deadline_ms = 100.0;
  hopts.idle_timeout_ms = 60000.0;  // isolate the mid-request deadline
  BoundedStack stack(ServiceOptions{}, hopts);
  RawConn c;
  ASSERT_TRUE(c.Connect(stack.server->port()));
  ASSERT_TRUE(c.Send("GET /healthz HT"));  // ...and then trickle nothing
  int code = 0;
  std::string head;
  ASSERT_TRUE(c.ReadResponse(&code, &head, nullptr));
  EXPECT_EQ(code, 408);
  EXPECT_NE(head.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(c.ExpectEof());
}

TEST_F(HttpServerTest, ReusedConnectionResponsesMatchFreshBitwise) {
  const std::string text = FormatAggregateQuery(WorkloadGenerator::SimpleQuery(
      MiniDataset(), 1, 0, AggregateFunction::kCount));
  auto submitted = Fetch("POST", "/query", text);
  ASSERT_TRUE(submitted.ok());
  const std::string id = JsonField(submitted->body, "id");
  AwaitResult(id);

  HttpClientConnection conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server_->port()).ok());
  auto first = conn.RoundTrip("GET", "/result/" + id);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(conn.connected()) << "keep-alive response should not close";
  auto reused = conn.RoundTrip("GET", "/result/" + id);
  ASSERT_TRUE(reused.ok()) << reused.status();
  EXPECT_EQ(conn.requests_sent(), 2u);
  auto fresh = Fetch("GET", "/result/" + id);
  ASSERT_TRUE(fresh.ok());

  // Terminal snapshots are immutable: all three transports must see the
  // exact same bytes.
  EXPECT_EQ(first->status_code, 200);
  EXPECT_EQ(reused->body, first->body);
  EXPECT_EQ(fresh->body, first->body);
}

TEST(HttpEventLoopTest, MaxKeepaliveRequestsClosesAfterLimit) {
  HttpServerOptions hopts;
  hopts.max_keepalive_requests = 2;
  BoundedStack stack(ServiceOptions{}, hopts);
  HttpClientConnection conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", stack.server->port()).ok());
  auto r1 = conn.RoundTrip("GET", "/healthz");
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_TRUE(conn.connected());
  // The capping response itself carries Connection: close, which the
  // client transport honors by closing.
  auto r2 = conn.RoundTrip("GET", "/healthz");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->status_code, 200);
  EXPECT_FALSE(conn.connected());
}

TEST(HttpEventLoopTest, PollBackendServesKeepAliveIdentically) {
  HttpServerOptions hopts;
  hopts.force_poll_backend = true;
  BoundedStack stack(ServiceOptions{}, hopts);
  HttpClientConnection conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", stack.server->port()).ok());
  const std::string text = UnsatisfiableText();
  auto submitted = conn.RoundTrip("POST", "/query", text);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  ASSERT_EQ(submitted->status_code, 202) << submitted->body;
  const std::string id = ExtractJsonField(submitted->body, "id");
  auto result = conn.RoundTrip("GET", "/result/" + id + "?wait=30000");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ExtractJsonField(result->body, "state"), "DONE") << result->body;
  EXPECT_EQ(conn.requests_sent(), 2u);
  EXPECT_GE(stack.server->stats().keepalive_reuses, 1u);
}

TEST(HttpEventLoopTest, BlockingThreadsModelStillServes) {
  HttpServerOptions hopts;
  hopts.model = ServerModel::kBlockingThreads;
  BoundedStack stack(ServiceOptions{}, hopts);
  auto health = stack.Fetch("GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->body, "ok\n");
  auto submitted = stack.Fetch("POST", "/query", UnsatisfiableText());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->status_code, 202) << submitted->body;
  const std::string id = ExtractJsonField(submitted->body, "id");
  // The blocking model long-polls inline (WaitFor on the handler thread).
  auto result = stack.Fetch("GET", "/result/" + id + "?wait=30000");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ExtractJsonField(result->body, "state"), "DONE") << result->body;
}

TEST_F(HttpServerTest, LongPollWaitDefersUntilTerminal) {
  const std::string text = FormatAggregateQuery(WorkloadGenerator::SimpleQuery(
      MiniDataset(), 0, 1, AggregateFunction::kCount));
  auto submitted = Fetch("POST", "/query", text);
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->status_code, 202) << submitted->body;
  const std::string id = JsonField(submitted->body, "id");
  // One round trip instead of a poll loop: the response is withheld by
  // the event loop until the query retires.
  auto result = Fetch("GET", "/result/" + id + "?wait=30000");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->status_code, 200);
  EXPECT_EQ(JsonField(result->body, "state"), "DONE") << result->body;

  // Unparseable wait is a client error, not a silent default.
  auto bad = Fetch("GET", "/result/" + id + "?wait=soon");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status_code, 400);
}

TEST(HttpEventLoopTest, LongPollWaitExpiryReturnsLiveSnapshot) {
  ServiceOptions sopts;
  sopts.base_seed = 507;
  BoundedStack stack(sopts);
  const std::string params = "?eb=1e-9&max_rounds=1000000";
  auto submitted = stack.Fetch("POST", "/query" + params,
                               UnsatisfiableText());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->status_code, 202) << submitted->body;
  const std::string id = ExtractJsonField(submitted->body, "id");
  // The wait expires while the query is still running: 200 with the
  // live (non-terminal) snapshot, exactly like an immediate poll.
  auto snap = stack.Fetch("GET", "/result/" + id + "?wait=50");
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->status_code, 200);
  const std::string state = ExtractJsonField(snap->body, "state");
  EXPECT_TRUE(state == "QUEUED" || state == "RUNNING") << snap->body;
  auto cancel = stack.Fetch("POST", "/cancel/" + id);
  ASSERT_TRUE(cancel.ok());
  // And a second long-poll on the same ticket picks up the terminal.
  auto done = stack.Fetch("GET", "/result/" + id + "?wait=30000");
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(ExtractJsonField(done->body, "state"), "CANCELLED")
      << done->body;
}

TEST_F(HttpServerTest, StatsExposeServerObjectAndSchedulerWakeups) {
  auto r = Fetch("GET", "/stats");
  ASSERT_TRUE(r.ok());
  const std::string& body = r->body;
  EXPECT_NE(body.find("\"server\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"keepalive_reuses\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"requests_parsed\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"loop_wakeups\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"loops\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"scheduler_wakeups\""), std::string::npos) << body;
  // The connection asking for /stats is itself open while it's served.
  EXPECT_NE(JsonField(body, "open_connections"), "0") << body;
  const auto stats = server_->stats();
  EXPECT_EQ(stats.loop_queue_depths.size(), stats.loop_connections.size());
  EXPECT_GE(stats.loop_wakeups, 1u);
}

// A dropped event-loop wakeup (the `serve.loop.wakeup` fault) is
// recoverable by construction: the wakeup fd stays readable under
// level-triggered polling, so the next tick re-delivers it. Three
// consecutive injected drops only delay a new connection, never lose it.
TEST(HttpEventLoopTest, DroppedWakeupsAreRedeliveredByLevelTrigger) {
  BoundedStack stack(ServiceOptions{});
  fault_injection::Enable(42);
  fault_injection::ArmCount("serve.loop.wakeup", 3);
  auto r = stack.Fetch("GET", "/healthz");
  fault_injection::Reset();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->status_code, 200);
  EXPECT_EQ(r->body, "ok\n");
}

TEST(HttpEventLoopTest, PooledClientReusesThenReconnectsAfterIdleReap) {
  HttpServerOptions hopts;
  hopts.idle_timeout_ms = 100.0;
  BoundedStack stack(ServiceOptions{}, hopts);
  RetryingHttpClient client;  // default ctor: pooled keep-alive transport
  auto r1 = client.Fetch("127.0.0.1", stack.server->port(), "GET",
                         "/healthz");
  ASSERT_TRUE(r1.ok()) << r1.status();
  auto r2 = client.Fetch("127.0.0.1", stack.server->port(), "GET",
                         "/healthz");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(client.stats().reconnects, 1u);
  EXPECT_EQ(client.stats().reuses, 1u);

  // Outlive the server's idle reap: the pooled socket is dead, the next
  // Fetch sees zero response bytes on a REUSED connection (kUnavailable,
  // nothing executed) and transparently reconnects — even for POST.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  auto r3 = client.Fetch("127.0.0.1", stack.server->port(), "POST",
                         "/query", UnsatisfiableText());
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_EQ(r3->status_code, 202) << r3->body;
  EXPECT_EQ(client.stats().reconnects, 2u);
}

// The per-host pool grows on demand up to connections_per_host: while a
// long-poll holds the first pooled connection, concurrent fetches open a
// second one instead of overflowing, and later fetches reuse it.
TEST(HttpEventLoopTest, PoolGrowsToConnectionsPerHostWithoutOverflow) {
  ServiceOptions sopts;
  sopts.base_seed = 606;
  BoundedStack stack(sopts);
  auto submitted = stack.Fetch("POST", "/query?eb=1e-9&max_rounds=1000000",
                               UnsatisfiableText());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->status_code, 202) << submitted->body;
  const std::string id = JsonField(submitted->body, "id");

  RetryOptions ropts;
  ropts.connections_per_host = 2;
  RetryingHttpClient client(ropts);
  std::thread holder([&] {
    // Occupies pooled connection #1 for the duration of the wait.
    auto r = client.Fetch("127.0.0.1", stack.server->port(), "GET",
                          "/result/" + id + "?wait=600");
    EXPECT_TRUE(r.ok()) << r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 3; ++i) {
    auto r = client.Fetch("127.0.0.1", stack.server->port(), "GET",
                          "/healthz");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->status_code, 200);
  }
  holder.join();
  (void)stack.Fetch("POST", "/cancel/" + id);

  const auto stats = client.stats();
  EXPECT_EQ(stats.overflows, 0u);
  EXPECT_EQ(stats.reconnects, 2u);  // one per pooled connection
  EXPECT_GE(stats.reuses, 2u);      // healthz #2/#3 rode connection #2
}

// A saturated pool (every connection checked out) overflows onto a
// temporary one-shot connection instead of queueing behind an in-flight
// round trip — burst latency degrades to pre-pool behavior, not head-of-
// line blocking. The pooled connection stays reusable afterwards.
TEST(HttpEventLoopTest, SaturatedPoolOverflowsInsteadOfQueueing) {
  ServiceOptions sopts;
  sopts.base_seed = 607;
  BoundedStack stack(sopts);
  auto submitted = stack.Fetch("POST", "/query?eb=1e-9&max_rounds=1000000",
                               UnsatisfiableText());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->status_code, 202) << submitted->body;
  const std::string id = JsonField(submitted->body, "id");

  RetryOptions ropts;
  ropts.connections_per_host = 1;
  RetryingHttpClient client(ropts);
  std::thread holder([&] {
    auto r = client.Fetch("127.0.0.1", stack.server->port(), "GET",
                          "/result/" + id + "?wait=600");
    EXPECT_TRUE(r.ok()) << r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 2; ++i) {
    auto r = client.Fetch("127.0.0.1", stack.server->port(), "GET",
                          "/healthz");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->status_code, 200);
  }
  holder.join();
  (void)stack.Fetch("POST", "/cancel/" + id);

  EXPECT_GE(client.stats().overflows, 2u);
  // The single pooled connection survived the burst and is reused.
  auto again = client.Fetch("127.0.0.1", stack.server->port(), "GET",
                            "/healthz");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_GE(client.stats().reuses, 1u);
}

}  // namespace
}  // namespace kgaq
