// Front-door load harness for the HTTP serving stack (PR: epoll event
// loop + keep-alive). Self-hosted: stands up a Mini dataset, a
// QueryService, and an HttpServer in-process, then drives loopback
// traffic through a poll(2)-multiplexed client that scales to thousands
// of concurrent keep-alive connections without a thread per socket.
//
// Phases:
//
//   1. closed_loop   — C keep-alive connections, each issuing the next
//                      GET /healthz the moment the previous response
//                      lands. Measures the front door's saturated
//                      request throughput and in-saturation latency.
//   2. open_loop     — a sweep of offered-QPS levels (fractions of the
//                      closed-loop ceiling). Requests are sent on a
//                      fixed schedule regardless of response progress,
//                      and latency is measured FROM THE SCHEDULED SEND
//                      TIME, so a stalled server cannot hide queueing
//                      delay by slowing the generator down (coordinated
//                      omission). Reports p50/p95/p99/p999 per level.
//   3. query_traffic — closed-loop POST /query at modest concurrency,
//                      then a full drain; verifies the terminal
//                      accounting identity
//                        submitted == done + failed + cancelled
//                                     + deadline_expired + rejected + shed
//                      held under concurrent keep-alive submission.
//   4. leak check    — after all clients disconnect, the server must
//                      report zero open connections before Stop().
//   5. baseline      — the same box, model=kBlockingThreads, one fresh
//                      connection per request (the pre-event-loop wire
//                      behavior), thread-per-slot closed loop. The
//                      headline `speedup_vs_baseline` is
//                      closed_loop.qps / baseline.qps.
//
// Emits BENCH_serve.json (override with --json=PATH). Exits non-zero if
// the accounting identity breaks or any connection leaks at shutdown —
// CI runs this as the serve-load gate.
//
// Flags: --connections=N (256) --seconds=S (10) --model=event|blocking
//        --event-threads=N (2) --baseline-seconds=S (5)
//        --baseline-connections=N (min(connections, 256)) --json=PATH

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_context.h"
#include "datagen/kg_generator.h"
#include "datagen/workload_generator.h"
#include "query/query_text.h"
#include "serve/http_server.h"
#include "serve/query_service.h"

using namespace kgaq;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Abortive close (RST, no TIME_WAIT). The baseline opens a connection
/// per request; orderly closes would exhaust the ephemeral port range
/// with TIME_WAIT sockets in seconds at high request rates.
void AbortiveClose(int fd) {
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);
}

struct LatencySummary {
  uint64_t count = 0;
  double p50 = 0, p95 = 0, p99 = 0, p999 = 0, max = 0;
};

LatencySummary Summarize(std::vector<double>& lat) {
  LatencySummary s;
  s.count = lat.size();
  if (lat.empty()) return s;
  std::sort(lat.begin(), lat.end());
  auto pct = [&](double p) {
    const size_t i = static_cast<size_t>(p * (lat.size() - 1));
    return lat[i];
  };
  s.p50 = pct(0.50);
  s.p95 = pct(0.95);
  s.p99 = pct(0.99);
  s.p999 = pct(0.999);
  s.max = lat.back();
  return s;
}

/// One worker's share of the multiplexed load: nonblocking keep-alive
/// connections driven by poll(2). Closed loop when `offered_qps` == 0
/// (next request follows the previous response); open loop otherwise
/// (requests depart on schedule, pipelining onto the socket if responses
/// lag, latency clocked from the scheduled departure).
struct WorkerResult {
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t reconnects = 0;
  std::vector<double> latencies_ms;
};

void RunWorker(uint16_t port, size_t num_conns, const std::string& request,
               double duration_ms, double offered_qps, double phase_offset_ms,
               WorkerResult* out) {
  struct Conn {
    int fd = -1;
    std::string in;
    std::string outbuf;
    size_t out_off = 0;
    std::deque<double> inflight;  ///< departure times, FIFO (ordered responses)
    double next_due = 0;
  };
  std::vector<Conn> conns(num_conns);
  const double start = NowMs();
  const double period_ms =
      offered_qps > 0 ? num_conns * 1000.0 / offered_qps : 0;

  auto open_conn = [&](Conn& c) {
    c.fd = ConnectLoopback(port);
    if (c.fd < 0) return false;
    const int flags = ::fcntl(c.fd, F_GETFL, 0);
    ::fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
    return true;
  };
  auto enqueue = [&](Conn& c, double departure) {
    c.outbuf.append(request);
    c.inflight.push_back(departure);
  };

  for (size_t i = 0; i < num_conns; ++i) {
    if (!open_conn(conns[i])) {
      ++out->errors;
      continue;
    }
    if (offered_qps > 0) {
      // Stagger first departures uniformly across one period.
      conns[i].next_due = start + phase_offset_ms +
                          (period_ms * static_cast<double>(i)) /
                              static_cast<double>(num_conns);
    } else {
      enqueue(conns[i], NowMs());
    }
  }

  std::vector<pollfd> pfds;
  pfds.reserve(num_conns);
  const double deadline = start + duration_ms;
  out->latencies_ms.reserve(1 << 16);

  while (true) {
    const double now = NowMs();
    if (now >= deadline) break;

    double next_event = deadline;
    if (offered_qps > 0) {
      for (Conn& c : conns) {
        if (c.fd < 0) continue;
        while (c.next_due <= now) {
          enqueue(c, c.next_due);
          c.next_due += period_ms;
        }
        next_event = std::min(next_event, c.next_due);
      }
    }

    pfds.clear();
    for (Conn& c : conns) {
      if (c.fd < 0) continue;
      short ev = POLLIN;
      if (c.out_off < c.outbuf.size()) ev |= POLLOUT;
      pfds.push_back({c.fd, ev, 0});
    }
    if (pfds.empty()) break;
    const int timeout =
        std::max(0, std::min(50, static_cast<int>(next_event - now) + 1));
    const int nready = ::poll(pfds.data(), pfds.size(), timeout);
    if (nready <= 0) continue;

    size_t pi = 0;
    for (Conn& c : conns) {
      if (c.fd < 0) continue;
      const pollfd& p = pfds[pi++];
      if (p.revents == 0) continue;
      bool dead = false;
      if (p.revents & POLLOUT) {
        while (c.out_off < c.outbuf.size()) {
          const ssize_t n = ::send(c.fd, c.outbuf.data() + c.out_off,
                                   c.outbuf.size() - c.out_off, MSG_NOSIGNAL);
          if (n > 0) {
            c.out_off += static_cast<size_t>(n);
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            dead = true;
            break;
          }
        }
        if (c.out_off == c.outbuf.size()) {
          c.outbuf.clear();
          c.out_off = 0;
        }
      }
      if (!dead && (p.revents & (POLLIN | POLLHUP | POLLERR))) {
        char tmp[16384];
        while (true) {
          const ssize_t n = ::recv(c.fd, tmp, sizeof(tmp), 0);
          if (n > 0) {
            c.in.append(tmp, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          dead = true;  // EOF or error mid-stream
          break;
        }
        // Frame complete responses (status line + headers +
        // Content-Length body) off the front of the buffer.
        while (true) {
          const size_t he = c.in.find("\r\n\r\n");
          if (he == std::string::npos) break;
          size_t len = 0;
          for (size_t pos = 0; pos < he;) {
            size_t eol = c.in.find("\r\n", pos);
            if (eol == std::string::npos || eol > he) eol = he;
            if (eol - pos > 15) {
              static const char kCl[] = "content-length:";
              bool match = true;
              for (size_t k = 0; k < 15; ++k) {
                if (std::tolower(c.in[pos + k]) != kCl[k]) {
                  match = false;
                  break;
                }
              }
              if (match) {
                len = std::strtoull(c.in.c_str() + pos + 15, nullptr, 10);
              }
            }
            pos = eol + 2;
          }
          if (c.in.size() < he + 4 + len) break;
          c.in.erase(0, he + 4 + len);
          const double done_at = NowMs();
          if (!c.inflight.empty()) {
            out->latencies_ms.push_back(done_at - c.inflight.front());
            c.inflight.pop_front();
          }
          ++out->completed;
          if (offered_qps <= 0) enqueue(c, done_at);  // closed loop
        }
      }
      if (dead) {
        ++out->errors;
        ::close(c.fd);
        c.fd = -1;
        c.in.clear();
        c.outbuf.clear();
        c.out_off = 0;
        c.inflight.clear();
        if (NowMs() < deadline && open_conn(c)) {
          ++out->reconnects;
          if (offered_qps <= 0) enqueue(c, NowMs());
        }
      }
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

struct PhaseResult {
  double seconds = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  double qps = 0;
  double offered_qps = 0;  ///< 0 for closed loop
  LatencySummary lat;
};

PhaseResult RunPhase(uint16_t port, size_t connections,
                     const std::string& request, double seconds,
                     double offered_qps) {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t workers =
      std::max<size_t>(1, std::min({connections, hw / 2 + 1, size_t{8}}));
  std::vector<WorkerResult> results(workers);
  std::vector<std::thread> threads;
  const double t0 = NowMs();
  for (size_t w = 0; w < workers; ++w) {
    const size_t lo = connections * w / workers;
    const size_t hi = connections * (w + 1) / workers;
    const double share_qps =
        offered_qps * static_cast<double>(hi - lo) / connections;
    threads.emplace_back(RunWorker, port, hi - lo, std::cref(request),
                         seconds * 1000.0, share_qps,
                         /*phase_offset_ms=*/static_cast<double>(w),
                         &results[w]);
  }
  for (auto& t : threads) t.join();
  const double elapsed_s = (NowMs() - t0) / 1000.0;

  PhaseResult pr;
  pr.seconds = elapsed_s;
  pr.offered_qps = offered_qps;
  std::vector<double> all;
  for (WorkerResult& r : results) {
    pr.completed += r.completed;
    pr.errors += r.errors;
    all.insert(all.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }
  pr.qps = pr.completed / std::max(1e-9, elapsed_s);
  pr.lat = Summarize(all);
  return pr;
}

/// The pre-keep-alive wire behavior, measured honestly: T threads, each
/// looping connect -> one request (Connection: close) -> full response ->
/// abortive close. This is what every request cost before this PR.
PhaseResult RunBaseline(uint16_t port, size_t threads_n, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<WorkerResult> results(threads_n);
  std::vector<std::thread> threads;
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n";
  const double t0 = NowMs();
  for (size_t t = 0; t < threads_n; ++t) {
    threads.emplace_back([&, t] {
      WorkerResult& r = results[t];
      char tmp[4096];
      while (!stop.load(std::memory_order_relaxed)) {
        const double sent_at = NowMs();
        const int fd = ConnectLoopback(port);
        if (fd < 0) {
          ++r.errors;
          continue;
        }
        size_t off = 0;
        bool ok = true;
        while (off < request.size()) {
          const ssize_t n = ::send(fd, request.data() + off,
                                   request.size() - off, MSG_NOSIGNAL);
          if (n <= 0) {
            ok = false;
            break;
          }
          off += static_cast<size_t>(n);
        }
        while (ok) {  // server closes after the response
          const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
          if (n == 0) break;
          if (n < 0) {
            ok = false;
            break;
          }
        }
        AbortiveClose(fd);
        if (ok) {
          ++r.completed;
          r.latencies_ms.push_back(NowMs() - sent_at);
        } else {
          ++r.errors;
        }
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed_s = (NowMs() - t0) / 1000.0;

  PhaseResult pr;
  pr.seconds = elapsed_s;
  std::vector<double> all;
  for (WorkerResult& r : results) {
    pr.completed += r.completed;
    pr.errors += r.errors;
    all.insert(all.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }
  pr.qps = pr.completed / std::max(1e-9, elapsed_s);
  pr.lat = Summarize(all);
  return pr;
}

void AppendPhaseJson(std::string& out, const PhaseResult& p) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"seconds\":%.2f,\"completed\":%llu,\"errors\":%llu,"
                "\"qps\":%.1f,\"offered_qps\":%.1f,\"p50_ms\":%.3f,"
                "\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"p999_ms\":%.3f,"
                "\"max_ms\":%.3f}",
                p.seconds, static_cast<unsigned long long>(p.completed),
                static_cast<unsigned long long>(p.errors), p.qps,
                p.offered_qps, p.lat.p50, p.lat.p95, p.lat.p99, p.lat.p999,
                p.lat.max);
  out += buf;
}

/// Runs a measured phase as three back-to-back windows and reports the
/// median-throughput window. A shared/noisy box steals CPU in bursts; a
/// single long window lets one burst skew the headline number, while
/// the median window resists it in either direction.
template <typename RunFn>
PhaseResult MedianOf3(const RunFn& run) {
  PhaseResult w[3] = {run(), run(), run()};
  std::sort(std::begin(w), std::end(w),
            [](const PhaseResult& a, const PhaseResult& b) {
              return a.qps < b.qps;
            });
  return w[1];
}

void PrintPhase(const char* name, const PhaseResult& p) {
  std::printf(
      "%-14s %8.1f qps (offered %.1f)  %llu reqs, %llu errs  "
      "p50=%.3fms p95=%.3fms p99=%.3fms p999=%.3fms\n",
      name, p.qps, p.offered_qps,
      static_cast<unsigned long long>(p.completed),
      static_cast<unsigned long long>(p.errors), p.lat.p50, p.lat.p95,
      p.lat.p99, p.lat.p999);
}

}  // namespace

int main(int argc, char** argv) {
  size_t connections = 256;
  double seconds = 10.0;
  double baseline_seconds = 5.0;
  size_t baseline_connections = 0;  // 0: min(connections, 256)
  size_t event_threads = 2;
  std::string model = "event";
  std::string json_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--connections=", 14) == 0) {
      connections = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      seconds = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--baseline-seconds=", 19) == 0) {
      baseline_seconds = std::atof(argv[i] + 19);
    } else if (std::strncmp(argv[i], "--baseline-connections=", 23) == 0) {
      baseline_connections = std::strtoull(argv[i] + 23, nullptr, 10);
    } else if (std::strncmp(argv[i], "--event-threads=", 16) == 0) {
      event_threads = std::strtoull(argv[i] + 16, nullptr, 10);
    } else if (std::strncmp(argv[i], "--model=", 8) == 0) {
      model = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--connections=N] [--seconds=S] "
                   "[--model=event|blocking] [--event-threads=N] "
                   "[--baseline-seconds=S] [--baseline-connections=N] "
                   "[--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (baseline_connections == 0) {
    baseline_connections = std::min<size_t>(connections, 256);
  }

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
  sopts.max_concurrent = 4;
  // The query phase offers far more load than 4 engine slots can absorb;
  // a bounded queue turns the excess into 429s (the `rejected` bucket of
  // the accounting identity) instead of an unbounded backlog that the
  // final Drain() would grind through for minutes.
  sopts.max_queue_depth = 512;
  QueryService service(ctx, sopts);

  HttpServerOptions hopts;
  hopts.backlog = 1024;
  hopts.event_threads = event_threads;
  hopts.model = model == "blocking" ? ServerModel::kBlockingThreads
                                    : ServerModel::kEventLoop;
  HttpServer server(service, hopts);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("loadgen: model=%s connections=%zu event_threads=%zu port=%u\n",
              model.c_str(), connections, event_threads, server.port());

  const std::string healthz =
      "GET /healthz HTTP/1.1\r\nHost: l\r\n\r\n";

  // Phase 1: closed loop — the saturated throughput ceiling, as the
  // median of three windows (see MedianOf3).
  const PhaseResult closed = MedianOf3([&] {
    return RunPhase(server.port(), connections, healthz, seconds / 3.0, 0.0);
  });
  PrintPhase("closed_loop", closed);

  // Phase 2: open loop — latency vs offered load below the ceiling.
  std::vector<PhaseResult> open_levels;
  const double open_secs = std::max(2.0, seconds / 5.0);
  for (double frac : {0.25, 0.5, 0.75}) {
    const double offered = std::max(100.0, closed.qps * frac);
    open_levels.push_back(
        RunPhase(server.port(), connections, healthz, open_secs, offered));
    PrintPhase("open_loop", open_levels.back());
  }

  // Phase 3: query traffic through the batched admission path, then
  // drain and check the terminal accounting identity.
  const std::string qtext = FormatAggregateQuery(
      WorkloadGenerator::SimpleQuery(ds, 0, 0, AggregateFunction::kCount));
  const std::string query_req =
      "POST /query HTTP/1.1\r\nHost: l\r\nContent-Length: " +
      std::to_string(qtext.size()) + "\r\n\r\n" + qtext;
  const PhaseResult queries =
      RunPhase(server.port(), std::min<size_t>(connections, 32), query_req,
               std::max(2.0, seconds / 5.0), 0.0);
  PrintPhase("query_traffic", queries);
  service.Drain();
  const auto sstats = service.stats();
  const uint64_t buckets = sstats.done + sstats.failed + sstats.cancelled +
                           sstats.deadline_expired + sstats.rejected +
                           sstats.shed;
  const bool identity_ok = sstats.submitted == buckets &&
                           sstats.queued == 0 && sstats.running == 0;
  std::printf("accounting: submitted=%llu buckets=%llu -> %s\n",
              static_cast<unsigned long long>(sstats.submitted),
              static_cast<unsigned long long>(buckets),
              identity_ok ? "ok" : "VIOLATION");

  // Phase 4: every client socket is gone; the server must agree. (The
  // loops see client FINs within a tick; give them a moment.)
  size_t leaked = server.stats().open_connections;
  for (int i = 0; i < 1000 && leaked > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    leaked = server.stats().open_connections;
  }
  const auto server_stats = server.stats();
  std::printf(
      "server: accepted=%llu parsed=%llu keepalive_reuses=%llu "
      "wakeups=%llu open=%zu\n",
      static_cast<unsigned long long>(server_stats.connections_accepted),
      static_cast<unsigned long long>(server_stats.requests_parsed),
      static_cast<unsigned long long>(server_stats.keepalive_reuses),
      static_cast<unsigned long long>(server_stats.loop_wakeups), leaked);
  server.Stop();

  // Phase 5: the thread-per-connection, connection-per-request baseline.
  PhaseResult baseline;
  if (baseline_seconds > 0) {
    QueryService bsvc(ctx, sopts);
    // The pre-event-loop server at its stock configuration: this is
    // exactly what the front door was before this change.
    HttpServerOptions bopts;
    bopts.backlog = 1024;
    bopts.model = ServerModel::kBlockingThreads;
    HttpServer bserver(bsvc, bopts);
    if (Status s = bserver.Start(); !s.ok()) {
      std::fprintf(stderr, "baseline start failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    baseline = MedianOf3([&] {
      return RunBaseline(bserver.port(), baseline_connections,
                         baseline_seconds / 3.0);
    });
    PrintPhase("baseline", baseline);
    bserver.Stop();
  }

  const double speedup =
      baseline.qps > 0 ? closed.qps / baseline.qps : 0.0;
  std::printf("speedup_vs_baseline: %.1fx (%zu keep-alive conns vs %zu "
              "close-per-request threads)\n",
              speedup, connections, baseline_connections);

  std::string json = "{\n  \"config\":{\"connections\":" +
                     std::to_string(connections) +
                     ",\"seconds\":" + std::to_string(seconds) +
                     ",\"model\":\"" + model +
                     "\",\"event_threads\":" + std::to_string(event_threads) +
                     ",\"baseline_connections\":" +
                     std::to_string(baseline_connections) + "},\n";
  json += "  \"closed_loop\":";
  AppendPhaseJson(json, closed);
  json += ",\n  \"open_loop\":[";
  for (size_t i = 0; i < open_levels.size(); ++i) {
    if (i) json += ",";
    AppendPhaseJson(json, open_levels[i]);
  }
  json += "],\n  \"query_traffic\":";
  AppendPhaseJson(json, queries);
  json += ",\n  \"baseline\":";
  AppendPhaseJson(json, baseline);
  char tail[512];
  std::snprintf(tail, sizeof(tail),
                ",\n  \"speedup_vs_baseline\":%.2f,\n"
                "  \"accounting_identity_holds\":%s,\n"
                "  \"leaked_connections\":%zu,\n"
                "  \"keepalive_reuses\":%llu\n}\n",
                speedup, identity_ok ? "true" : "false", leaked,
                static_cast<unsigned long long>(
                    server_stats.keepalive_reuses));
  json += tail;
  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  if (!identity_ok) {
    std::fprintf(stderr, "FAIL: accounting identity violated\n");
    return 1;
  }
  if (leaked != 0) {
    std::fprintf(stderr, "FAIL: %zu connections leaked at shutdown\n",
                 leaked);
    return 1;
  }
  std::printf("loadgen passed: identity holds, no leaked connections\n");
  return 0;
}
