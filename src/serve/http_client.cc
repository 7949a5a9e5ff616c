#include "serve/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/fault_injection.h"

namespace kgaq {

namespace {

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Everything the connection-level code needs from one parsed response
/// head.
struct ParsedResponseHead {
  int status_code = 0;
  bool have_length = false;
  size_t content_length = 0;
  bool close = false;  ///< server said Connection: close
  double retry_after_s = 0.0;
};

bool ParseResponseHead(const std::string& head, ParsedResponseHead& out) {
  const size_t sp = head.find(' ');
  if (head.rfind("HTTP/", 0) != 0 || sp == std::string::npos) return false;
  out.status_code = std::atoi(head.c_str() + sp + 1);
  std::string lower = head;
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  size_t pos = lower.find("content-length:");
  if (pos != std::string::npos) {
    out.have_length = true;
    out.content_length = std::strtoull(head.c_str() + pos + 15, nullptr, 10);
  }
  pos = lower.find("retry-after:");
  if (pos != std::string::npos) {
    out.retry_after_s = std::strtod(head.c_str() + pos + 12, nullptr);
  }
  pos = lower.find("connection:");
  if (pos != std::string::npos) {
    size_t line_end = lower.find("\r\n", pos);
    if (line_end == std::string::npos) line_end = lower.size();
    out.close =
        lower.substr(pos, line_end - pos).find("close") != std::string::npos;
  }
  return true;
}

bool IsIdempotentMethod(const std::string& method) {
  return method == "GET" || method == "HEAD";
}

bool IsRetryableHttpStatus(int code) { return code == 429 || code == 503; }

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

double UniformDouble(uint64_t& state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

// ---------------------------------------------------------------------
// HttpClientConnection
// ---------------------------------------------------------------------

HttpClientConnection::~HttpClientConnection() { Close(); }

HttpClientConnection::HttpClientConnection(
    HttpClientConnection&& other) noexcept
    : fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      requests_sent_(other.requests_sent_),
      timeout_ms_(other.timeout_ms_) {
  other.fd_ = -1;
  other.requests_sent_ = 0;
}

HttpClientConnection& HttpClientConnection::operator=(
    HttpClientConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    requests_sent_ = other.requests_sent_;
    timeout_ms_ = other.timeout_ms_;
    other.fd_ = -1;
    other.requests_sent_ = 0;
  }
  return *this;
}

void HttpClientConnection::SetTimeoutMs(double ms) {
  timeout_ms_ = (ms > 0.0 && std::isfinite(ms)) ? ms : 0.0;
  if (fd_ >= 0) ApplyTimeout(fd_);
}

void HttpClientConnection::ApplyTimeout(int fd) const {
  timeval tv{};
  if (timeout_ms_ > 0.0) {
    // A zero timeval means "no timeout" to the kernel, so sub-ms budgets
    // round up to 1 ms rather than silently unbounding the socket.
    const double ms = std::max(1.0, timeout_ms_);
    tv.tv_sec = static_cast<time_t>(ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  }
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void HttpClientConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  requests_sent_ = 0;
}

Status HttpClientConnection::Connect(const std::string& host,
                                     uint16_t port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable host '" + host +
                                   "' (numeric IPv4 only)");
  }
  // SO_SNDTIMEO bounds the blocking connect too, so a deadline-clamped
  // RPC cannot hang in the handshake against a black-holed peer.
  ApplyTimeout(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      KGAQ_FAULT_POINT("http.client.connect_error")) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    // kUnavailable, not kIoError: no request bytes reached a server, so
    // the call is safe to retry regardless of the method's idempotency.
    return Status::Unavailable("connect " + host + ":" +
                               std::to_string(port) + ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  host_ = host;
  port_ = port;
  requests_sent_ = 0;
  return Status::OK();
}

Result<HttpResponse> HttpClientConnection::RoundTrip(
    const std::string& method, const std::string& target,
    const std::string& body, bool keep_alive) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const bool reused = requests_sent_ > 0;

  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: " + host_ + "\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += keep_alive ? "Connection: keep-alive\r\n\r\n"
                        : "Connection: close\r\n\r\n";
  request += body;

  std::string raw;
  // Maps a dead transport to the replay taxonomy RetryingHttpClient
  // relies on: a REUSED connection dying before a single response byte
  // means the server reaped it while idle and executed nothing —
  // kUnavailable, safe to retry for any method. A fresh connection (or
  // one that already produced bytes) dying mid-flight may have executed
  // the request: kIoError, replayed only for idempotent methods.
  // `timed_out` (SO_RCVTIMEO/SO_SNDTIMEO expiry, see SetTimeoutMs) takes
  // precedence over the reused-connection rule: a slow server is NOT a
  // reaped keep-alive — the request may be executing right now, so a
  // timeout is always kIoError (replayed only for idempotent methods),
  // never the retry-everything kUnavailable.
  const auto transport_error = [&](const std::string& what,
                                   bool timed_out = false) -> Status {
    Close();
    if (timed_out) return Status::IoError("timed out: " + what);
    if (reused && raw.empty()) {
      return Status::Unavailable("stale keep-alive connection: " + what);
    }
    return Status::IoError(what);
  };
  const auto is_timeout = []() {
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINPROGRESS;
  };

  if (!SendAll(fd_, request)) {
    return transport_error("send failed", timeout_ms_ > 0.0 && is_timeout());
  }
  char chunk[4096];
  size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 || KGAQ_FAULT_POINT("http.client.recv_error")) {
      const bool to = n < 0 && timeout_ms_ > 0.0 && is_timeout();
      return transport_error(std::string("recv: ") + std::strerror(errno),
                             to);
    }
    if (n == 0) {
      return transport_error("connection closed before response head");
    }
    raw.append(chunk, static_cast<size_t>(n));
    header_end = raw.find("\r\n\r\n");
  }
  ParsedResponseHead head;
  if (!ParseResponseHead(raw.substr(0, header_end), head)) {
    Close();
    return Status::IoError("malformed HTTP response");
  }
  const size_t body_start = header_end + 4;
  bool saw_eof = false;
  if (head.have_length) {
    while (raw.size() < body_start + head.content_length) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 || KGAQ_FAULT_POINT("http.client.recv_error")) {
        const bool to = n < 0 && timeout_ms_ > 0.0 && is_timeout();
        return transport_error(std::string("recv: ") + std::strerror(errno),
                               to);
      }
      if (n == 0) return transport_error("connection closed mid-body");
      raw.append(chunk, static_cast<size_t>(n));
    }
  } else {
    // No Content-Length: legacy framing, body runs to connection close.
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 || KGAQ_FAULT_POINT("http.client.recv_error")) {
        const bool to = n < 0 && timeout_ms_ > 0.0 && is_timeout();
        return transport_error(std::string("recv: ") + std::strerror(errno),
                               to);
      }
      if (n == 0) break;
      raw.append(chunk, static_cast<size_t>(n));
    }
    saw_eof = true;
  }

  HttpResponse out;
  out.status_code = head.status_code;
  out.retry_after_s = head.retry_after_s;
  out.body = head.have_length ? raw.substr(body_start, head.content_length)
                              : raw.substr(body_start);
  requests_sent_ += 1;
  if (!keep_alive || head.close || saw_eof) {
    const uint64_t sent = requests_sent_;
    Close();
    requests_sent_ = sent;  // Close() resets; keep the tally readable
  }
  return out;
}

Result<HttpResponse> HttpFetch(const std::string& host, uint16_t port,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body) {
  HttpClientConnection conn;
  Status st = conn.Connect(host, port);
  if (!st.ok()) return st;
  return conn.RoundTrip(method, target, body, /*keep_alive=*/false);
}

// ---------------------------------------------------------------------
// RetryingHttpClient
// ---------------------------------------------------------------------

RetryingHttpClient::RetryingHttpClient(RetryOptions options)
    : options_(options),
      fetch_(nullptr),  // null fetch_ selects the pooled transport
      sleep_([](double ms) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
      }),
      rng_state_(options.seed) {}

RetryingHttpClient::RetryingHttpClient(RetryOptions options, FetchFn fetch,
                                       SleepFn sleep)
    : options_(options),
      fetch_(std::move(fetch)),
      sleep_(std::move(sleep)),
      rng_state_(options.seed) {}

RetryingHttpClient::Stats RetryingHttpClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void RetryingHttpClient::EvictHost(const std::string& host, uint16_t port) {
  const std::string key = host + ":" + std::to_string(port);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pool_.find(key);
  if (it == pool_.end()) return;
  for (auto& slot : it->second) {
    if (slot->in_use) {
      // A round trip is mid-flight on another thread; closing under it
      // would race the socket I/O. Flag it — checkin closes it.
      if (!slot->evict_on_return) {
        slot->evict_on_return = true;
        ++stats_.evictions;
      }
    } else if (slot->conn.connected()) {
      slot->conn.Close();
      ++stats_.evictions;
    }
  }
}

Result<HttpResponse> RetryingHttpClient::PooledFetch(
    const std::string& host, uint16_t port, const std::string& method,
    const std::string& target, const std::string& body, double timeout_ms) {
  const std::string key = host + ":" + std::to_string(port);
  const size_t cap = std::max<size_t>(1, options_.connections_per_host);
  PooledConn* slot = nullptr;
  std::unique_ptr<PooledConn> overflow;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& conns = pool_[key];
    for (auto& c : conns) {
      if (!c->in_use) {
        slot = c.get();
        break;
      }
    }
    if (slot == nullptr && conns.size() < cap) {
      conns.push_back(std::make_unique<PooledConn>());
      slot = conns.back().get();
    }
    if (slot != nullptr) {
      slot->in_use = true;
    } else {
      ++stats_.overflows;
    }
  }
  if (slot == nullptr) {
    // Pool saturated: run this attempt on a temporary connection rather
    // than queueing behind an in-flight round trip of unknown duration.
    overflow = std::make_unique<PooledConn>();
    slot = overflow.get();
  }

  const bool reused = slot->conn.connected();
  bool connected_now = false;
  Result<HttpResponse> out = [&]() -> Result<HttpResponse> {
    // Applied before Connect so the timeout also bounds the handshake
    // (SO_SNDTIMEO covers a blocking connect on Linux).
    slot->conn.SetTimeoutMs(timeout_ms);
    if (!reused) {
      Status st = slot->conn.Connect(host, port);
      if (!st.ok()) return st;
      connected_now = true;
    }
    // RoundTrip closes the socket itself on every transport error and on
    // Connection: close responses, so the pool never retains a connection
    // whose framing state is unknown; the next checkout reconnects.
    return slot->conn.RoundTrip(method, target, body,
                                /*keep_alive=*/overflow == nullptr);
  }();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reused) ++stats_.reuses;
    if (connected_now && overflow == nullptr) ++stats_.reconnects;
    if (overflow == nullptr) {
      if (slot->evict_on_return) {
        slot->conn.Close();
        slot->evict_on_return = false;
      }
      slot->in_use = false;
    }
  }
  return out;
}

Result<HttpResponse> RetryingHttpClient::Fetch(const std::string& host,
                                               uint16_t port,
                                               const std::string& method,
                                               const std::string& target,
                                               const std::string& body,
                                               double timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  }
  const int attempts = std::max(1, options_.max_attempts);
  const double base = std::max(1.0, options_.initial_backoff_ms);
  const double cap = std::max(base, options_.max_backoff_ms);
  double prev_sleep = base;

  Result<HttpResponse> last = Status::Internal("no attempt made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Decorrelated jitter: next sleep is uniform in [base, 3*prev],
      // capped. Unlike plain exponential doubling, concurrent clients
      // that failed together do not wake together.
      double sleep_ms;
      {
        std::lock_guard<std::mutex> lock(mu_);
        sleep_ms =
            base + UniformDouble(rng_state_) * (3.0 * prev_sleep - base);
        ++stats_.retries;
      }
      sleep_ms = std::min(cap, std::max(base, sleep_ms));
      if (options_.honor_retry_after && last.ok() &&
          last->retry_after_s > 0.0) {
        sleep_ms = std::min(
            cap, std::max(sleep_ms, last->retry_after_s * 1000.0));
      }
      prev_sleep = sleep_ms;
      sleep_(sleep_ms);
    }

    last = fetch_ ? fetch_(host, port, method, target, body)
                  : PooledFetch(host, port, method, target, body, timeout_ms);
    if (!last.ok()) {
      const StatusCode code = last.status().code();
      if (code == StatusCode::kUnavailable) continue;  // nothing was sent
      if (code == StatusCode::kIoError && IsIdempotentMethod(method)) {
        continue;  // mid-flight death; safe to replay a GET
      }
      return last;  // non-retryable transport or non-idempotent replay
    }
    if (!IsRetryableHttpStatus(last->status_code)) return last;
    // 429/503: rejected before any work — loop for every method.
  }
  return last;  // attempts exhausted; hand back the final outcome
}

}  // namespace kgaq
