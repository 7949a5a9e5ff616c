#include "serve/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "common/fault_injection.h"
#include "core/engine_context.h"
#include "query/query_text.h"

namespace kgaq {

namespace {

/// Event-loop tick: the poller never sleeps longer than this, so idle
/// reaping, 408 deadlines and long-poll expiries have ~this granularity
/// and a Stop() is observed within one tick even if its wakeup is lost.
constexpr int kLoopTickMs = 20;

/// Hard ceiling on GET /result/<id>?wait=MS long-polls.
constexpr double kMaxLongPollMs = 60000.0;

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 412:
      return "Precondition Failed";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

/// `extra_headers` must be "" or complete "Name: value\r\n" lines.
/// `keep_alive` picks the Connection header; the event-loop server keeps
/// the socket open exactly when it says keep-alive, the blocking model
/// always passes false (its historical one-request-per-connection wire
/// behavior).
std::string MakeResponse(int code, const std::string& content_type,
                         const std::string& body, bool keep_alive,
                         const std::string& extra_headers = "") {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " +
                    ReasonPhrase(code) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += extra_headers;
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  out += body;
  return out;
}

std::string JsonError(int code, const std::string& message, bool keep_alive,
                      const std::string& extra_headers = "") {
  std::string body = "{\"error\":";
  AppendJsonString(body, message);
  body += "}\n";
  return MakeResponse(code, "application/json", body, keep_alive,
                      extra_headers);
}

/// Status code of a response string this file generated ("HTTP/1.1 NNN").
int ResponseStatusCode(const std::string& response) {
  return std::atoi(response.c_str() + 9);
}

/// Errors after which the input stream is unframeable (the offending
/// bytes are still buffered, or were never received): the connection
/// must close. Routing errors (404/405) and overload rejections
/// (429/503) leave framing intact and keep the connection alive.
bool ResponseClosesConnection(int code) {
  return code == 400 || code == 408 || code == 413 || code == 431;
}

/// Retry-After takes integral seconds; round up so a client never
/// returns before the estimated drain instant.
std::string RetryAfterHeader(double retry_after_ms) {
  const auto secs = static_cast<uint64_t>(
      std::ceil(std::max(retry_after_ms, 0.0) / 1000.0));
  return "Retry-After: " + std::to_string(std::max<uint64_t>(secs, 1)) +
         "\r\n";
}

/// Splits "a=1&b=2" into pairs; no percent-decoding (every recognized
/// parameter is numeric).
std::vector<std::pair<std::string, std::string>> ParseQueryParams(
    const std::string& qs) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t pos = 0;
  while (pos < qs.size()) {
    size_t amp = qs.find('&', pos);
    if (amp == std::string::npos) amp = qs.size();
    const std::string pair = qs.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      out.emplace_back(pair, "");
    } else {
      out.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return out;
}

std::optional<double> ParseDoubleValue(const std::string& s) {
  double v = 0.0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end || s.empty()) return std::nullopt;
  return v;
}

std::optional<uint64_t> ParseUint64Value(const std::string& s) {
  uint64_t v = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end || s.empty()) return std::nullopt;
  return v;
}

void AppendResultJson(std::string& out, const AggregateResult& r) {
  out += "{\"v_hat\":";
  AppendRoundTripDouble(out, r.v_hat);
  out += ",\"moe\":";
  AppendRoundTripDouble(out, r.moe);
  out += ",\"confidence_level\":";
  AppendRoundTripDouble(out, r.confidence_level);
  out += ",\"error_bound\":";
  AppendRoundTripDouble(out, r.error_bound);
  out += ",\"satisfied\":";
  out += r.satisfied ? "true" : "false";
  out += ",\"exact\":";
  out += r.exact ? "true" : "false";
  out += ",\"rounds\":" + std::to_string(r.rounds);
  out += ",\"total_draws\":" + std::to_string(r.total_draws);
  out += ",\"correct_draws\":" + std::to_string(r.correct_draws);
  out += ",\"num_candidates\":" + std::to_string(r.num_candidates);
  if (!r.groups.empty()) {
    out += ",\"groups\":[";
    for (size_t i = 0; i < r.groups.size(); ++i) {
      const GroupEstimate& g = r.groups[i];
      if (i > 0) out += ',';
      out += "{\"bucket_lower\":";
      AppendRoundTripDouble(out, g.bucket_lower);
      out += ",\"v_hat\":";
      AppendRoundTripDouble(out, g.v_hat);
      out += ",\"moe\":";
      AppendRoundTripDouble(out, g.moe);
      out += ",\"support\":" + std::to_string(g.support);
      out += ",\"satisfied\":";
      out += g.satisfied ? "true" : "false";
      out += '}';
    }
    out += ']';
  }
  out += '}';
}

void AppendTicketJson(std::string& out, const QueryResponse& resp) {
  out += "{\"id\":" + std::to_string(resp.id);
  out += ",\"state\":\"";
  out += QueryStateToString(resp.state);
  out += "\",\"seed_used\":" + std::to_string(resp.seed_used);
  out += ",\"queue_ms\":";
  AppendRoundTripDouble(out, resp.queue_ms);
  out += ",\"run_ms\":";
  AppendRoundTripDouble(out, resp.run_ms);
  if (resp.degraded) {
    // Partial answer: the run was retired early (overload shed or
    // deadline) and result.error_bound is the achieved, not requested,
    // bound. Only emitted when set, so non-degraded responses keep
    // their exact pre-overload wire shape.
    out += ",\"degraded\":true";
  }
  if (resp.state == QueryState::kFailed) {
    out += ",\"error\":";
    AppendJsonString(out, resp.status.ToString());
  } else if (IsTerminalState(resp.state)) {
    out += ",\"result\":";
    AppendResultJson(out, resp.result);
  }
  out += "}\n";
}

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

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

double ElapsedMs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::chrono::steady_clock::duration MsDuration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool hangup = false;
};

/// Readiness backend of an event loop: epoll where available (Linux),
/// poll(2) otherwise or when HttpServerOptions::force_poll_backend asks
/// for it. Both backends are LEVEL-triggered — still-pending readiness
/// is re-reported on the next Wait, which is what makes a dropped
/// wakeup (the `serve.loop.wakeup` fault) recoverable instead of a
/// lost completion.
class Poller {
 public:
  explicit Poller(bool force_poll) {
#if defined(__linux__)
    if (!force_poll) epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
#else
    (void)force_poll;
#endif
  }
  ~Poller() {
#if defined(__linux__)
    if (epfd_ >= 0) ::close(epfd_);
#endif
  }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void Add(int fd, bool rd, bool wr) {
#if defined(__linux__)
    if (epfd_ >= 0) {
      epoll_event ev{};
      ev.events = EpollMask(rd, wr);
      ev.data.fd = fd;
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
      return;
    }
#endif
    index_[fd] = pfds_.size();
    pfds_.push_back(pollfd{fd, PollMask(rd, wr), 0});
  }

  void Mod(int fd, bool rd, bool wr) {
#if defined(__linux__)
    if (epfd_ >= 0) {
      epoll_event ev{};
      ev.events = EpollMask(rd, wr);
      ev.data.fd = fd;
      ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
      return;
    }
#endif
    auto it = index_.find(fd);
    if (it != index_.end()) pfds_[it->second].events = PollMask(rd, wr);
  }

  void Del(int fd) {
#if defined(__linux__)
    if (epfd_ >= 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
      return;
    }
#endif
    auto it = index_.find(fd);
    if (it == index_.end()) return;
    const size_t i = it->second;
    const size_t last = pfds_.size() - 1;
    if (i != last) {
      pfds_[i] = pfds_[last];
      index_[pfds_[i].fd] = i;
    }
    pfds_.pop_back();
    index_.erase(it);
  }

  /// Blocks up to timeout_ms, appends ready fds to `out`, returns how
  /// many were ready (0 on timeout or EINTR).
  size_t Wait(int timeout_ms, std::vector<PollerEvent>& out) {
#if defined(__linux__)
    if (epfd_ >= 0) {
      epoll_event evs[256];
      const int n = ::epoll_wait(epfd_, evs, 256, timeout_ms);
      if (n <= 0) return 0;
      for (int i = 0; i < n; ++i) {
        PollerEvent ev;
        ev.fd = evs[i].data.fd;
        ev.readable = (evs[i].events & EPOLLIN) != 0;
        ev.writable = (evs[i].events & EPOLLOUT) != 0;
        ev.hangup = (evs[i].events & (EPOLLHUP | EPOLLERR)) != 0;
        out.push_back(ev);
      }
      return static_cast<size_t>(n);
    }
#endif
    const int n = ::poll(pfds_.data(), static_cast<nfds_t>(pfds_.size()),
                         timeout_ms);
    if (n <= 0) return 0;
    for (const pollfd& p : pfds_) {
      if (p.revents == 0) continue;
      PollerEvent ev;
      ev.fd = p.fd;
      ev.readable = (p.revents & POLLIN) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.hangup = (p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
      out.push_back(ev);
    }
    return static_cast<size_t>(n);
  }

 private:
#if defined(__linux__)
  static uint32_t EpollMask(bool rd, bool wr) {
    return (rd ? static_cast<uint32_t>(EPOLLIN) : 0u) |
           (wr ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  }
  int epfd_ = -1;
#endif
  static short PollMask(bool rd, bool wr) {
    return static_cast<short>((rd ? POLLIN : 0) | (wr ? POLLOUT : 0));
  }
  std::vector<pollfd> pfds_;
  std::unordered_map<int, size_t> index_;
};

/// Cross-thread wakeup for an event loop: eventfd on Linux, a
/// non-blocking pipe elsewhere. Signal() from any thread makes the
/// loop's poller return; Drain() resets it.
class WakeupFd {
 public:
  WakeupFd() = default;
  ~WakeupFd() { Close(); }
  WakeupFd(const WakeupFd&) = delete;
  WakeupFd& operator=(const WakeupFd&) = delete;

  Status Open() {
#if defined(__linux__)
    read_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (read_fd_ < 0) {
      return Status::IoError(std::string("eventfd: ") + std::strerror(errno));
    }
    write_fd_ = read_fd_;
    return Status::OK();
#else
    int fds[2];
    if (::pipe(fds) != 0) {
      return Status::IoError(std::string("pipe: ") + std::strerror(errno));
    }
    SetNonBlocking(fds[0]);
    SetNonBlocking(fds[1]);
    read_fd_ = fds[0];
    write_fd_ = fds[1];
    return Status::OK();
#endif
  }

  void Close() {
    if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
    if (read_fd_ >= 0) ::close(read_fd_);
    read_fd_ = write_fd_ = -1;
  }

  int read_fd() const { return read_fd_; }

  void Signal() {
    if (write_fd_ < 0) return;
    const uint64_t one = 1;
    // EAGAIN (counter/pipe full) is fine: a wakeup is already pending.
    const ssize_t n = ::write(write_fd_, &one, sizeof(one));
    (void)n;
  }

  void Drain() {
    if (read_fd_ < 0) return;
    char buf[64];
    while (::read(read_fd_, buf, sizeof(buf)) > 0) {
    }
  }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

}  // namespace

// ---------------------------------------------------------------------
// EventLoop: one thread owning a share of the connection population.
// ---------------------------------------------------------------------

/// A connection lives on exactly one loop for its whole life, so all its
/// state (buffers, parse position, wait registration) is plain data with
/// no locks. The only cross-thread surface is the Mailbox: the acceptor
/// posts fresh sockets, QueryTicket::OnTerminal callbacks post finished
/// long-poll responses, and both ring the wakeup fd so the poller
/// returns. The mailbox is a shared_ptr because a completion callback
/// can outlive the loop (a query retires after server Stop) —
/// it then finds `open == false` and drops the completion.
class HttpServer::EventLoop {
 public:
  explicit EventLoop(HttpServer& server)
      : server_(server), mailbox_(std::make_shared<Mailbox>()) {}
  ~EventLoop() { Stop(); }

  Status Start() {
    Status st = mailbox_->wake.Open();
    if (!st.ok()) return st;
    poller_ = std::make_unique<Poller>(server_.options_.force_poll_backend);
    poller_->Add(mailbox_->wake.read_fd(), /*rd=*/true, /*wr=*/false);
    stop_.store(false);
    thread_ = std::thread([this] { Run(); });
    return Status::OK();
  }

  /// Joins the loop thread and closes every owned socket. Stop is
  /// signalled via its own atomic, checked every tick — a lost wakeup
  /// (fault-injected or otherwise) can delay shutdown by at most one
  /// tick, never block it.
  void Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      {
        std::lock_guard<std::mutex> lock(mailbox_->mu);
        mailbox_->wake.Signal();
      }
      thread_.join();
    }
    std::lock_guard<std::mutex> lock(mailbox_->mu);
    mailbox_->open = false;
    for (int fd : mailbox_->new_fds) ::close(fd);
    mailbox_->new_fds.clear();
    mailbox_->completions.clear();
    mailbox_->wake.Close();
    for (auto& [fd, conn] : conns_) {
      (void)conn;
      ::close(fd);
    }
    conns_.clear();
    open_connections_.store(0, std::memory_order_relaxed);
    poller_.reset();
  }

  /// Hands a freshly accepted socket (already non-blocking) to this
  /// loop. Called from the acceptor thread.
  void AddConnection(int fd) {
    std::lock_guard<std::mutex> lock(mailbox_->mu);
    if (!mailbox_->open) {
      ::close(fd);
      return;
    }
    mailbox_->new_fds.push_back(fd);
    mailbox_->wake.Signal();
  }

  size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }
  uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }
  /// Pending cross-thread work not yet drained by the loop.
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mailbox_->mu);
    return mailbox_->new_fds.size() + mailbox_->completions.size();
  }

 private:
  /// A long-poll response rendered off-loop, addressed by (fd, gen,
  /// epoch) so a completion for a closed / recycled connection or an
  /// already-expired wait is dropped instead of answering the wrong
  /// request.
  struct Completion {
    int fd = -1;
    uint64_t gen = 0;
    uint64_t epoch = 0;
    std::string response;
  };

  struct Mailbox {
    mutable std::mutex mu;
    bool open = true;
    WakeupFd wake;
    std::vector<int> new_fds;
    std::vector<Completion> completions;
  };

  struct Conn {
    int fd = -1;
    uint64_t gen = 0;   ///< distinguishes reuses of the same fd number
    std::string in;     ///< unparsed request bytes
    std::string out;    ///< unflushed response bytes
    size_t out_off = 0;
    uint64_t served = 0;  ///< requests handled on this connection
    bool close_after_flush = false;
    bool want_write = false;   ///< registered for write readiness
    bool paused_read = false;  ///< read interest dropped (buffer full)
    /// Parsing is paused while a POST /query sits in the current
    /// admission wave; pipelined successors are answered after it.
    bool pending_submit = false;
    // Long-poll state: parsing is paused so pipelined successors are
    // answered in order after the deferred response.
    bool waiting = false;
    bool wait_keep_alive = true;
    uint64_t wait_epoch = 0;
    std::chrono::steady_clock::time_point wait_deadline{};
    std::optional<QueryTicket> wait_ticket;
    std::chrono::steady_clock::time_point last_activity{};
    /// First byte of the (partial) request at the head of `in` arrived
    /// here; exceeding connection_deadline_ms answers 408 (slow-loris).
    std::chrono::steady_clock::time_point request_start{};
  };

  /// One parsed POST /query awaiting the current admission wave.
  struct PendingSubmit {
    int fd = -1;
    uint64_t gen = 0;
    HttpServer::PreparedSubmit prep;
    bool keep_alive = true;
  };

  void Run() {
    std::vector<PollerEvent> events;
    const int wake_fd = mailbox_->wake.read_fd();
    while (!stop_.load(std::memory_order_relaxed)) {
      events.clear();
      const size_t n = poller_->Wait(kLoopTickMs, events);
      if (stop_.load(std::memory_order_relaxed)) break;
      if (n > 0) wakeups_.fetch_add(1, std::memory_order_relaxed);
      for (const PollerEvent& ev : events) {
        if (ev.fd == wake_fd) {
          if (KGAQ_FAULT_POINT("serve.loop.wakeup")) {
            // Injected dropped wakeup: neither drained nor dispatched.
            // The backend is level-triggered, so the still-readable
            // wakeup fd re-fires on the next Wait — the fault costs a
            // tick of latency, never a lost completion or connection.
            continue;
          }
          mailbox_->wake.Drain();
          DrainMailbox();
          continue;
        }
        if (ev.writable) FlushConn(ev.fd);
        auto it = conns_.find(ev.fd);
        if (it == conns_.end()) continue;
        if (ev.readable || ev.hangup) {
          if (it->second.paused_read) {
            // Read interest is off, so readiness here is a hangup: the
            // peer died while we were backpressuring it.
            if (ev.hangup) CloseConn(ev.fd);
          } else {
            ReadConn(ev.fd);
          }
        }
      }
      RunWork();
      SweepTimers();
      RunWork();
    }
  }

  /// Parses / responds / flushes until no connection has actionable
  /// input, dispatching each accumulated admission wave as it forms.
  /// Batching is what keeps high connection counts cheap: every POST
  /// /query parsed in this drain cycle joins ONE SubmitBatch call.
  void RunWork() {
    while (!dirty_.empty() || !batch_.empty()) {
      std::vector<int> work;
      work.swap(dirty_);
      for (int fd : work) ProcessConn(fd);
      if (!batch_.empty()) DispatchBatch();
    }
  }

  void DrainMailbox() {
    std::vector<int> fresh;
    std::vector<Completion> comps;
    {
      std::lock_guard<std::mutex> lock(mailbox_->mu);
      fresh.swap(mailbox_->new_fds);
      comps.swap(mailbox_->completions);
    }
    const auto now = std::chrono::steady_clock::now();
    for (int fd : fresh) {
      Conn c;
      c.fd = fd;
      c.gen = next_gen_++;
      c.last_activity = now;
      conns_.emplace(fd, std::move(c));
      poller_->Add(fd, /*rd=*/true, /*wr=*/false);
      open_connections_.store(conns_.size(), std::memory_order_relaxed);
    }
    for (Completion& comp : comps) {
      auto it = conns_.find(comp.fd);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
      if (c.gen != comp.gen || !c.waiting || c.wait_epoch != comp.epoch) {
        continue;  // connection recycled, or the wait already expired
      }
      c.waiting = false;
      c.wait_ticket.reset();
      Respond(c, std::move(comp.response), !c.wait_keep_alive);
      if (!c.in.empty()) c.request_start = now;
      dirty_.push_back(comp.fd);
    }
  }

  /// Incremental pipelined parsing: frames as many complete requests as
  /// the buffer holds, stopping at a deferred response (admission wave
  /// or long-poll wait) so responses keep request order.
  void ProcessConn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& c = it->second;
    const size_t max_head = server_.options_.max_header_bytes;
    while (!c.waiting && !c.pending_submit && !c.close_after_flush) {
      const size_t header_end = c.in.find("\r\n\r\n");
      if (header_end == std::string::npos) {
        if (c.in.size() > max_head) {
          Fail(c, 431, "request head exceeds " + std::to_string(max_head) +
                           " bytes");
        }
        break;
      }
      if (header_end + 4 > max_head) {
        Fail(c, 431, "request head exceeds " + std::to_string(max_head) +
                         " bytes");
        break;
      }
      const std::string head = c.in.substr(0, header_end);
      const size_t line_end = head.find("\r\n");
      const std::string request_line =
          line_end == std::string::npos ? head : head.substr(0, line_end);
      const size_t sp1 = request_line.find(' ');
      const size_t sp2 = sp1 == std::string::npos
                             ? std::string::npos
                             : request_line.find(' ', sp1 + 1);
      if (sp1 == std::string::npos || sp2 == std::string::npos) {
        Fail(c, 400, "malformed request line");
        break;
      }
      const std::string method = request_line.substr(0, sp1);
      const std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::string version = request_line.substr(sp2 + 1);

      // Header scan (case-insensitive): Content-Length frames the body,
      // Connection decides keep-alive.
      std::string lower = head;
      for (char& ch : lower) {
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      }
      size_t content_length = 0;
      {
        const size_t pos = lower.find("content-length:");
        if (pos != std::string::npos) {
          content_length =
              std::strtoull(head.c_str() + pos + 15, nullptr, 10);
        }
      }
      std::string conn_token;
      {
        const size_t pos = lower.find("connection:");
        if (pos != std::string::npos) {
          size_t v = pos + 11;
          while (v < lower.size() && (lower[v] == ' ' || lower[v] == '\t')) {
            ++v;
          }
          size_t e = lower.find("\r\n", v);
          if (e == std::string::npos) e = lower.size();
          while (e > v && (lower[e - 1] == ' ' || lower[e - 1] == '\t')) {
            --e;
          }
          conn_token = lower.substr(v, e - v);
        }
      }
      if (content_length > server_.options_.max_request_bytes) {
        Fail(c, 413, "body exceeds limit");
        break;
      }
      const size_t total = header_end + 4 + content_length;
      if (c.in.size() < total) break;  // body still in flight

      const std::string body = c.in.substr(header_end + 4, content_length);
      c.in.erase(0, total);
      if (!c.in.empty()) {
        // The next (pipelined) request's 408 budget starts now.
        c.request_start = std::chrono::steady_clock::now();
      }
      server_.requests_parsed_.fetch_add(1, std::memory_order_relaxed);
      server_.requests_.fetch_add(1, std::memory_order_relaxed);
      if (c.served > 0) {
        server_.keepalive_reuses_.fetch_add(1, std::memory_order_relaxed);
      }
      c.served += 1;
      // HTTP/1.1 defaults to keep-alive, anything else to close.
      bool keep_alive = version == "HTTP/1.1" ? conn_token != "close"
                                              : conn_token == "keep-alive";
      const size_t max_requests = server_.options_.max_keepalive_requests;
      if (max_requests > 0 && c.served >= max_requests) keep_alive = false;
      HandleRequest(c, method, target, body, keep_alive);
    }
    if (!c.close_after_flush && c.paused_read &&
        c.in.size() < InBufferCap()) {
      c.paused_read = false;
      poller_->Mod(c.fd, /*rd=*/true, c.want_write);
    }
    FlushConn(fd);
  }

  void HandleRequest(Conn& c, const std::string& method,
                     const std::string& target, const std::string& body,
                     bool keep_alive) {
    const size_t qmark = target.find('?');
    const std::string path =
        qmark == std::string::npos ? target : target.substr(0, qmark);
    const std::string query_string =
        qmark == std::string::npos ? "" : target.substr(qmark + 1);

    if (path == "/query" && method == "POST") {
      HttpServer::PreparedSubmit prep =
          server_.PrepareSubmit(query_string, body);
      if (!prep.ok) {
        Respond(c, std::move(prep.error_response), /*close_after=*/true);
        return;
      }
      // Defer: every submission parsed within this drain cycle joins
      // one admission wave (QueryService::SubmitBatch) in
      // DispatchBatch, so a thousand connections submitting at once
      // cost one service lock.
      PendingSubmit ps;
      ps.fd = c.fd;
      ps.gen = c.gen;
      ps.prep = std::move(prep);
      ps.keep_alive = keep_alive;
      batch_.push_back(std::move(ps));
      c.pending_submit = true;
      return;
    }

    if (method == "GET" && path.rfind("/result/", 0) == 0) {
      double wait_ms = 0.0;
      bool wait_ok = true;
      for (const auto& [key, value] : ParseQueryParams(query_string)) {
        if (key != "wait") continue;
        auto w = ParseDoubleValue(value);
        if (!w.has_value()) {
          wait_ok = false;
          break;
        }
        wait_ms = *w;
      }
      if (wait_ok && wait_ms > 0.0) {
        std::optional<QueryTicket> ticket =
            server_.FindTicket(path.substr(8));
        if (ticket.has_value() && !IsTerminalState(ticket->Poll().state)) {
          BeginWait(c, *ticket, wait_ms, keep_alive);
          return;
        }
      }
      // Unknown id, unparseable wait, or already-terminal ticket:
      // Dispatch answers immediately (its WaitFor returns at once).
    }

    std::string response =
        server_.Dispatch(method, target, body, keep_alive);
    const int code = ResponseStatusCode(response);
    Respond(c, std::move(response),
            !keep_alive || ResponseClosesConnection(code));
  }

  /// Defers this request's response until the query retires (pushed by
  /// the retiring worker through the mailbox) or the wait expires.
  void BeginWait(Conn& c, QueryTicket& ticket, double wait_ms,
                 bool keep_alive) {
    c.waiting = true;
    c.wait_keep_alive = keep_alive;
    c.wait_epoch += 1;
    c.wait_ticket = ticket;
    c.wait_deadline = std::chrono::steady_clock::now() +
                      MsDuration(std::min(wait_ms, kMaxLongPollMs));
    std::shared_ptr<Mailbox> mb = mailbox_;
    const int fd = c.fd;
    const uint64_t gen = c.gen;
    const uint64_t epoch = c.wait_epoch;
    ticket.OnTerminal(
        [mb, fd, gen, epoch, keep_alive](const QueryResponse& resp) {
          // Runs on the retiring pool worker (or inline when the ticket went
          // terminal while BeginWait set up): render here so the loop
          // only splices bytes.
          std::string body;
          AppendTicketJson(body, resp);
          Completion comp;
          comp.fd = fd;
          comp.gen = gen;
          comp.epoch = epoch;
          comp.response =
              MakeResponse(200, "application/json", body, keep_alive);
          std::lock_guard<std::mutex> lock(mb->mu);
          if (!mb->open) return;
          mb->completions.push_back(std::move(comp));
          mb->wake.Signal();
        });
  }

  /// Submits the accumulated admission wave as ONE QueryService batch
  /// and finishes each response. A submission whose connection died
  /// meanwhile still registers its ticket (the query was admitted and
  /// runs); only the response bytes are dropped.
  void DispatchBatch() {
    std::vector<PendingSubmit> wave;
    wave.swap(batch_);
    std::vector<QueryRequest> requests;
    requests.reserve(wave.size());
    for (PendingSubmit& ps : wave) {
      requests.push_back(std::move(ps.prep.request));
    }
    std::vector<QueryTicket> tickets =
        server_.service_.SubmitBatch(std::move(requests));
    for (size_t i = 0; i < wave.size(); ++i) {
      std::string response = server_.FinishSubmit(
          wave[i].prep, std::move(tickets[i]), wave[i].keep_alive);
      auto it = conns_.find(wave[i].fd);
      if (it == conns_.end() || it->second.gen != wave[i].gen) continue;
      Conn& c = it->second;
      c.pending_submit = false;
      if (!c.in.empty()) {
        c.request_start = std::chrono::steady_clock::now();
      }
      const int code = ResponseStatusCode(response);
      Respond(c, std::move(response),
              !wave[i].keep_alive || ResponseClosesConnection(code));
      dirty_.push_back(wave[i].fd);
    }
  }

  void ReadConn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& c = it->second;
    if (KGAQ_FAULT_POINT("http.conn.read_error")) {
      CloseConn(fd);
      return;
    }
    char chunk[16384];
    const bool was_empty = c.in.empty();
    bool progress = false;
    for (;;) {
      if (c.in.size() >= InBufferCap()) {
        // Backpressure: a paused connection (long-poll wait, admission
        // wave) kept pipelining. Stop reading until parsing frees room,
        // instead of buffering without bound.
        c.paused_read = true;
        poller_->Mod(fd, /*rd=*/false, c.want_write);
        break;
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        c.in.append(chunk, static_cast<size_t>(n));
        progress = true;
        if (static_cast<size_t>(n) < sizeof(chunk)) break;
        continue;
      }
      if (n == 0) {  // peer closed
        CloseConn(fd);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(fd);
      return;
    }
    if (progress) {
      c.last_activity = std::chrono::steady_clock::now();
      if (was_empty) c.request_start = c.last_activity;
      dirty_.push_back(fd);
    }
  }

  void FlushConn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& c = it->second;
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
        c.last_activity = std::chrono::steady_clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c.want_write) {
          c.want_write = true;
          poller_->Mod(fd, !c.paused_read, /*wr=*/true);
        }
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      CloseConn(fd);
      return;
    }
    c.out.clear();
    c.out_off = 0;
    if (c.want_write) {
      c.want_write = false;
      poller_->Mod(fd, !c.paused_read, /*wr=*/false);
    }
    if (c.close_after_flush) CloseConn(fd);
  }

  /// Loop-driven timers, swept every tick: silent reaping of idle
  /// keep-alive connections, 408 for requests trickling past the
  /// deadline (slow-loris), and long-poll expiry (answered with the
  /// live non-terminal snapshot).
  void SweepTimers() {
    const auto now = std::chrono::steady_clock::now();
    const double idle_ms = server_.options_.idle_timeout_ms;
    const double request_ms = server_.options_.connection_deadline_ms;
    std::vector<int> idle_close, timed_out, expired_waits;
    for (auto& [fd, c] : conns_) {
      if (c.waiting) {
        if (now >= c.wait_deadline) expired_waits.push_back(fd);
        continue;
      }
      if (c.pending_submit) continue;
      if (!c.in.empty()) {
        if (request_ms > 0 && ElapsedMs(c.request_start, now) > request_ms) {
          timed_out.push_back(fd);
        }
        continue;
      }
      if (c.out.empty() && !c.close_after_flush && idle_ms > 0 &&
          ElapsedMs(c.last_activity, now) > idle_ms) {
        idle_close.push_back(fd);
      }
    }
    // Idle reap closes silently — the client just reconnects.
    for (int fd : idle_close) CloseConn(fd);
    for (int fd : timed_out) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Fail(it->second, 408, "connection deadline exceeded mid-request");
      FlushConn(fd);
    }
    for (int fd : expired_waits) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
      c.waiting = false;
      c.wait_epoch += 1;  // orphan the in-flight completion, if any
      std::string body;
      AppendTicketJson(body, c.wait_ticket->Poll());
      c.wait_ticket.reset();
      Respond(c,
              MakeResponse(200, "application/json", body, c.wait_keep_alive),
              !c.wait_keep_alive);
      if (!c.in.empty()) c.request_start = now;
      dirty_.push_back(fd);
    }
  }

  /// Parse-layer failure: counts a (bad) request and closes after the
  /// flush — past this point the input stream is unframeable.
  void Fail(Conn& c, int code, const std::string& msg) {
    server_.requests_.fetch_add(1, std::memory_order_relaxed);
    server_.bad_requests_.fetch_add(1, std::memory_order_relaxed);
    Respond(c, JsonError(code, msg, /*keep_alive=*/false),
            /*close_after=*/true);
  }

  void Respond(Conn& c, std::string response, bool close_after) {
    c.out += response;
    if (close_after) c.close_after_flush = true;
  }

  void CloseConn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    poller_->Del(fd);
    ::close(fd);
    conns_.erase(it);
    open_connections_.store(conns_.size(), std::memory_order_relaxed);
  }

  /// Per-connection input cap: one maximal request plus slack. Beyond
  /// it reads pause (see ReadConn) rather than buffering unboundedly.
  size_t InBufferCap() const {
    return server_.options_.max_request_bytes +
           server_.options_.max_header_bytes + 4096;
  }

  HttpServer& server_;
  std::shared_ptr<Mailbox> mailbox_;
  std::unique_ptr<Poller> poller_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::unordered_map<int, Conn> conns_;
  std::atomic<size_t> open_connections_{0};
  std::atomic<uint64_t> wakeups_{0};
  uint64_t next_gen_ = 1;
  std::vector<int> dirty_;           ///< fds with actionable input
  std::vector<PendingSubmit> batch_; ///< current admission wave
};

// ---------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------

HttpServer::HttpServer(QueryService& service, HttpServerOptions options)
    : service_(service), options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (listen_fd_ >= 0) return Status::FailedPrecondition("already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparseable bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen: " + err);
  }

  stopping_.store(false);
  if (options_.model == ServerModel::kEventLoop) {
    const size_t nloops = std::max<size_t>(1, options_.event_threads);
    loops_.reserve(nloops);
    for (size_t i = 0; i < nloops; ++i) {
      loops_.emplace_back(std::make_unique<EventLoop>(*this));
      Status st = loops_.back()->Start();
      if (!st.ok()) {
        for (auto& loop : loops_) loop->Stop();
        loops_.clear();
        ::close(listen_fd_);
        listen_fd_ = -1;
        return st;
      }
    }
    accept_thread_ =
        std::thread([this, fd = listen_fd_] { AcceptLoopEvented(fd); });
    return Status::OK();
  }

  // The accept thread works on its own copy of the fd, so Stop() never
  // races its reads; the fd itself is closed only after the join.
  accept_thread_ =
      std::thread([this, fd = listen_fd_] { AcceptLoopBlocking(fd); });
  const size_t handlers = std::max<size_t>(1, options_.num_handler_threads);
  handlers_.reserve(handlers);
  for (size_t i = 0; i < handlers; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable() && loops_.empty()) return;
  stopping_.store(true);
  if (listen_fd_ >= 0) {
    // shutdown() wakes the blocking accept(); the close itself waits
    // until the accept thread has joined, so the fd number cannot be
    // recycled under a still-running accept().
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  {
    // Taken-and-released around the flag so a handler that already
    // evaluated its wait predicate cannot block between this store and
    // the notify (the classic missed-wakeup race).
    std::lock_guard<std::mutex> lock(conn_mu_);
    stopping_.store(true);
  }
  conn_available_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  for (auto& loop : loops_) loop->Stop();
  loops_.clear();
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (int fd : connections_) ::close(fd);
  connections_.clear();
}

HttpServer::Stats HttpServer::stats() const {
  Stats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.keepalive_reuses = keepalive_reuses_.load(std::memory_order_relaxed);
  out.requests_parsed = requests_parsed_.load(std::memory_order_relaxed);
  for (const auto& loop : loops_) {
    out.open_connections += loop->open_connections();
    out.loop_wakeups += loop->wakeups();
    out.loop_queue_depths.push_back(loop->queue_depth());
    out.loop_connections.push_back(loop->open_connections());
  }
  return out;
}

void HttpServer::AcceptLoopEvented(int listen_fd) {
  size_t next = 0;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (stopping_.load()) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: back off instead of spinning; pending
        // connections wait in the listen backlog meanwhile.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listener closed
    }
    SetNonBlocking(fd);
    SetNoDelay(fd);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // Round-robin: a connection is owned by one loop for life.
    loops_[next]->AddConnection(fd);
    next = (next + 1) % loops_.size();
  }
}

void HttpServer::AcceptLoopBlocking(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (stopping_.load()) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.push_back(fd);
    }
    conn_available_.notify_one();
  }
}

void HttpServer::HandlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(conn_mu_);
      conn_available_.wait(lock, [&] {
        return stopping_.load() || !connections_.empty();
      });
      if (stopping_.load() && connections_.empty()) return;
      fd = connections_.front();
      connections_.pop_front();
    }
    HandleConnection(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  const auto set_timeout = [fd](int which, double ms) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(static_cast<long>(ms * 1000.0) %
                                          1000000);
    ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
  };
  set_timeout(SO_RCVTIMEO, options_.read_timeout_ms);
  set_timeout(SO_SNDTIMEO, options_.write_timeout_ms);

  // Per-recv timeouts alone don't stop a slow-loris client that feeds a
  // byte every few seconds; the whole connection also runs against one
  // wall-clock deadline.
  const auto conn_deadline =
      std::chrono::steady_clock::now() +
      MsDuration(options_.connection_deadline_ms);
  const auto past_deadline = [&conn_deadline] {
    return std::chrono::steady_clock::now() >= conn_deadline;
  };

  std::string buf;
  size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0 || KGAQ_FAULT_POINT("http.conn.read_error")) {
      ::close(fd);
      return;  // timeout, reset, or client gave up mid-head
    }
    buf.append(chunk, static_cast<size_t>(n));
    header_end = buf.find("\r\n\r\n");
    if (buf.size() > options_.max_request_bytes) {
      requests_.fetch_add(1, std::memory_order_relaxed);
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      SendAll(fd, JsonError(413, "request exceeds limit", false));
      ::close(fd);
      return;
    }
    if (header_end == std::string::npos && past_deadline()) {
      requests_.fetch_add(1, std::memory_order_relaxed);
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      SendAll(fd,
              JsonError(408, "connection deadline exceeded mid-head", false));
      ::close(fd);
      return;
    }
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Request line: METHOD SP TARGET SP VERSION.
  const std::string head = buf.substr(0, header_end);
  const size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    SendAll(fd, JsonError(400, "malformed request line", false));
    ::close(fd);
    return;
  }
  const std::string method = request_line.substr(0, sp1);
  const std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);

  // Body by Content-Length (case-insensitive header scan).
  size_t content_length = 0;
  {
    std::string lower = head;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    const size_t pos = lower.find("content-length:");
    if (pos != std::string::npos) {
      content_length = std::strtoull(head.c_str() + pos + 15, nullptr, 10);
    }
  }
  if (content_length > options_.max_request_bytes) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    SendAll(fd, JsonError(413, "body exceeds limit", false));
    ::close(fd);
    return;
  }
  std::string body = buf.substr(header_end + 4);
  while (body.size() < content_length) {
    if (past_deadline()) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      SendAll(fd,
              JsonError(408, "connection deadline exceeded mid-body", false));
      ::close(fd);
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0 || KGAQ_FAULT_POINT("http.conn.read_error")) {
      // A stalled or reset client left the body short. Never dispatch a
      // truncated body: a wire-format prefix cut at a clause boundary is
      // itself a valid (different) query.
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      SendAll(fd, JsonError(400,
                            "body truncated: got " +
                                std::to_string(body.size()) + " of " +
                                std::to_string(content_length) +
                                " Content-Length bytes",
                            false));
      ::close(fd);
      return;
    }
    body.append(chunk, static_cast<size_t>(n));
  }
  body.resize(content_length);

  const std::string response =
      Dispatch(method, target, body, /*keep_alive=*/false);
  SendAll(fd, response);
  ::close(fd);
}

HttpServer::PreparedSubmit HttpServer::PrepareSubmit(
    const std::string& query_string, const std::string& body) {
  PreparedSubmit prep;
  const auto fail = [&](const std::string& msg) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    prep.ok = false;
    // Submission parse errors always close: 400 is in the
    // unframeable-stream class.
    prep.error_response = JsonError(400, msg, /*keep_alive=*/false);
    return prep;
  };
  auto query = ParseAggregateQuery(body);
  if (!query.ok()) {
    return fail(query.status().message());
  }
  prep.request.query = std::move(*query);
  for (const auto& [key, value] : ParseQueryParams(query_string)) {
    if (key == "eb") {
      auto v = ParseDoubleValue(value);
      if (!v.has_value()) return fail("unparseable eb value");
      prep.request.error_bound = *v;
    } else if (key == "conf") {
      auto v = ParseDoubleValue(value);
      if (!v.has_value()) return fail("unparseable conf value");
      prep.request.confidence_level = *v;
    } else if (key == "seed") {
      auto v = ParseUint64Value(value);
      if (!v.has_value()) return fail("unparseable seed value");
      prep.request.seed = *v;
    } else if (key == "max_rounds") {
      auto v = ParseUint64Value(value);
      if (!v.has_value()) return fail("unparseable max_rounds value");
      prep.request.max_rounds = static_cast<size_t>(*v);
    } else if (key == "deadline_ms") {
      auto v = ParseDoubleValue(value);
      if (!v.has_value()) return fail("unparseable deadline_ms value");
      prep.request.deadline_ms = *v;
    } else {
      return fail("unknown parameter '" + key +
                  "' (eb, conf, seed, max_rounds, deadline_ms)");
    }
  }
  prep.canonical = FormatAggregateQuery(prep.request.query);
  prep.ok = true;
  return prep;
}

std::string HttpServer::FinishSubmit(const PreparedSubmit& prep,
                                     QueryTicket ticket, bool keep_alive) {
  {
    // A rejected submission comes back already terminal (bounded queue
    // full, shedding, or shutdown). Map its status through the shared
    // taxonomy — 429 or 503 — with a Retry-After paced to the queue's
    // observed drain rate, and never register it: the id is spent and
    // there is nothing to poll. Rejections keep the connection alive —
    // the retrying client comes back over the same socket.
    const QueryResponse birth = ticket.Poll();
    if (birth.state == QueryState::kFailed &&
        (birth.status.code() == StatusCode::kResourceExhausted ||
         birth.status.code() == StatusCode::kUnavailable)) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      return JsonError(HttpStatusForCode(birth.status.code()),
                       birth.status.message(), keep_alive,
                       RetryAfterHeader(service_.stats().retry_after_ms));
    }
  }
  RegisterTicket(ticket);
  // An accepted submission answers with its state at acceptance: the
  // query may already be running, or even done, on the pool by now, and
  // /result/<id> reports the live state.
  std::string out = "{\"id\":" + std::to_string(ticket.id());
  out += ",\"state\":\"";
  out += QueryStateToString(QueryState::kQueued);
  out += "\",\"query\":";
  AppendJsonString(out, prep.canonical);
  out += "}\n";
  return MakeResponse(202, "application/json", out, keep_alive);
}

void HttpServer::RegisterTicket(const QueryTicket& ticket) {
  std::lock_guard<std::mutex> lock(tickets_mu_);
  tickets_.emplace(ticket.id(), ticket);
  ticket_order_.push_back(ticket.id());
  // Bounded registry: evict the oldest submissions (any external
  // ticket copies stay valid; the evicted id just answers 404).
  while (tickets_.size() >
         std::max<size_t>(1, options_.max_tracked_tickets)) {
    tickets_.erase(ticket_order_.front());
    ticket_order_.pop_front();
  }
}

std::optional<QueryTicket> HttpServer::FindTicket(
    const std::string& id_text) {
  auto id = ParseUint64Value(id_text);
  if (!id.has_value()) return std::nullopt;
  std::lock_guard<std::mutex> lock(tickets_mu_);
  auto it = tickets_.find(*id);
  if (it == tickets_.end()) return std::nullopt;
  return it->second;
}

std::string HttpServer::Dispatch(const std::string& method,
                                 const std::string& target,
                                 const std::string& body, bool keep_alive) {
  const size_t qmark = target.find('?');
  const std::string path =
      qmark == std::string::npos ? target : target.substr(0, qmark);
  const std::string query_string =
      qmark == std::string::npos ? "" : target.substr(qmark + 1);

  auto bad = [this, keep_alive](int code, const std::string& msg) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    // 400 means the stream is unframeable and the connection closes;
    // routing errors keep it alive.
    return JsonError(code, msg, keep_alive && code != 400);
  };

  if (path == "/healthz") {
    // Healthy keeps the historical "ok" body; load balancers checking
    // for 200 see Saturated replicas as alive but can read the body to
    // deprioritize them, and Shedding replicas drain via plain 503. A
    // non-Healthy memory-pressure state is appended as a body suffix
    // (" memory:pressured" / " memory:critical") without changing the
    // status code — pressure degrades cache builds, not availability.
    std::string memory_suffix;
    const MemoryPressure pressure = service_.context()->memory_pressure();
    if (pressure != MemoryPressure::kHealthy) {
      memory_suffix =
          std::string(" memory:") + MemoryPressureToString(pressure);
    }
    // Subsystem suffixes (e.g. the shard tier's " shards:degraded") ride
    // the same body; they inform without changing the status code.
    if (health_augmenter_) memory_suffix += health_augmenter_();
    switch (service_.overload_state()) {
      case OverloadState::kHealthy:
        return MakeResponse(200, "text/plain", "ok" + memory_suffix + "\n",
                            keep_alive);
      case OverloadState::kSaturated:
        return MakeResponse(200, "text/plain",
                            "saturated" + memory_suffix + "\n", keep_alive);
      case OverloadState::kShedding:
        return MakeResponse(
            503, "text/plain", "shedding" + memory_suffix + "\n", keep_alive,
            RetryAfterHeader(service_.stats().retry_after_ms));
    }
    return MakeResponse(200, "text/plain", "ok" + memory_suffix + "\n",
                        keep_alive);
  }

  if (path == "/stats") {
    const QueryService::ServiceStats s = service_.stats();
    const EngineContext::CacheStats c = service_.context()->Stats();
    const Stats h = stats();
    std::string out = "{\"service\":{";
    out += "\"submitted\":" + std::to_string(s.submitted);
    out += ",\"done\":" + std::to_string(s.done);
    out += ",\"failed\":" + std::to_string(s.failed);
    out += ",\"cancelled\":" + std::to_string(s.cancelled);
    out += ",\"deadline_expired\":" + std::to_string(s.deadline_expired);
    out += ",\"rejected\":" + std::to_string(s.rejected);
    out += ",\"shed\":" + std::to_string(s.shed);
    out += ",\"degraded\":" + std::to_string(s.degraded);
    out += ",\"queued\":" + std::to_string(s.queued);
    out += ",\"running\":" + std::to_string(s.running);
    out += ",\"overload\":\"";
    out += OverloadStateToString(s.overload);
    out += "\",\"retry_after_ms\":";
    AppendRoundTripDouble(out, s.retry_after_ms);
    out += ",\"scheduler_wakeups\":" + std::to_string(s.scheduler_wakeups);
    out += ",\"last_tick_age_ms\":";
    AppendRoundTripDouble(out, s.last_tick_age_ms);
    out += ",\"watchdog_stalls\":" + std::to_string(s.watchdog_stalls);
    out += ",\"memory_pressure\":\"";
    out += MemoryPressureToString(s.memory_pressure);
    out += "\"},\"http\":{";
    out += "\"requests\":" + std::to_string(h.requests);
    out += ",\"bad_requests\":" + std::to_string(h.bad_requests);
    out += "},\"server\":{";
    // Front-door counters (all zero under kBlockingThreads, whose
    // connections are one-shot and untracked): the per-stage profiler
    // view of the event loops.
    out += "\"connections_accepted\":" +
           std::to_string(h.connections_accepted);
    out += ",\"open_connections\":" + std::to_string(h.open_connections);
    out += ",\"keepalive_reuses\":" + std::to_string(h.keepalive_reuses);
    out += ",\"requests_parsed\":" + std::to_string(h.requests_parsed);
    out += ",\"loop_wakeups\":" + std::to_string(h.loop_wakeups);
    out += ",\"loops\":[";
    for (size_t i = 0; i < h.loop_queue_depths.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"connections\":" + std::to_string(h.loop_connections[i]);
      out += ",\"queue_depth\":" + std::to_string(h.loop_queue_depths[i]);
      out += '}';
    }
    out += "]},\"caches\":{\"sims\":{";
    out += "\"hits\":" + std::to_string(c.sims_hits);
    out += ",\"misses\":" + std::to_string(c.sims_misses);
    out += ",\"entries\":" + std::to_string(c.sims_entries);
    out += ",\"bytes\":" + std::to_string(c.sims_bytes);
    out += "},\"cores\":{";
    out += "\"hits\":" + std::to_string(c.core_hits);
    out += ",\"misses\":" + std::to_string(c.core_misses);
    out += ",\"entries\":" + std::to_string(c.core_entries);
    out += ",\"bytes\":" + std::to_string(c.core_bytes);
    out += "},\"plans\":{";
    out += "\"hits\":" + std::to_string(c.plan_hits);
    out += ",\"misses\":" + std::to_string(c.plan_misses);
    out += ",\"entries\":" + std::to_string(c.plan_entries);
    out += ",\"bytes\":" + std::to_string(c.plan_bytes);
    out += "},\"chain\":{";
    out += "\"hits\":" + std::to_string(c.chain_hits);
    out += ",\"misses\":" + std::to_string(c.chain_misses);
    out += ",\"entries\":" + std::to_string(c.chain_entries);
    out += ",\"bytes\":" + std::to_string(c.chain_bytes);
    out += "},\"governor\":{";
    out += "\"budget_bytes\":" + std::to_string(c.budget_bytes);
    out += ",\"charged_bytes\":" + std::to_string(c.charged_bytes);
    out += ",\"pinned_bytes\":" + std::to_string(c.pinned_bytes);
    out += ",\"pressure\":\"";
    out += MemoryPressureToString(c.pressure);
    out += "\",\"evictions\":" + std::to_string(c.evictions);
    out += ",\"admission_rejects\":" + std::to_string(c.admission_rejects);
    out += ",\"shed_builds\":" + std::to_string(c.shed_builds);
    out += ",\"alloc_failures\":" + std::to_string(c.alloc_failures);
    out += ",\"build_failures\":" + std::to_string(c.build_failures);
    out += "},\"total_bytes\":" + std::to_string(c.TotalBytes());
    out += "}";
    if (stats_augmenter_) {
      const std::string extra = stats_augmenter_();
      if (!extra.empty()) {
        out += ',';
        out += extra;
      }
    }
    out += "}\n";
    return MakeResponse(200, "application/json", out, keep_alive);
  }

  if (path == "/query") {
    if (method != "POST") {
      return bad(405, "submit queries with POST /query");
    }
    PreparedSubmit prep = PrepareSubmit(query_string, body);
    if (!prep.ok) return prep.error_response;
    QueryTicket ticket = service_.SubmitAsync(std::move(prep.request));
    return FinishSubmit(prep, std::move(ticket), keep_alive);
  }

  if (path.rfind("/result/", 0) == 0) {
    auto ticket = FindTicket(path.substr(8));
    if (!ticket.has_value()) {
      return bad(404, "unknown query id '" + path.substr(8) + "'");
    }
    double wait_ms = 0.0;
    for (const auto& [key, value] : ParseQueryParams(query_string)) {
      if (key != "wait") continue;
      auto w = ParseDoubleValue(value);
      if (!w.has_value()) return bad(400, "unparseable wait value");
      wait_ms = *w;
    }
    if (wait_ms > 0.0) {
      // Blocking model (and the already-terminal fast path under the
      // event loop, whose loops intercept live waits before Dispatch):
      // park this handler thread for up to the clamped wait.
      ticket->WaitFor(std::min(wait_ms, kMaxLongPollMs));
    }
    std::string out;
    AppendTicketJson(out, ticket->Poll());
    return MakeResponse(200, "application/json", out, keep_alive);
  }

  if (path.rfind("/cancel/", 0) == 0) {
    auto ticket = FindTicket(path.substr(8));
    if (!ticket.has_value()) {
      return bad(404, "unknown query id '" + path.substr(8) + "'");
    }
    ticket->Cancel();
    std::string out;
    AppendTicketJson(out, ticket->Poll());
    return MakeResponse(200, "application/json", out, keep_alive);
  }

  if (extra_handler_) {
    if (auto handled = extra_handler_(method, path, body)) {
      if (handled->first >= 400) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
      }
      return MakeResponse(handled->first, "text/plain", handled->second,
                          keep_alive);
    }
  }

  return bad(404, "no route for '" + path + "'");
}

std::string ExtractJsonField(const std::string& body,
                             const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = body.find(needle);
  if (pos == std::string::npos) return "";
  size_t i = pos + needle.size();
  if (i < body.size() && body[i] == '"') {
    ++i;
    std::string out;
    while (i < body.size() && body[i] != '"') {
      if (body[i] != '\\' || i + 1 >= body.size()) {
        out += body[i++];
        continue;
      }
      // Invert exactly what AppendJsonString emits.
      const char esc = body[i + 1];
      i += 2;
      switch (esc) {
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = 0;
          if (i + 4 <= body.size()) {
            code = static_cast<unsigned>(
                std::strtoul(body.substr(i, 4).c_str(), nullptr, 16));
            i += 4;
          }
          out += static_cast<char>(code);
          break;
        }
        default:  // \" and \\ (and anything else) decode to the char
          out += esc;
      }
    }
    return out;
  }
  size_t end = i;
  while (end < body.size() && body[end] != ',' && body[end] != '}' &&
         body[end] != ']') {
    ++end;
  }
  return body.substr(i, end - i);
}

}  // namespace kgaq
