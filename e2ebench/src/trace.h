#ifndef KGAQ_E2EBENCH_TRACE_H_
#define KGAQ_E2EBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around its calls into the library's public
// functions (the library itself is not instrumented), kept in memory
// and written out once the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline Clock::time_point AddMs(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0: root span
  uint64_t request = 0;  ///< spans of one query share this
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-name aggregate of the recorded spans. Self time is a span's
/// duration minus the part of its interval covered by its children.
struct SpanSummary {
  std::string name;
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Reserves a span id, so children can name a parent that is recorded
  /// after them. Returns 0 when tracing is off.
  uint64_t NewId() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  /// Records a finished span under a reserved id (no-op when off).
  void Record(uint64_t id, std::string name, uint64_t request,
              uint64_t parent, Clock::time_point start,
              Clock::time_point end);

  /// Reserves an id and records in one call; returns the id.
  uint64_t Record(std::string name, uint64_t request, uint64_t parent,
                  Clock::time_point start, Clock::time_point end) {
    const uint64_t id = NewId();
    Record(id, std::move(name), request, parent, start, end);
    return id;
  }

  /// Self time of every span named `name`, in ms, one entry per span.
  std::vector<double> SelfTimesMs(const std::string& name) const;

  /// Aggregates by span name, in first-recorded order.
  std::vector<SpanSummary> Summarize() const;

  /// Writes every span as a Chrome trace-event JSON file (load it in
  /// chrome://tracing or Perfetto). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  /// Self time per span, index-aligned with spans_. Caller holds mu_.
  std::vector<double> SelfTimesLocked() const;

  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

}  // namespace e2ebench

#endif  // KGAQ_E2EBENCH_TRACE_H_
