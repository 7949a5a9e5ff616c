#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace e2ebench {

void Tracer::Record(uint64_t id, std::string name, uint64_t request,
                    uint64_t parent, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  Span s{id, parent, request, std::move(name), start, std::max(start, end)};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::SelfTimesLocked() const {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) index_of[spans_[i].id] = i;
  // Children intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    auto it = index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const Span& p = spans_[it->second];
    const auto lo = std::max(s.start, p.start);
    const auto hi = std::min(s.end, p.end);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point cur_lo{}, cur_hi{};
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += MsBetween(cur_lo, cur_hi);
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += MsBetween(cur_lo, cur_hi);
    self[i] = MsBetween(spans_[i].start, spans_[i].end) - covered;
  }
  return self;
}

std::vector<double> Tracer::SelfTimesMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfTimesLocked();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self[i]);
  }
  return out;
}

std::vector<SpanSummary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfTimesLocked();
  std::vector<SpanSummary> out;
  std::map<std::string, size_t> slot;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, inserted] = slot.emplace(s.name, out.size());
    if (inserted) out.push_back(SpanSummary{s.name});
    SpanSummary& sum = out[it->second];
    ++sum.count;
    sum.total_ms += MsBetween(s.start, s.end);
    sum.self_ms += self[i];
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.request),
                 MsBetween(origin, s.start) * 1000.0,
                 MsBetween(s.start, s.end) * 1000.0,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
