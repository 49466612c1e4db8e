#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, dot) : std::string(name);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    intervals.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> self_ns_by_layer(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[layer_of(spans[i].name)] += static_cast<double>(self[i]);
  }
  return out;
}

std::size_t SpanBuffer::open(const char* name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void SpanBuffer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  count(spans_[index].name, 1);
}

void SpanBuffer::count(const std::string& name, double delta) {
  if (enabled_) counts_[name] += delta;
}

void Trace::merge(SpanBuffer&& buffer) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span span : buffer.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  for (const auto& [name, value] : buffer.counts_) counts_[name] += value;
  buffer.spans_.clear();
  buffer.stack_.clear();
  buffer.counts_.clear();
}

double Trace::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

bool Trace::write_jsonl(const std::string& path, std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"i\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"id\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "{\"written\":%zu,\"total\":%zu}\n", n, spans_.size());
  return std::fclose(f) == 0;
}

}  // namespace perfbench
