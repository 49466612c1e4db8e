#pragma once
// In-memory span tracing for the traced (--trace 1) run.
//
// Spans are recorded by the benchmark around its calls into the library's
// public functions — the layer boundaries — never inside the library.  Each
// span carries its name ("<layer>.<call>"), start and end, the span that
// caused it (its parent on the same thread) and an id shared by every span
// of one request, session, race or space.  Counts are recorded at the same
// boundaries.  Every thread records into its own SpanBuffer; buffers are
// merged into a Trace when the thread's work ends and written out at exit.
//
// A layer's self time is the duration of its spans minus the part of each
// span's interval covered by its children.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

struct Span {
  const char* name = "";   ///< static string "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the parent span in the same trace
  std::uint64_t id = 0;      ///< shared by all spans of one request/space
};

/// "<layer>" of a "<layer>.<call>" span name (the whole name without a dot).
std::string layer_of(const char* name);

/// Per-span self time: duration minus the union of its children's
/// intervals, clipped to the span's own interval.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Self time summed per layer.
std::map<std::string, double> self_ns_by_layer(const std::vector<Span>& spans);

/// One thread's span recorder.  A disabled buffer records nothing, so the
/// untraced run pays one branch per boundary.
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Switch recording on or off between units of work (never while a span
  /// is open: a ScopedSpan reads the flag when it opens and closes).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Open a span as a child of the innermost open span; returns its index.
  std::size_t open(const char* name, std::uint64_t id);
  void close(std::size_t index);
  /// Add `delta` to the named count.
  void count(const std::string& name, double delta);

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& counts() const { return counts_; }

 private:
  friend class Trace;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::map<std::string, double> counts_;
};

/// RAII span over a SpanBuffer; a no-op on a disabled buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buffer, const char* name, std::uint64_t id)
      : buffer_(buffer),
        index_(buffer.enabled() ? buffer.open(name, id) : 0) {}
  ~ScopedSpan() {
    if (buffer_.enabled()) buffer_.close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer& buffer_;
  std::size_t index_;
};

/// All spans and counts of a run, merged from the per-thread buffers.
class Trace {
 public:
  /// Move a finished buffer's spans (re-indexing parents) and counts in.
  void merge(SpanBuffer&& buffer);

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& counts() const { return counts_; }
  double count(const std::string& name) const;

  /// Write up to `max_spans` spans as JSON lines, then one line with the
  /// number written and the total.  Returns false if the file cannot be
  /// written.
  bool write_jsonl(const std::string& path, std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

}  // namespace perfbench
