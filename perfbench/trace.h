#pragma once

// Spans the benchmark records around its own calls into each engine layer.
// They are kept in memory and written out once, when the run ends; nothing
// inside the engine is instrumented by them.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Trace {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;    ///< index of the enclosing span, -1 at top level
    int64_t stmt = -1;  ///< statement id the span belongs to, -1 for none
  };

  explicit Trace(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open one; returns its index
  /// (-1 when tracing is off).
  int Begin(const std::string& name, int64_t stmt = -1);
  /// Closes the innermost open span, which must be `index`.
  void End(int index);

  /// Duration of a closed span in seconds.
  double Seconds(int index) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the time its
  /// direct children cover, summed over every span of that name.
  std::map<std::string, double> SelfSeconds() const;

  /// Durations in seconds of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// The spans and per-name self times as one JSON object body.
  std::string ToJson() const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const std::string& name, int64_t stmt = -1)
      : trace_(trace), index_(trace->Begin(name, stmt)) {}
  ~ScopedSpan() { trace_->End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  int index_;
};

}  // namespace perfbench
