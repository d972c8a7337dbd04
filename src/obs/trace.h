// Per-query tracing: a tree of timed spans.
//
// A Trace records one query's journey through the engine — lex, parse,
// plan, rewrite, execute, and within DERIVE one span per fixpoint round —
// as a tree of (name, wall time, notes) spans. The HQL executor keeps the
// last completed query's trace and serves it back through SHOW TRACE
// (indented tree) and SHOW TRACE JSON (machine-readable).
//
// Instrumented code opens spans with the RAII Trace::Scope; a null Trace
// pointer makes every Scope operation a no-op, so the instrumentation can
// stay inline on paths that usually run untraced.

#ifndef HIREL_OBS_TRACE_H_
#define HIREL_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hirel {
namespace obs {

/// One timed span. Children are the spans opened while this one was the
/// innermost open span; notes are counters attached by the instrumented
/// code ("rows", "derived", ...).
struct TraceSpan {
  std::string name;
  uint64_t ns = 0;
  /// Wall-clock offset of this span's open relative to the trace's epoch
  /// (the instant its first span opened). Lets exporters lay spans out on
  /// a real timeline (EXPORT TRACE) instead of synthesizing one.
  uint64_t start_ns = 0;
  std::vector<std::pair<std::string, uint64_t>> notes;
  std::vector<std::unique_ptr<TraceSpan>> children;
};

/// A span tree under construction (or completed). Not thread-safe; one
/// Trace belongs to one query.
class Trace {
 public:
  Trace() = default;
  Trace(Trace&&) = default;
  Trace& operator=(Trace&&) = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool empty() const { return root_.children.empty(); }
  void Clear();

  /// Top-level spans (children of the implicit root).
  const std::vector<std::unique_ptr<TraceSpan>>& spans() const {
    return root_.children;
  }

  /// Steady-clock nanosecond stamp of the first span's open (0 while the
  /// trace is empty). Wait spans recorded against the same clock can be
  /// aligned to span start_ns offsets by subtracting this.
  uint64_t epoch_ns() const { return epoch_ns_; }

  /// Indented tree, one span per line with its wall time and notes.
  std::string Render() const;

  /// [{"name":...,"ns":...,"notes":{...},"children":[...]}, ...]
  std::string RenderJson() const;

  /// RAII span. Construction opens a child of the innermost open span;
  /// destruction stamps the elapsed wall time and closes it. A null trace
  /// makes every operation a no-op.
  class Scope {
   public:
    Scope(Trace* trace, std::string name);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attaches a named counter to the span ("rows" = 42).
    void Note(std::string_view key, uint64_t value);

   private:
    Trace* trace_ = nullptr;
    TraceSpan* span_ = nullptr;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  TraceSpan* Open(std::string name);
  void Close(TraceSpan* span, uint64_t ns);

  TraceSpan root_;                // synthetic; only its children render
  std::vector<TraceSpan*> open_;  // stack of open spans, outermost first
  uint64_t epoch_ns_ = 0;         // steady ns of the first span's open
};

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_TRACE_H_
