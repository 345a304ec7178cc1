#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Every span comes from the benchmark's own code: its wrappers around the
// library's public calls, and the library's public telemetry hooks
// (FDiamOptions::trace closes solver stages, FDiamOptions::level_profile
// closes BFS levels). Nothing is written until the run ends.
//
// Spans recorded from one thread may leave their parent unset; resolve()
// assigns each such span the innermost recorded span that contains it.
// Per-layer self time is a span's duration minus the time its children
// cover.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the process's first call.
double now_s();

struct Span {
  const char* name = "";
  const char* layer = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;             ///< index into Spans::all(), -1 = root
  std::uint64_t request = 0;   ///< served request id, 0 = none
  bool resolve_parent = true;  ///< false: `parent` was set explicitly
};

class Spans {
 public:
  /// Record a finished span whose parent resolve() will find; returns
  /// its index.
  int add(const char* name, const char* layer, double start, double end);
  /// Record a finished span with an explicit parent that resolve() keeps.
  int add_child(const char* name, const char* layer, double start,
                double end, int parent, std::uint64_t request);

  /// Assign containment parents to spans recorded without one.
  void resolve();

  /// Sum over spans of (duration - children's durations), per layer.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// Chrome trace_event JSON array of complete ("X") events.
  void write_chrome_trace(const std::string& path) const;

  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span around a block of benchmark code.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const char* name, const char* layer)
      : spans_(spans), name_(name), layer_(layer), start_(now_s()) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->add(name_, layer_, start_, now_s());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  const char* name_;
  const char* layer_;
  double start_;
};

}  // namespace perfbench
