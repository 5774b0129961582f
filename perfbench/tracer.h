// Span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions (the library is not instrumented for this). A
// span has a name, a pipeline ("track": the deployment under test, or the
// serial in-process pipeline that runs beside it), start and end, the span
// that was open when it began (its parent), the epoch it belongs to (the
// request id), and the heap allocations made while it was open. Spans stay
// in memory; WriteChromeJson dumps them at the end in the chrome://tracing
// trace-event format EpochTimeline uses.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Heap allocations made by this process so far; 0 in the untraced binary,
// which does not link the counting allocator.
uint64_t AllocationsSoFar();

// Monotonic nanoseconds.
int64_t NowNs();

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;   // static string
    const char* track = nullptr;  // static string
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 while open
    int parent = -1;      // index into spans(), -1 = root
    uint64_t epoch = 0;
    uint64_t allocs = 0;
    uint64_t allocs_at_start = 0;
  };

  // Per (track, name) totals.
  struct LayerTotals {
    int64_t total_ns = 0;
    int64_t self_ns = 0;  // total minus the time covered by child spans
    uint64_t allocs = 0;
    uint64_t count = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span as a child of the innermost open span on `track`; returns
  // its index, or -1 when tracing is off. Spans on one track nest strictly.
  int Begin(const char* track, const char* name, uint64_t epoch);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }
  // Per (track, name) totals over the spans of epochs [begin, end).
  std::map<std::pair<std::string, std::string>, LayerTotals> Totals(
      uint64_t epoch_begin, uint64_t epoch_end) const;

  void WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<int>> open_;  // track -> open span stack
};

// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* track, const char* name,
             uint64_t epoch)
      : tracer_(tracer), span_(tracer.Begin(track, name, epoch)) {}
  ~ScopedSpan() { tracer_.End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
