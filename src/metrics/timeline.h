// Per-stage span tracing for the epoch pipeline.
//
// An EpochTimeline records named start/stop spans (client answer shards,
// per-proxy forwards, aggregator consumes, whole epochs) and dumps them as
// chrome://tracing / Perfetto-compatible JSON, so one epoch's stage overlap
// is visible on a real timeline instead of inferred from aggregate
// throughput numbers.
//
// Disabled (the default) a Span costs two branch-predicted loads — no clock
// reads, no locking — so the trace hook can stay compiled into the hot
// stages (SystemConfig::metrics.timeline turns it on). Enabled, Record takes
// a mutex around a push_back into a reserved vector; span granularity is one
// shard batch (~1k clients), so contention is negligible next to the work
// being traced.

#ifndef PRIVAPPROX_METRICS_TIMELINE_H_
#define PRIVAPPROX_METRICS_TIMELINE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace privapprox::metrics {

class EpochTimeline {
 public:
  struct Event {
    const char* name = nullptr;  // static string; not owned
    uint32_t tid = 0;
    int64_t start_ns = 0;
    int64_t duration_ns = 0;
  };

  explicit EpochTimeline(bool enabled = false) : enabled_(enabled) {}

  EpochTimeline(const EpochTimeline&) = delete;
  EpochTimeline& operator=(const EpochTimeline&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Monotonic clock used for span timestamps (nanoseconds).
  static int64_t NowNs();

  // Records one completed span. `name` must be a static string — the
  // timeline stores the pointer, not a copy.
  void Record(const char* name, int64_t start_ns, int64_t end_ns);

  void Clear();
  std::vector<Event> Events() const;
  size_t size() const;

  // chrome://tracing "trace event" JSON: load the returned string (saved to
  // a file) in chrome://tracing or https://ui.perfetto.dev. One row per
  // recording thread, microsecond timestamps relative to the first span.
  std::string ToChromeTracingJson() const;

  // RAII span: reads the clock on construction and records on destruction —
  // both skipped when the timeline is disabled.
  class Span {
   public:
    Span(EpochTimeline& timeline, const char* name)
        : timeline_(timeline), name_(name) {
      if (timeline_.enabled()) {
        start_ns_ = NowNs();
      }
    }
    ~Span() {
      if (start_ns_ >= 0) {
        timeline_.Record(name_, start_ns_, NowNs());
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    EpochTimeline& timeline_;
    const char* name_;
    int64_t start_ns_ = -1;
  };

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

}  // namespace privapprox::metrics

#endif  // PRIVAPPROX_METRICS_TIMELINE_H_
