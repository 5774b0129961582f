#include "tracer.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

#ifdef PERFBENCH_COUNT_ALLOCS
#include "common/alloc_counter.h"
#endif

namespace perfbench {

uint64_t AllocationsSoFar() {
#ifdef PERFBENCH_COUNT_ALLOCS
  return privapprox::AllocCounter::Count();
#else
  return 0;
#endif
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const char* track, const char* name, uint64_t epoch) {
  if (!enabled_) {
    return -1;
  }
  std::vector<int>& stack = open_[track];
  Span span;
  span.name = name;
  span.track = track;
  span.parent = stack.empty() ? -1 : stack.back();
  span.epoch = epoch;
  span.allocs_at_start = AllocationsSoFar();
  span.start_ns = NowNs();
  spans_.push_back(span);
  stack.push_back(static_cast<int>(spans_.size()) - 1);
  return stack.back();
}

void Tracer::End(int index) {
  if (index < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  span.allocs = AllocationsSoFar() - span.allocs_at_start;
  std::vector<int>& stack = open_[span.track];
  if (stack.empty() || stack.back() != index) {
    throw std::logic_error(std::string("Tracer: span ") + span.name +
                           " closed out of order");
  }
  stack.pop_back();
}

std::map<std::pair<std::string, std::string>, Tracer::LayerTotals>
Tracer::Totals(uint64_t epoch_begin, uint64_t epoch_end) const {
  std::map<std::pair<std::string, std::string>, LayerTotals> totals;
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.end_ns >= 0 && span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0 || span.epoch < epoch_begin ||
        span.epoch >= epoch_end) {
      continue;
    }
    LayerTotals& t = totals[{span.track, span.name}];
    const int64_t duration = span.end_ns - span.start_ns;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
    t.allocs += span.allocs;
    ++t.count;
  }
  return totals;
}

void Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  // One chrome "thread" row per track, named via metadata events.
  std::map<std::string, int> tids;
  for (const Span& span : spans_) {
    tids.emplace(span.track, static_cast<int>(tids.size()) + 1);
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const auto& [track, tid] : tids) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", tid, track.c_str());
    first = false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) {
      continue;
    }
    std::fprintf(f,
                 ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"epoch\":%llu,"
                 "\"span\":%zu,\"parent\":%d,\"allocs\":%llu}}",
                 span.name, tids[span.track],
                 static_cast<double>(span.start_ns - origin) / 1000.0,
                 static_cast<double>(span.end_ns - span.start_ns) / 1000.0,
                 static_cast<unsigned long long>(span.epoch), i, span.parent,
                 static_cast<unsigned long long>(span.allocs));
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

}  // namespace perfbench
