#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  if (open_.empty()) {
    span.op = next_op_++;
  } else {
    span.parent = open_.back();
    span.op = spans_[static_cast<size_t>(span.parent)].op;
  }
  span.start_ns = NowNs();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

void Tracer::RecordForTest(const char* name, int32_t parent, int64_t start_ns,
                           int64_t end_ns) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = parent < 0 ? next_op_++ : spans_[static_cast<size_t>(parent)].op;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanTotals> totals;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      int64_t duration = spans[i].end_ns - spans[i].start_ns;
      SpanTotals& t = totals[spans[i].name];
      ++t.count;
      t.total_ns += duration;
      t.self_ns += duration - child_ns[i];
    }
  }
  return totals;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Tracer* tracer : tracers) {
    for (const Span& s : tracer->spans()) {
      std::fprintf(out,
                   "{\"client\":%u,\"op\":%llu,\"name\":\"%s\",\"parent\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   tracer->client(), static_cast<unsigned long long>(s.op),
                   s.name, s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
