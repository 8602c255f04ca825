// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only around calls the benchmark itself makes into the
// system's layers (nothing inside `src/` is instrumented). Each client
// thread owns one Tracer, so recording takes no lock. A span opened while
// no other span of the tracer is open is the ROOT span of a new client
// operation; spans opened inside it are its children and share its
// operation id. Spans stay in memory until the run ends, when
// AggregateSpans() folds them into per-name totals and WriteSpans() dumps
// them as JSON lines.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since the first call in this process.
int64_t NowNs();

struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>" or "op.<type>"
  int32_t parent = -1;    ///< index of the parent span in its tracer, -1 = root
  uint64_t op = 0;        ///< client operation id, shared by one op's spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(uint32_t client) : client_(client) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Switch recording on or off; only between operations (no open span).
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span; returns its index, or -1 when recording is off.
  int32_t Begin(const char* name);
  /// Close the span `index` returned by Begin (no-op for -1).
  void End(int32_t index);

  uint32_t client() const { return client_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Append a closed span with explicit times (unit tests).
  void RecordForTest(const char* name, int32_t parent, int64_t start_ns,
                     int64_t end_ns);

 private:
  uint32_t client_;
  bool enabled_ = false;
  uint64_t next_op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  ///< stack of open span indices
};

/// RAII span: opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~SpanScope() { tracer_->End(index_); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Per-name totals over closed spans. Self time is a span's duration minus
/// the durations of its direct children.
struct SpanTotals {
  size_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;

  double MeanUs() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / 1e3 / count;
  }
};

std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<const Tracer*>& tracers);

/// Write every span as one JSON object per line. Returns false when the
/// file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
