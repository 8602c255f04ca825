// Result reporting: the human-readable report (every metric with its unit
// and sample count, plus the machine fingerprint) and the final JSON line
// the benchmark contract asks for.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Where and how the numbers were produced. Cross-machine comparisons are
/// invalid, so every result carries this.
struct Machine {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string git_sha;     ///< "none" when the tree is not a git checkout
  std::string src_digest;  ///< content digest of src/, computed by run.py

  static Machine Detect(std::string git_sha, std::string src_digest);
  bool release() const { return build_type == "Release"; }
};

/// Peak resident set size of this process, from getrusage.
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  ///< observations behind the value (0 = a reading)
};

class Report {
 public:
  /// End-to-end metric (user-visible; measured with tracing off).
  void EndToEnd(std::string name, double value, std::string unit,
                size_t samples);
  /// Latency of one operation type from per-op milliseconds: adds
  /// `<op>_p50_ms` when any samples exist and `<op>_p99_ms` when the p99
  /// has at least ten samples beyond it.
  void Latency(const std::string& op, const std::vector<double>& ms);
  /// Per-layer metric (from the traced run).
  void Layer(std::string name, double value, std::string unit,
             size_t samples);
  /// Free-form context line ("note <key> <value>").
  void Note(std::string key, std::string value);

  const Metric* Find(const std::string& name) const;

  enum class Kind { kEndToEnd, kLayer };
  /// Names of every metric of one kind, in insertion order.
  std::vector<std::string> Names(Kind kind) const;

  /// Print every metric, then the contract's JSON line restricted to
  /// `json_metrics`. Returns false (printing no JSON) when one of them is
  /// missing.
  bool Print(const std::vector<std::string>& json_metrics, bool correct,
             size_t attempted, size_t failed) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
