// perfbench — the standing end-to-end benchmark of the IMP system.
//
//   perfbench --workload mixed_lazy|tpch_churn|async_loaded --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//             [--metrics a,b,c] [--git-sha SHA] [--src-digest HEX]
//
// Prints the machine fingerprint, every metric with its unit and sample
// count, and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1), restricted to --metrics when given. Exits 1
// when an operation failed or an answer disagreed with the oracle, 2 on a
// usage or set-up error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "mixed_lazy|tpch_churn|async_loaded --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--metrics a,b,c] "
               "[--git-sha SHA] [--src-digest HEX]\n",
               why);
  return 2;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= s.size()) {
    size_t end = s.find(',', begin);
    if (end == std::string::npos) end = s.size();
    if (end > begin) parts.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

int Main(int argc, char** argv) {
  Options opt;
  std::string metrics, git_sha, src_digest;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage("missing value after an option");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opt.seconds > 0 &&
                     std::isfinite(opt.seconds) && opt.seconds <= 3600;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--metrics") {
      metrics = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--src-digest") {
      src_digest = value;
    } else {
      return Usage(("unknown option " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (0 < S <= 3600) and --trace 0|1 are required");
  }
  RunResult (*run)(const Options&) = nullptr;
  if (opt.workload == "mixed_lazy") run = RunMixedLazy;
  if (opt.workload == "tpch_churn") run = RunTpchChurn;
  if (opt.workload == "async_loaded") run = RunAsyncLoaded;
  if (run == nullptr) return Usage("unknown --workload");

  const Machine machine = Machine::Detect(git_sha, src_digest);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf(
      "machine nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s git=%s src=%s\n",
      machine.nproc, machine.cpu_model.c_str(), machine.compiler.c_str(),
      machine.build_type.c_str(), machine.git_sha.c_str(),
      machine.src_digest.c_str());
  if (!machine.release()) {
    std::printf("WARNING: %s build — timings are not comparable to Release\n",
                machine.build_type.c_str());
  }
  std::fflush(stdout);

  RunResult result = run(opt);
  const bool correct = result.failed == 0 && result.mismatches == 0;
  std::vector<std::string> json_metrics = SplitCommas(metrics);
  if (json_metrics.empty()) {
    json_metrics = result.report.Names(opt.trace ? Report::Kind::kLayer
                                                 : Report::Kind::kEndToEnd);
  }
  // A wrong answer is a failed operation too.
  if (!result.report.Print(json_metrics, correct, result.attempted,
                           result.failed + result.mismatches)) {
    return 2;
  }
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: %zu failed operation(s), %zu oracle "
                 "mismatch(es)\n",
                 result.failed, result.mismatches);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
