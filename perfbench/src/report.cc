#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "percentile.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

Machine Machine::Detect(std::string git_sha, std::string src_digest) {
  Machine m;
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  m.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        m.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (m.cpu_model.empty()) m.cpu_model = "unknown";
  m.compiler = PERFBENCH_COMPILER;
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.git_sha = git_sha.empty() ? "none" : std::move(git_sha);
  m.src_digest = src_digest.empty() ? "none" : std::move(src_digest);
  return m;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::EndToEnd(std::string name, double value, std::string unit,
                      size_t samples) {
  end_to_end_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::Latency(const std::string& op, const std::vector<double>& ms) {
  if (ms.empty()) return;
  EndToEnd(op + "_p50_ms", NearestRank(ms, 0.50), "ms", ms.size());
  if (SupportsPercentile(ms.size(), 0.99)) {
    EndToEnd(op + "_p99_ms", NearestRank(ms, 0.99), "ms", ms.size());
  }
}

void Report::Layer(std::string name, double value, std::string unit,
                   size_t samples) {
  layers_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::Note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

const Metric* Report::Find(const std::string& name) const {
  for (const auto* list : {&end_to_end_, &layers_}) {
    for (const Metric& m : *list) {
      if (m.name == name) return &m;
    }
  }
  return nullptr;
}

std::vector<std::string> Report::Names(Kind kind) const {
  std::vector<std::string> names;
  for (const Metric& m : kind == Kind::kEndToEnd ? end_to_end_ : layers_) {
    names.push_back(m.name);
  }
  return names;
}

bool Report::Print(const std::vector<std::string>& json_metrics, bool correct,
                   size_t attempted, size_t failed) const {
  for (const auto& [key, value] : notes_) {
    std::printf("note %s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : end_to_end_) {
    std::printf("e2e   %-34s %14.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const Metric& m : layers_) {
    std::printf("layer %-34s %14.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::string json;
  for (const std::string& name : json_metrics) {
    const Metric* m = Find(name);
    if (m == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return false;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", name.c_str(),
                  std::isfinite(m->value) ? m->value : 0.0, m->unit.c_str());
    json += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", attempted, failed, json.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
