// Unit test of the benchmark's own helpers: nearest-rank percentiles and
// span self-time aggregation. Exits non-zero on the first failed check.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "percentile.h"
#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the helper must sort
}

void TestNearestRank() {
  using perfbench::NearestRank;
  Check(NearestRank({}, 0.5) == 0, "empty sample reads 0");
  Check(NearestRank({7}, 0.5) == 7 && NearestRank({7}, 0.99) == 7,
        "single sample is every percentile");
  Check(NearestRank(OneTo(4), 0.5) == 2, "p50 of 1..4 is 2 (rank ceil(2))");
  Check(NearestRank(OneTo(5), 0.5) == 3, "p50 of 1..5 is 3 (rank ceil(2.5))");
  Check(NearestRank(OneTo(100), 0.99) == 99,
        "p99 of 1..100 is 99, not the maximum");
  Check(NearestRank(OneTo(100), 1.0) == 100, "p100 is the maximum");
  Check(NearestRank(OneTo(1000), 0.99) == 990, "p99 of 1..1000 is 990");
  Check(NearestRank(OneTo(1001), 0.99) == 991, "p99 of 1..1001 is 991");
  Check(NearestRank(OneTo(10), 0.01) == 1, "tiny q clamps to rank 1");
}

void TestSupportsPercentile() {
  using perfbench::SupportsPercentile;
  Check(!SupportsPercentile(0, 0.5), "no samples, no p50");
  Check(SupportsPercentile(20, 0.5), "p50 of 20 has 10 beyond");
  Check(!SupportsPercentile(19, 0.5), "p50 of 19 has only 9 beyond");
  Check(!SupportsPercentile(999, 0.99), "p99 of 999 has only 9 beyond");
  Check(SupportsPercentile(1000, 0.99), "p99 of 1000 has 10 beyond");
}

void TestSelfTime() {
  perfbench::Tracer tracer(0);
  tracer.set_enabled(true);
  // Hand-built spans: root [0,100) with children [10,30) and [40,90); the
  // second child has a grandchild [50,60).
  tracer.RecordForTest("op.query", -1, 0, 100);
  tracer.RecordForTest("sql.bind", 0, 10, 30);
  tracer.RecordForTest("middleware.query_plan", 0, 40, 90);
  tracer.RecordForTest("exec.execute", 2, 50, 60);
  auto totals = perfbench::AggregateSpans({&tracer});
  Check(totals["op.query"].count == 1, "root counted once");
  Check(totals["op.query"].total_ns == 100, "root duration");
  Check(totals["op.query"].self_ns == 30, "root self = 100 - 20 - 50");
  Check(totals["middleware.query_plan"].self_ns == 40,
        "child self = 50 - 10");
  Check(totals["exec.execute"].self_ns == 10, "leaf self = duration");
}

}  // namespace

int main() {
  TestNearestRank();
  TestSupportsPercentile();
  TestSelfTime();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return EXIT_SUCCESS;
}
