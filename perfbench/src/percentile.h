// Nearest-rank percentiles for the benchmark's latency report.
//
// The q-quantile of n samples is the sample at sorted index ceil(q*n) - 1,
// so the p99 of 100 samples is the 99th smallest, not the maximum. A
// percentile is reported only where at least `kMinTail` samples lie beyond
// its rank, which for the p99 means n >= 1000.

#ifndef PERFBENCH_PERCENTILE_H_
#define PERFBENCH_PERCENTILE_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile's rank.
constexpr size_t kMinTail = 10;

/// 1-based nearest rank ceil(q*n) of the q-quantile, clamped to [1, n].
/// Requires n >= 1 and 0 < q <= 1.
size_t NearestRankIndex(size_t n, double q);

/// The nearest-rank q-quantile of `values` (copied and sorted). Returns 0
/// for an empty sample.
double NearestRank(std::vector<double> values, double q);

/// True when the q-quantile of n samples has at least `kMinTail` samples
/// beyond it.
bool SupportsPercentile(size_t n, double q);

}  // namespace perfbench

#endif  // PERFBENCH_PERCENTILE_H_
