#include "percentile.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t NearestRankIndex(size_t n, double q) {
  // The small epsilon keeps products such as 0.99 * 100 (which may round
  // to 99.000000000000014) from bumping the rank by one.
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  if (rank < 1) return 1;
  if (rank > static_cast<double>(n)) return n;
  return static_cast<size_t>(rank);
}

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t index = NearestRankIndex(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

bool SupportsPercentile(size_t n, double q) {
  return n > 0 && n - NearestRankIndex(n, q) >= kMinTail;
}

}  // namespace perfbench
