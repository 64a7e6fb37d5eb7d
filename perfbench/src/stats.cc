#include "perfbench/src/stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

int TailPercentile(size_t n, size_t beyond) {
  if (n <= beyond) {
    return 0;
  }
  // rank(p) = ceil(p * n / 100) <= n - beyond  <=>  p <= 100 * (n - beyond) / n.
  return static_cast<int>(100 * (n - beyond) / n);
}

double NearestRank(std::vector<double> values, int percentile) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  if (percentile <= 0) {
    return values.back();
  }
  size_t rank = (static_cast<size_t>(std::min(percentile, 100)) * values.size() + 99) / 100;
  return values[std::max<size_t>(rank, 1) - 1];
}

}  // namespace perfbench
