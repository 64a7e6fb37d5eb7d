// Order statistics for the benchmark's reported timings.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// Median (mean of the two middle values for even sizes); 0 for no values.
double Median(std::vector<double> values);

// The tail rule: the highest integer percentile p whose nearest-rank value
// (the ceil(p * n / 100)-th smallest sample) has at least `beyond` samples
// above it. 0 when n <= beyond, where no percentile qualifies.
int TailPercentile(size_t n, size_t beyond = 10);

// The nearest-rank value at integer percentile p in [1, 100]; the largest
// sample for p == 0 (the fallback when TailPercentile finds none). 0 for no
// values.
double NearestRank(std::vector<double> values, int percentile);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
