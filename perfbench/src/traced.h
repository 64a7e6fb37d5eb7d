// The traced in-process run: the public functions the CLI calls, on the same
// inputs, each under a span, plus CLI invocations to compare against.

#ifndef PERFBENCH_SRC_TRACED_H_
#define PERFBENCH_SRC_TRACED_H_

#include <cstddef>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/inputs.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedResult {
  std::vector<Metric> metrics;  // Every per-layer metric, in table order.
  size_t attempted = 0;         // Inputs traced (one per invocation per pass).
  size_t failed = 0;
  std::vector<std::string> failures;
};

// Traces every invocation of one cycle, repeating whole passes (the next
// cycle each) while `seconds` have not elapsed. `jobs` is the CLI's --jobs;
// the first test or repair input also times the dynamic workflow at 1 and at
// `speedup_workers` workers (exec.speedup). Writes the trace to
// `work`/trace.json.
TracedResult RunTraced(const WorkloadInputs& inputs, const std::string& cli, int jobs,
                       int speedup_workers, double seconds, OutputChecker& checker,
                       const std::filesystem::path& work);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_H_
