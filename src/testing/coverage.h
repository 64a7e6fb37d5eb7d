// Coverage mapping and fault-injection planning (§3.1.4).
//
// Before any fault is injected, WASABI instruments every retry location and
// runs the whole test suite once to learn which unit test covers which retry
// location. The planner then produces a list of {test, location} pairs such
// that every coverable location appears exactly once, greedily spreading the
// pairs over as many distinct tests as possible.

#ifndef WASABI_SRC_TESTING_COVERAGE_H_
#define WASABI_SRC_TESTING_COVERAGE_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/retry_model.h"
#include "src/interp/interpreter.h"
#include "src/testing/runner.h"

namespace wasabi {

// Records which of a fixed set of retry locations fire during a run.
// Locations are matched by (callee, caller) qualified names.
class CoverageRecorder : public CallInterceptor {
 public:
  explicit CoverageRecorder(const std::vector<RetryLocation>* locations);

  ObjectRef OnCall(const CallEvent& event, Interpreter& interp) override;  // Never raises.

  // Indices into the location vector, in order of first hit.
  const std::vector<size_t>& hits() const { return hits_; }
  void Reset();

 private:
  const std::vector<RetryLocation>* locations_;
  std::vector<bool> seen_;
  std::vector<size_t> hits_;
};

// test qualified name -> location indices covered (in first-hit order).
// std::map keeps iteration deterministic.
using CoverageMap = std::map<std::string, std::vector<size_t>>;

// Runs every test once with a CoverageRecorder attached.
CoverageMap MapCoverage(const TestRunner& runner, const std::vector<TestCase>& tests,
                        const std::vector<RetryLocation>& locations);

// One planned fault-injection experiment: inject at `location_index` while
// running `test`.
struct PlanEntry {
  std::string test;
  size_t location_index = 0;
};

// §3.1.4 planning: every covered location exactly once; unique tests maximized
// greedily by iterating tests round-robin and giving each its first uncovered
// location until all locations are planned.
std::vector<PlanEntry> PlanInjections(const CoverageMap& coverage, size_t location_count);

// The naive plan used as the paper's baseline (Table 6 "w/o planning"): every
// {test, covered location} pair.
std::vector<PlanEntry> NaivePlan(const CoverageMap& coverage);

}  // namespace wasabi

#endif  // WASABI_SRC_TESTING_COVERAGE_H_
