#include "src/testing/coverage.h"

#include <unordered_set>

namespace wasabi {

CoverageRecorder::CoverageRecorder(const std::vector<RetryLocation>* locations)
    : locations_(locations), seen_(locations->size(), false) {}

ObjectRef CoverageRecorder::OnCall(const CallEvent& event, Interpreter& /*interp*/) {
  for (size_t i = 0; i < locations_->size(); ++i) {
    if (seen_[i]) {
      continue;
    }
    const RetryLocation& location = (*locations_)[i];
    if (location.retried_method == event.callee && location.coordinator == event.caller) {
      seen_[i] = true;
      hits_.push_back(i);
    }
  }
  return nullptr;
}

void CoverageRecorder::Reset() {
  seen_.assign(locations_->size(), false);
  hits_.clear();
}

CoverageMap MapCoverage(const TestRunner& runner, const std::vector<TestCase>& tests,
                        const std::vector<RetryLocation>& locations) {
  CoverageMap coverage;
  for (const TestCase& test : tests) {
    CoverageRecorder recorder(&locations);
    runner.RunTest(test, {&recorder});
    if (!recorder.hits().empty()) {
      coverage[test.qualified_name] = recorder.hits();
    }
  }
  return coverage;
}

std::vector<PlanEntry> PlanInjections(const CoverageMap& coverage, size_t location_count) {
  std::vector<PlanEntry> plan;
  std::vector<bool> covered(location_count, false);
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& [test, hit_indices] : coverage) {
      for (size_t index : hit_indices) {
        if (index < location_count && !covered[index]) {
          covered[index] = true;
          plan.push_back(PlanEntry{test, index});
          progress = true;
          break;  // One location per test per pass: spreads over tests.
        }
      }
    }
  }
  return plan;
}

std::vector<PlanEntry> NaivePlan(const CoverageMap& coverage) {
  std::vector<PlanEntry> plan;
  for (const auto& [test, hit_indices] : coverage) {
    for (size_t index : hit_indices) {
      plan.push_back(PlanEntry{test, index});
    }
  }
  return plan;
}

}  // namespace wasabi
