// Storm-simulation determinism stress (docs/STORM.md): runs the full
// `wasabi storm` pipeline — profile extraction, discrete-event simulation,
// report + journal serialization — over the stormlab ground-truth app at
// --jobs 1/2/4/8 and across repeated same-seed runs, and fails (exit 1) on
// the first byte that differs. Also prints the oracle scorecard against the
// seeded manifest; the acceptance bar is exact TP=3 / FP=0 / FN=0. Last, it
// times the simulation alone (RunStormSim, default options, no journal) on
// stormlab and repairlab: best of 5 runs in ms, and attempts per second.
//
// Usage: stress_storm [repeats-per-jobs-level]   (default 3)

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "src/core/scoring.h"
#include "src/corpus/corpus.h"
#include "src/obs/journal.h"
#include "src/storm/profile.h"
#include "src/storm/storm.h"

namespace wasabi {
namespace {

using Clock = std::chrono::steady_clock;

struct StormArtifacts {
  std::string report_json;
  std::string journal_json;
  StormReport report;
};

StormArtifacts RunPipeline(const CorpusApp& app, int jobs) {
  StormArtifacts artifacts;
  std::vector<EdgeRetryProfile> profiles = ExtractRetryProfiles(app.program, *app.index, jobs);
  RetryJournal journal;
  StormOptions options;
  artifacts.report = RunStormSim(app.name, profiles, options, &journal);
  artifacts.report_json = StormReportToJson(artifacts.report);
  artifacts.journal_json = journal.ToJson(app.name);
  return artifacts;
}

// Best-of-5 wall time of the simulation alone, profiles extracted once.
void TimeSimulation(const char* lab) {
  CorpusApp app = BuildCorpusApp(lab);
  std::vector<EdgeRetryProfile> profiles =
      ExtractRetryProfiles(app.program, *app.index, /*jobs=*/1);
  double best_s = std::numeric_limits<double>::infinity();
  int64_t attempts = 0;
  for (int r = 0; r < 5; ++r) {
    Clock::time_point begin = Clock::now();
    StormReport report = RunStormSim(app.name, profiles, StormOptions{}, nullptr);
    best_s = std::min(best_s, std::chrono::duration<double>(Clock::now() - begin).count());
    attempts = report.total_attempts;
  }
  std::cout << "sim " << lab << ": best_of_5_ms=" << best_s * 1000.0
            << " attempts=" << attempts
            << " attempts_per_s=" << static_cast<int64_t>(attempts / best_s) << "\n";
}

int Run(int repeats) {
  CorpusApp app = BuildCorpusApp("stormlab");
  std::cout << "##### storm determinism stress: app=stormlab repeats=" << repeats
            << " per jobs level\n";

  Clock::time_point begin = Clock::now();
  StormArtifacts baseline = RunPipeline(app, /*jobs=*/1);
  double baseline_s = std::chrono::duration<double>(Clock::now() - begin).count();
  std::cout << "jobs=1 pipeline: " << baseline_s << "s, report=" << baseline.report_json.size()
            << "B, journal=" << baseline.journal_json.size() << "B\n";

  int runs = 0;
  for (int jobs : {1, 2, 4, 8}) {
    for (int r = 0; r < repeats; ++r) {
      StormArtifacts run = RunPipeline(app, jobs);
      ++runs;
      if (run.report_json != baseline.report_json) {
        std::cerr << "FAIL: storm report diverged at jobs=" << jobs << " repeat=" << r << "\n";
        return 1;
      }
      if (run.journal_json != baseline.journal_json) {
        std::cerr << "FAIL: storm journal diverged at jobs=" << jobs << " repeat=" << r << "\n";
        return 1;
      }
    }
  }
  std::cout << "byte-identity: " << runs << "/" << runs
            << " runs matched the jobs=1 baseline (report + journal)\n";

  std::vector<SeededBug> truth = DetectableBugs(app.bugs, DetectionTechnique::kStormSim);
  Scorecard scorecard = ScoreReports(baseline.report.bugs, truth);
  ScoreCell total = scorecard.TotalAll();
  std::cout << "oracle scorecard vs seeded manifest:\n";
  std::cout << "  class                     TP  FP  FN\n";
  struct Row {
    const char* label;
    BugType type;
  };
  for (const Row& row : {Row{"STORM/missing-jitter    ", BugType::kStormMissingJitter},
                         Row{"STORM/unbounded-fanout  ", BugType::kStormUnboundedFanout},
                         Row{"STORM/retry-on-overload ", BugType::kStormRetryOnOverload}}) {
    ScoreCell cell = scorecard.Total(row.type);
    std::cout << "  " << row.label << "  " << cell.true_positives << "   "
              << cell.false_positives << "   " << cell.false_negatives << "\n";
  }
  std::cout << "  total                       " << total.true_positives << "   "
            << total.false_positives << "   " << total.false_negatives << "\n";
  std::cout << "amplification=" << baseline.report.amplification_x1000 / 1000.0
            << "x goodput=" << baseline.report.goodput_x1000 / 10 << "% metastable="
            << (baseline.report.metastable ? "yes" : "no") << "\n";
  if (total.true_positives != 3 || total.false_positives != 0 || total.false_negatives != 0) {
    std::cerr << "FAIL: storm oracles are not exact against the stormlab manifest\n";
    return 1;
  }
  for (const char* lab : {"stormlab", "repairlab"}) {
    TimeSimulation(lab);
  }
  std::cout << "PASS\n";
  return 0;
}

}  // namespace
}  // namespace wasabi

int main(int argc, char** argv) {
  int repeats = 3;
  if (argc > 1) {
    repeats = std::max(1, std::atoi(argv[1]));
  }
  return wasabi::Run(repeats);
}
