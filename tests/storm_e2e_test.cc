// End-to-end storm pipeline over the stormlab ground-truth app: extract
// profiles from the generated sources, run the simulation, score the oracle
// output against the seeded manifest (exact TP/FP/FN), and prove the report
// and journal are byte-identical at every worker count and across reruns.
//
// StormOutputMatchesGoldens also pins those bytes across builds: digests of
// the JSON report, the text summary and the kStorm journal for stormlab and
// repairlab under six option sets live in tests/goldens/storm.golden as
// `key fnv=<hex> bytes=<n>` lines. Regenerate with
// WASABI_UPDATE_GOLDENS=1 ./storm_e2e_test — but only ever from a build whose
// simulator output is already trusted.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/scoring.h"
#include "src/corpus/corpus.h"
#include "src/obs/journal.h"
#include "src/storm/profile.h"
#include "src/storm/storm.h"

#ifndef WASABI_GOLDENS_DIR
#define WASABI_GOLDENS_DIR "tests/goldens"
#endif

namespace wasabi {
namespace {

struct StormRun {
  std::string report_json;
  std::string journal_json;
  StormReport report;
};

StormRun RunOnce(const CorpusApp& app, int jobs) {
  std::vector<EdgeRetryProfile> profiles =
      ExtractRetryProfiles(app.program, *app.index, jobs);
  RetryJournal journal;
  StormOptions options;
  StormRun run;
  run.report = RunStormSim(app.name, profiles, options, &journal);
  run.report_json = StormReportToJson(run.report);
  run.journal_json = journal.ToJson(app.name);
  return run;
}

TEST(StormE2eTest, StormlabScoresExactAgainstTheSeededManifest) {
  CorpusApp app = BuildCorpusApp("stormlab");
  StormRun run = RunOnce(app, /*jobs=*/4);

  // One report per storm bug class, nothing on the healthy gateway.
  ASSERT_EQ(run.report.bugs.size(), 3u);
  for (const BugReport& bug : run.report.bugs) {
    EXPECT_EQ(bug.technique, DetectionTechnique::kStormSim);
    EXPECT_EQ(bug.app, "stormlab");
  }

  std::vector<SeededBug> truth = DetectableBugs(app.bugs, DetectionTechnique::kStormSim);
  ASSERT_EQ(truth.size(), 3u) << "stormlab seeds exactly one bug per storm class";
  Scorecard scorecard = ScoreReports(run.report.bugs, truth);
  ScoreCell total = scorecard.TotalAll();
  EXPECT_EQ(total.true_positives, 3);
  EXPECT_EQ(total.false_positives, 0);
  EXPECT_EQ(total.false_negatives, 0);
  EXPECT_EQ(scorecard.Total(BugType::kStormMissingJitter).true_positives, 1);
  EXPECT_EQ(scorecard.Total(BugType::kStormUnboundedFanout).true_positives, 1);
  EXPECT_EQ(scorecard.Total(BugType::kStormRetryOnOverload).true_positives, 1);
}

TEST(StormE2eTest, ReportAndJournalAreByteIdenticalAtAnyWorkerCount) {
  CorpusApp app = BuildCorpusApp("stormlab");
  StormRun baseline = RunOnce(app, /*jobs=*/1);
  EXPECT_FALSE(baseline.report_json.empty());
  EXPECT_FALSE(baseline.journal_json.empty());
  for (int jobs : {2, 4, 8}) {
    StormRun run = RunOnce(app, jobs);
    EXPECT_EQ(run.report_json, baseline.report_json) << "jobs=" << jobs;
    EXPECT_EQ(run.journal_json, baseline.journal_json) << "jobs=" << jobs;
  }
  // Same seed, same app, fresh everything: still byte-identical.
  StormRun rerun = RunOnce(app, /*jobs=*/1);
  EXPECT_EQ(rerun.report_json, baseline.report_json);
  EXPECT_EQ(rerun.journal_json, baseline.journal_json);
}

TEST(StormE2eTest, StormJournalRoundTripsThroughTheStrictParser) {
  CorpusApp app = BuildCorpusApp("stormlab");
  StormRun run = RunOnce(app, /*jobs=*/2);
  std::vector<JournalEvent> events;
  std::string parsed_app;
  std::string error;
  ASSERT_TRUE(RetryJournal::ParseJson(run.journal_json, &events, &parsed_app, &error)) << error;
  EXPECT_EQ(parsed_app, "stormlab");
  ASSERT_FALSE(events.empty());
  size_t storm_events = 0;
  for (const JournalEvent& event : events) {
    if (event.stream == JournalStream::kStorm) {
      storm_events++;
    }
  }
  EXPECT_EQ(storm_events, events.size()) << "a storm run only writes the kStorm stream";
}

TEST(StormE2eTest, SeedChangesJitterButNotTheVerdicts) {
  CorpusApp app = BuildCorpusApp("stormlab");
  std::vector<EdgeRetryProfile> profiles =
      ExtractRetryProfiles(app.program, *app.index, /*jobs=*/2);
  StormOptions options;
  options.seed = 2026;
  StormReport report = RunStormSim(app.name, profiles, options, nullptr);
  ASSERT_EQ(report.bugs.size(), 3u) << "oracle verdicts must be robust to the jitter seed";
  EXPECT_TRUE(report.metastable);
}

uint64_t Fnv1a64(std::string_view text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Digest(std::string_view text) {
  std::ostringstream out;
  out << "fnv=" << std::hex << Fnv1a64(text) << std::dec << " bytes=" << text.size();
  return out.str();
}

// Option sets that steer the event queue through its distinct regimes: the
// default storm, another jitter seed, a long run with an early fault, a tiny
// queue under heavy bursts, arrivals further apart than a 4096 ms horizon
// (long empty stretches) and timeouts three such horizons out (far events).
std::map<std::string, StormOptions> GoldenOptionSets() {
  std::map<std::string, StormOptions> sets;
  sets["default"] = StormOptions{};
  StormOptions seed;
  seed.seed = 7;
  sets["seed7"] = seed;
  StormOptions long_run;
  long_run.duration_ms = 60'000;
  long_run.fault_start_ms = 0;
  long_run.fault_end_ms = 20'000;
  sets["long_fault"] = long_run;
  StormOptions small_queue;
  small_queue.queue_limit = 8;
  small_queue.burst = 40;
  sets["small_queue"] = small_queue;
  StormOptions sparse;
  sparse.arrival_interval_ms = 5'000;
  sets["sparse_arrivals"] = sparse;
  StormOptions far_timeout;
  far_timeout.request_timeout_ms = 3 * 4'096;
  sets["far_timeout"] = far_timeout;
  return sets;
}

std::map<std::string, std::string> ComputeStormGoldens() {
  std::map<std::string, std::string> goldens;
  const std::map<std::string, StormOptions> sets = GoldenOptionSets();
  for (const char* lab : {"stormlab", "repairlab"}) {
    CorpusApp app = BuildCorpusApp(lab);
    std::vector<EdgeRetryProfile> profiles =
        ExtractRetryProfiles(app.program, *app.index, /*jobs=*/2);
    for (const auto& [name, options] : sets) {
      RetryJournal journal;
      StormReport report = RunStormSim(app.name, profiles, options, &journal);
      const std::string prefix = std::string(lab) + "." + name + ".";
      goldens[prefix + "json"] = Digest(StormReportToJson(report));
      goldens[prefix + "text"] = Digest(StormReportToText(report));
      goldens[prefix + "journal"] = Digest(journal.ToJson(app.name));
    }
  }
  return goldens;
}

TEST(StormE2eTest, StormOutputMatchesGoldens) {
  const std::string path = std::string(WASABI_GOLDENS_DIR) + "/storm.golden";
  const std::map<std::string, std::string> computed = ComputeStormGoldens();

  if (std::getenv("WASABI_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    out << "# Storm report/text/journal goldens for the labs (see storm_e2e_test.cc).\n";
    for (const auto& [key, value] : computed) {
      out << key << " " << value << "\n";
    }
    GTEST_SKIP() << "goldens regenerated at " << path;
  }

  std::map<std::string, std::string> expected;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    size_t space = line.find(' ');
    if (!line.empty() && line[0] != '#' && space != std::string::npos) {
      expected[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  ASSERT_FALSE(expected.empty())
      << "no goldens at " << path << "; regenerate from a trusted build with "
      << "WASABI_UPDATE_GOLDENS=1";
  EXPECT_EQ(computed.size(), expected.size());
  for (const auto& [key, value] : expected) {
    auto found = computed.find(key);
    ASSERT_NE(found, computed.end()) << "missing golden section " << key;
    EXPECT_EQ(found->second, value) << key << " diverged from the committed storm output";
  }
}

}  // namespace
}  // namespace wasabi
