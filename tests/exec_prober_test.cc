// Flakiness-prober tests (ctest label "flaky", docs/FLAKINESS.md).
//
// Ground truth comes from the dedicated "flakylab" corpus app, which seeds
// exactly one failing verdict per stability class: a deterministic missing
// cap (kStable), a wall-clock-window-dependent missing cap (kFlaky), and a
// degraded-environment-only missing cap (kChaosInduced). The contracts under
// test: classification against the manifest is EXACT (precision and recall 1
// on the stability labels), classifications are byte-identical at any worker
// count, and the prober behaves identically with the result cache off, cold,
// or warm.

#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/store.h"
#include "src/core/report_json.h"
#include "src/core/scoring.h"
#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"

namespace wasabi {
namespace {

namespace fs = std::filesystem;

WasabiOptions ProberOptionsFor(const CorpusApp& app, int repetitions) {
  WasabiOptions options;
  options.app_name = app.name;
  options.default_configs = app.default_configs;
  options.prober.repetitions = repetitions;
  // Every run executes in the degraded environment (env_rate 1, fault rate 0):
  // the chaos-cap seed fires deterministically while no host fault interferes.
  options.robust.chaos.enabled = true;
  options.robust.chaos.seed = 42;
  options.robust.chaos.rate = 0.0;
  options.robust.chaos.env_rate = 1.0;
  return options;
}

// Classification surface for byte-comparison across worker counts and cache
// modes: every bug's identity plus its full probed classification.
std::string ClassificationFingerprint(const DynamicResult& result) {
  std::ostringstream out;
  out << "probed=" << result.probed_runs << " stable=" << result.stable_runs
      << " flaky=" << result.flaky_runs << " chaos=" << result.chaos_induced_runs
      << " failures=" << result.probe_failures << "\n";
  out << BugReportsToJson(result.bugs);
  return out.str();
}

TEST(ProberClassificationTest, FlakylabManifestIsClassifiedExactly) {
  CorpusApp app = BuildCorpusApp("flakylab");
  Wasabi wasabi(app.program, *app.index, ProberOptionsFor(app, /*repetitions=*/3));
  DynamicResult result = wasabi.RunDynamicWorkflow();

  // One failing verdict per class, every failing run probed.
  EXPECT_GT(result.probed_runs, 0u);
  EXPECT_EQ(result.probe_failures, 0u);
  EXPECT_GT(result.flaky_runs, 0u);
  EXPECT_GT(result.chaos_induced_runs, 0u);
  EXPECT_GT(result.stable_runs, 0u);

  // Each seeded bug's classified stability matches the manifest exactly.
  std::map<std::string, VerdictStability> expected;
  for (const SeededBug& bug : app.bugs) {
    expected[bug.coordinator] = bug.expected_stability;
  }
  int matched = 0;
  for (const BugReport& bug : result.bugs) {
    auto it = expected.find(bug.coordinator);
    if (it == expected.end()) {
      continue;
    }
    ASSERT_TRUE(bug.probed) << bug.coordinator;
    EXPECT_EQ(bug.stability, it->second) << bug.coordinator;
    ++matched;
  }
  EXPECT_EQ(matched, static_cast<int>(app.bugs.size()));

  // The scorer agrees: every matched bug lands in the right stability bucket
  // and no classification mismatches are reported.
  std::vector<SeededBug> truth;
  for (const SeededBug& bug : app.bugs) {
    if (bug.type != BugType::kIfOutlier) {
      truth.push_back(bug);
    }
  }
  Scorecard scores = ScoreReports(result.bugs, truth);
  EXPECT_TRUE(scores.stability_mismatched_ids.empty());
  ScoreCell total = scores.TotalAll();
  EXPECT_EQ(total.stability_matches, static_cast<int>(truth.size()));
  EXPECT_EQ(total.false_negatives, 0);
}

TEST(ProberClassificationTest, SimLlmJudgesRootCauses) {
  CorpusApp app = BuildCorpusApp("flakylab");
  Wasabi wasabi(app.program, *app.index, ProberOptionsFor(app, /*repetitions=*/3));
  DynamicResult result = wasabi.RunDynamicWorkflow();

  for (const BugReport& bug : result.bugs) {
    if (!bug.probed) {
      continue;
    }
    if (bug.stability == VerdictStability::kStable) {
      EXPECT_TRUE(bug.flaky_cause.empty()) << bug.coordinator;
      continue;
    }
    // The two seeded non-stable modules carry unambiguous lexical evidence
    // (a Clock read vs a chaos.* config read), so with the default noise
    // settings the judged cause is the correct one.
    if (bug.stability == VerdictStability::kFlaky) {
      EXPECT_EQ(bug.flaky_cause, "timing-dependence") << bug.coordinator;
    } else {
      EXPECT_EQ(bug.flaky_cause, "chaos-environment") << bug.coordinator;
    }
  }
}

TEST(ProberDeterminismTest, ClassificationIdenticalAtEveryWorkerCount) {
  CorpusApp app = BuildCorpusApp("flakylab");
  std::string baseline;
  for (int jobs : {1, 2, 4, 8}) {
    WasabiOptions options = ProberOptionsFor(app, /*repetitions=*/2);
    options.jobs = jobs;
    Wasabi wasabi(app.program, *app.index, options);
    std::string fingerprint = ClassificationFingerprint(wasabi.RunDynamicWorkflow());
    if (baseline.empty()) {
      baseline = fingerprint;
    } else {
      EXPECT_EQ(fingerprint, baseline) << "jobs=" << jobs;
    }
  }
}

TEST(ProberDeterminismTest, WarmCacheReproducesColdClassification) {
  CorpusApp app = BuildCorpusApp("flakylab");

  // Cache off.
  WasabiOptions options = ProberOptionsFor(app, /*repetitions=*/2);
  Wasabi no_cache(app.program, *app.index, options);
  std::string off = ClassificationFingerprint(no_cache.RunDynamicWorkflow());

  fs::path dir = fs::path(::testing::TempDir()) / "wasabi_prober_cache_test";
  fs::remove_all(dir);
  std::string error;
  std::unique_ptr<CacheStore> store = CacheStore::Open(dir.string(), &error);
  ASSERT_NE(store, nullptr) << error;

  // Cold populate, then warm replay, against the same store.
  Wasabi cold(app.program, *app.index, options);
  cold.set_cache(store.get());
  DynamicResult cold_result = cold.RunDynamicWorkflow();

  Wasabi warm(app.program, *app.index, options);
  warm.set_cache(store.get());
  DynamicResult warm_result = warm.RunDynamicWorkflow();

  // The warm run re-probes nothing: it restores the cold run's reports and
  // all five prober counters from the one workflow entry.
  EXPECT_EQ(store->stats().hits_by_namespace["camp"], 1);
  EXPECT_EQ(ClassificationFingerprint(cold_result), off);
  EXPECT_EQ(ClassificationFingerprint(warm_result), off);
  EXPECT_GT(warm_result.probed_runs, 0u);
  EXPECT_EQ(warm_result.probed_runs, cold_result.probed_runs);
  EXPECT_EQ(warm_result.stable_runs, cold_result.stable_runs);
  EXPECT_EQ(warm_result.flaky_runs, cold_result.flaky_runs);
  EXPECT_EQ(warm_result.chaos_induced_runs, cold_result.chaos_induced_runs);
  EXPECT_EQ(warm_result.probe_failures, cold_result.probe_failures);
  EXPECT_NE(off.find("\"stability\""), std::string::npos) << off;

  fs::remove_all(dir);
}

TEST(ProberDeterminismTest, ProberOffLeavesReportsUnprobed) {
  CorpusApp app = BuildCorpusApp("flakylab");
  WasabiOptions options;
  options.app_name = app.name;
  options.default_configs = app.default_configs;
  Wasabi wasabi(app.program, *app.index, options);
  DynamicResult result = wasabi.RunDynamicWorkflow();
  EXPECT_EQ(result.probed_runs, 0u);
  for (const BugReport& bug : result.bugs) {
    EXPECT_FALSE(bug.probed);
  }
  // JSON stays byte-compatible with the pre-prober format: no stability keys.
  EXPECT_EQ(BugReportsToJson(result.bugs).find("\"stability\""), std::string::npos);
}

}  // namespace
}  // namespace wasabi
