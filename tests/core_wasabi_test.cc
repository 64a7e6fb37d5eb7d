// End-to-end tests for the Wasabi facade on corpus applications.

#include "src/core/wasabi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/core/scoring.h"
#include "src/corpus/corpus.h"

namespace wasabi {
namespace {

WasabiOptions OptionsFor(const CorpusApp& app) {
  WasabiOptions options;
  options.app_name = app.name;
  options.default_configs = app.default_configs;
  return options;
}

// Seeded bugs a given technique can possibly detect.
std::vector<SeededBug> TruthFor(const CorpusApp& app, DetectionTechnique technique) {
  std::vector<SeededBug> truth;
  for (const SeededBug& bug : app.bugs) {
    switch (technique) {
      case DetectionTechnique::kUnitTesting:
        if (bug.type != BugType::kIfOutlier) {
          truth.push_back(bug);
        }
        break;
      case DetectionTechnique::kLlmStatic:
        if (bug.type == BugType::kWhenMissingCap || bug.type == BugType::kWhenMissingDelay) {
          truth.push_back(bug);
        }
        break;
      case DetectionTechnique::kCodeQlStatic:
        if (bug.type == BugType::kIfOutlier) {
          truth.push_back(bug);
        }
        break;
      case DetectionTechnique::kStormSim:
        if (bug.type == BugType::kStormMissingJitter ||
            bug.type == BugType::kStormUnboundedFanout ||
            bug.type == BugType::kStormRetryOnOverload) {
          truth.push_back(bug);
        }
        break;
    }
  }
  return truth;
}

TEST(WasabiIdentificationTest, FindsAllThreeMechanismsInHBase) {
  CorpusApp app = BuildCorpusApp("hbase");
  Wasabi wasabi(app.program, *app.index, OptionsFor(app));
  IdentificationResult identification = wasabi.IdentifyRetryStructures();

  int loops = 0;
  int queues = 0;
  int state_machines = 0;
  int by_codeql = 0;
  int by_llm = 0;
  for (const RetryStructure& structure : identification.structures) {
    switch (structure.mechanism) {
      case RetryMechanism::kLoop:
        ++loops;
        break;
      case RetryMechanism::kQueue:
        ++queues;
        break;
      case RetryMechanism::kStateMachine:
        ++state_machines;
        break;
    }
    by_codeql += structure.found_by.codeql ? 1 : 0;
    by_llm += structure.found_by.llm ? 1 : 0;
  }
  EXPECT_GT(loops, 10);
  EXPECT_GE(queues, 2);
  EXPECT_GE(state_machines, 2);
  // CodeQL sees only loops; the LLM adds the non-loop structures (Fig. 4).
  EXPECT_GT(by_codeql, 0);
  EXPECT_GT(by_llm, 0);
  for (const RetryStructure& structure : identification.structures) {
    if (structure.mechanism != RetryMechanism::kLoop) {
      EXPECT_FALSE(structure.found_by.codeql)
          << structure.coordinator << " non-loop retry cannot come from control-flow analysis";
    }
  }
  // The large-file module makes at least one file exceed the attention window.
  EXPECT_GE(identification.files_truncated_by_llm, 1u);
  // The keyword filter prunes candidate loops.
  EXPECT_GT(identification.candidate_loops_without_keyword_filter, 0u);
  EXPECT_GT(identification.llm_usage.calls, 0);
}

TEST(WasabiDynamicTest, FindsSeededBugsInHBaseWithGoodPrecision) {
  CorpusApp app = BuildCorpusApp("hbase");
  Wasabi wasabi(app.program, *app.index, OptionsFor(app));
  DynamicResult result = wasabi.RunDynamicWorkflow();

  ASSERT_FALSE(result.bugs.empty());
  Scorecard score =
      ScoreReports(result.bugs, TruthFor(app, DetectionTechnique::kUnitTesting));

  // Every tested seeded WHEN/HOW bug except the designed false negative
  // (halved cap) should be found.
  for (const SeededBug& missed : score.missed_bugs) {
    bool expected_miss = !missed.reachable_from_tests ||
                         missed.note.find("false negative") != std::string::npos ||
                         missed.note.find("only static") != std::string::npos;
    EXPECT_TRUE(expected_miss) << "unexpected FN: " << missed.id << " " << missed.note;
  }

  ScoreCell total = score.TotalAll();
  EXPECT_GT(total.true_positives, 5);
  // Paper: ~2 true bugs per false positive for unit testing. Allow slack but
  // require precision clearly above 50%.
  EXPECT_GT(total.true_positives, total.false_positives);

  // Planner bookkeeping.
  EXPECT_GT(result.total_tests, result.tests_covering_retry);
  EXPECT_GT(result.naive_runs, result.planned_runs);
  EXPECT_GT(result.structures_identified, result.structures_covered);
}

TEST(WasabiDynamicTest, HarnessStyleTestProducesCapFalsePositiveInYarn) {
  // Yarn's only unit-testing report should be the documented harness-loop
  // missing-cap false positive (the paper's Table 3 Yarn cell: 1 report, 1 FP).
  CorpusApp app = BuildCorpusApp("yarn");
  Wasabi wasabi(app.program, *app.index, OptionsFor(app));
  DynamicResult result = wasabi.RunDynamicWorkflow();
  Scorecard score = ScoreReports(result.bugs, TruthFor(app, DetectionTechnique::kUnitTesting));
  ScoreCell total = score.TotalAll();
  EXPECT_GE(total.false_positives, 1);
  EXPECT_EQ(total.true_positives, 0);
}

TEST(WasabiStaticTest, LlmFindsWhenBugsIncludingUntestedOnes) {
  CorpusApp app = BuildCorpusApp("yarn");
  Wasabi wasabi(app.program, *app.index, OptionsFor(app));
  StaticResult result = wasabi.RunStaticWorkflow();

  Scorecard score =
      ScoreReports(result.when_bugs, TruthFor(app, DetectionTechnique::kLlmStatic));
  // The untested nocap/nodelay bugs are reachable only statically.
  EXPECT_GE(score.TotalAll().true_positives, 2);
}

TEST(WasabiStaticTest, IfOutliersDetectedInHBase) {
  CorpusApp app = BuildCorpusApp("hbase");
  Wasabi wasabi(app.program, *app.index, OptionsFor(app));
  StaticResult result = wasabi.RunStaticWorkflow();
  ASSERT_FALSE(result.if_outliers.empty());
  bool keeper_found = false;
  for (const IfOutlierReport& outlier : result.if_outliers) {
    if (outlier.exception == "KeeperConnectionLossException") {
      keeper_found = true;
      EXPECT_TRUE(outlier.mostly_retried);
      EXPECT_EQ(outlier.outlier_sites.size(), 2u);
    }
  }
  EXPECT_TRUE(keeper_found);

  Scorecard score =
      ScoreReports(result.if_bugs, TruthFor(app, DetectionTechnique::kCodeQlStatic));
  EXPECT_EQ(score.TotalAll().true_positives, 2);
}

TEST(WasabiOverlapTest, WorkflowsOverlapPartially) {
  CorpusApp app = BuildCorpusApp("hdfs");
  Wasabi wasabi(app.program, *app.index, OptionsFor(app));
  DynamicResult dynamic = wasabi.RunDynamicWorkflow();
  StaticResult statics = wasabi.RunStaticWorkflow();

  OverlapSummary overlap = ComputeOverlap(dynamic.bugs, statics.when_bugs);
  // Figure 3: each region non-empty — unit testing finds HOW bugs and
  // config-dependent cap bugs statics cannot; the LLM finds untested/benign
  // cases; well-behaved WHEN bugs are found by both.
  EXPECT_GT(overlap.both, 0);
  EXPECT_GT(overlap.unit_only, 0);
  EXPECT_GT(overlap.static_only, 0);
}

TEST(WasabiAblationTest, PlannerReducesRunsWithoutLosingBugs) {
  CorpusApp app = BuildCorpusApp("hacommon");
  WasabiOptions with_planner = OptionsFor(app);
  Wasabi planned(app.program, *app.index, with_planner);
  DynamicResult planned_result = planned.RunDynamicWorkflow();

  WasabiOptions no_planner = OptionsFor(app);
  no_planner.use_planner = false;
  Wasabi naive(app.program, *app.index, no_planner);
  DynamicResult naive_result = naive.RunDynamicWorkflow();

  EXPECT_LT(planned_result.planned_runs, naive_result.planned_runs);

  // The planned run finds the same set of seeded bugs.
  Scorecard planned_score =
      ScoreReports(planned_result.bugs, TruthFor(app, DetectionTechnique::kUnitTesting));
  Scorecard naive_score =
      ScoreReports(naive_result.bugs, TruthFor(app, DetectionTechnique::kUnitTesting));
  EXPECT_EQ(planned_score.TotalAll().true_positives, naive_score.TotalAll().true_positives);
}

TEST(WasabiAblationTest, OraclesSlashFalseReports) {
  CorpusApp app = BuildCorpusApp("hacommon");
  WasabiOptions with_oracles = OptionsFor(app);
  Wasabi tool(app.program, *app.index, with_oracles);
  DynamicResult with_result = tool.RunDynamicWorkflow();

  WasabiOptions no_oracles = OptionsFor(app);
  no_oracles.use_oracles = false;
  Wasabi naive(app.program, *app.index, no_oracles);
  DynamicResult without_result = naive.RunDynamicWorkflow();

  // Without oracles every crash (mostly re-thrown injected exceptions) becomes
  // a report, and all cap/delay bugs disappear.
  int naive_cap_or_delay = 0;
  for (const BugReport& bug : without_result.bugs) {
    if (bug.type != BugType::kHow) {
      ++naive_cap_or_delay;
    }
  }
  EXPECT_EQ(naive_cap_or_delay, 0);
  EXPECT_GT(without_result.bugs.size(), with_result.bugs.size());
}

TEST(WasabiDeterminismTest, RepeatedRunsAgree) {
  CorpusApp app = BuildCorpusApp("cassandra");
  Wasabi wasabi(app.program, *app.index, OptionsFor(app));
  DynamicResult first = wasabi.RunDynamicWorkflow();
  DynamicResult second = wasabi.RunDynamicWorkflow();
  ASSERT_EQ(first.bugs.size(), second.bugs.size());
  for (size_t i = 0; i < first.bugs.size(); ++i) {
    EXPECT_EQ(first.bugs[i].group_key, second.bugs[i].group_key);
  }
}

}  // namespace
}  // namespace wasabi
