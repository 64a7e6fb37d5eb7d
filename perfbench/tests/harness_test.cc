// Tests of the benchmark harness's own logic: the tail rule, span self
// times, failure counting, and the seeded edit of `edit-rescan`.

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/checks.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/lang/sema.h"

namespace perfbench {
namespace {

size_t SamplesAbove(const std::vector<double>& values, double threshold) {
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(), [&](double v) { return v > threshold; }));
}

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(60), 83);
  EXPECT_EQ(TailPercentile(48), 79);
  EXPECT_EQ(TailPercentile(11), 9);
  EXPECT_EQ(TailPercentile(10), 0);
  for (size_t n = 11; n <= 3000; n += 7) {
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 1.0);  // Distinct samples 1..n.
    int p = TailPercentile(n);
    ASSERT_GE(p, 1);
    ASSERT_LE(p, 99);
    EXPECT_GE(SamplesAbove(values, NearestRank(values, p)), 10u) << "n=" << n;
    EXPECT_LT(SamplesAbove(values, NearestRank(values, p + 1)), 10u) << "n=" << n;
  }
}

TEST(TailRule, NearestRankAndMedian) {
  std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(NearestRank(values, 50), 3);
  EXPECT_EQ(NearestRank(values, 100), 5);
  EXPECT_EQ(NearestRank(values, 0), 5);  // No qualifying percentile: the maximum.
  EXPECT_EQ(Median(values), 3);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

wasabi::TraceEvent Span(std::string name, int64_t start, int64_t duration, int tid = 0) {
  wasabi::TraceEvent event;
  event.name = std::move(name);
  event.phase = 'X';
  event.start_us = start;
  event.duration_us = duration;
  event.tid = tid;
  return event;
}

TEST(SpanSelfTime, HandBuiltNestedTrace) {
  // root [0,100): a [10,40) holding a.inner [15,25); b [50,90) holding two
  // touching children; a worker-thread span that must not count for root.
  std::vector<wasabi::TraceEvent> events = {
      Span("b.second", 70, 20),  Span("root", 0, 100),   Span("a", 10, 30),
      Span("worker", 0, 100, 1), Span("a.inner", 15, 10), Span("b", 50, 40),
      Span("b.first", 50, 20),
  };
  wasabi::TraceEvent counter;
  counter.phase = 'C';
  events.push_back(counter);

  std::vector<int64_t> self = SelfTimesUs(events);
  std::map<std::string, int64_t> by_name;
  for (size_t i = 0; i < events.size(); ++i) {
    by_name[events[i].name] = self[i];
  }
  EXPECT_EQ(by_name["root"], 30);
  EXPECT_EQ(by_name["a"], 20);
  EXPECT_EQ(by_name["a.inner"], 10);
  EXPECT_EQ(by_name["b"], 0);
  EXPECT_EQ(by_name["b.first"], 20);
  EXPECT_EQ(by_name["b.second"], 20);
  EXPECT_EQ(by_name["worker"], 100);
  EXPECT_EQ(by_name[""], 0);  // The counter sample.

  // Self times of one thread's tree sum to its root's duration.
  int64_t main_total = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].tid == 0) {
      main_total += self[i];
    }
  }
  EXPECT_EQ(main_total, 100);
}

TEST(SpanSelfTime, ChildOverrunningItsParentIsClipped) {
  std::vector<wasabi::TraceEvent> events = {Span("parent", 0, 10), Span("child", 5, 10)};
  std::vector<int64_t> self = SelfTimesUs(events);
  EXPECT_EQ(self[0], 5);
  EXPECT_EQ(self[1], 10);
}

TEST(SpanCoverage, UnionAcrossThreads) {
  std::vector<wasabi::TraceEvent> events = {Span("a", 0, 10), Span("b", 5, 10, 1),
                                            Span("c", 30, 5), Span("d", 31, 2, 2)};
  EXPECT_EQ(CoveredUs(events), 20);

  std::vector<wasabi::TraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(
      R"({"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":3,"dur":4},)"
      R"({"name":"c","ph":"C","pid":1,"tid":0,"ts":0,"args":{"v":1}}]})",
      &parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].start_us, 3);
  EXPECT_EQ(parsed[0].duration_us, 4);
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\": [", &parsed, &error));
}

TEST(FailCounting, EachFailedInvocationCountsOnceAndBreaksItsApp) {
  // Two cycles over apps 0 and 1 with two invocations each; in cycle 1 both
  // of app 0's invocations fail.
  std::vector<Outcome> outcomes = {
      {0, 0, true}, {0, 0, true}, {0, 1, true},  {0, 1, true},
      {1, 0, false}, {1, 0, false}, {1, 1, true}, {1, 1, true},
  };
  Tally tally = CountOutcomes(outcomes);
  EXPECT_EQ(tally.attempted, 8u);
  EXPECT_EQ(tally.failed, 2u);
  EXPECT_EQ(tally.completed_apps, 3u);
}

TEST(FailCounting, CheckerRejectsBadExitsDegradedReportsAndDivergentRepeats) {
  WorkloadInputs inputs;
  inputs.apps.push_back(AppInput{"app", "app", {}, {}, {}});
  OutputChecker checker(inputs, {{AnswerKey("app", "test"), "tp=0 fp=0 fn=0"}});
  Invocation test{0, "test"};
  Invocation statics{0, "static"};

  EXPECT_NE(checker.Check(test, 1, "[\n]\n"), "");
  EXPECT_NE(checker.Check(test, 0, "{\"degraded\": true, \"bugs\": []}"), "");
  EXPECT_NE(checker.Check(test, 0, "not json"), "");
  EXPECT_NE(checker.Check(statics, 0, "[\n]\n"), "");  // No known answer.
  EXPECT_EQ(checker.Check(test, 0, "[\n]\n"), "");
  EXPECT_EQ(checker.Check(test, 0, "[\n]\n"), "");
  EXPECT_NE(checker.Check(test, 0, "[]\n"), "");  // Same reports, different bytes.

  // A report the known answer does not have.
  OutputChecker strict(inputs, {{AnswerKey("app", "test"), "tp=0 fp=0 fn=0"}});
  EXPECT_NE(strict.Check(test, 0,
                         R"([{"type": "WHEN/missing-cap", "app": "app", "file": "A.mj", )"
                         R"("coordinator": "A.run"}])"),
            "");
}

constexpr char kLedger[] = R"(// Ledger arithmetic.
class Ledger {
  int total = 0;

  int sum(items) {
    var acc = 0;
    var step = 0;
    while (step < 3) {
      acc = acc + step;
      step += 1;
    }
    return acc;
  }

  int current() {
    var total = this.total;
    return total;
  }

  int retryCount() {
    var retries = 2;
    return retries;
  }
}

class LedgerTest {
  void testSum() {
    var ledger = new Ledger();
    var acc = ledger.sum(null);
    Assert.assertEquals(3, acc);
  }
}
)";

std::vector<size_t> NewlineOffsets(const std::string& text) {
  std::vector<size_t> offsets;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      offsets.push_back(i);
    }
  }
  return offsets;
}

TEST(SeededRename, KeepsLengthAndLinesAndStillParses) {
  for (uint64_t seed : {1u, 2u, 3u, 97u}) {
    mj::DiagnosticEngine diag;
    mj::Program program;
    program.AddUnit(mj::ParseSource("app/Ledger.mj", kLedger, diag));
    ASSERT_FALSE(diag.has_errors());

    SeededRng rng(seed);
    std::optional<LocalRename> rename = PickLocalRename(program, rng);
    ASSERT_TRUE(rename.has_value());
    // `acc` also occurs in the test class, `total` is also a field read as
    // `.total`, `retries` carries a retry keyword, and LedgerTest is a test:
    // `step` is the only eligible local.
    EXPECT_EQ(rename->file, "app/Ledger.mj");
    EXPECT_EQ(rename->method, "Ledger.sum");
    EXPECT_EQ(rename->old_name, "step");
    EXPECT_EQ(rename->offsets.size(), 4u);
    EXPECT_EQ(rename->new_name.size(), rename->old_name.size());
    EXPECT_NE(rename->new_name, rename->old_name);
    EXPECT_FALSE(HasNameSensitiveWord(rename->new_name));

    std::string edited = ApplyRename(kLedger, *rename);
    EXPECT_EQ(edited.size(), std::string(kLedger).size());
    EXPECT_EQ(NewlineOffsets(edited), NewlineOffsets(kLedger));
    EXPECT_EQ(edited.find("step"), std::string::npos);
    for (uint32_t offset : rename->offsets) {
      EXPECT_EQ(edited.substr(offset, rename->new_name.size()), rename->new_name);
    }
    mj::DiagnosticEngine edited_diag;
    mj::ParseSource("app/Ledger.mj", edited, edited_diag);
    EXPECT_FALSE(edited_diag.has_errors());

    SeededRng again(seed);
    EXPECT_EQ(PickLocalRename(program, again)->new_name, rename->new_name);
  }
}

TEST(SeededRename, NoEligibleLocalYieldsNothing) {
  mj::DiagnosticEngine diag;
  mj::Program program;
  program.AddUnit(mj::ParseSource("app/Only.mj", "class OnlyTest {\n  void testIt() {\n"
                                  "    var x = 1;\n  }\n}\n", diag));
  ASSERT_FALSE(diag.has_errors());
  SeededRng rng(1);
  EXPECT_FALSE(PickLocalRename(program, rng).has_value());
}

TEST(SeededDraw, SameSeedSameBlockAndEveryPoolAppOncePerBlock) {
  SeededRng a(7);
  SeededRng b(7);
  std::vector<std::vector<std::string>> detect = DrawBlock(Workload::kDetect, a);
  EXPECT_EQ(detect, DrawBlock(Workload::kDetect, b));
  ASSERT_EQ(detect.size(), CyclesPerBlock(Workload::kDetect));
  std::multiset<std::string> seen;
  for (const std::vector<std::string>& cycle : detect) {
    ASSERT_EQ(cycle.size(), 16u);
    for (size_t i = 0; i < cycle.size(); i += 2) {
      EXPECT_NE(cycle[i], cycle[i + 1]);
      EXPECT_EQ(cycle[i].substr(0, 4), cycle[i + 1].substr(0, 4));
    }
    seen.insert(cycle.begin(), cycle.end());
  }
  std::vector<std::string> pool = wasabi::ScaledCorpusAppNames(4);
  EXPECT_EQ(seen, std::multiset<std::string>(pool.begin(), pool.end()));

  SeededRng c(7);
  std::vector<std::vector<std::string>> repair = DrawBlock(Workload::kRepair, c);
  ASSERT_EQ(repair.size(), CyclesPerBlock(Workload::kRepair));
  seen.clear();
  for (const std::vector<std::string>& cycle : repair) {
    ASSERT_EQ(cycle.size(), 10u);
    EXPECT_EQ(cycle[8], "stormlab");
    EXPECT_EQ(cycle[9], "repairlab");
    seen.insert(cycle.begin(), cycle.begin() + 8);
  }
  EXPECT_EQ(seen, std::multiset<std::string>(pool.begin(), pool.end()));
}

}  // namespace
}  // namespace perfbench
