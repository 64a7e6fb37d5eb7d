// Parameterized property tests for the retry oracles: sweeps over injection
// budgets (K) and oracle thresholds establish the boundary behavior the paper
// relies on (K=1 exposes HOW bugs; K=100 trips the cap threshold; the delay
// oracle needs at least two attempts).

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "src/inject/injector.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/testing/oracles.h"
#include "src/testing/runner.h"

namespace wasabi {
namespace {

// An uncapped, undelayed retry loop plus a capped, delayed one.
constexpr const char* kSource = R"(
class Uncapped {
  String go() {
    while (true) {
      try {
        return this.op();
      } catch (TimeoutException e) {
        Log.warn("retrying");
      }
    }
  }
  String op() throws TimeoutException { return "v"; }
}
class Capped {
  String go() {
    var lastError = null;
    for (var retry = 0; retry < 5; retry++) {
      try {
        return this.op();
      } catch (TimeoutException e) {
        lastError = e;
        Thread.sleep(10);
      }
    }
    throw lastError;
  }
  String op() throws TimeoutException { return "v"; }
}
class Subclassing {
  String go() throws SocketTimeoutException {
    for (var retry = 0; retry < 3; retry++) {
      try {
        return this.op();
      } catch (IOException e) {
        throw new SocketTimeoutException("gave up after io failure");
      }
    }
    return "";
  }
  String op() throws IOException { return "v"; }
}
class SweepTest {
  void testUncapped() {
    var u = new Uncapped();
    u.go();
  }
  void testCapped() {
    var c = new Capped();
    c.go();
  }
  void testSubclassing() {
    var s = new Subclassing();
    s.go();
  }
}
)";

class OracleSweepFixture {
 public:
  OracleSweepFixture() {
    mj::DiagnosticEngine diag;
    program_.AddUnit(mj::ParseSource("sweep.mj", kSource, diag));
    EXPECT_FALSE(diag.has_errors());
    index_ = std::make_unique<mj::ProgramIndex>(program_);
    runner_ = std::make_unique<TestRunner>(program_, *index_);
  }

  TestRunRecord Run(const std::string& cls, int k) {
    FaultInjector injector(
        {InjectionPoint{cls + ".op", cls + ".go", TriggerFor(cls), k}});
    return runner_->RunTest(TestCase{"SweepTest.test" + cls}, {&injector});
  }

  static RetryLocation LocationFor(const std::string& cls) {
    RetryLocation location;
    location.coordinator = cls + ".go";
    location.retried_method = cls + ".op";
    location.exception_name = TriggerFor(cls);
    location.file = "sweep.mj";
    return location;
  }

  static std::string TriggerFor(const std::string& cls) {
    return cls == "Subclassing" ? "IOException" : "TimeoutException";
  }

 private:
  mj::Program program_;
  std::unique_ptr<mj::ProgramIndex> index_;
  std::unique_ptr<TestRunner> runner_;
};

OracleSweepFixture& Fixture() {
  static auto* fixture = new OracleSweepFixture();
  return *fixture;
}

// --- Sweep K for the uncapped loop: cap fires iff K >= threshold. -----------

class CapThresholdSweep : public ::testing::TestWithParam<int> {};

TEST_P(CapThresholdSweep, CapOracleFiresExactlyAtThreshold) {
  int k = GetParam();
  TestRunRecord record = Fixture().Run("Uncapped", k);
  OracleOptions options;  // Threshold 100.
  bool cap = false;
  bool delay = false;
  for (const OracleReport& report :
       EvaluateOracles(record, OracleSweepFixture::LocationFor("Uncapped"), options)) {
    cap |= report.kind == OracleKind::kMissingCap;
    delay |= report.kind == OracleKind::kMissingDelay;
  }
  EXPECT_EQ(cap, k >= 100) << "K=" << k;
  // The delay oracle fires from 2 injections onward (no sleeps anywhere).
  EXPECT_EQ(delay, k >= 2) << "K=" << k;
}

INSTANTIATE_TEST_SUITE_P(KValues, CapThresholdSweep,
                         ::testing::Values(1, 2, 5, 50, 99, 100, 150));

// --- Sweep the cap threshold itself against a fixed K. -----------------------

class ThresholdSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSweep, LowerThresholdsTripOnCappedRetryToo) {
  int threshold = GetParam();
  TestRunRecord record = Fixture().Run("Capped", kInjectRepeatedly);  // 5 injections max.
  OracleOptions options;
  options.cap_injection_threshold = threshold;
  bool cap = false;
  for (const OracleReport& report :
       EvaluateOracles(record, OracleSweepFixture::LocationFor("Capped"), options)) {
    cap |= report.kind == OracleKind::kMissingCap;
  }
  // The capped loop performs exactly 5 attempts: thresholds <= 5 flag it
  // (over-strict policy), thresholds > 5 stay quiet.
  EXPECT_EQ(cap, threshold <= 5) << "threshold=" << threshold;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep, ::testing::Values(2, 5, 6, 20, 100));

// --- Delay-oracle minimum-injection boundary. -----------------------------------

class DelayMinSweep : public ::testing::TestWithParam<int> {};

TEST_P(DelayMinSweep, DelayOracleRespectsMinimumInjections) {
  int min_injections = GetParam();
  TestRunRecord record = Fixture().Run("Uncapped", 3);  // Exactly 3 injections.
  OracleOptions options;
  options.delay_min_injections = min_injections;
  bool delay = false;
  for (const OracleReport& report :
       EvaluateOracles(record, OracleSweepFixture::LocationFor("Uncapped"), options)) {
    delay |= report.kind == OracleKind::kMissingDelay;
  }
  EXPECT_EQ(delay, min_injections <= 3) << "min=" << min_injections;
}

INSTANTIATE_TEST_SUITE_P(Minimums, DelayMinSweep, ::testing::Values(2, 3, 4, 10));

// --- The capped loop is clean under every K. --------------------------------------

class CappedCleanSweep : public ::testing::TestWithParam<int> {};

TEST_P(CappedCleanSweep, WellBehavedRetryNeverReported) {
  TestRunRecord record = Fixture().Run("Capped", GetParam());
  std::vector<OracleReport> reports =
      EvaluateOracles(record, OracleSweepFixture::LocationFor("Capped"));
  EXPECT_TRUE(reports.empty()) << "K=" << GetParam() << " first report: "
                               << (reports.empty() ? "" : reports[0].detail);
}

INSTANTIATE_TEST_SUITE_P(KValues, CappedCleanSweep, ::testing::Values(1, 2, 4, 5, 100));

// --- K=0: an armed-but-exhausted injector must be a no-op. -------------------

class ZeroBudgetSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ZeroBudgetSweep, ZeroInjectionBudgetInjectsNothingAndReportsNothing) {
  TestRunRecord record = Fixture().Run(GetParam(), 0);
  ASSERT_EQ(record.injection_counts.size(), 1u);
  EXPECT_EQ(record.injection_counts[0], 0);
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed);
  EXPECT_TRUE(
      EvaluateOracles(record, OracleSweepFixture::LocationFor(GetParam())).empty());
}

INSTANTIATE_TEST_SUITE_P(Classes, ZeroBudgetSweep,
                         ::testing::Values("Uncapped", "Capped", "Subclassing"));

// --- Retry cap exactly equal to K: correct give-up, not a bug. ---------------

TEST(OracleBoundaries, CapEqualToBudgetIsCorrectGiveUpBehavior) {
  // Capped retries 5 times; a budget of exactly 5 forces every attempt to fail
  // and the loop to give up by rethrowing the last (injected) exception.
  TestRunRecord record = Fixture().Run("Capped", 5);
  ASSERT_EQ(record.injection_counts.size(), 1u);
  EXPECT_EQ(record.injection_counts[0], 5);
  EXPECT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "TimeoutException");
  // Rethrowing the trigger itself is correct behavior: no oracle may fire —
  // not different-exception (same class) and not missing-cap (5 < 100).
  EXPECT_TRUE(EvaluateOracles(record, OracleSweepFixture::LocationFor("Capped")).empty());
}

// --- Subclass of the trigger is still a DIFFERENT exception. ----------------

TEST(OracleBoundaries, RethrownSubclassOfTriggerCountsAsDifferentException) {
  // Subclassing.go catches the injected IOException and gives up with a
  // SocketTimeoutException — a SUBCLASS of the trigger. The oracle matches
  // exception classes exactly (the paper's log-based check), so the subclass
  // is evidence of a HOW bug, not absorbed as a rethrow. Pinned here so a
  // future "subsumption-aware" comparison is a deliberate change.
  TestRunRecord record = Fixture().Run("Subclassing", kInjectOnce);
  EXPECT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "SocketTimeoutException");

  std::vector<OracleReport> reports =
      EvaluateOracles(record, OracleSweepFixture::LocationFor("Subclassing"));
  bool different = false;
  for (const OracleReport& report : reports) {
    different |= report.kind == OracleKind::kDifferentException;
  }
  EXPECT_TRUE(different)
      << "subclass rethrow must trip the different-exception oracle";
}

// --- Timeout evidence names the specific abort reason. -----------------------

struct AbortDetailCase {
  AbortReason reason;
  const char* expected_phrase;
};

// gtest puts both the case name and the printed parameter into the ctest
// name. Both come from the reason, so the names are stable across builds
// (the default printer would dump the phrase pointer's bytes).
void PrintTo(const AbortDetailCase& c, std::ostream* os) { *os << AbortReasonName(c.reason); }

std::string AbortDetailCaseName(const ::testing::TestParamInfo<AbortDetailCase>& info) {
  switch (info.param.reason) {
    case AbortReason::kStepBudget:
      return "StepBudget";
    case AbortReason::kVirtualTimeBudget:
      return "VirtualTimeBudget";
    case AbortReason::kStackOverflow:
      return "StackOverflow";
  }
  return "Unknown";
}

class AbortReasonDetailSweep : public ::testing::TestWithParam<AbortDetailCase> {};

TEST_P(AbortReasonDetailSweep, TimeoutCapEvidenceNamesTheAbortKind) {
  // A step-budget abort (sleepless runaway loop), a virtual-time abort (the
  // paper's 15-minute timeout), and a stack overflow (unbounded retry
  // recursion) are different pathologies; the cap verdict must say which one
  // the run hit instead of a generic "budget exceeded".
  const AbortDetailCase& c = GetParam();
  TestRunRecord record;
  record.test = TestCase{"SweepTest.testUncapped"};
  record.outcome.status = TestStatus::kTimeout;
  record.outcome.abort_reason = AbortReasonName(c.reason);
  record.outcome.abort_kind = c.reason;

  std::vector<OracleReport> reports =
      EvaluateOracles(record, OracleSweepFixture::LocationFor("Uncapped"));
  const OracleReport* cap = nullptr;
  for (const OracleReport& report : reports) {
    if (report.kind == OracleKind::kMissingCap) {
      cap = &report;
    }
  }
  ASSERT_NE(cap, nullptr) << "a timeout must trip the cap oracle";
  EXPECT_NE(cap->detail.find(c.expected_phrase), std::string::npos)
      << "detail was: " << cap->detail;
}

INSTANTIATE_TEST_SUITE_P(
    Reasons, AbortReasonDetailSweep,
    ::testing::Values(
        AbortDetailCase{.reason = AbortReason::kStepBudget,
                        .expected_phrase = "exhausted the step budget"},
        AbortDetailCase{.reason = AbortReason::kVirtualTimeBudget,
                        .expected_phrase = "exceeded the virtual-time budget"},
        AbortDetailCase{.reason = AbortReason::kStackOverflow,
                        .expected_phrase = "overflowed the call stack"}),
    AbortDetailCaseName);

// --- Cause chains: deep wraps and cycles (§4.5 wrapped-exception pruning). ---

constexpr const char* kWrapSource = R"(
class DeepWrap {
  String go() {
    for (var retry = 0; retry < 3; retry++) {
      try {
        return this.op();
      } catch (TimeoutException e) {
        throw new IllegalStateException("outer wrapper", new RuntimeException("middle wrapper", e));
      }
    }
    return "";
  }
  String op() throws TimeoutException { return "v"; }
}
class Cyclic {
  String go() { return this.op(); }
  String op() { return "v"; }
}
class ChainTest {
  void testDeepWrap() {
    var d = new DeepWrap();
    d.go();
  }
  void testCyclic() {
    var c = new Cyclic();
    c.go();
  }
}
)";

struct WrapFixture {
  WrapFixture() {
    mj::DiagnosticEngine diag;
    program.AddUnit(mj::ParseSource("wrap.mj", kWrapSource, diag));
    EXPECT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
    index = std::make_unique<mj::ProgramIndex>(program);
    runner = std::make_unique<TestRunner>(program, *index);
  }

  static RetryLocation Location(const std::string& cls) {
    RetryLocation location;
    location.coordinator = cls + ".go";
    location.retried_method = cls + ".op";
    location.exception_name = "TimeoutException";
    location.file = "wrap.mj";
    return location;
  }

  mj::Program program;
  std::unique_ptr<mj::ProgramIndex> index;
  std::unique_ptr<TestRunner> runner;
};

TEST(CauseChainOracle, WrapDepthTwoIsPrunedOnlyWithCauseChainScan) {
  // DeepWrap rethrows the injected TimeoutException under TWO layers of
  // wrapping: IllegalStateException -> RuntimeException -> TimeoutException.
  // The §4.5 mitigation must find the injected class anywhere in the cause
  // chain, not just one level down.
  WrapFixture fixture;
  FaultInjector injector(
      {InjectionPoint{"DeepWrap.op", "DeepWrap.go", "TimeoutException", kInjectOnce}});
  TestRunRecord record =
      fixture.runner->RunTest(TestCase{"ChainTest.testDeepWrap"}, {&injector});

  ASSERT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "IllegalStateException");
  ASSERT_EQ(record.outcome.cause_chain.size(), 2u);
  EXPECT_EQ(record.outcome.cause_chain[0], "RuntimeException");
  EXPECT_EQ(record.outcome.cause_chain[1], "TimeoutException");

  // Without pruning, the wrapper counts as a different exception (a report).
  OracleOptions no_prune;
  no_prune.prune_wrapped_exceptions = false;
  bool different = false;
  for (const OracleReport& report :
       EvaluateOracles(record, WrapFixture::Location("DeepWrap"), no_prune)) {
    different |= report.kind == OracleKind::kDifferentException;
  }
  EXPECT_TRUE(different);

  // With pruning, the injected class two causes deep absorbs the report.
  OracleOptions prune;
  prune.prune_wrapped_exceptions = true;
  for (const OracleReport& report :
       EvaluateOracles(record, WrapFixture::Location("DeepWrap"), prune)) {
    EXPECT_NE(report.kind, OracleKind::kDifferentException)
        << "depth-2 wrapped injected exception must be pruned: " << report.detail;
  }
}

// Raises an exception whose cause chain is a two-node CYCLE — buildable only
// from the host side (mj constructors set causes at creation, so mj programs
// cannot close the loop). The runner must terminate while extracting it. The
// interceptor keeps both exceptions and opens the cycle when it is destroyed,
// so the shared_ptr pair does not outlive the test.
class CyclicCauseInterceptor : public CallInterceptor {
 public:
  ~CyclicCauseInterceptor() override {
    if (inner_ != nullptr) {
      inner_->set_cause(nullptr);
    }
  }

  ObjectRef OnCall(const CallEvent& event, Interpreter& interp) override {
    if (event.callee != "Cyclic.op" || outer_ != nullptr) {
      return nullptr;
    }
    outer_ = interp.MakeException("RuntimeException", "wrapper in a cause cycle");
    inner_ = interp.MakeException("IOException", "inner in a cause cycle");
    outer_->set_cause(inner_);
    inner_->set_cause(outer_);
    return outer_;
  }

 private:
  ObjectRef outer_;
  ObjectRef inner_;
};

TEST(CauseChainOracle, CyclicCauseChainIsCappedAndStillPrunable) {
  WrapFixture fixture;
  CyclicCauseInterceptor interceptor;
  TestRunRecord record =
      fixture.runner->RunTest(TestCase{"ChainTest.testCyclic"}, {&interceptor});

  // The runner walked the cycle without hanging and capped the recorded chain.
  ASSERT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "RuntimeException");
  ASSERT_EQ(record.outcome.cause_chain.size(), 8u) << "cause extraction must cap cycles";
  for (size_t i = 0; i < record.outcome.cause_chain.size(); ++i) {
    EXPECT_EQ(record.outcome.cause_chain[i], i % 2 == 0 ? "IOException" : "RuntimeException");
  }

  OracleOptions prune;
  prune.prune_wrapped_exceptions = true;

  // An injected class that appears inside the cycle is treated as the fault
  // propagating (pruned)...
  record.injected_points = {InjectionPoint{"Cyclic.op", "Cyclic.go", "IOException", 1}};
  record.injection_counts = {1};
  for (const OracleReport& report :
       EvaluateOracles(record, WrapFixture::Location("Cyclic"), prune)) {
    EXPECT_NE(report.kind, OracleKind::kDifferentException)
        << "injected class inside the cause cycle must be pruned";
  }

  // ...while an unrelated injected class still yields a report even though
  // the chain is cyclic.
  record.injected_points = {InjectionPoint{"Cyclic.op", "Cyclic.go", "TimeoutException", 1}};
  bool different = false;
  for (const OracleReport& report :
       EvaluateOracles(record, WrapFixture::Location("Cyclic"), prune)) {
    different |= report.kind == OracleKind::kDifferentException;
  }
  EXPECT_TRUE(different);
}

TEST(AbortReasonDetail, RunnerRecordsStructuredAbortKindFromRealExecution) {
  // End-to-end: the uncapped loop driven with an effectively unlimited
  // injection budget (kInjectRepeatedly would exhaust and let the run pass)
  // really does abort, and the runner surfaces the structured kind alongside
  // the name. A small step budget keeps the spin cheap.
  mj::DiagnosticEngine diag;
  mj::Program program;
  program.AddUnit(mj::ParseSource("sweep.mj", kSource, diag));
  ASSERT_FALSE(diag.has_errors());
  mj::ProgramIndex index(program);
  RunnerOptions options;
  options.interp.step_budget = 50'000;
  TestRunner runner(program, index, options);
  FaultInjector injector({InjectionPoint{
      "Uncapped.op", "Uncapped.go", "TimeoutException", 1 << 30}});
  TestRunRecord record =
      runner.RunTest(TestCase{"SweepTest.testUncapped"}, {&injector});
  ASSERT_EQ(record.outcome.status, TestStatus::kTimeout);
  EXPECT_EQ(record.outcome.abort_reason, AbortReasonName(record.outcome.abort_kind));
}

}  // namespace
}  // namespace wasabi
