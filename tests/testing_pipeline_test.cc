// Tests for the dynamic-testing substrate: injector, runner, coverage mapper,
// planner, oracles, and config restoration — on purpose-built buggy programs
// mirroring the paper's bug classes.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/inject/injector.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/testing/config_restore.h"
#include "src/testing/coverage.h"
#include "src/testing/oracles.h"
#include "src/testing/runner.h"

namespace wasabi {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void Load(std::initializer_list<std::string> sources) {
    mj::DiagnosticEngine diag;
    int i = 0;
    for (const std::string& text : sources) {
      program_.AddUnit(mj::ParseSource("unit" + std::to_string(i++) + ".mj", text, diag));
    }
    ASSERT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
    index_ = std::make_unique<mj::ProgramIndex>(program_);
    runner_ = std::make_unique<TestRunner>(program_, *index_);
  }

  RetryLocation MakeLocation(const std::string& coordinator, const std::string& retried,
                             const std::string& exception) {
    RetryLocation location;
    location.coordinator = coordinator;
    location.retried_method = retried;
    location.exception_name = exception;
    location.file = "unit0.mj";
    return location;
  }

  mj::Program program_;
  std::unique_ptr<mj::ProgramIndex> index_;
  std::unique_ptr<TestRunner> runner_;
};

// A client with a well-behaved retry (cap + delay), plus a unit test.
constexpr const char* kGoodRetrySource = R"(
class GoodClient {
  int attempts = 0;
  String fetchWithRetry() {
    for (var retry = 0; retry < 5; retry++) {
      try {
        return this.fetch();
      } catch (ConnectException e) {
        this.attempts += 1;
        Thread.sleep(100);
      }
    }
    throw new ConnectException("gave up");
  }
  String fetch() throws ConnectException {
    return "data";
  }
}
class GoodClientTest {
  void testFetch() {
    var c = new GoodClient();
    Assert.assertEquals("data", c.fetchWithRetry());
  }
}
)";

// A client whose retry loop has neither a cap nor a delay (WHEN bugs).
constexpr const char* kUncappedSource = R"(
class BadClient {
  String fetchWithRetry() {
    while (true) {
      try {
        return this.fetch();
      } catch (ConnectException e) {
        Log.warn("retrying");
      }
    }
  }
  String fetch() throws ConnectException {
    return "data";
  }
}
class BadClientTest {
  void testFetch() {
    var c = new BadClient();
    Assert.assertEquals("data", c.fetchWithRetry());
  }
}
)";

TEST_F(PipelineTest, DiscoverTestsFindsTestMethods) {
  Load({kGoodRetrySource, kUncappedSource});
  std::vector<TestCase> tests = runner_->DiscoverTests();
  ASSERT_EQ(tests.size(), 2u);
  EXPECT_EQ(tests[0].qualified_name, "GoodClientTest.testFetch");
  EXPECT_EQ(tests[1].qualified_name, "BadClientTest.testFetch");
}

TEST_F(PipelineTest, CleanRunPasses) {
  Load({kGoodRetrySource});
  TestRunRecord record = runner_->RunTest(TestCase{"GoodClientTest.testFetch"});
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed);
  EXPECT_EQ(record.virtual_duration_ms, 0);
}

TEST_F(PipelineTest, InjectorThrowsKTimesThenStops) {
  Load({kGoodRetrySource});
  FaultInjector injector({InjectionPoint{"GoodClient.fetch", "GoodClient.fetchWithRetry",
                                         "ConnectException", 3}});
  TestRunRecord record = runner_->RunTest(TestCase{"GoodClientTest.testFetch"}, {&injector});
  // 3 injections, then the 4th attempt succeeds: test passes.
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed) << record.outcome.exception_class;
  EXPECT_EQ(injector.TotalInjections(), 3);
  // The client slept between attempts.
  EXPECT_EQ(record.virtual_duration_ms, 300);
}

TEST_F(PipelineTest, GoodRetryUnderHeavyInjectionGivesUpWithInjectedException) {
  Load({kGoodRetrySource});
  FaultInjector injector({InjectionPoint{"GoodClient.fetch", "GoodClient.fetchWithRetry",
                                         "ConnectException", kInjectRepeatedly}});
  TestRunRecord record = runner_->RunTest(TestCase{"GoodClientTest.testFetch"}, {&injector});
  // Cap of 5 attempts, then the loop exits and throws ConnectException.
  EXPECT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "ConnectException");
  EXPECT_EQ(injector.TotalInjections(), 5);

  // Oracles: nothing to report — capped, delayed, same-exception crash.
  RetryLocation location =
      MakeLocation("GoodClient.fetchWithRetry", "GoodClient.fetch", "ConnectException");
  std::vector<OracleReport> reports = EvaluateOracles(record, location);
  EXPECT_TRUE(reports.empty()) << OracleKindName(reports[0].kind);
}

TEST_F(PipelineTest, MissingCapAndDelayDetected) {
  Load({kUncappedSource});
  FaultInjector injector({InjectionPoint{"BadClient.fetch", "BadClient.fetchWithRetry",
                                         "ConnectException", kInjectRepeatedly}});
  TestRunRecord record = runner_->RunTest(TestCase{"BadClientTest.testFetch"}, {&injector});
  // After 100 injections the injector stops and the loop finally succeeds.
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed);
  EXPECT_EQ(injector.TotalInjections(), 100);

  RetryLocation location =
      MakeLocation("BadClient.fetchWithRetry", "BadClient.fetch", "ConnectException");
  std::vector<OracleReport> reports = EvaluateOracles(record, location);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].kind, OracleKind::kMissingCap);
  EXPECT_EQ(reports[1].kind, OracleKind::kMissingDelay);
}

TEST_F(PipelineTest, DelayOracleNotFooledBySleepFromOtherMethods) {
  // The sleep happens in an unrelated helper (not the coordinator): the
  // missing-delay oracle must still fire (§3.1.3 call-stack check).
  Load({R"(
    class Sneaky {
      String fetchWithRetry() {
        while (true) {
          try {
            return this.fetch();
          } catch (ConnectException e) {
            this.unrelatedBookkeeping();
          }
        }
      }
      void unrelatedBookkeeping() { }
      String fetch() throws ConnectException { return "x"; }
    }
    class OtherActor {
      void pump() {
        Thread.sleep(50);
      }
    }
    class SneakyTest {
      void testFetch() {
        var s = new Sneaky();
        var o = new OtherActor();
        o.pump();
        Assert.assertEquals("x", s.fetchWithRetry());
      }
    }
  )"});
  FaultInjector injector(
      {InjectionPoint{"Sneaky.fetch", "Sneaky.fetchWithRetry", "ConnectException", 10}});
  TestRunRecord record = runner_->RunTest(TestCase{"SneakyTest.testFetch"}, {&injector});
  RetryLocation location =
      MakeLocation("Sneaky.fetchWithRetry", "Sneaky.fetch", "ConnectException");
  std::vector<OracleReport> reports = EvaluateOracles(record, location);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, OracleKind::kMissingDelay);
}

TEST_F(PipelineTest, DelayViaCalleeHelperCountsBecauseCoordinatorIsOnStack) {
  // Sleep inside a helper CALLED BY the coordinator: the coordinator is on the
  // sleep's call stack, so the delay is credited (no report).
  Load({R"(
    class Helper {
      void pause() {
        Thread.sleep(100);
      }
    }
    class Client {
      Helper helper = new Helper();
      String fetchWithRetry() {
        while (true) {
          try {
            return this.fetch();
          } catch (ConnectException e) {
            this.helper.pause();
          }
        }
      }
      String fetch() throws ConnectException { return "x"; }
    }
    class ClientTest {
      void testFetch() {
        var c = new Client();
        Assert.assertEquals("x", c.fetchWithRetry());
      }
    }
  )"});
  FaultInjector injector(
      {InjectionPoint{"Client.fetch", "Client.fetchWithRetry", "ConnectException", 10}});
  TestRunRecord record = runner_->RunTest(TestCase{"ClientTest.testFetch"}, {&injector});
  RetryLocation location =
      MakeLocation("Client.fetchWithRetry", "Client.fetch", "ConnectException");
  std::vector<OracleReport> reports = EvaluateOracles(record, location);
  EXPECT_TRUE(reports.empty());
}

TEST_F(PipelineTest, TimeoutBecomesMissingCapReport) {
  // Infinite retry WITH delay: the virtual clock blows the 15-minute budget
  // before 100 injections... with 100ms sleeps it takes 9000 attempts, so
  // injections hit 100 first; to force the timeout path, use a big backoff.
  Load({R"(
    class SlowClient {
      String fetchWithRetry() {
        while (true) {
          try {
            return this.fetch();
          } catch (ConnectException e) {
            Thread.sleep(600000);
          }
        }
      }
      String fetch() throws ConnectException { return "x"; }
    }
    class SlowClientTest {
      void testFetch() {
        var c = new SlowClient();
        c.fetchWithRetry();
      }
    }
  )"});
  FaultInjector injector(
      {InjectionPoint{"SlowClient.fetch", "SlowClient.fetchWithRetry", "ConnectException", 5}});
  TestRunRecord record = runner_->RunTest(TestCase{"SlowClientTest.testFetch"}, {&injector});
  EXPECT_EQ(record.outcome.status, TestStatus::kTimeout);
  RetryLocation location =
      MakeLocation("SlowClient.fetchWithRetry", "SlowClient.fetch", "ConnectException");
  std::vector<OracleReport> reports = EvaluateOracles(record, location);
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports[0].kind, OracleKind::kMissingCap);
}

TEST_F(PipelineTest, HowBugSurfacesAsDifferentException) {
  // The HDFS createBlockReader analog: a transient error before full object
  // construction; the catch block dereferences an unconstructed object.
  Load({R"(
    class BlockReader {
      Map status = null;
      String read() {
        try {
          this.setup();
          var data = this.fetchBlock();
          return data;
        } catch (SocketException e) {
          // BUG: this.status may still be null when setup failed early.
          var state = this.status.get("phase");
          Log.warn("read failed in phase " + state);
          return null;
        }
      }
      void setup() {
        this.status = new Map();
        this.status.put("phase", "ready");
      }
      String fetchBlock() throws SocketException {
        return "block";
      }
    }
    class BlockReaderTest {
      void testRead() {
        var r = new BlockReader();
        r.read();
      }
    }
  )"});
  FaultInjector injector({InjectionPoint{"BlockReader.setup", "BlockReader.read",
                                         "SocketException", kInjectOnce}});
  TestRunRecord record = runner_->RunTest(TestCase{"BlockReaderTest.testRead"}, {&injector});
  EXPECT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "NullPointerException");

  RetryLocation location =
      MakeLocation("BlockReader.read", "BlockReader.setup", "SocketException");
  std::vector<OracleReport> reports = EvaluateOracles(record, location);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, OracleKind::kDifferentException);
  EXPECT_NE(reports[0].detail.find("NullPointerException"), std::string::npos);
}

TEST_F(PipelineTest, InjectedNonTriggerExceptionIsNotFlagged) {
  // Injecting an exception the code does not retry: the test crashes with the
  // injected exception itself — correct behavior, filtered by the oracle.
  Load({kGoodRetrySource});
  FaultInjector injector({InjectionPoint{"GoodClient.fetch", "GoodClient.fetchWithRetry",
                                         "TimeoutException", kInjectOnce}});
  TestRunRecord record = runner_->RunTest(TestCase{"GoodClientTest.testFetch"}, {&injector});
  EXPECT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "TimeoutException");
  RetryLocation location =
      MakeLocation("GoodClient.fetchWithRetry", "GoodClient.fetch", "TimeoutException");
  EXPECT_TRUE(EvaluateOracles(record, location).empty());
}

TEST_F(PipelineTest, WrappedExceptionProducesKnownFalsePositive) {
  // The paper's HOW-oracle FP mode: the injected exception is wrapped in a
  // general exception which then crashes the test. The oracle flags it.
  Load({R"(
    class Wrapper {
      String call() {
        try {
          return this.op();
        } catch (SocketException e) {
          throw new HadoopException("wrapped", e);
        }
      }
      String op() throws SocketException { return "v"; }
    }
    class WrapperTest {
      void testCall() {
        var w = new Wrapper();
        w.call();
      }
    }
  )"});
  FaultInjector injector(
      {InjectionPoint{"Wrapper.op", "Wrapper.call", "SocketException", kInjectOnce}});
  TestRunRecord record = runner_->RunTest(TestCase{"WrapperTest.testCall"}, {&injector});
  EXPECT_EQ(record.outcome.exception_class, "HadoopException");
  RetryLocation location = MakeLocation("Wrapper.call", "Wrapper.op", "SocketException");
  std::vector<OracleReport> reports = EvaluateOracles(record, location);
  ASSERT_EQ(reports.size(), 1u);  // Documented false positive (§4.3).
  EXPECT_EQ(reports[0].kind, OracleKind::kDifferentException);
}

// --- Coverage + planning ----------------------------------------------------

constexpr const char* kTwoLocationSource = R"(
class Svc {
  String a() {
    for (var retry = 0; retry < 3; retry++) {
      try {
        return this.opA();
      } catch (IOException e) {
        Thread.sleep(10);
      }
    }
    return null;
  }
  String b() {
    for (var retry = 0; retry < 3; retry++) {
      try {
        return this.opB();
      } catch (IOException e) {
        Thread.sleep(10);
      }
    }
    return null;
  }
  String opA() throws IOException { return "a"; }
  String opB() throws IOException { return "b"; }
}
class SvcTest {
  void testA() {
    var s = new Svc();
    Assert.assertEquals("a", s.a());
  }
  void testB() {
    var s = new Svc();
    Assert.assertEquals("b", s.b());
  }
  void testBoth() {
    var s = new Svc();
    s.a();
    s.b();
  }
  void testNothing() {
    Assert.assertTrue(true);
  }
}
)";

TEST_F(PipelineTest, CoverageMapsTestsToLocations) {
  Load({kTwoLocationSource});
  std::vector<RetryLocation> locations = {
      MakeLocation("Svc.a", "Svc.opA", "IOException"),
      MakeLocation("Svc.b", "Svc.opB", "IOException"),
  };
  CoverageMap coverage = MapCoverage(*runner_, runner_->DiscoverTests(), locations);
  ASSERT_EQ(coverage.size(), 3u);  // testNothing covers nothing.
  EXPECT_EQ(coverage["SvcTest.testA"], (std::vector<size_t>{0}));
  EXPECT_EQ(coverage["SvcTest.testB"], (std::vector<size_t>{1}));
  EXPECT_EQ(coverage["SvcTest.testBoth"], (std::vector<size_t>{0, 1}));
}

TEST_F(PipelineTest, PlannerCoversEveryLocationExactlyOnce) {
  Load({kTwoLocationSource});
  std::vector<RetryLocation> locations = {
      MakeLocation("Svc.a", "Svc.opA", "IOException"),
      MakeLocation("Svc.b", "Svc.opB", "IOException"),
  };
  CoverageMap coverage = MapCoverage(*runner_, runner_->DiscoverTests(), locations);
  std::vector<PlanEntry> plan = PlanInjections(coverage, locations.size());
  ASSERT_EQ(plan.size(), 2u);
  std::vector<bool> covered(2, false);
  for (const PlanEntry& entry : plan) {
    EXPECT_FALSE(covered[entry.location_index]) << "location planned twice";
    covered[entry.location_index] = true;
  }
  EXPECT_TRUE(covered[0]);
  EXPECT_TRUE(covered[1]);
  // The naive plan is strictly larger (4 pairs: A, B, Both x2).
  EXPECT_EQ(NaivePlan(coverage).size(), 4u);
}

TEST_F(PipelineTest, PlannerPrefersDistinctTests) {
  Load({kTwoLocationSource});
  std::vector<RetryLocation> locations = {
      MakeLocation("Svc.a", "Svc.opA", "IOException"),
      MakeLocation("Svc.b", "Svc.opB", "IOException"),
  };
  CoverageMap coverage = MapCoverage(*runner_, runner_->DiscoverTests(), locations);
  std::vector<PlanEntry> plan = PlanInjections(coverage, locations.size());
  // Two distinct tests should be used (round-robin pass gives each test one).
  EXPECT_NE(plan[0].test, plan[1].test);
}

// --- Config restoration -------------------------------------------------------

TEST_F(PipelineTest, ConfigRestorationFindsAndFreezesRestrictions) {
  Load({R"(
    class Client {
      String go() {
        var max = Config.getInt("client.retry.max", 10);
        for (var retry = 0; retry < max; retry++) {
          try {
            return this.op();
          } catch (IOException e) {
            Thread.sleep(10);
          }
        }
        return null;
      }
      String op() throws IOException { return "v"; }
    }
    class ClientTest {
      void testQuick() {
        Config.set("client.retry.max", 1);
        Config.set("client.timeout.ms", 50);
        var c = new Client();
        c.go();
      }
    }
  )"});
  ConfigRestorationResult restoration = ScanTestsForRetryRestrictions(program_);
  ASSERT_EQ(restoration.restrictions.size(), 1u);
  EXPECT_EQ(restoration.restrictions[0].key, "client.retry.max");
  EXPECT_EQ(restoration.restrictions[0].restricted_value, 1);
  ASSERT_EQ(restoration.keys_to_freeze.size(), 1u);

  // Without restoration: the test caps retry at 1, so under injection the
  // injected exception escapes after a single attempt.
  FaultInjector injector(
      {InjectionPoint{"Client.op", "Client.go", "IOException", kInjectRepeatedly}});
  TestRunRecord unrestored = runner_->RunTest(TestCase{"ClientTest.testQuick"}, {&injector});
  EXPECT_EQ(unrestored.injection_counts[0], 1);

  // With restoration: defaults rule; all 10 attempts happen.
  RunnerOptions options;
  for (const std::string& key : restoration.keys_to_freeze) {
    options.frozen_keys.push_back(key);
  }
  TestRunner restoring_runner(program_, *index_, options);
  FaultInjector injector2(
      {InjectionPoint{"Client.op", "Client.go", "IOException", kInjectRepeatedly}});
  TestRunRecord restored =
      restoring_runner.RunTest(TestCase{"ClientTest.testQuick"}, {&injector2});
  EXPECT_EQ(restored.injection_counts[0], 10);
}

// --- Dedup ---------------------------------------------------------------------

TEST_F(PipelineTest, DeduplicateReportsGroupsByKindAndKey) {
  std::vector<OracleReport> reports(4);
  reports[0].kind = OracleKind::kMissingCap;
  reports[0].group_key = "cap|f|m";
  reports[1].kind = OracleKind::kMissingCap;
  reports[1].group_key = "cap|f|m";  // Duplicate.
  reports[2].kind = OracleKind::kMissingDelay;
  reports[2].group_key = "cap|f|m";  // Same key, different kind: kept.
  reports[3].kind = OracleKind::kMissingCap;
  reports[3].group_key = "cap|f|other";
  std::vector<OracleReport> unique = DeduplicateReports(std::move(reports));
  EXPECT_EQ(unique.size(), 3u);
}

}  // namespace
}  // namespace wasabi
