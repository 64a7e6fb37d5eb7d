// The raise path under both engines (docs/PERFORMANCE.md "Raising without
// unwinding"): an interceptor's raise travels in the interpreter's
// raised-exception slot through calls and VM frames, and as a ThrownException
// only inside walker-executed bodies. Each test runs one mj test method with a
// fault injector under EngineKind::kVm and kTree and requires identical
// TestRunRecords — outcome, exception class and message, origin stack, cause
// chain, log, steps, loop iterations, virtual duration and injection counts —
// plus the outcome the mj program itself documents.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/inject/injector.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/testing/runner.h"

namespace wasabi {
namespace {

constexpr const char* kSource = R"(
class Remote {
  String call() throws IOException {
    Log.info("remote body ran");
    return "ok";
  }
  String missing();
}
class Res {
  String state = "new";
  void init(String name) {
    Log.info("init " + name);
    this.state = Remote.call();
  }
}
class Holder {
  String value = Remote.call();
}
class Box {
  String v = "box";
  String get() { return this.v; }
}
class Factory {
  Box make() { return new Box(); }
}
class RaiseTest {
  String echo(String s) { return s; }

  void testCatch() {
    var attempts = 0;
    for (var i = 0; i < 5; i++) {
      attempts += 1;
      try {
        Remote.call();
        Log.info("succeeded after " + attempts);
        return;
      } catch (IOException e) {
        Log.warn("attempt " + attempts + " failed: " + e.getMessage());
        Thread.sleep(100);
      }
    }
    Assert.fail("never succeeded");
  }

  void rethrowing() throws IOException {
    try {
      Remote.call();
    } catch (IOException e) {
      Log.warn("rethrowing " + e.getMessage());
      throw e;
    }
  }
  void testRethrow() {
    try {
      this.rethrowing();
    } catch (IOException e) {
      Log.info("outer caught " + e.getMessage());
    }
    this.rethrowing();
  }

  void testNested() {
    try {
      try {
        Remote.call();
      } catch (TimeoutException e) {
        Log.info("inner must not catch");
      }
      Log.info("after the inner try must not run");
    } catch (IOException e) {
      Log.info("outer caught " + e.getMessage());
    }
  }

  void testFinally() {
    try {
      try {
        Remote.call();
      } finally {
        Log.info("finally ran");
      }
    } catch (IOException e) {
      Log.info("caught after finally: " + e.getMessage());
    }
    try {
      Remote.call();
    } catch (IOException e) {
      Log.info("caught in try-catch-finally");
    } finally {
      Log.info("second finally ran");
    }
  }

  void testSwitch() {
    for (var i = 0; i < 3; i++) {
      try {
        switch (i) {
          case 0:
            Remote.call();
            break;
          case 1:
            Log.info("case one falls through");
          default:
            Remote.call();
        }
      } catch (IOException e) {
        Log.info("switch raised at " + i);
      }
    }
  }

  void testInit() {
    try {
      var r = new Res("a");
      Log.info("constructed " + r.state);
    } catch (IOException e) {
      Log.info("init body raised: " + e.getMessage());
    }
    var r2 = new Res("b");
    Log.info("second " + r2.state);
  }

  void testInitCall() {
    try {
      var r = new Res("a");
      Log.info("constructed " + r.state);
    } catch (IOException e) {
      Log.info("init call raised: " + e.getMessage());
    }
  }

  void testFieldInit() {
    try {
      var h = new Holder();
      Log.info("holder " + h.value);
    } catch (IOException e) {
      Log.info("field initializer raised: " + e.getMessage());
    }
    var h2 = new Holder();
    Log.info("holder " + h2.value);
  }

  void testArgAndReceiver() {
    try {
      Log.info(this.echo(Remote.call()));
    } catch (IOException e) {
      Log.info("argument raised");
    }
    try {
      Log.info(Factory.make().get());
    } catch (IOException e) {
      Log.info("receiver raised");
    }
    Log.info(this.echo(Remote.call()) + " " + Factory.make().get());
  }

  void testUncaught() {
    Log.info("before");
    for (var i = 0; i < 2; i++) {
      Thread.sleep(5);
    }
    Remote.call();
    Log.info("after must not run");
  }

  void testBodyless() {
    try {
      Remote.missing();
    } catch (IOException e) {
      Log.info("the raise wins over the missing body: " + e.getMessage());
    }
    try {
      Remote.missing();
    } catch (UnsupportedOperationException e) {
      Log.info("no body: " + e.getMessage());
    }
  }

  void testWrapped() {
    try {
      Remote.call();
    } catch (IOException e) {
      throw new RuntimeException("wrapped", e);
    }
  }

  void testThrowNonObject() {
    try {
      throw "not an exception";
    } catch (IllegalStateException e) {
      Log.info("caught: " + e.getMessage());
    }
    throw 42;
  }
}
)";

// Records what the calls it sees were, without ever raising.
struct CallCounter : CallInterceptor {
  ObjectRef OnCall(const CallEvent& event, Interpreter& /*interp*/) override {
    callees.emplace_back(event.callee);
    return nullptr;
  }
  std::vector<std::string> callees;
};

class RaiseParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    program_ = new mj::Program();
    mj::DiagnosticEngine diag;
    program_->AddUnit(mj::ParseSource("raise.mj", kSource, diag));
    ASSERT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
    index_ = new mj::ProgramIndex(*program_);
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
    delete program_;
    program_ = nullptr;
  }

  static TestRunRecord RunOn(EngineKind engine, const std::string& test,
                             const std::vector<InjectionPoint>& points,
                             std::vector<CallInterceptor*> extra = {}) {
    RunnerOptions options;
    options.interp.engine = engine;
    TestRunner runner(*program_, *index_, options);
    FaultInjector injector(points);
    std::vector<CallInterceptor*> interceptors{&injector};
    interceptors.insert(interceptors.end(), extra.begin(), extra.end());
    return runner.RunTest(TestCase{"RaiseTest." + test}, interceptors);
  }

  // Runs `test` under both engines, requires identical records, and returns
  // the VM's for the caller's own expectations.
  static TestRunRecord RunBoth(const std::string& test,
                               const std::vector<InjectionPoint>& points) {
    TestRunRecord vm = RunOn(EngineKind::kVm, test, points);
    TestRunRecord tree = RunOn(EngineKind::kTree, test, points);
    EXPECT_EQ(vm.outcome.status, tree.outcome.status);
    EXPECT_EQ(vm.outcome.exception_class, tree.outcome.exception_class);
    EXPECT_EQ(vm.outcome.exception_message, tree.outcome.exception_message);
    EXPECT_EQ(vm.outcome.crash_stack, tree.outcome.crash_stack);
    EXPECT_EQ(vm.outcome.cause_chain, tree.outcome.cause_chain);
    EXPECT_EQ(vm.outcome.abort_reason, tree.outcome.abort_reason);
    EXPECT_EQ(vm.log.Dump(), tree.log.Dump());
    EXPECT_EQ(vm.steps, tree.steps);
    EXPECT_EQ(vm.loop_iterations, tree.loop_iterations);
    EXPECT_EQ(vm.virtual_duration_ms, tree.virtual_duration_ms);
    EXPECT_EQ(vm.injection_counts, tree.injection_counts);
    return vm;
  }

  static bool Logged(const TestRunRecord& record, const std::string& text) {
    for (const LogEntry& entry : record.log.entries()) {
      if (entry.kind == LogEntryKind::kAppLog && entry.text == text) {
        return true;
      }
    }
    return false;
  }

  static mj::Program* program_;
  static mj::ProgramIndex* index_;
};

mj::Program* RaiseParityTest::program_ = nullptr;
mj::ProgramIndex* RaiseParityTest::index_ = nullptr;

InjectionPoint Point(const std::string& callee, const std::string& caller, int k,
                     const std::string& exception = "IOException") {
  return InjectionPoint{callee, caller, exception, k};
}

TEST_F(RaiseParityTest, VmCompiledTryCatchTakesEachRaise) {
  TestRunRecord record = RunBoth("testCatch", {Point("Remote.call", "RaiseTest.testCatch", 3)});
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed) << record.outcome.exception_message;
  EXPECT_EQ(record.injection_counts, std::vector<int>{3});
  EXPECT_TRUE(Logged(record, "succeeded after 4"));
  EXPECT_EQ(record.virtual_duration_ms, 300);
  EXPECT_GT(record.loop_iterations, 0);
}

TEST_F(RaiseParityTest, CatchAndRethrowReachesTheCallersHandlerThenEscapes) {
  TestRunRecord record =
      RunBoth("testRethrow", {Point("Remote.call", "RaiseTest.rethrowing", 2)});
  EXPECT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "IOException");
  EXPECT_EQ(record.outcome.exception_message, "injected by WASABI at Remote.call");
  // Raised before the callee's frame exists: the origin ends at the caller.
  EXPECT_EQ(record.outcome.crash_stack,
            (std::vector<std::string>{"RaiseTest.testRethrow", "RaiseTest.rethrowing"}));
  EXPECT_TRUE(Logged(record, "outer caught injected by WASABI at Remote.call"));
}

TEST_F(RaiseParityTest, OnlyTheMatchingOuterHandlerOfNestedTriesCatches) {
  TestRunRecord record = RunBoth("testNested", {Point("Remote.call", "RaiseTest.testNested", 1)});
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed) << record.outcome.exception_message;
  EXPECT_FALSE(Logged(record, "inner must not catch"));
  EXPECT_FALSE(Logged(record, "after the inner try must not run"));
  EXPECT_TRUE(Logged(record, "outer caught injected by WASABI at Remote.call"));
}

TEST_F(RaiseParityTest, TryWithFinallyRunByTheWalkerSeesTheRaise) {
  TestRunRecord record =
      RunBoth("testFinally", {Point("Remote.call", "RaiseTest.testFinally", 2)});
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed) << record.outcome.exception_message;
  EXPECT_TRUE(Logged(record, "finally ran"));
  EXPECT_TRUE(Logged(record, "caught after finally: injected by WASABI at Remote.call"));
  EXPECT_TRUE(Logged(record, "caught in try-catch-finally"));
  EXPECT_TRUE(Logged(record, "second finally ran"));
}

TEST_F(RaiseParityTest, RaiseInsideASwitchBody) {
  TestRunRecord record = RunBoth("testSwitch", {Point("Remote.call", "RaiseTest.testSwitch", 2)});
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed) << record.outcome.exception_message;
  EXPECT_TRUE(Logged(record, "switch raised at 0"));
  EXPECT_TRUE(Logged(record, "case one falls through"));
  EXPECT_TRUE(Logged(record, "switch raised at 1"));
  EXPECT_FALSE(Logged(record, "switch raised at 2"));
}

TEST_F(RaiseParityTest, RaiseInsideAConstructorInit) {
  TestRunRecord record = RunBoth("testInit", {Point("Remote.call", "Res.init", 1)});
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed) << record.outcome.exception_message;
  EXPECT_TRUE(Logged(record, "init body raised: injected by WASABI at Remote.call"));
  EXPECT_TRUE(Logged(record, "second ok"));
}

TEST_F(RaiseParityTest, RaiseAtTheInitCallItselfSkipsTheBody) {
  TestRunRecord record = RunBoth("testInitCall", {Point("Res.init", "RaiseTest.testInitCall", 1)});
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed) << record.outcome.exception_message;
  EXPECT_FALSE(Logged(record, "init a"));
  EXPECT_TRUE(Logged(record, "init call raised: injected by WASABI at Res.init"));
}

TEST_F(RaiseParityTest, RaiseInsideAFieldInitializer) {
  TestRunRecord record = RunBoth("testFieldInit", {Point("Remote.call", "", 1)});
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed) << record.outcome.exception_message;
  EXPECT_TRUE(Logged(record, "field initializer raised: injected by WASABI at Remote.call"));
  EXPECT_TRUE(Logged(record, "holder ok"));
}

TEST_F(RaiseParityTest, RaiseInArgumentPositionAndAsReceiver) {
  TestRunRecord record =
      RunBoth("testArgAndReceiver", {Point("Remote.call", "RaiseTest.testArgAndReceiver", 1),
                                     Point("Factory.make", "RaiseTest.testArgAndReceiver", 1)});
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed) << record.outcome.exception_message;
  EXPECT_TRUE(Logged(record, "argument raised"));
  EXPECT_TRUE(Logged(record, "receiver raised"));
  EXPECT_TRUE(Logged(record, "ok box"));
  EXPECT_EQ(record.injection_counts, (std::vector<int>{1, 1}));
}

TEST_F(RaiseParityTest, UncaughtRaiseEscapesToTheRunner) {
  TestRunRecord record =
      RunBoth("testUncaught", {Point("Remote.call", "RaiseTest.testUncaught", 1, "TimeoutException")});
  EXPECT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "TimeoutException");
  EXPECT_EQ(record.outcome.crash_stack, std::vector<std::string>{"RaiseTest.testUncaught"});
  EXPECT_FALSE(Logged(record, "after must not run"));
  EXPECT_EQ(record.virtual_duration_ms, 10);
}

TEST_F(RaiseParityTest, RaiseAtACallToAMethodWithoutABody) {
  TestRunRecord record =
      RunBoth("testBodyless", {Point("Remote.missing", "RaiseTest.testBodyless", 1)});
  EXPECT_EQ(record.outcome.status, TestStatus::kPassed) << record.outcome.exception_message;
  EXPECT_TRUE(
      Logged(record, "the raise wins over the missing body: injected by WASABI at Remote.missing"));
  EXPECT_TRUE(Logged(record, "no body: call to method without a body: Remote.missing"));
}

TEST_F(RaiseParityTest, WrappedRaiseKeepsItsCauseChain) {
  TestRunRecord record = RunBoth("testWrapped", {Point("Remote.call", "RaiseTest.testWrapped", 1)});
  EXPECT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "RuntimeException");
  EXPECT_EQ(record.outcome.exception_message, "wrapped");
  EXPECT_EQ(record.outcome.cause_chain, std::vector<std::string>{"IOException"});
}

TEST_F(RaiseParityTest, NativeThrowOfANonObjectValue) {
  TestRunRecord record = RunBoth("testThrowNonObject", {});
  EXPECT_EQ(record.outcome.status, TestStatus::kException);
  EXPECT_EQ(record.outcome.exception_class, "IllegalStateException");
  EXPECT_EQ(record.outcome.exception_message.rfind("throw of non-object value at line ", 0), 0u)
      << record.outcome.exception_message;
  bool caught_first = false;
  for (const LogEntry& entry : record.log.entries()) {
    caught_first |= entry.text.rfind("caught: throw of non-object value at line ", 0) == 0;
  }
  EXPECT_TRUE(caught_first);
}

// The first raising interceptor wins: later interceptors never see the call
// and the callee's body does not run.
TEST_F(RaiseParityTest, LaterInterceptorsDoNotSeeARaisedCall) {
  for (EngineKind engine : {EngineKind::kVm, EngineKind::kTree}) {
    CallCounter counter;
    TestRunRecord record =
        RunOn(engine, "testNested", {Point("Remote.call", "RaiseTest.testNested", 1)}, {&counter});
    EXPECT_EQ(record.outcome.status, TestStatus::kPassed);
    EXPECT_EQ(counter.callees, std::vector<std::string>{"RaiseTest.testNested"});
    EXPECT_FALSE(Logged(record, "remote body ran"));
  }
}

}  // namespace
}  // namespace wasabi
