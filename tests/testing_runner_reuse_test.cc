// The reuse contract of TestRunner's warm interpreters: a run that leaves
// every kind of per-run state behind (a mutated singleton, a Config.set, a
// skewed clock that advanced, the degraded-environment flag, an interceptor,
// a loop observer, log entries, a raise left in the raised-exception slot)
// must be invisible to the next run on the same interpreter, also when a host
// exception cut the run short. Checked serially and on a 4-worker pool, where
// every worker reuses its own interpreter across many dirty/fresh pairs.

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/task_pool.h"
#include "src/inject/injector.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/testing/runner.h"

namespace wasabi {

// Befriended by Interpreter: reaches the raised-exception slot directly.
struct InterpreterTestPeer {
  static void SetRaised(Interpreter& interp, ObjectRef exception) {
    interp.raised_ = std::move(exception);
  }
};

namespace {

// testDirty asserts that its perturbation reached it, then dirties all the
// state; testFresh asserts in mj that none of it survived and calls the
// method testDirty's injector targets.
constexpr const char* kSource = R"(
class Counter {
  int value = 0;
  void bump() { this.value = this.value + 1; }
  int get() { return this.value; }
}
class Remote {
  String call() throws IOException { return "ok"; }
}
class Client {
  String fetch() {
    var r = new Remote();
    return r.call();
  }
}
class ReuseTest {
  int runs = 0;
  void testDirty() {
    Assert.assertTrue(Clock.nowMillis() >= 5000, "epoch not applied");
    Assert.assertEquals(true, Config.get("chaos.degraded"), "degraded env not applied");
    this.runs = this.runs + 1;
    Counter.bump();
    Config.set("reuse.key", 7);
    Log.info("dirty");
    for (var i = 0; i < 3; i++) {
      Thread.sleep(10);
    }
    var c = new Client();
    try {
      c.fetch();
      Assert.fail("the injector must fire");
    } catch (IOException e) {
      Log.warn("injected");
    }
  }
  void testFresh() {
    Assert.assertEquals(0, Clock.nowMillis(), "clock not reset");
    Assert.assertEquals(0, this.runs, "test singleton not fresh");
    Assert.assertEquals(0, Counter.get(), "singleton not fresh");
    Assert.assertNull(Config.get("reuse.key"), "config survived");
    Assert.assertNull(Config.get("chaos.degraded"), "degraded env survived");
    var c = new Client();
    Assert.assertEquals("ok", c.fetch(), "interceptor survived");
    for (var i = 0; i < 2; i++) {
      Log.info("fresh");
    }
  }
}
)";

struct CountingObserver : LoopObserver {
  int64_t iterations = 0;
  void OnLoopIteration(std::string_view /*method*/, int64_t /*virtual_ms*/) override {
    ++iterations;
  }
};

// What one dirty-then-fresh pair on one interpreter observed.
struct PairResult {
  TestRunRecord dirty;
  TestRunRecord fresh;
  int injections_after_dirty = 0;
  int injections_after_fresh = 0;
  int64_t loops_after_dirty = 0;
  int64_t loops_after_fresh = 0;
};

// Runs testDirty with every perturbation attached, then testFresh with none,
// on the calling worker's interpreter.
PairResult RunPair(const TestRunner& runner, int64_t epoch_ms) {
  FaultInjector injector(
      {InjectionPoint{"Remote.call", "Client.fetch", "IOException", kInjectRepeatedly}});
  CountingObserver observer;
  RunPerturbation perturbation;
  perturbation.virtual_clock_epoch_ms = epoch_ms;
  perturbation.chaos_degraded_env = true;
  perturbation.loop_observer = &observer;

  PairResult pair;
  pair.dirty = runner.RunTest(TestCase{"ReuseTest.testDirty"}, {&injector}, perturbation);
  pair.injections_after_dirty = injector.InjectionCount(0);
  pair.loops_after_dirty = observer.iterations;
  pair.fresh = runner.RunTest(TestCase{"ReuseTest.testFresh"});
  pair.injections_after_fresh = injector.InjectionCount(0);
  pair.loops_after_fresh = observer.iterations;
  return pair;
}

class RunnerReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mj::DiagnosticEngine diag;
    program_.AddUnit(mj::ParseSource("reuse.mj", kSource, diag));
    ASSERT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
    index_ = std::make_unique<mj::ProgramIndex>(program_);
    runner_ = std::make_unique<TestRunner>(program_, *index_);
    // The reference: testFresh on a runner that never ran anything else.
    TestRunner pristine(program_, *index_);
    reference_ = pristine.RunTest(TestCase{"ReuseTest.testFresh"});
    ASSERT_EQ(reference_.outcome.status, TestStatus::kPassed)
        << reference_.outcome.exception_message;
  }

  void ExpectClean(const PairResult& pair) {
    ASSERT_EQ(pair.dirty.outcome.status, TestStatus::kPassed)
        << pair.dirty.outcome.exception_message;
    ASSERT_GT(pair.injections_after_dirty, 0);
    ASSERT_GT(pair.loops_after_dirty, 0);

    EXPECT_EQ(pair.fresh.outcome.status, TestStatus::kPassed)
        << pair.fresh.outcome.exception_message;
    // No interceptor and no observer carried over.
    EXPECT_EQ(pair.injections_after_fresh, pair.injections_after_dirty);
    EXPECT_EQ(pair.loops_after_fresh, pair.loops_after_dirty);
    EXPECT_TRUE(pair.fresh.injected_points.empty());
    // A clock at 0 that the sleepless run never advanced.
    EXPECT_EQ(pair.fresh.virtual_duration_ms, 0);
    // The log holds only testFresh's own two entries.
    ASSERT_EQ(pair.fresh.log.size(), 2u);
    for (const LogEntry& entry : pair.fresh.log.entries()) {
      EXPECT_EQ(entry.kind, LogEntryKind::kAppLog);
      EXPECT_EQ(entry.text, "fresh");
    }
    // Everything else is what a never-used interpreter produces.
    EXPECT_EQ(pair.fresh.log.Dump(), reference_.log.Dump());
    EXPECT_EQ(pair.fresh.steps, reference_.steps);
    EXPECT_EQ(pair.fresh.loop_iterations, reference_.loop_iterations);
  }

  mj::Program program_;
  std::unique_ptr<mj::ProgramIndex> index_;
  std::unique_ptr<TestRunner> runner_;
  TestRunRecord reference_;
};

TEST_F(RunnerReuseTest, FreshRunSeesNoStateFromTheDirtyRunBeforeIt) {
  for (int64_t epoch_ms : {5000, 9000}) {
    ExpectClean(RunPair(*runner_, epoch_ms));
  }
}

// A host-level C++ exception (what chaos faults and interpreter bugs raise)
// escaping mid-call leaves the interpreter dirty, frames still pushed; the
// reset on the next hand-out must still give a fresh run.
struct HostFault : CallInterceptor {
  ObjectRef OnCall(const CallEvent& event, Interpreter& /*interp*/) override {
    if (event.callee == "Remote.call") {
      throw std::runtime_error("host fault");
    }
    return nullptr;
  }
};

TEST_F(RunnerReuseTest, HostExceptionEscapingARunLeaksNothing) {
  HostFault fault;
  RunPerturbation perturbation;
  perturbation.virtual_clock_epoch_ms = 5000;
  perturbation.chaos_degraded_env = true;
  EXPECT_THROW(runner_->RunTest(TestCase{"ReuseTest.testDirty"}, {&fault}, perturbation),
               std::runtime_error);
  TestRunRecord fresh = runner_->RunTest(TestCase{"ReuseTest.testFresh"});
  EXPECT_EQ(fresh.outcome.status, TestStatus::kPassed) << fresh.outcome.exception_message;
  EXPECT_EQ(fresh.log.Dump(), reference_.log.Dump());
  EXPECT_EQ(fresh.steps, reference_.steps);
}

// No mj run ends with a raise still in the slot: every call boundary takes it.
// A host exception escaping between the raise and the handler would leave it
// there, so this fault puts one in the slot and then throws. Unless the reset
// empties the slot, the next run's first call boundary delivers the stale
// IOException.
struct HostFaultMidRaise : CallInterceptor {
  ObjectRef OnCall(const CallEvent& event, Interpreter& interp) override {
    if (event.callee == "Remote.call") {
      InterpreterTestPeer::SetRaised(interp, interp.MakeException("IOException", "stale raise"));
      throw std::runtime_error("host fault mid-raise");
    }
    return nullptr;
  }
};

TEST_F(RunnerReuseTest, RaiseLeftInTheSlotIsClearedForTheNextRun) {
  HostFaultMidRaise fault;
  RunPerturbation perturbation;
  perturbation.virtual_clock_epoch_ms = 5000;
  perturbation.chaos_degraded_env = true;
  EXPECT_THROW(runner_->RunTest(TestCase{"ReuseTest.testDirty"}, {&fault}, perturbation),
               std::runtime_error);
  TestRunRecord fresh = runner_->RunTest(TestCase{"ReuseTest.testFresh"});
  EXPECT_EQ(fresh.outcome.status, TestStatus::kPassed)
      << fresh.outcome.exception_class << ": " << fresh.outcome.exception_message;
  EXPECT_EQ(fresh.log.Dump(), reference_.log.Dump());
  EXPECT_EQ(fresh.steps, reference_.steps);
}

TEST_F(RunnerReuseTest, EveryWorkerReusesItsInterpreterCleanly) {
  constexpr size_t kPairs = 64;
  std::vector<PairResult> pairs(kPairs);
  TaskPool pool(4);
  pool.ParallelFor(kPairs, [&](size_t i) {
    pairs[i] = RunPair(*runner_, 5000 + static_cast<int64_t>(i) * 1000);
  });
  for (size_t i = 0; i < kPairs; ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    ExpectClean(pairs[i]);
  }
}

}  // namespace
}  // namespace wasabi
