// Unit tests for the mj interpreter.

#include "src/interp/interpreter.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"

namespace wasabi {
namespace {

class InterpTest : public ::testing::Test {
 protected:
  void Load(std::initializer_list<std::string> sources) {
    mj::DiagnosticEngine diag;
    int i = 0;
    for (const std::string& text : sources) {
      program_.AddUnit(mj::ParseSource("unit" + std::to_string(i++) + ".mj", text, diag));
    }
    ASSERT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
    index_ = std::make_unique<mj::ProgramIndex>(program_);
    interp_ = std::make_unique<Interpreter>(program_, *index_, options_);
  }

  Value Run(const std::string& qualified, std::vector<Value> args = {}) {
    return interp_->Invoke(qualified, std::move(args));
  }

  // Runs and expects an uncaught mj exception of the given class.
  ObjectRef RunExpectThrow(const std::string& qualified, const std::string& exception) {
    try {
      interp_->Invoke(qualified);
    } catch (ThrownException& thrown) {
      EXPECT_TRUE(index_->IsSubtype(thrown.exception->class_name(), exception))
          << "threw " << thrown.exception->class_name() << " (" << thrown.exception->message()
          << "), wanted " << exception;
      return thrown.exception;
    }
    ADD_FAILURE() << "expected " << exception << " to be thrown";
    return nullptr;
  }

  mj::Program program_;
  std::unique_ptr<mj::ProgramIndex> index_;
  std::unique_ptr<Interpreter> interp_;
  InterpOptions options_;
};

TEST_F(InterpTest, ArithmeticAndLocals) {
  Load({R"(
    class C {
      int f() {
        var x = 2 + 3 * 4;
        var y = x % 5;
        x -= 1;
        y += 100;
        return x * 1000 + y + (20 / 4);
      }
    }
  )"});
  Value result = Run("C.f");
  ASSERT_TRUE(IsInt(result));
  // x = 14-1 = 13; y = 4+100 = 104; 13*1000 + 104 + 5 = 13109.
  EXPECT_EQ(std::get<int64_t>(result), 13109);
}

TEST_F(InterpTest, StringConcatAndComparison) {
  Load({R"(
    class C {
      String f() {
        var s = "a" + 1 + true;
        if (s == "a1true") {
          return s + "!";
        }
        return "no";
      }
    }
  )"});
  EXPECT_EQ(std::get<std::string>(Run("C.f")), "a1true!");
}

TEST_F(InterpTest, FieldsAndThis) {
  Load({R"(
    class Counter {
      int n = 10;
      int bump() {
        this.n += 5;
        return this.n;
      }
      int twice() {
        this.bump();
        return this.bump();
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("Counter.twice")), 20);
}

TEST_F(InterpTest, SingletonStatePersistsAcrossInvokes) {
  Load({"class S { int n = 0; int bump() { this.n += 1; return this.n; } }"});
  EXPECT_EQ(std::get<int64_t>(Run("S.bump")), 1);
  EXPECT_EQ(std::get<int64_t>(Run("S.bump")), 2);
}

TEST_F(InterpTest, InheritanceAndOverride) {
  Load({R"(
    class Base {
      int shared() { return 1; }
      int viaOverride() { return this.hook(); }
      int hook() { return 10; }
    }
    class Leaf extends Base {
      int hook() { return 20; }
    }
    class Driver {
      int run() {
        var leaf = new Leaf();
        return leaf.shared() + leaf.viaOverride();
      }
    }
  )"});
  // Dynamic dispatch: viaOverride calls the Leaf hook.
  EXPECT_EQ(std::get<int64_t>(Run("Driver.run")), 21);
}

TEST_F(InterpTest, WhileForBreakContinue) {
  Load({R"(
    class C {
      int f() {
        var sum = 0;
        for (var i = 0; i < 10; i++) {
          if (i % 2 == 0) {
            continue;
          }
          if (i > 7) {
            break;
          }
          sum += i;
        }
        var j = 0;
        while (true) {
          j++;
          if (j == 4) {
            break;
          }
        }
        return sum * 100 + j;
      }
    }
  )"});
  // sum = 1+3+5+7 = 16; j = 4.
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 1604);
}

TEST_F(InterpTest, SwitchFallthroughSemantics) {
  Load({R"(
    class C {
      int f(x) {
        var r = 0;
        switch (x) {
          case 1:
            r += 1;
          case 2:
            r += 10;
            break;
          case 3:
            r += 100;
            break;
          default:
            r += 1000;
        }
        return r;
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("C.f", {Value{int64_t{1}}})), 11);   // Falls 1 -> 2.
  EXPECT_EQ(std::get<int64_t>(Run("C.f", {Value{int64_t{2}}})), 10);
  EXPECT_EQ(std::get<int64_t>(Run("C.f", {Value{int64_t{3}}})), 100);
  EXPECT_EQ(std::get<int64_t>(Run("C.f", {Value{int64_t{9}}})), 1000);  // Default.
}

TEST_F(InterpTest, TryCatchBySubtype) {
  Load({R"(
    class C {
      String f() {
        try {
          this.boom();
          return "no-throw";
        } catch (IOException e) {
          return "io:" + e.getMessage();
        } catch (Exception e) {
          return "generic";
        }
      }
      void boom() {
        throw new ConnectException("refused");
      }
    }
  )"});
  // ConnectException <: IOException: first clause wins.
  EXPECT_EQ(std::get<std::string>(Run("C.f")), "io:refused");
}

TEST_F(InterpTest, FinallyAlwaysRunsAndCanOverride) {
  Load({R"(
    class C {
      int normal() {
        var r = 0;
        try {
          r = 1;
        } finally {
          r += 10;
        }
        return r;
      }
      int overridden() {
        try {
          return 1;
        } finally {
          return 2;
        }
      }
      int afterCatch() {
        var r = 0;
        try {
          throw new IOException("x");
        } catch (IOException e) {
          r = 5;
        } finally {
          r += 100;
        }
        return r;
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("C.normal")), 11);
  EXPECT_EQ(std::get<int64_t>(Run("C.overridden")), 2);
  EXPECT_EQ(std::get<int64_t>(Run("C.afterCatch")), 105);
}

TEST_F(InterpTest, UncaughtExceptionEscapesInvoke) {
  Load({"class C { void f() { throw new TimeoutException(\"slow\"); } }"});
  ObjectRef exception = RunExpectThrow("C.f", "TimeoutException");
  EXPECT_EQ(exception->message(), "slow");
}

TEST_F(InterpTest, ExceptionWrappingAndCause) {
  Load({R"(
    class C {
      String f() {
        try {
          try {
            throw new AccessControlException("denied");
          } catch (AccessControlException inner) {
            throw new HadoopException("wrapped", inner);
          }
        } catch (HadoopException outer) {
          var cause = outer.getCause();
          if (cause instanceof AccessControlException) {
            return "found:" + cause.getMessage();
          }
          return "wrong-cause";
        }
      }
    }
  )"});
  EXPECT_EQ(std::get<std::string>(Run("C.f")), "found:denied");
}

TEST_F(InterpTest, UserExceptionClassesWork) {
  Load({R"(
    class RegionServerStoppedException extends IOException { }
    class C {
      String f() {
        try {
          throw new RegionServerStoppedException("rs down");
        } catch (IOException e) {
          return "caught:" + e.getMessage();
        }
      }
    }
  )"});
  EXPECT_EQ(std::get<std::string>(Run("C.f")), "caught:rs down");
}

TEST_F(InterpTest, NullPointerOnNullCallAndFieldAccess) {
  Load({R"(
    class C {
      void callOnNull() {
        var x = null;
        x.anything();
      }
      void fieldOnNull() {
        var x = null;
        var y = x.field;
        Log.info(y);
      }
    }
  )"});
  RunExpectThrow("C.callOnNull", "NullPointerException");
  RunExpectThrow("C.fieldOnNull", "NullPointerException");
}

TEST_F(InterpTest, DivisionByZeroThrowsArithmetic) {
  Load({"class C { int f() { var zero = 0; return 1 / zero; } }"});
  RunExpectThrow("C.f", "ArithmeticException");
}

TEST_F(InterpTest, QueueBuiltin) {
  Load({R"(
    class C {
      int f() {
        var q = new Queue();
        q.put(1);
        q.add(2);
        q.offer(3);
        var a = q.take();
        var b = q.poll();
        var n = q.size();
        var peeked = q.peek();
        return a * 1000 + b * 100 + n * 10 + peeked;
      }
      void takeEmpty() {
        var q = new Queue();
        q.take();
      }
      bool pollEmpty() {
        var q = new Queue();
        return q.poll() == null && q.isEmpty();
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 1213);
  RunExpectThrow("C.takeEmpty", "IllegalStateException");
  EXPECT_TRUE(std::get<bool>(Run("C.pollEmpty")));
}

TEST_F(InterpTest, ListBuiltin) {
  Load({R"(
    class C {
      int f() {
        var l = new List();
        l.add(5);
        l.add(7);
        l.set(0, 6);
        var has = l.contains(7);
        if (has && l.size() == 2) {
          return l.get(0) + l.get(1);
        }
        return -1;
      }
      void outOfBounds() {
        var l = new List();
        l.get(0);
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 13);
  RunExpectThrow("C.outOfBounds", "IllegalArgumentException");
}

TEST_F(InterpTest, MapBuiltin) {
  Load({R"(
    class C {
      int f() {
        var m = new Map();
        m.put("stage1", 10);
        m.put("stage1", 20);
        m.put(7, 30);
        var missing = m.get("nope");
        if (missing == null && m.containsKey(7) && m.size() == 2) {
          m.remove(7);
          return m.get("stage1") + m.size();
        }
        return -1;
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 21);  // 20 + remaining size 1.
}

TEST_F(InterpTest, SleepAdvancesVirtualClockAndLogs) {
  Load({R"(
    class C {
      void f() {
        Thread.sleep(1000);
        TimeUnit.sleep(500);
        Timer.schedule(250);
      }
    }
  )"});
  Run("C.f");
  EXPECT_EQ(interp_->now_ms(), 1750);
  int sleep_entries = 0;
  for (const LogEntry& entry : interp_->log().entries()) {
    if (entry.kind == LogEntryKind::kSleep) {
      ++sleep_entries;
      EXPECT_FALSE(entry.call_stack.empty());
      EXPECT_EQ(entry.call_stack.back(), "C.f");
    }
  }
  EXPECT_EQ(sleep_entries, 3);
}

TEST_F(InterpTest, ClockNowMillisReadsVirtualTime) {
  Load({R"(
    class C {
      int f() {
        var start = Clock.nowMillis();
        Thread.sleep(123);
        return Clock.nowMillis() - start;
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 123);
}

TEST_F(InterpTest, VirtualTimeBudgetAborts) {
  options_.virtual_time_budget_ms = 10'000;
  Load({R"(
    class C {
      void f() {
        while (true) {
          Thread.sleep(1000);
        }
      }
    }
  )"});
  try {
    Run("C.f");
    FAIL() << "expected ExecutionAborted";
  } catch (const ExecutionAborted& aborted) {
    EXPECT_EQ(aborted.reason, AbortReason::kVirtualTimeBudget);
  }
}

TEST_F(InterpTest, StepBudgetAbortsTightLoop) {
  options_.step_budget = 10'000;
  Load({"class C { void f() { while (true) { var x = 1; } } }"});
  try {
    Run("C.f");
    FAIL() << "expected ExecutionAborted";
  } catch (const ExecutionAborted& aborted) {
    EXPECT_EQ(aborted.reason, AbortReason::kStepBudget);
  }
}

TEST_F(InterpTest, RunawayRecursionAborts) {
  Load({"class C { void f() { this.f(); } }"});
  try {
    Run("C.f");
    FAIL() << "expected ExecutionAborted";
  } catch (const ExecutionAborted& aborted) {
    EXPECT_EQ(aborted.reason, AbortReason::kStackOverflow);
  }
}

TEST_F(InterpTest, ConfigDefaultsAndOverrides) {
  Load({R"(
    class C {
      int f() {
        return Config.getInt("retry.max", 7);
      }
      void set() {
        Config.set("retry.max", 99);
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 7);  // Default.
  interp_->SetConfig("retry.max", Value{int64_t{3}});
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 3);  // Host override.
  Run("C.set");
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 99);  // mj-level set.
}

TEST_F(InterpTest, FrozenConfigIgnoresMjSets) {
  Load({R"(
    class C {
      int f() {
        return Config.getInt("retry.max", 7);
      }
      void restrict() {
        Config.set("retry.max", 0);
      }
    }
  )"});
  interp_->SetConfig("retry.max", Value{int64_t{10}});
  interp_->FreezeConfig("retry.max");
  Run("C.restrict");
  // The test's attempt to disable retry was neutralized (§3.1.4 restoration).
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 10);
}

TEST_F(InterpTest, AssertBuiltinsThrowAssertionError) {
  Load({R"(
    class C {
      void ok() {
        Assert.assertTrue(1 < 2);
        Assert.assertEquals(4, 2 + 2);
        Assert.assertNotNull("x");
        Assert.assertNull(null);
        Assert.assertFalse(false);
      }
      void bad() {
        Assert.assertEquals(5, 2 + 2);
      }
      void explicitFail() {
        Assert.fail("nope");
      }
    }
  )"});
  Run("C.ok");
  RunExpectThrow("C.bad", "AssertionError");
  ObjectRef failure = RunExpectThrow("C.explicitFail", "AssertionError");
  EXPECT_EQ(failure->message(), "nope");
}

TEST_F(InterpTest, MathBuiltins) {
  Load({R"(
    class C {
      int f() {
        return Math.pow(2, 10) + Math.min(3, 1) + Math.max(3, 1) + Math.abs(-5);
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 1024 + 1 + 3 + 5);
}

TEST_F(InterpTest, ExponentialBackoffPattern) {
  // The HBASE-20492 fix pattern: backoff = 1000 * 2^attempts.
  Load({R"(
    class C {
      int f() {
        var total = 0;
        for (var attempt = 0; attempt < 4; attempt++) {
          var backoff = 1000 * Math.pow(2, attempt);
          Thread.sleep(backoff);
          total += backoff;
        }
        return total;
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 1000 + 2000 + 4000 + 8000);
  EXPECT_EQ(interp_->now_ms(), 15000);
}

TEST_F(InterpTest, StringMethods) {
  Load({R"(
    class C {
      bool f() {
        var s = "ConnectException: connection refused";
        return s.contains("refused") && s.startsWith("Connect") && s.endsWith("refused")
            && s.length() == 36 && !s.isEmpty() && s.equals(s);
      }
    }
  )"});
  EXPECT_TRUE(std::get<bool>(Run("C.f")));
}

TEST_F(InterpTest, LogBuiltinAppendsToExecutionLog) {
  Load({"class C { void f() { Log.info(\"hello\", 42); Log.warn(\"bad\"); } }"});
  Run("C.f");
  const auto& entries = interp_->log().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].text, "hello 42");
  EXPECT_EQ(entries[1].text, "bad");
}

TEST_F(InterpTest, InstanceOfSemantics) {
  Load({R"(
    class MyError extends KeeperException { }
    class C {
      int f() {
        var e = new MyError("x");
        var n = 0;
        if (e instanceof MyError) { n += 1; }
        if (e instanceof KeeperException) { n += 10; }
        if (e instanceof Exception) { n += 100; }
        if (e instanceof IOException) { n += 1000; }
        if (null instanceof Exception) { n += 10000; }
        return n;
      }
    }
  )"});
  EXPECT_EQ(std::get<int64_t>(Run("C.f")), 111);
}

TEST_F(InterpTest, InitConventionConstructor) {
  Load({R"(
    class Task {
      int id = 0;
      String name = "";
      void init(theId, theName) {
        this.id = theId;
        this.name = theName;
      }
    }
    class C {
      String f() {
        var t = new Task(42, "compaction");
        return t.name + ":" + t.id;
      }
    }
  )"});
  EXPECT_EQ(std::get<std::string>(Run("C.f")), "compaction:42");
}

TEST_F(InterpTest, CrossUnitCalls) {
  Load({"class A { int f() { var b = new B(); return b.g() + 1; } }",
        "class B { int g() { return 41; } }"});
  EXPECT_EQ(std::get<int64_t>(Run("A.f")), 42);
}

// --- Interceptors -----------------------------------------------------------

class CountingInterceptor : public CallInterceptor {
 public:
  ObjectRef OnCall(const CallEvent& event, Interpreter&) override {
    ++calls;
    last_caller = event.caller;
    last_callee = event.callee;
    return nullptr;
  }
  int calls = 0;
  std::string last_caller;
  std::string last_callee;
};

TEST_F(InterpTest, InterceptorSeesCallerAndCallee) {
  Load({"class C { void outer() { this.inner(); } void inner() { } }"});
  CountingInterceptor interceptor;
  interp_->AddInterceptor(&interceptor);
  Run("C.outer");
  EXPECT_EQ(interceptor.calls, 2);  // outer (from top level) + inner.
  EXPECT_EQ(interceptor.last_caller, "C.outer");
  EXPECT_EQ(interceptor.last_callee, "C.inner");
}

class ThrowOnceInterceptor : public CallInterceptor {
 public:
  ThrowOnceInterceptor(std::string callee, std::string exception)
      : callee_(std::move(callee)), exception_(std::move(exception)) {}
  ObjectRef OnCall(const CallEvent& event, Interpreter& interp) override {
    if (event.callee == callee_ && !fired_) {
      fired_ = true;
      return interp.MakeException(exception_, "injected");
    }
    return nullptr;
  }

 private:
  std::string callee_;
  std::string exception_;
  bool fired_ = false;
};

TEST_F(InterpTest, InterceptorInjectedExceptionIsCatchable) {
  Load({R"(
    class C {
      int withRetry() {
        for (var retry = 0; retry < 3; retry++) {
          try {
            this.op();
            return retry;
          } catch (SocketException e) {
            Log.warn("retrying after " + e.getMessage());
          }
        }
        return -1;
      }
      void op() { }
    }
  )"});
  ThrowOnceInterceptor interceptor("C.op", "SocketException");
  interp_->AddInterceptor(&interceptor);
  // First call fails (injected), second succeeds: returns retry == 1.
  EXPECT_EQ(std::get<int64_t>(Run("C.withRetry")), 1);
}

}  // namespace
}  // namespace wasabi
