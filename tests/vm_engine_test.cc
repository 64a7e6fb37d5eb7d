// Bytecode VM tests (ctest label "vm", docs/PERFORMANCE.md): every program
// here runs under both engines and must agree on the returned value or the
// thrown diagnostic (class + exact message), on step/loop/virtual-clock
// accounting, on the LoopObserver call sequence, and on the execution log —
// the same observational-identity contract the golden suite enforces
// end-to-end.
//
// This source is compiled twice: once as vm_engine_test against the library
// build (computed-goto dispatch on GCC/Clang), and once as
// vm_engine_switch_test with WASABI_VM_FORCE_SWITCH recompiling the executor
// on the portable switch fallback. Both binaries run the same assertions, so
// the two dispatch strategies are proven behaviorally identical.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/interp/interpreter.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/vm/bytecode.h"

namespace wasabi {
namespace {

struct Outcome {
  bool threw = false;
  std::string exception_class;
  std::string exception_message;
  Value value;
  int64_t steps = 0;
  int64_t loop_iterations = 0;
  // (method, virtual ms) of every LoopObserver call, in order.
  std::vector<std::pair<std::string, int64_t>> loop_events;
  int64_t now_ms = 0;
  std::string log_dump;
};

struct RecordingLoopObserver : LoopObserver {
  std::vector<std::pair<std::string, int64_t>> events;
  void OnLoopIteration(std::string_view method, int64_t virtual_ms) override {
    events.emplace_back(std::string(method), virtual_ms);
  }
};

class VmEngineTest : public ::testing::Test {
 protected:
  void Load(const std::string& source) {
    mj::DiagnosticEngine diag;
    program_.AddUnit(mj::ParseSource("vm.mj", source, diag));
    ASSERT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
    index_ = std::make_unique<mj::ProgramIndex>(program_);
  }

  Outcome RunWith(EngineKind engine, const std::string& qualified) {
    InterpOptions options;
    options.engine = engine;
    Interpreter interp(program_, *index_, options);
    RecordingLoopObserver observer;
    interp.set_loop_observer(&observer);
    Outcome outcome;
    try {
      outcome.value = interp.Invoke(qualified);
    } catch (ThrownException& thrown) {
      outcome.threw = true;
      outcome.exception_class = thrown.exception->class_name();
      outcome.exception_message = thrown.exception->message();
    }
    outcome.steps = interp.steps();
    outcome.loop_iterations = interp.loop_iterations();
    outcome.loop_events = std::move(observer.events);
    outcome.now_ms = interp.now_ms();
    outcome.log_dump = interp.log().Dump();
    return outcome;
  }

  // Runs qualified under both engines, asserts observational identity, and
  // returns the VM outcome for absolute assertions.
  Outcome RunBoth(const std::string& qualified) {
    Outcome vm = RunWith(EngineKind::kVm, qualified);
    Outcome tree = RunWith(EngineKind::kTree, qualified);
    EXPECT_EQ(vm.threw, tree.threw);
    EXPECT_EQ(vm.exception_class, tree.exception_class);
    EXPECT_EQ(vm.exception_message, tree.exception_message);
    if (!vm.threw && !tree.threw) {
      EXPECT_TRUE(ValueEquals(vm.value, tree.value));
    }
    EXPECT_EQ(vm.steps, tree.steps);
    EXPECT_EQ(vm.loop_iterations, tree.loop_iterations);
    EXPECT_EQ(vm.loop_events, tree.loop_events);
    EXPECT_EQ(vm.now_ms, tree.now_ms);
    EXPECT_EQ(vm.log_dump, tree.log_dump);
    return vm;
  }

  int64_t AsIntOrDie(const Outcome& outcome) {
    EXPECT_FALSE(outcome.threw) << outcome.exception_message;
    EXPECT_TRUE(IsInt(outcome.value));
    return IsInt(outcome.value) ? std::get<int64_t>(outcome.value) : 0;
  }

  mj::Program program_;
  std::unique_ptr<mj::ProgramIndex> index_;
};

TEST_F(VmEngineTest, DispatchKindMatchesBuildConfiguration) {
#if defined(WASABI_VM_FORCE_SWITCH)
  EXPECT_STREQ(vm::DispatchKindName(), "switch");
#elif defined(__GNUC__) || defined(__clang__)
  EXPECT_STREQ(vm::DispatchKindName(), "computed-goto");
#else
  EXPECT_STREQ(vm::DispatchKindName(), "switch");
#endif
}

TEST_F(VmEngineTest, ArithmeticLoopParity) {
  // An integer loop of the common statement shapes: a for-loop head
  // comparison, x += y and x += C, x = x - C, a binary in a declaration, and
  // a branch on a comparison.
  Load(R"(
    class C {
      int f() {
        var total = 0;
        var step = 3;
        for (var i = 0; i < 100; i++) {
          total += step;
          total = total - 1;
          var twice = total + total;
          if (twice > 50) {
            total += 1;
          }
        }
        var copy = total + 1;
        return copy;
      }
    }
  )");
  // Net +2 per iteration until total crosses 25 (iteration 13), then +3 for
  // the remaining 87 iterations: 27 + 261 = 288, plus the trailing copy + 1.
  EXPECT_EQ(AsIntOrDie(RunBoth("C.f")), 289);
}

TEST_F(VmEngineTest, WhileLoopAccountingMatches) {
  Load(R"(
    class C {
      int f() {
        var i = 0;
        var sum = 0;
        while (i < 17) {
          sum = sum + i;
          i += 1;
        }
        return sum;
      }
    }
  )");
  Outcome vm = RunBoth("C.f");
  EXPECT_EQ(AsIntOrDie(vm), 136);
  EXPECT_EQ(vm.loop_iterations, 17);
}

TEST_F(VmEngineTest, DivisionAndModuloByZeroDiagnostics) {
  Load(R"(
    class C {
      int div() { var a = 7; var b = 0; return a / b; }
      int mod() { var a = 7; var b = 0; return a % b; }
      int minDiv() { var a = -9223372036854775807 - 1; var b = -1; return a / b; }
      int minMod() { var a = -9223372036854775807 - 1; var b = -1; return a % b; }
      int minDivAssign() {
        var a = -9223372036854775807 - 1; var b = -1; var q = 0; q = a / b; return q;
      }
      int minModAssign() {
        var a = -9223372036854775807 - 1; var b = -1; var r = 7; r = a % b; return r;
      }
      int minDivLiteral() { return (-9223372036854775807 - 1) / -1; }
      int min() { return -9223372036854775807 - 1; }
      int minusOne() { return -1; }
      int minDivCalls() { return this.min() / this.minusOne(); }
      int minModCalls() { return this.min() % this.minusOne(); }
    }
  )");
  Outcome division = RunBoth("C.div");
  EXPECT_TRUE(division.threw);
  EXPECT_EQ(division.exception_class, "ArithmeticException");
  EXPECT_EQ(division.exception_message, "division by zero");
  Outcome modulo = RunBoth("C.mod");
  EXPECT_TRUE(modulo.threw);
  EXPECT_EQ(modulo.exception_message, "modulo by zero");
  // Long.MIN_VALUE / -1 and % -1 follow Java `long` semantics under every
  // division path of both engines instead of trapping the host.
  for (const char* method : {"C.minDiv", "C.minDivAssign", "C.minDivLiteral", "C.minDivCalls"}) {
    EXPECT_EQ(AsIntOrDie(RunBoth(method)), INT64_MIN) << method;
  }
  for (const char* method : {"C.minMod", "C.minModAssign", "C.minModCalls"}) {
    EXPECT_EQ(AsIntOrDie(RunBoth(method)), 0) << method;
  }
}

TEST_F(VmEngineTest, IntegerOverflowWrapsLikeJavaLong) {
  // mj integers are Java `long`s: `+`, `-`, `*` and negation wrap modulo 2^64
  // on every arithmetic path of both engines and in the Math builtins, where
  // C++ signed overflow would be undefined (a -DWASABI_UBSAN=ON build aborts
  // on it). doubledBackoff is a retry loop with a capped sleep and an
  // uncapped backoff, the shape that reaches overflow from a user app.
  Load(R"(
    class C {
      int big = 9223372036854775807;
      int maxPlusOne() { var max = 9223372036854775807; return max + 1; }
      int minMinusOne() { var min = -9223372036854775807 - 1; return min - 1; }
      int twoPow62TimesTwo() { var p = 4611686018427387904; return p * 2; }
      int negateMin() { var min = -9223372036854775807 - 1; return -min; }
      int addAssignAtMax() { var x = 9223372036854775807; x += 1; return x; }
      int subAssignAtMin() {
        var x = -9223372036854775807 - 1; var one = 1; x -= one; return x;
      }
      int fieldAddAssignAtMax() { this.big += 1; return this.big; }
      int absMin() { var min = -9223372036854775807 - 1; return Math.abs(min); }
      int powOverflow() { return Math.pow(60000, 4); }
      int doubledBackoff() {
        var backoff = 100;
        for (var round = 0; round < 70; round++) {
          Thread.sleep(Math.min(backoff, 1000));
          backoff = backoff * 2;
        }
        return backoff;
      }
    }
  )");
  EXPECT_EQ(AsIntOrDie(RunBoth("C.maxPlusOne")), INT64_MIN);
  EXPECT_EQ(AsIntOrDie(RunBoth("C.minMinusOne")), INT64_MAX);
  EXPECT_EQ(AsIntOrDie(RunBoth("C.twoPow62TimesTwo")), INT64_MIN);
  EXPECT_EQ(AsIntOrDie(RunBoth("C.negateMin")), INT64_MIN);
  EXPECT_EQ(AsIntOrDie(RunBoth("C.addAssignAtMax")), INT64_MIN);
  EXPECT_EQ(AsIntOrDie(RunBoth("C.subAssignAtMin")), INT64_MAX);
  EXPECT_EQ(AsIntOrDie(RunBoth("C.fieldAddAssignAtMax")), INT64_MIN);
  EXPECT_EQ(AsIntOrDie(RunBoth("C.absMin")), INT64_MIN);
  // 60000^4 = 12960000000000000000, less 2^64.
  EXPECT_EQ(AsIntOrDie(RunBoth("C.powOverflow")), INT64_C(-5486744073709551616));
  // 100 * 2^70 == 25 * 2^72, a multiple of 2^64. The sleeps are 100..800,
  // then 1000 while the wrapped backoff is positive (rounds 4-56, 59 and 60)
  // and 0 while it is negative or zero.
  Outcome backoff = RunBoth("C.doubledBackoff");
  EXPECT_EQ(AsIntOrDie(backoff), 0);
  EXPECT_EQ(backoff.loop_iterations, 70);
  EXPECT_EQ(backoff.now_ms, 1500 + 55 * 1000);
}

TEST_F(VmEngineTest, UndefinedVariableReadAndWriteDiagnostics) {
  // The name resolves to a slot whose defining block has exited; both the
  // kLoadSlot read and the kStepAssertSlot write paths must produce the tree
  // walker's exact wording and line number.
  Load(R"(
    class C {
      int read() {
        {
          var ghost = 1;
        }
        return ghost;
      }
      int write() {
        {
          var ghost = 1;
        }
        ghost += 2;
        return 0;
      }
    }
  )");
  Outcome read = RunBoth("C.read");
  EXPECT_TRUE(read.threw);
  EXPECT_EQ(read.exception_class, "IllegalStateException");
  EXPECT_EQ(read.exception_message, "undefined variable 'ghost' at line 7");
  Outcome write = RunBoth("C.write");
  EXPECT_TRUE(write.threw);
  EXPECT_EQ(write.exception_message, "assignment to undefined variable 'ghost' at line 13");
}

TEST_F(VmEngineTest, TypeErrorConditionDiagnostics) {
  Load(R"(
    class C {
      int f() {
        var n = 41;
        if (n + 1) {
          return 1;
        }
        return 0;
      }
    }
  )");
  Outcome outcome = RunBoth("C.f");
  EXPECT_TRUE(outcome.threw);
  EXPECT_EQ(outcome.exception_class, "IllegalStateException");
  EXPECT_EQ(outcome.exception_message, "type error at line 5: expected bool, got 42");
}

TEST_F(VmEngineTest, NativeTryCatchSubtypeMatchingAndBinding) {
  Load(R"(
    class C {
      string f() {
        var log = "";
        try {
          log = log + "t";
          throw new SocketException("boom");
        } catch (IllegalStateException wrong) {
          log = log + "X";
        } catch (IOException e) {
          log = log + "c:" + e.getMessage();
        }
        return log;
      }
    }
  )");
  Outcome outcome = RunBoth("C.f");
  ASSERT_FALSE(outcome.threw) << outcome.exception_message;
  ASSERT_TRUE(IsString(outcome.value));
  EXPECT_EQ(std::get<std::string>(outcome.value), "tc:boom");
}

TEST_F(VmEngineTest, CatchBodyExceptionPropagatesPastSiblings) {
  // An exception thrown from a catch clause body must not be re-offered to
  // later clauses of the same try — the handler is disarmed on entry.
  Load(R"(
    class C {
      int f() {
        try {
          throw new SocketException("inner");
        } catch (SocketException e) {
          throw new TimeoutException("converted");
        } catch (TimeoutException t) {
          return -1;
        }
        return 0;
      }
    }
  )");
  Outcome outcome = RunBoth("C.f");
  EXPECT_TRUE(outcome.threw);
  EXPECT_EQ(outcome.exception_class, "TimeoutException");
  EXPECT_EQ(outcome.exception_message, "converted");
}

TEST_F(VmEngineTest, UnmatchedExceptionRethrowsToCaller) {
  Load(R"(
    class C {
      int f() {
        try {
          throw new IllegalStateException("no handler");
        } catch (IOException e) {
          return 1;
        }
        return 0;
      }
    }
  )");
  Outcome outcome = RunBoth("C.f");
  EXPECT_TRUE(outcome.threw);
  EXPECT_EQ(outcome.exception_class, "IllegalStateException");
  EXPECT_EQ(outcome.exception_message, "no handler");
}

TEST_F(VmEngineTest, BreakAndContinueUnwindTryHandlers) {
  // break/continue from inside a try must pop the armed handler (kPopHandlers)
  // before jumping, or a later throw would resurrect a dead catch clause.
  Load(R"(
    class C {
      int f() {
        var sum = 0;
        for (var i = 0; i < 6; i++) {
          try {
            if (i == 2) {
              continue;
            }
            if (i == 4) {
              break;
            }
            sum += 10;
          } catch (IOException e) {
            sum += 1000;
          }
        }
        try {
          throw new IOException("after");
        } catch (IOException e) {
          sum += 1;
        }
        return sum;
      }
    }
  )");
  EXPECT_EQ(AsIntOrDie(RunBoth("C.f")), 31);  // i in {0,1,3} add 10, plus 1.
}

TEST_F(VmEngineTest, TryFinallyDelegatesWithIdenticalSemantics) {
  // try-with-finally lowers to the delegated tree path (kExecTree); the
  // finally still runs on the exceptional edge and its flow wins.
  Load(R"(
    class C {
      string f() {
        var log = "";
        try {
          try {
            log = log + "t";
            throw new IOException("x");
          } finally {
            log = log + "f";
          }
        } catch (IOException e) {
          log = log + "c";
        }
        return log;
      }
    }
  )");
  Outcome outcome = RunBoth("C.f");
  ASSERT_FALSE(outcome.threw) << outcome.exception_message;
  EXPECT_EQ(std::get<std::string>(outcome.value), "tfc");
}

TEST_F(VmEngineTest, StringConcatenationAndComparisonParity) {
  Load(R"(
    class C {
      string f() {
        var s = "a";
        var n = 0;
        while (n < 3) {
          s = s + n;
          n += 1;
        }
        if (s == "a012") {
          s = s + "!";
        }
        return s;
      }
    }
  )");
  Outcome outcome = RunBoth("C.f");
  ASSERT_FALSE(outcome.threw) << outcome.exception_message;
  EXPECT_EQ(std::get<std::string>(outcome.value), "a012!");
}

TEST_F(VmEngineTest, MethodCallsAndStepBudgetParity) {
  // Calls delegate through EvalCall (the inline-cached dispatch path); the
  // per-call Step must land identically so budgets abort at the same step.
  Load(R"(
    class Helper {
      int twice(int x) { return x + x; }
    }
    class C {
      int f() {
        var h = new Helper();
        var total = 0;
        for (var i = 0; i < 10; i++) {
          total += h.twice(i);
        }
        return total;
      }
    }
  )");
  Outcome outcome = RunBoth("C.f");
  EXPECT_EQ(AsIntOrDie(outcome), 90);
}

TEST_F(VmEngineTest, StepBudgetAbortsAtTheSameStep) {
  Load(R"(
    class C {
      int f() {
        var i = 0;
        while (true) {
          i += 1;
        }
        return i;
      }
    }
  )");
  InterpOptions vm_options;
  vm_options.engine = EngineKind::kVm;
  vm_options.step_budget = 5000;
  InterpOptions tree_options = vm_options;
  tree_options.engine = EngineKind::kTree;

  auto run = [&](const InterpOptions& options) {
    Interpreter interp(program_, *index_, options);
    AbortReason reason = AbortReason::kStepBudget;
    bool aborted = false;
    try {
      interp.Invoke("C.f");
    } catch (const ExecutionAborted& abort) {
      aborted = true;
      reason = abort.reason;
    }
    EXPECT_TRUE(aborted);
    EXPECT_EQ(reason, AbortReason::kStepBudget);
    return interp.steps();
  };
  EXPECT_EQ(run(vm_options), run(tree_options));
}

TEST_F(VmEngineTest, CompiledProgramSurvivesResetForRun) {
  Load(R"(
    class C {
      int f() {
        var acc = 1;
        for (var i = 0; i < 5; i++) {
          acc = acc * 2;
        }
        return acc;
      }
    }
  )");
  InterpOptions options;
  options.engine = EngineKind::kVm;
  Interpreter interp(program_, *index_, options);
  Value first = interp.Invoke("C.f");
  int64_t first_steps = interp.steps();
  interp.ResetForRun();
  Value second = interp.Invoke("C.f");
  ASSERT_TRUE(IsInt(first));
  ASSERT_TRUE(IsInt(second));
  EXPECT_EQ(std::get<int64_t>(first), 32);
  EXPECT_EQ(std::get<int64_t>(second), 32);
  EXPECT_EQ(interp.steps(), first_steps);
}

TEST_F(VmEngineTest, LogicalOperatorsShortCircuitIdentically) {
  Load(R"(
    class C {
      int f() {
        var hits = 0;
        var n = 5;
        if (n > 0 && n < 10) {
          hits += 1;
        }
        if (n < 0 || n == 5) {
          hits += 10;
        }
        if (!(n == 4)) {
          hits += 100;
        }
        return hits;
      }
    }
  )");
  EXPECT_EQ(AsIntOrDie(RunBoth("C.f")), 111);
}

}  // namespace
}  // namespace wasabi
