// Unit-test discovery and execution over the mj interpreter.
//
// Tests follow the JUnit-ish convention the corpus uses: classes whose names
// end in "Test", methods whose names start with "test". Every run gets a
// FRESH interpreter state (clean singletons, clock, log) so runs are
// independent — the property the paper's planner relies on. The interpreter
// OBJECT may be reused across a worker's runs via InterpreterArena; reuse
// keeps warm storage only, never observable state.

#ifndef WASABI_SRC_TESTING_RUNNER_H_
#define WASABI_SRC_TESTING_RUNNER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/interp/interpreter.h"
#include "src/testing/test_model.h"

namespace wasabi {

// Per-worker interpreter reuse (docs/PERFORMANCE.md): a campaign worker keeps
// one arena holding a warm Interpreter whose frame/value storage and dispatch
// cache survive across that worker's runs. Acquire() reconstructs only when
// the program/index/options change; otherwise ResetForRun() restores the
// fresh-run isolation contract (clean singletons, config, clock, log) without
// reallocating. Not thread-safe: each arena must be owned by exactly one
// worker at a time.
class InterpreterArena {
 public:
  Interpreter& Acquire(const mj::Program& program, const mj::ProgramIndex& index,
                       const InterpOptions& options);

 private:
  std::unique_ptr<Interpreter> interp_;
  const mj::Program* program_ = nullptr;
  const mj::ProgramIndex* index_ = nullptr;
  InterpOptions options_;
};

struct RunnerOptions {
  InterpOptions interp;
  // Config values applied before each run (e.g. restored retry defaults).
  std::vector<std::pair<std::string, Value>> config_overrides;
  // Keys whose mj-level Config.set calls are ignored (§3.1.4 restoration).
  std::vector<std::string> frozen_keys;
};

// Per-run perturbation applied on top of RunnerOptions (docs/FLAKINESS.md).
// Deliberately NOT part of InterpOptions: arenas compare options for warm
// reuse, and a perturbed probe repetition must still reuse the worker's warm
// interpreter.
struct RunPerturbation {
  // Virtual-clock epoch the run starts at. The time budget stays relative
  // (a skewed run gets the full allowance); Clock.nowMillis() observes the
  // skewed absolute clock — the flakiness prober's timing perturbation.
  int64_t virtual_clock_epoch_ms = 0;
  // Sets interpreter config "chaos.degraded" = true for this run, the seeded
  // degraded-environment chaos mode applications can branch on.
  bool chaos_degraded_env = false;
  // Non-owning; observes while/for back-edges for the retry journal.
  LoopObserver* loop_observer = nullptr;
};

class TestRunner {
 public:
  TestRunner(const mj::Program& program, const mj::ProgramIndex& index,
             RunnerOptions options = {});

  // All `*Test.test*` methods, in declaration order.
  std::vector<TestCase> DiscoverTests() const;

  // Runs one test with optional extra interceptors (injector, coverage
  // recorder). Never throws: all outcomes are captured in the record.
  // With an arena, the run reuses the arena's warm interpreter (identical
  // observable behavior, no per-run construction); without one, a fresh
  // interpreter is built as before.
  TestRunRecord RunTest(const TestCase& test, std::vector<CallInterceptor*> interceptors = {},
                        InterpreterArena* arena = nullptr) const;

  // As above, with a per-run perturbation (clock epoch, degraded environment,
  // loop observer). The default RunPerturbation{} is behavior-identical to
  // the three-argument overload.
  TestRunRecord RunTest(const TestCase& test, std::vector<CallInterceptor*> interceptors,
                        InterpreterArena* arena, const RunPerturbation& perturbation) const;

  const RunnerOptions& options() const { return options_; }
  void set_options(RunnerOptions options) { options_ = std::move(options); }

 private:
  const mj::Program& program_;
  const mj::ProgramIndex& index_;
  RunnerOptions options_;
};

}  // namespace wasabi

#endif  // WASABI_SRC_TESTING_RUNNER_H_
