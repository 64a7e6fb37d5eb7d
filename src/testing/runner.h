// Unit-test discovery and execution over the mj interpreter.
//
// Tests follow the JUnit-ish convention the corpus uses: classes whose names
// end in "Test", methods whose names start with "test". Every run gets a
// FRESH interpreter state (clean singletons, config, clock, interceptors,
// log) so runs are independent — the property the paper's planner relies on.
// The interpreter OBJECT is reused: the runner keeps one warm interpreter per
// pool worker and resets it each time it hands it out, so reuse keeps warm
// storage (frames, dispatch cache, compiled bytecode) only, never observable
// state.

#ifndef WASABI_SRC_TESTING_RUNNER_H_
#define WASABI_SRC_TESTING_RUNNER_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/interp/interpreter.h"
#include "src/testing/test_model.h"

namespace wasabi {

struct RunnerOptions {
  InterpOptions interp;
  // Config values applied before each run (e.g. restored retry defaults).
  std::vector<std::pair<std::string, Value>> config_overrides;
  // Keys whose mj-level Config.set calls are ignored (§3.1.4 restoration).
  std::vector<std::string> frozen_keys;
};

// Per-run perturbation applied on top of RunnerOptions (docs/FLAKINESS.md).
// Deliberately NOT part of RunnerOptions: a runner's options are fixed for
// its lifetime, and a perturbed probe repetition must still run on the same
// runner's warm interpreters as the campaign run it repeats.
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
  // recorder) and a per-run perturbation. Never throws for mj-level
  // outcomes: uncaught mj exceptions and budget aborts are captured in the
  // record. The run executes on the calling pool worker's warm interpreter
  // (keyed by TaskPool::CurrentWorker(); built on first use, ResetForRun on
  // every later hand-out), so a runner may serve one TaskPool — or one
  // thread outside any pool — at a time, and distinct workers never share an
  // interpreter.
  TestRunRecord RunTest(const TestCase& test, std::vector<CallInterceptor*> interceptors = {},
                        const RunPerturbation& perturbation = {}) const;

 private:
  // The calling worker's interpreter in fresh-run state.
  Interpreter& AcquireInterpreter() const;

  const mj::Program& program_;
  const mj::ProgramIndex& index_;
  RunnerOptions options_;
  // Warm interpreters by pool worker index. The mutex guards only the map;
  // each interpreter is touched by its own worker alone, outside the lock.
  mutable std::mutex warm_mutex_;
  mutable std::unordered_map<int, std::unique_ptr<Interpreter>> warm_;
};

}  // namespace wasabi

#endif  // WASABI_SRC_TESTING_RUNNER_H_
