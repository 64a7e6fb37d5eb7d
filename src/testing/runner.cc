#include "src/testing/runner.h"

#include <utility>

#include "src/exec/task_pool.h"

namespace wasabi {

const char* TestStatusName(TestStatus status) {
  switch (status) {
    case TestStatus::kPassed:
      return "passed";
    case TestStatus::kAssertionFailed:
      return "assertion-failed";
    case TestStatus::kException:
      return "exception";
    case TestStatus::kTimeout:
      return "timeout";
  }
  return "unknown";
}

namespace {

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.rfind(prefix, 0) == 0;
}

}  // namespace

TestRunner::TestRunner(const mj::Program& program, const mj::ProgramIndex& index,
                       RunnerOptions options)
    : program_(program), index_(index), options_(std::move(options)) {}

std::vector<TestCase> TestRunner::DiscoverTests() const {
  std::vector<TestCase> tests;
  for (const auto& unit : program_.units()) {
    for (const mj::ClassDecl* cls : unit->classes()) {
      if (!EndsWith(cls->name, "Test")) {
        continue;
      }
      for (const mj::MethodDecl* method : cls->methods) {
        if (StartsWith(method->name, "test") && method->body != nullptr &&
            method->params.empty()) {
          tests.push_back(TestCase{method->QualifiedName()});
        }
      }
    }
  }
  return tests;
}

Interpreter& TestRunner::AcquireInterpreter() const {
  std::unique_ptr<Interpreter>* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(warm_mutex_);
    slot = &warm_[TaskPool::CurrentWorker()];  // Node-based: stays valid.
  }
  if (*slot == nullptr) {
    *slot = std::make_unique<Interpreter>(program_, index_, options_.interp);
  } else {
    (*slot)->ResetForRun();
  }
  return **slot;
}

TestRunRecord TestRunner::RunTest(const TestCase& test,
                                  std::vector<CallInterceptor*> interceptors,
                                  const RunPerturbation& perturbation) const {
  TestRunRecord record;
  record.test = test;

  Interpreter& interp = AcquireInterpreter();
  if (perturbation.virtual_clock_epoch_ms != 0) {
    interp.set_run_epoch_ms(perturbation.virtual_clock_epoch_ms);
  }
  interp.set_loop_observer(perturbation.loop_observer);
  if (perturbation.chaos_degraded_env) {
    interp.SetConfig("chaos.degraded", Value{true});
  }
  for (const auto& [key, value] : options_.config_overrides) {
    interp.SetConfig(key, value);
  }
  for (const std::string& key : options_.frozen_keys) {
    interp.FreezeConfig(key);
  }
  FaultInjector* injector = nullptr;
  for (CallInterceptor* interceptor : interceptors) {
    interp.AddInterceptor(interceptor);
    if (auto* as_injector = dynamic_cast<FaultInjector*>(interceptor); as_injector != nullptr) {
      injector = as_injector;
    }
  }

  try {
    interp.Invoke(test.qualified_name);
    record.outcome.status = TestStatus::kPassed;
  } catch (ThrownException& thrown) {
    const ObjectRef& exception = thrown.exception;
    record.outcome.status = index_.IsSubtype(exception->class_name(), "AssertionError")
                                ? TestStatus::kAssertionFailed
                                : TestStatus::kException;
    record.outcome.exception_class = exception->class_name();
    record.outcome.exception_message = exception->message();
    record.outcome.crash_stack = exception->origin_stack();
    ObjectRef cause = exception->cause();
    for (int depth = 0; cause != nullptr && depth < 8; ++depth) {
      record.outcome.cause_chain.push_back(cause->class_name());
      cause = cause->cause();
    }
  } catch (const ExecutionAborted& aborted) {
    record.outcome.status = TestStatus::kTimeout;
    record.outcome.abort_reason = AbortReasonName(aborted.reason);
    record.outcome.abort_kind = aborted.reason;
  }

  record.log = interp.log();
  record.virtual_duration_ms = interp.now_ms() - interp.run_epoch_ms();
  record.steps = interp.steps();
  record.loop_iterations = interp.loop_iterations();
  if (injector != nullptr) {
    record.injected_points = injector->points();
    record.injection_counts.reserve(injector->points().size());
    for (size_t i = 0; i < injector->points().size(); ++i) {
      record.injection_counts.push_back(injector->InjectionCount(i));
    }
  }
  return record;
}

}  // namespace wasabi
