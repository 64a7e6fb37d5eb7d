#include "src/storm/profile.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/exec/task_pool.h"
#include "src/interp/exec_log.h"
#include "src/obs/trace.h"
#include "src/testing/runner.h"

namespace wasabi {
namespace {

// Caps keeping probe results tidy when the loop under probe never gives up.
constexpr int kMaxRecordedAttempts = 64;
constexpr size_t kMaxRecordedBackoffs = 8;

// Small budgets: a probe only needs to see the loop give up or prove it
// won't. An unbounded loop with sleeps trips the virtual-time budget; one
// without sleeps trips the step budget. Either abort reason means unbounded.
// Probe runs see `storm.request.id` = `request_id`.
RunnerOptions ProbeOptions(int64_t request_id) {
  RunnerOptions options;
  options.interp.step_budget = 300'000;
  options.interp.virtual_time_budget_ms = 20'000;
  options.config_overrides = {{"storm.request.id", Value{request_id}}};
  return options;
}

// Forces every call to `callee` to throw `exception` (empty = count only,
// never throw). Fire count is the attempt count of the probe.
class SendProbe : public CallInterceptor {
 public:
  SendProbe(std::string callee, std::string exception)
      : callee_(std::move(callee)), exception_(std::move(exception)) {}

  void OnCall(const CallEvent& event, Interpreter& interp) override {
    if (event.callee != callee_) {
      return;
    }
    ++fires_;
    if (!exception_.empty()) {
      throw ThrownException{interp.MakeException(exception_, "storm probe")};
    }
  }

  int64_t fires() const { return fires_; }

 private:
  std::string callee_;
  std::string exception_;
  int64_t fires_ = 0;
};

struct ProbeResult {
  int64_t send_fires = 0;
  bool aborted = false;  // Step/virtual-time budget: the loop never gives up.
  std::vector<int64_t> sleeps_ms;
};

// One probe: `service`.handle() with every send throwing `exception`. The
// runner's options carry the probe budgets and the request identity. Giving
// up by (re)throwing still completes, i.e. the policy is bounded.
ProbeResult RunProbe(const TestRunner& runner, const std::string& service,
                     const std::string& exception) {
  SendProbe probe(service + ".send", exception);
  TestRunRecord record = runner.RunTest(TestCase{service + ".handle"}, {&probe});
  ProbeResult result;
  result.send_fires = probe.fires();
  result.aborted = record.outcome.status == TestStatus::kTimeout;
  for (const LogEntry& entry : record.log.entries()) {
    if (entry.kind == LogEntryKind::kSleep && result.sleeps_ms.size() < kMaxRecordedBackoffs) {
      result.sleeps_ms.push_back(entry.amount);
    }
  }
  return result;
}

// `request0` and `request1` probe as request ids 0 and 1.
EdgeRetryProfile ProbeService(const mj::ProgramIndex& index, const TestRunner& request0,
                              const TestRunner& request1, const mj::ClassDecl& cls,
                              const mj::MethodDecl& handle) {
  EdgeRetryProfile profile;
  profile.service = cls.name;
  profile.coordinator = cls.name + ".handle";
  profile.location = handle.location;
  if (const mj::CompilationUnit* unit = index.UnitOf(cls); unit != nullptr) {
    profile.file = unit->file().name();
  }

  // Probe 0 (clean): fan-out = sends per successful request.
  ProbeResult clean = RunProbe(request0, cls.name, /*exception=*/"");
  profile.fanout = static_cast<int>(std::max<int64_t>(1, clean.send_fires));

  // Probe 1 (persistent transport failure): attempts + backoff schedule.
  ProbeResult transport = RunProbe(request0, cls.name, "ServiceUnavailableException");
  profile.bounded = !transport.aborted;
  profile.attempts = static_cast<int>(
      std::clamp<int64_t>(transport.send_fires, 1, kMaxRecordedAttempts));
  profile.backoff_ms = transport.sleeps_ms;

  // Probe 2 (same failure, different request identity): a backoff schedule
  // that depends on which request is retrying is jittered.
  ProbeResult shifted = RunProbe(request1, cls.name, "ServiceUnavailableException");
  const size_t compare = std::min(transport.sleeps_ms.size(), shifted.sleeps_ms.size());
  for (size_t i = 0; i < compare; ++i) {
    if (transport.sleeps_ms[i] != shifted.sleeps_ms[i]) {
      profile.jittered = true;
      break;
    }
  }

  // Probe 3 (overload push-back): a frontend that sends again after
  // ResourceExhaustedException retries on overload instead of shedding.
  ProbeResult overload = RunProbe(request0, cls.name, "ResourceExhaustedException");
  profile.retries_on_overload = overload.send_fires >= 2;
  if (profile.retries_on_overload && !overload.sleeps_ms.empty()) {
    profile.overload_backoff_ms = overload.sleeps_ms.front();
  }
  return profile;
}

}  // namespace

std::vector<EdgeRetryProfile> ExtractRetryProfiles(const mj::Program& program,
                                                   const mj::ProgramIndex& index, int jobs,
                                                   Tracer* tracer) {
  ScopedSpan span(tracer, "storm.profile");
  struct Service {
    const mj::ClassDecl* cls = nullptr;
    const mj::MethodDecl* handle = nullptr;
  };
  std::vector<Service> services;
  for (const mj::ClassDecl* cls : index.all_classes()) {
    const mj::MethodDecl* handle = index.ResolveMethod(*cls, "handle");
    const mj::MethodDecl* send = index.ResolveMethod(*cls, "send");
    if (handle == nullptr || send == nullptr || handle->body == nullptr ||
        !handle->params.empty()) {
      continue;
    }
    services.push_back(Service{cls, handle});
  }
  std::sort(services.begin(), services.end(),
            [](const Service& a, const Service& b) { return a.cls->name < b.cls->name; });

  // Index-addressed results: the reduce order is the sorted service order, so
  // the profile list is byte-identical at any worker count.
  std::vector<EdgeRetryProfile> profiles(services.size());
  TestRunner request0(program, index, ProbeOptions(/*request_id=*/0));
  TestRunner request1(program, index, ProbeOptions(/*request_id=*/1));
  TaskPool pool(jobs);
  pool.ParallelFor(services.size(), [&](size_t i) {
    profiles[i] = ProbeService(index, request0, request1, *services[i].cls, *services[i].handle);
  });
  span.AddArg("edges", static_cast<int64_t>(profiles.size()));
  return profiles;
}

}  // namespace wasabi
