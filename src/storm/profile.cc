#include "src/storm/profile.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
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

// Compilation-unit indices (program order) of every method and class, so a
// probe records what it ran as bits instead of names.
class UnitMap {
 public:
  UnitMap(const mj::Program& program, const mj::ProgramIndex& index)
      : unit_of_method_(index.method_count(), kNone) {
    std::unordered_map<const mj::CompilationUnit*, uint32_t> unit_index;
    for (uint32_t u = 0; u < program.units().size(); ++u) {
      const mj::CompilationUnit& unit = *program.units()[u];
      unit_index.emplace(&unit, u);
      for (const mj::ClassDecl* cls : unit.classes()) {
        for (const mj::MethodDecl* method : cls->methods) {
          if (method->method_index < unit_of_method_.size()) {
            unit_of_method_[method->method_index] = u;
          }
        }
      }
    }
    // An instantiation runs the field initializers of the class and of
    // every base, which may live in other units.
    for (const mj::ClassDecl* cls : index.all_classes()) {
      std::vector<uint32_t>& units = units_of_class_[cls];
      int depth = 0;
      for (const mj::ClassDecl* at = cls; at != nullptr && depth++ < 64;
           at = at->base_name.empty() ? nullptr : index.FindClass(at->base_name)) {
        auto it = unit_index.find(index.UnitOf(*at));
        if (it != unit_index.end()) {
          units.push_back(it->second);
        }
      }
    }
  }

  // `hit` holds one flag per unit.
  void RecordCall(const mj::MethodDecl& method, std::vector<uint8_t>* hit) const {
    if (method.method_index < unit_of_method_.size()) {
      const uint32_t unit = unit_of_method_[method.method_index];
      if (unit != kNone) {
        (*hit)[unit] = 1;
      }
    }
  }

  void RecordInstance(const mj::ClassDecl& cls, std::vector<uint8_t>* hit) const {
    auto it = units_of_class_.find(&cls);
    if (it != units_of_class_.end()) {
      for (uint32_t unit : it->second) {
        (*hit)[unit] = 1;
      }
    }
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  std::vector<uint32_t> unit_of_method_;  // By MethodDecl::method_index.
  std::unordered_map<const mj::ClassDecl*, std::vector<uint32_t>> units_of_class_;
};

// Makes every call to `callee` (the resolved target's qualified name, as
// CallEvent carries it) raise `exception` (empty = count only, never raise).
// Fire count is the attempt count of the probe. Every call and
// instantiation it sees, the raised send() included, marks its unit in
// `hit`.
class SendProbe : public CallInterceptor {
 public:
  SendProbe(std::string callee, std::string exception, const UnitMap& units,
            std::vector<uint8_t>* hit)
      : callee_(std::move(callee)), exception_(std::move(exception)), units_(units), hit_(hit) {}

  ObjectRef OnCall(const CallEvent& event, Interpreter& interp) override {
    units_.RecordCall(*event.method, hit_);
    if (event.callee != callee_) {
      return nullptr;
    }
    ++fires_;
    if (exception_.empty()) {
      return nullptr;
    }
    return interp.MakeException(exception_, "storm probe");
  }

  void OnInstantiate(const mj::ClassDecl& cls) override { units_.RecordInstance(cls, hit_); }

  int64_t fires() const { return fires_; }

 private:
  std::string callee_;
  std::string exception_;
  const UnitMap& units_;
  std::vector<uint8_t>* hit_;
  int64_t fires_ = 0;
};

struct ProbeResult {
  int64_t send_fires = 0;
  bool aborted = false;  // Step/virtual-time budget: the loop never gives up.
  std::vector<int64_t> sleeps_ms;
};

// One probe: `service`.handle() with every call to `send` (the method a
// send() call on the service resolves to) raising `exception`. The runner's
// options carry the probe budgets and the request identity. Giving up by
// (re)throwing still completes, i.e. the policy is bounded. The units the
// probe ran code of are marked in `hit`.
ProbeResult RunProbe(const TestRunner& runner, const std::string& service,
                     const mj::MethodDecl& send, const std::string& exception,
                     const UnitMap& units, std::vector<uint8_t>* hit) {
  SendProbe probe(send.qualified_cache, exception, units, hit);
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

struct Service {
  const mj::ClassDecl* cls = nullptr;
  const mj::MethodDecl* handle = nullptr;
  const mj::MethodDecl* send = nullptr;
};

// The program's services, sorted by class name.
std::vector<Service> FindServices(const mj::ProgramIndex& index) {
  std::vector<Service> services;
  for (const mj::ClassDecl* cls : index.all_classes()) {
    // A service declares handle() itself: a subclass that only inherits it
    // is no new edge (and "Sub.handle" names no method to invoke). send()
    // may be inherited.
    const mj::MethodDecl* handle = index.ResolveMethod(*cls, "handle");
    const mj::MethodDecl* send = index.ResolveMethod(*cls, "send");
    if (handle == nullptr || send == nullptr || handle->owner != cls ||
        handle->body == nullptr || !handle->params.empty()) {
      continue;
    }
    services.push_back(Service{cls, handle, send});
  }
  std::sort(services.begin(), services.end(),
            [](const Service& a, const Service& b) { return a.cls->name < b.cls->name; });
  return services;
}

// `request0` and `request1` probe as request ids 0 and 1. The files of the
// units the four probes ran code of land in `dependencies`.
EdgeRetryProfile ProbeService(const mj::Program& program, const mj::ProgramIndex& index,
                              const UnitMap& units, const TestRunner& request0,
                              const TestRunner& request1, const Service& service,
                              std::vector<std::string>* dependencies) {
  const mj::ClassDecl& cls = *service.cls;
  const mj::MethodDecl& send = *service.send;
  EdgeRetryProfile profile;
  profile.service = cls.name;
  profile.coordinator = cls.name + ".handle";
  profile.location = service.handle->location;
  if (const mj::CompilationUnit* unit = index.UnitOf(cls); unit != nullptr) {
    profile.file = unit->file().name();
  }
  std::vector<uint8_t> hit(program.units().size(), 0);

  // Probe 0 (clean): fan-out = sends per successful request.
  ProbeResult clean = RunProbe(request0, cls.name, send, /*exception=*/"", units, &hit);
  profile.fanout = static_cast<int>(std::max<int64_t>(1, clean.send_fires));

  // Probe 1 (persistent transport failure): attempts + backoff schedule.
  ProbeResult transport =
      RunProbe(request0, cls.name, send, "ServiceUnavailableException", units, &hit);
  profile.bounded = !transport.aborted;
  profile.attempts = static_cast<int>(
      std::clamp<int64_t>(transport.send_fires, 1, kMaxRecordedAttempts));
  profile.backoff_ms = transport.sleeps_ms;

  // Probe 2 (same failure, different request identity): a backoff schedule
  // that depends on which request is retrying is jittered.
  ProbeResult shifted =
      RunProbe(request1, cls.name, send, "ServiceUnavailableException", units, &hit);
  const size_t compare = std::min(transport.sleeps_ms.size(), shifted.sleeps_ms.size());
  for (size_t i = 0; i < compare; ++i) {
    if (transport.sleeps_ms[i] != shifted.sleeps_ms[i]) {
      profile.jittered = true;
      break;
    }
  }

  // Probe 3 (overload push-back): a frontend that sends again after
  // ResourceExhaustedException retries on overload instead of shedding.
  ProbeResult overload =
      RunProbe(request0, cls.name, send, "ResourceExhaustedException", units, &hit);
  profile.retries_on_overload = overload.send_fires >= 2;
  if (profile.retries_on_overload && !overload.sleeps_ms.empty()) {
    profile.overload_backoff_ms = overload.sleeps_ms.front();
  }

  for (size_t u = 0; u < hit.size(); ++u) {
    if (hit[u] != 0) {
      dependencies->push_back(program.units()[u]->file().name());
    }
  }
  return profile;
}

}  // namespace

std::vector<EdgeRetryProfile> ExtractRetryProfiles(const mj::Program& program,
                                                   const mj::ProgramIndex& index, int jobs,
                                                   Tracer* tracer) {
  return ExtractProfiles(program, index, jobs, tracer).profiles;
}

ProfileExtraction ExtractProfiles(const mj::Program& program, const mj::ProgramIndex& index,
                                  int jobs, Tracer* tracer, const ProfileExtraction* baseline,
                                  std::string_view patched_file) {
  ScopedSpan span(tracer, "storm.profile");
  const std::vector<Service> services = FindServices(index);
  ProfileExtraction extraction;
  extraction.profiles.resize(services.size());
  extraction.dependencies.resize(services.size());

  // A service the patch cannot reach keeps its baseline profile.
  std::vector<size_t> to_probe;
  for (size_t i = 0; i < services.size(); ++i) {
    if (baseline != nullptr) {
      const std::vector<EdgeRetryProfile>& before = baseline->profiles;
      auto it = std::find_if(before.begin(), before.end(), [&](const EdgeRetryProfile& p) {
        return p.service == services[i].cls->name;
      });
      if (it != before.end()) {
        const std::vector<std::string>& deps =
            baseline->dependencies[static_cast<size_t>(it - before.begin())];
        if (std::find(deps.begin(), deps.end(), patched_file) == deps.end()) {
          extraction.profiles[i] = *it;
          extraction.dependencies[i] = deps;
          continue;
        }
      }
    }
    to_probe.push_back(i);
  }
  extraction.probed = static_cast<int>(to_probe.size());

  if (!to_probe.empty()) {
    // Index-addressed results: the reduce order is the sorted service order,
    // so the profile list is byte-identical at any worker count.
    const UnitMap units(program, index);
    TestRunner request0(program, index, ProbeOptions(/*request_id=*/0));
    TestRunner request1(program, index, ProbeOptions(/*request_id=*/1));
    TaskPool pool(jobs);
    pool.ParallelFor(to_probe.size(), [&](size_t k) {
      const size_t i = to_probe[k];
      extraction.profiles[i] = ProbeService(program, index, units, request0, request1,
                                            services[i], &extraction.dependencies[i]);
    });
  }
  span.AddArg("edges", static_cast<int64_t>(services.size()));
  return extraction;
}

}  // namespace wasabi
