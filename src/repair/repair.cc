#include "src/repair/repair.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/report_json.h"
#include "src/inject/injector.h"
#include "src/lang/parser.h"
#include "src/lang/rewrite.h"
#include "src/obs/trace.h"
#include "src/storm/profile.h"
#include "src/testing/coverage.h"
#include "src/testing/runner.h"

namespace wasabi {

namespace {

// The verdict classes the repair loop diffs. HOW and IF verdicts are
// deliberately excluded: they carry no structural prescription a template
// could apply, and the shed-on-overload template legitimately changes K=1
// behavior (a shed request fails the test's assertion instead of crashing),
// which would read as a HOW regression when it is the intended fix — the
// healthy corpus Gateway exhibits exactly the same artifact.
bool InRepairUniverse(BugType type) {
  switch (type) {
    case BugType::kWhenMissingCap:
    case BugType::kWhenMissingDelay:
    case BugType::kStormMissingJitter:
    case BugType::kStormUnboundedFanout:
    case BugType::kStormRetryOnOverload:
      return true;
    default:
      return false;
  }
}

// One pipeline pass: campaign + collated static WHEN + storm oracles, plus an
// uninjected run of the whole suite (the validator's clean-suite signal).
struct PipelineRun {
  DynamicResult dyn;
  ProfileExtraction storm_profiles;          // With dependency sets.
  std::vector<BugReport> storm_bugs;         // The simulation's verdicts.
  bool sim_reused = false;                   // storm_bugs are the baseline's.
  std::vector<BugReport> confirmed;          // Universe, deduped, sorted.
  std::set<std::string> keys;                // MatchKeys of `confirmed`.
  std::map<std::string, TestStatus> clean;   // Test -> uninjected outcome.
};

// The runner for one program's validation runs (clean suite and K=1 probes):
// the pipeline's interpreter budgets and default configs, nothing frozen.
RunnerOptions ValidationRunnerOptions(const WasabiOptions& options) {
  RunnerOptions runner_options;
  runner_options.interp = options.interp;
  runner_options.config_overrides = options.default_configs;
  return runner_options;
}

std::map<std::string, TestStatus> RunCleanSuite(const TestRunner& runner) {
  std::map<std::string, TestStatus> outcomes;
  for (const TestCase& test : runner.DiscoverTests()) {
    outcomes[test.qualified_name] = runner.RunTest(test).outcome.status;
  }
  return outcomes;
}

// Everything of one pass but the clean suite. A validation pass passes the
// `baseline` pass and the file its patch rewrote: storm work then re-probes
// only the services whose probes ran code of that file, and when the
// profiles come out equal to the baseline's it takes the baseline's storm
// verdicts, since RunStormSim is a pure function of (app, profiles,
// options) and none of them changes within one RunRepair.
PipelineRun RunPipelineOnce(const mj::Program& program, const mj::ProgramIndex& index,
                            const WasabiOptions& options, const StormOptions& storm_options,
                            const PipelineRun* baseline, std::string_view patched_file) {
  PipelineRun run;
  Wasabi wasabi(program, index, options);
  run.dyn = wasabi.RunDynamicWorkflow();
  StaticResult static_result = wasabi.RunStaticWorkflow();
  std::vector<BugReport> collated =
      CollateStaticWithDynamic(static_result.when_bugs, run.dyn);

  // Only the baseline pass carries a tracer: SanitizeForValidation strips it.
  run.storm_profiles =
      ExtractProfiles(program, index, options.jobs, options.tracer,
                      baseline == nullptr ? nullptr : &baseline->storm_profiles, patched_file);
  const std::vector<EdgeRetryProfile>& profiles = run.storm_profiles.profiles;
  if (baseline != nullptr && !profiles.empty() &&
      profiles == baseline->storm_profiles.profiles) {
    run.storm_bugs = baseline->storm_bugs;
    run.sim_reused = true;
  } else if (!profiles.empty()) {
    run.storm_bugs =
        RunStormSim(options.app_name, profiles, storm_options, nullptr, options.tracer).bugs;
  }

  // Dynamic evidence first, then surviving static reports, then storm
  // oracles; the first report of a MatchKey keeps its detail line.
  std::vector<BugReport> candidates = run.dyn.bugs;
  candidates.insert(candidates.end(), collated.begin(), collated.end());
  candidates.insert(candidates.end(), run.storm_bugs.begin(), run.storm_bugs.end());
  for (const BugReport& report : candidates) {
    if (!InRepairUniverse(report.type)) {
      continue;
    }
    if (run.keys.insert(report.MatchKey()).second) {
      run.confirmed.push_back(report);
    }
  }
  std::sort(run.confirmed.begin(), run.confirmed.end(),
            [](const BugReport& a, const BugReport& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              if (a.coordinator != b.coordinator) {
                return a.coordinator < b.coordinator;
              }
              return std::string(BugTypeName(a.type)) < BugTypeName(b.type);
            });
  return run;
}

// Validation re-campaigns run the caller's pipeline configuration but never
// its observability sinks or record directory: those describe the repair run
// itself, not the nested what-if campaigns. The cache pointer is kept: the
// per-file identification and WHEN entries of every unpatched file hit.
WasabiOptions SanitizeForValidation(WasabiOptions options) {
  options.tracer = nullptr;
  options.metrics = nullptr;
  options.progress = nullptr;
  options.journal = nullptr;
  options.record_dir.clear();
  return options;
}

const mj::CompilationUnit* FindUnitByFile(const mj::Program& program, const std::string& file) {
  for (const std::unique_ptr<mj::CompilationUnit>& unit : program.units()) {
    if (unit->file().name() == file) {
      return unit.get();
    }
  }
  return nullptr;
}

bool SplitQualified(const std::string& qualified, std::string* cls, std::string* method) {
  size_t dot = qualified.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == qualified.size()) {
    return false;
  }
  *cls = qualified.substr(0, dot);
  *method = qualified.substr(dot + 1);
  return true;
}

// The sibling a wrong-location patch lands in: the first other method with a
// body on the same class (deterministic in declaration order). Falls back to
// the target itself — the scaffolding decl is harmless there too.
std::string PickSiblingMethod(const mj::ProgramIndex& index, const std::string& cls_name,
                              const std::string& method_name) {
  const mj::ClassDecl* cls = index.FindClass(cls_name);
  if (cls == nullptr) {
    return method_name;
  }
  for (const mj::MethodDecl* method : cls->methods) {
    if (method != nullptr && method->body != nullptr && method->name != method_name) {
      return method->name;
    }
  }
  return method_name;
}

bool BuildPatchedProgram(const mj::Program& base, const std::string& patched_file,
                         const std::string& patched_source, mj::Program* out,
                         std::string* error) {
  for (const std::unique_ptr<mj::CompilationUnit>& unit : base.units()) {
    const std::string& name = unit->file().name();
    std::string text =
        name == patched_file ? patched_source : std::string(unit->file().text());
    mj::DiagnosticEngine diag;
    std::unique_ptr<mj::CompilationUnit> parsed = mj::ParseSource(name, std::move(text), diag);
    if (parsed == nullptr || diag.has_errors()) {
      *error = "patched program failed to parse at " + name;
      return false;
    }
    out->AddUnit(std::move(parsed));
  }
  return true;
}

// Replays the baseline's covering test with one injected fault at every retry
// location of `coordinator` (K=1, the HOW configuration). A correct repair
// keeps absorbing a single transient fault; a cap-too-low patch does not.
// One K=1 resilience probe: a single injection point plus the first test (in
// coverage-map order, so deterministic) that covers its location. Probes are
// planned PER FAULT, never bundled: a coordinator may absorb one exception
// class and correctly propagate another (a hedged broadcast retries
// unavailability but not exhaustion), so a combined run would fail even on
// the pristine program and mute the signal for the fault the retry does
// absorb.
struct SingleFaultProbe {
  std::string test;
  InjectionPoint point;
};

std::vector<SingleFaultProbe> PlanSingleFaultProbes(const DynamicResult& baseline,
                                                    const std::string& coordinator) {
  std::vector<SingleFaultProbe> probes;
  std::set<std::string> point_keys;
  for (size_t i = 0; i < baseline.locations.size(); ++i) {
    const RetryLocation& location = baseline.locations[i];
    if (location.coordinator != coordinator) {
      continue;
    }
    InjectionPoint point;
    point.callee = location.retried_method;
    point.caller = location.coordinator;
    point.exception = location.exception_name;
    point.max_injections = kInjectOnce;
    if (!point_keys.insert(point.Key()).second) {
      continue;
    }
    for (const auto& [test, covered] : baseline.coverage) {  // std::map: ordered.
      if (std::find(covered.begin(), covered.end(), i) != covered.end()) {
        probes.push_back(SingleFaultProbe{test, point});
        break;
      }
    }
  }
  return probes;
}

TestStatus RunSingleFaultProbe(const TestRunner& runner, const SingleFaultProbe& probe) {
  FaultInjector injector({probe.point});
  return runner.RunTest(TestCase{probe.test}, {&injector}).outcome.status;
}

std::string JoinSorted(const std::vector<std::string>& items) {
  std::string joined;
  for (const std::string& item : items) {
    if (!joined.empty()) {
      joined += ", ";
    }
    joined += item;
  }
  return joined;
}

}  // namespace

const char* RepairOutcomeName(RepairOutcome outcome) {
  switch (outcome) {
    case RepairOutcome::kFixed:
      return "fixed";
    case RepairOutcome::kNotFixed:
      return "not-fixed";
    case RepairOutcome::kRegressed:
      return "regressed";
    case RepairOutcome::kNoTemplate:
      return "no-template";
  }
  return "not-fixed";
}

RepairReport RunRepair(const mj::Program& program, const mj::ProgramIndex& index,
                       const RepairOptions& options) {
  RepairReport report;
  report.app = options.wasabi.app_name;

  // Spans on the repair thread time the loop; the nested validation
  // pipelines run without the tracer.
  Tracer* tracer = options.wasabi.tracer;

  // One validation runner per program: the pristine one serves the baseline
  // clean suite and every bug's pre-patch probes.
  TestRunner pristine_runner(program, index, ValidationRunnerOptions(options.wasabi));
  PipelineRun baseline;
  {
    ScopedSpan span(tracer, "repair.baseline");
    baseline = RunPipelineOnce(program, index, options.wasabi, options.storm, nullptr, {});
    ScopedSpan clean_span(tracer, "repair.clean_suite");
    baseline.clean = RunCleanSuite(pristine_runner);
  }
  WasabiOptions validation_options = SanitizeForValidation(options.wasabi);
  SimRepair sim(options.sim);

  CacheStats cache_before;
  if (options.wasabi.cache != nullptr) {
    cache_before = options.wasabi.cache->stats();
  }

  for (const BugReport& bug : baseline.confirmed) {
    RepairRow row;
    row.type = bug.type;
    row.file = bug.file;
    row.coordinator = bug.coordinator;
    row.detail = bug.detail;
    row.tmpl = TemplateForBug(bug.type);
    ++report.totals.confirmed;

    if (row.tmpl == RepairTemplate::kNone) {
      row.outcome = RepairOutcome::kNoTemplate;
      row.note = "no local-patch template for this bug class";
      ++report.totals.no_template;
      report.rows.push_back(std::move(row));
      continue;
    }
    ++report.totals.eligible;

    std::string cls_name;
    std::string method_name;
    if (!SplitQualified(bug.coordinator, &cls_name, &method_name)) {
      row.outcome = RepairOutcome::kNotFixed;
      row.note = "coordinator is not a qualified Class.method name";
      ++report.totals.not_fixed;
      report.rows.push_back(std::move(row));
      continue;
    }

    row.error_mode = sim.ModeFor(bug.file, bug.coordinator, RepairTemplateName(row.tmpl));
    std::string declared_method = method_name;
    mj::MethodMutator mutator;
    switch (row.error_mode) {
      case RepairErrorMode::kWrongLocation:
        mutator = MakeWrongLocationMutator();
        declared_method = PickSiblingMethod(index, cls_name, method_name);
        break;
      case RepairErrorMode::kCapTooLow:
        mutator = MakeBoundRetryMutator(1);
        break;
      case RepairErrorMode::kDropJitter:
        mutator = MakeAddJitterMutator(/*drop_jitter=*/true);
        break;
      case RepairErrorMode::kNone:
        switch (row.tmpl) {
          case RepairTemplate::kBoundRetry:
            mutator = MakeBoundRetryMutator(options.attempt_cap);
            break;
          case RepairTemplate::kAddBackoff:
            mutator = MakeAddBackoffMutator();
            break;
          case RepairTemplate::kAddJitter:
            mutator = MakeAddJitterMutator(/*drop_jitter=*/false);
            break;
          case RepairTemplate::kShedOnOverload:
            mutator = MakeShedOnOverloadMutator("ResourceExhaustedException");
            break;
          case RepairTemplate::kNone:
            break;
        }
        break;
    }

    mj::Program patched;
    std::unique_ptr<mj::ProgramIndex> patched_index;
    {
      ScopedSpan span(tracer, "repair.patch");
      const mj::CompilationUnit* unit = FindUnitByFile(program, bug.file);
      if (unit == nullptr) {
        row.outcome = RepairOutcome::kNotFixed;
        row.note = "source file not found in program";
        ++report.totals.not_fixed;
        report.rows.push_back(std::move(row));
        continue;
      }
      mj::RewriteResult rewrite = mj::RewriteMethod(
          bug.file, std::string(unit->file().text()), cls_name, declared_method, mutator);
      if (!rewrite.ok) {
        row.outcome = RepairOutcome::kNotFixed;
        row.note = "patch rejected: " + rewrite.error;
        ++report.totals.not_fixed;
        report.rows.push_back(std::move(row));
        continue;
      }
      std::string build_error;
      if (!BuildPatchedProgram(program, bug.file, rewrite.patched_source, &patched,
                               &build_error)) {
        row.outcome = RepairOutcome::kNotFixed;
        row.note = "patch rejected: " + build_error;
        ++report.totals.not_fixed;
        report.rows.push_back(std::move(row));
        continue;
      }
      patched_index = std::make_unique<mj::ProgramIndex>(patched);
    }
    row.patched = true;
    ++report.totals.patched;

    ScopedSpan validate_span(tracer, "repair.validate");
    TestRunner patched_runner(patched, *patched_index,
                              ValidationRunnerOptions(validation_options));
    PipelineRun post;
    {
      ScopedSpan span(tracer, "repair.pipeline");
      post = RunPipelineOnce(patched, *patched_index, validation_options, options.storm,
                             &baseline, bug.file);
      const auto services = static_cast<int64_t>(post.storm_profiles.profiles.size());
      span.AddArg("services_probed", static_cast<int64_t>(post.storm_profiles.probed));
      span.AddArg("services_reused", services - post.storm_profiles.probed);
      span.AddArg("sim_reused", static_cast<int64_t>(post.sim_reused ? 1 : 0));
    }
    {
      ScopedSpan span(tracer, "repair.clean_suite");
      post.clean = RunCleanSuite(patched_runner);
    }

    // Signal 1: verdict diff over the repair universe.
    bool target_gone = post.keys.count(bug.MatchKey()) == 0;
    std::vector<std::string> new_keys;
    for (const std::string& key : post.keys) {
      if (baseline.keys.count(key) == 0) {
        new_keys.push_back(key);
      }
    }

    // Signal 2: every test that passed uninjected must still pass.
    std::vector<std::string> broken_tests;
    for (const auto& [test, status] : baseline.clean) {
      if (status != TestStatus::kPassed) {
        continue;
      }
      auto it = post.clean.find(test);
      if (it == post.clean.end() || it->second != TestStatus::kPassed) {
        broken_tests.push_back(test);
      }
    }

    // Signal 3: single-fault resilience. Only for templates whose contract is
    // "the retry still works": shed-on-overload intentionally converts the
    // injected-overload replay into a bail-out, so it is exempt.
    bool single_fault_regressed = false;
    std::string regressed_probe_test;
    if (row.tmpl != RepairTemplate::kShedOnOverload) {
      ScopedSpan span(tracer, "repair.k1_probes");
      for (const SingleFaultProbe& probe :
           PlanSingleFaultProbes(baseline.dyn, bug.coordinator)) {
        TestStatus pre = RunSingleFaultProbe(pristine_runner, probe);
        if (pre != TestStatus::kPassed) {
          // This fault was never absorbed pre-patch; it carries no signal.
          continue;
        }
        TestStatus after = RunSingleFaultProbe(patched_runner, probe);
        if (after != TestStatus::kPassed) {
          single_fault_regressed = true;
          regressed_probe_test = probe.test;
          break;
        }
      }
    }

    if (!new_keys.empty() || !broken_tests.empty() || single_fault_regressed) {
      row.outcome = RepairOutcome::kRegressed;
      std::string note;
      if (!new_keys.empty()) {
        note += "new verdicts: " + JoinSorted(new_keys);
      }
      if (!broken_tests.empty()) {
        if (!note.empty()) {
          note += "; ";
        }
        note += "clean tests broke: " + JoinSorted(broken_tests);
      }
      if (single_fault_regressed) {
        if (!note.empty()) {
          note += "; ";
        }
        note += "single-fault replay of " + regressed_probe_test + " no longer passes";
      }
      row.note = note;
      ++report.totals.regressed;
    } else if (!target_gone) {
      row.outcome = RepairOutcome::kNotFixed;
      row.note = "verdict persists after patch";
      ++report.totals.not_fixed;
    } else {
      row.outcome = RepairOutcome::kFixed;
      ++report.totals.fixed;
    }
    report.rows.push_back(std::move(row));
  }

  if (options.wasabi.cache != nullptr) {
    report.validation_cache_delta = DiffStats(cache_before, options.wasabi.cache->stats());
  }
  return report;
}

std::string RepairReportToJson(const RepairReport& report) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"version\": \"wasabi-repair-v1\",\n";
  out << "  \"app\": \"" << JsonEscape(report.app) << "\",\n";
  const RepairTotals& t = report.totals;
  out << "  \"totals\": {\"confirmed\": " << t.confirmed << ", \"eligible\": " << t.eligible
      << ", \"patched\": " << t.patched << ", \"fixed\": " << t.fixed
      << ", \"not_fixed\": " << t.not_fixed << ", \"regressed\": " << t.regressed
      << ", \"no_template\": " << t.no_template << "},\n";
  out << "  \"repairs\": [";
  bool first = true;
  for (const RepairRow& row : report.rows) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n    {\"type\": \"" << BugTypeName(row.type) << "\", \"file\": \""
        << JsonEscape(row.file) << "\", \"coordinator\": \"" << JsonEscape(row.coordinator)
        << "\", \"template\": \"" << RepairTemplateName(row.tmpl) << "\", \"error_mode\": \""
        << RepairErrorModeName(row.error_mode) << "\", \"patched\": "
        << (row.patched ? "true" : "false") << ", \"outcome\": \""
        << RepairOutcomeName(row.outcome) << "\", \"note\": \"" << JsonEscape(row.note)
        << "\"}";
  }
  out << (report.rows.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

std::string RepairReportToText(const RepairReport& report) {
  std::ostringstream out;
  const RepairTotals& t = report.totals;
  out << "WASABI repair: app=" << report.app << "\n";
  out << "  confirmed=" << t.confirmed << " eligible=" << t.eligible << " patched=" << t.patched
      << "\n";
  out << "  fixed=" << t.fixed << " not-fixed=" << t.not_fixed << " regressed=" << t.regressed
      << " no-template=" << t.no_template << "\n";
  for (const RepairRow& row : report.rows) {
    out << "  [" << RepairOutcomeName(row.outcome) << "] " << BugTypeName(row.type) << " "
        << row.file << " " << row.coordinator << " template=" << RepairTemplateName(row.tmpl)
        << " mode=" << RepairErrorModeName(row.error_mode);
    if (!row.note.empty()) {
      out << " (" << row.note << ")";
    }
    out << "\n";
  }
  return out.str();
}

void ExportRepairStats(const RepairReport& report, MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    return;
  }
  const RepairTotals& t = report.totals;
  metrics->SetGauge("repair.confirmed", static_cast<double>(t.confirmed));
  metrics->SetGauge("repair.eligible", static_cast<double>(t.eligible));
  metrics->SetGauge("repair.patched", static_cast<double>(t.patched));
  metrics->SetGauge("repair.fixed", static_cast<double>(t.fixed));
  metrics->SetGauge("repair.not_fixed", static_cast<double>(t.not_fixed));
  metrics->SetGauge("repair.regressed", static_cast<double>(t.regressed));
  metrics->SetGauge("repair.no_template", static_cast<double>(t.no_template));
  metrics->SetGauge("repair.validation.cache_hits",
                    static_cast<double>(report.validation_cache_delta.hits));
  metrics->SetGauge("repair.validation.cache_misses",
                    static_cast<double>(report.validation_cache_delta.misses));
}

std::vector<RepairExpectation> ExpectedRepairs(const std::vector<SeededBug>& bugs) {
  std::vector<RepairExpectation> expectations;
  auto add = [&expectations](BugType type, const std::string& file,
                             const std::string& coordinator) {
    RepairExpectation expectation;
    expectation.type = type;
    expectation.file = file;
    expectation.coordinator = coordinator;
    expectation.tmpl = TemplateForBug(type);
    expectation.outcome = expectation.tmpl == RepairTemplate::kNone ? RepairOutcome::kNoTemplate
                                                                    : RepairOutcome::kFixed;
    expectations.push_back(std::move(expectation));
  };
  for (const SeededBug& bug : bugs) {
    if (!InRepairUniverse(bug.type)) {
      continue;
    }
    add(bug.type, bug.file, bug.coordinator);
    // The fan-out and overload storm services retry in a bare `while (true)`:
    // the dynamic campaign independently confirms WHEN/missing-cap on the
    // same coordinator, and that verdict IS template-fixable.
    if (bug.type == BugType::kStormUnboundedFanout ||
        bug.type == BugType::kStormRetryOnOverload) {
      add(BugType::kWhenMissingCap, bug.file, bug.coordinator);
    }
  }
  std::sort(expectations.begin(), expectations.end(),
            [](const RepairExpectation& a, const RepairExpectation& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              if (a.coordinator != b.coordinator) {
                return a.coordinator < b.coordinator;
              }
              return std::string(BugTypeName(a.type)) < BugTypeName(b.type);
            });
  return expectations;
}

}  // namespace wasabi
