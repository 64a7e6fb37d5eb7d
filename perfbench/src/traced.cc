#include "perfbench/src/traced.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <system_error>

#include "perfbench/src/spans.h"
#include "perfbench/src/spawn.h"
#include "perfbench/src/stats.h"
#include "src/cache/store.h"
#include "src/core/report_json.h"
#include "src/core/wasabi.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/repair/repair.h"
#include "src/storm/profile.h"
#include "src/storm/storm.h"
#include "src/testing/runner.h"
#include "src/vm/bytecode.h"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

// Every per-layer metric, in the order BENCHMARK.json lists them. Ratios are
// followed by their bases.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"lang.read_ms", "ms"},
    {"lang.parse_ms", "ms"},
    {"lang.index_ms", "ms"},
    {"lang.files", "count"},
    {"lang.kib", "KiB"},
    {"core.identify_ms", "ms"},
    {"core.static_ms", "ms"},
    {"analysis.structures", "count"},
    {"analysis.locations", "count"},
    {"llm.calls", "count"},
    {"llm.prompt_tokens", "count"},
    {"core.dynamic_ms", "ms"},
    {"testing.coverage_ms", "ms"},
    {"testing.coverage_runs", "count"},
    {"testing.plan_ratio", "ratio"},
    {"testing.planned_runs", "count"},
    {"testing.naive_runs", "count"},
    {"exec.campaign_ms", "ms"},
    {"exec.campaign_runs", "count"},
    {"exec.runs_per_s", "1/s"},
    {"testing.oracles_ms", "ms"},
    {"testing.bug_yield", "ratio"},
    {"testing.bugs", "count"},
    {"interp.steps", "count"},
    {"interp.steps_per_s", "1/s"},
    {"inject.injections", "count"},
    {"exec.pool_utilization", "ratio"},
    {"exec.workers", "count"},
    {"exec.queue_wait_ms", "ms"},
    {"exec.speedup", "ratio"},
    {"exec.dynamic_ms_1", "ms"},
    {"exec.dynamic_ms_n", "ms"},
    {"tools.cpu_ms", "ms"},
    {"vm.compile_ms", "ms"},
    {"testing.clean_suite_ms", "ms"},
    {"storm.profile_ms", "ms"},
    {"storm.sim_ms", "ms"},
    {"storm.edges", "count"},
    {"storm.sim_attempts", "count"},
    {"repair.run_ms", "ms"},
    {"repair.validation_passes", "count"},
    {"repair.validation_ms_per_pass", "ms"},
    {"repair.pristine_pass_ms", "ms"},
    {"repair.fix_ratio", "ratio"},
    {"repair.fixed", "count"},
    {"cache.open_ms", "ms"},
    {"cache.flush_ms", "ms"},
    {"cache.store_kib", "KiB"},
    {"cache.hit_ratio", "ratio"},
    {"cache.lookups", "count"},
    {"cache.hit_ratio.q1", "ratio"},
    {"cache.lookups.q1", "count"},
    {"cache.hit_ratio.when", "ratio"},
    {"cache.lookups.when", "count"},
    {"cache.hit_ratio.cov", "ratio"},
    {"cache.lookups.cov", "count"},
    {"cache.hit_ratio.camp", "ratio"},
    {"cache.lookups.camp", "count"},
    {"tools.other_ms", "ms"},
    {"tools.wall_ms", "ms"},
    {"tools.layer_sum_ms", "ms"},
    {"robust.quarantined", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.traced_ms", "ms"},
    {"obs.untraced_ms", "ms"},
    {"obs.span_coverage", "ratio"},
    {"obs.self_time_share", "ratio"},
};

using Values = std::map<std::string, double>;

// The program the CLI's LoadProgram builds from an app directory.
struct LoadedApp {
  std::unique_ptr<mj::Program> program = std::make_unique<mj::Program>();
  std::unique_ptr<mj::ProgramIndex> index;
  size_t files = 0;
  size_t bytes = 0;
};

// Mirrors LoadProgram in tools/wasabi_cli.cc (every .mj file under the
// directory, sorted, named relative to it; unparseable files skipped) with
// the reads and the parses under separate spans.
LoadedApp Load(const fs::path& root, wasabi::Tracer* tracer) {
  LoadedApp app;
  std::vector<std::pair<std::string, std::string>> sources;
  {
    wasabi::ScopedSpan span(tracer, "lang.read");
    std::vector<fs::path> files;
    for (const fs::directory_entry& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_regular_file() && entry.path().extension() == ".mj") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      std::string text;
      if (ReadFile(file.string(), &text)) {
        app.bytes += text.size();
        sources.emplace_back(fs::relative(file, root).generic_string(), std::move(text));
      }
    }
  }
  {
    wasabi::ScopedSpan span(tracer, "lang.parse");
    for (auto& [name, text] : sources) {
      mj::DiagnosticEngine diag;
      auto unit = mj::ParseSource(name, std::move(text), diag);
      if (!diag.has_errors()) {
        app.program->AddUnit(std::move(unit));
        ++app.files;
      }
    }
  }
  {
    wasabi::ScopedSpan span(tracer, "lang.index");
    app.index = std::make_unique<mj::ProgramIndex>(*app.program);
  }
  return app;
}

// The WasabiOptions the CLI builds: OptionsFor for `static`, and
// DynamicOptionsFor (jobs, VM engine, default robustness) for the rest.
wasabi::WasabiOptions CliOptions(const AppInput& app, const std::string& command, int jobs) {
  wasabi::WasabiOptions options;
  options.app_name = app.dir.filename().generic_string();
  if (command != "static") {
    options.jobs = jobs;
    options.interp.engine = wasabi::EngineKind::kVm;
  }
  return options;
}

void AddUsage(const wasabi::LlmUsage& usage, Values* values) {
  (*values)["llm.calls"] += static_cast<double>(usage.calls);
  (*values)["llm.prompt_tokens"] += static_cast<double>(usage.prompt_tokens);
}

void AddIdentification(const wasabi::IdentificationResult& result, Values* values) {
  size_t locations = 0;
  for (const wasabi::RetryStructure& structure : result.structures) {
    locations += structure.locations.size();
  }
  (*values)["analysis.structures"] = static_cast<double>(result.structures.size());
  (*values)["analysis.locations"] = static_cast<double>(locations);
  AddUsage(result.llm_usage, values);
}

// What the one-shot clean suite pays per repair validation pass: a fresh
// TestRunner (and so a fresh interpreter and VM compile) per test.
void RunCleanSuite(const LoadedApp& app, const wasabi::WasabiOptions& options) {
  wasabi::RunnerOptions runner_options;
  runner_options.interp = options.interp;
  wasabi::TestRunner runner(*app.program, *app.index, runner_options);
  for (const wasabi::TestCase& test : runner.DiscoverTests()) {
    runner.RunTest(test);
  }
}

// The calls the CLI makes for one invocation, in its order, with its
// options. `tracer`/`metrics` attach the program's own sinks, as
// --trace-out/--metrics-out would; both null gives the untraced twin. Returns
// the report the CLI prints.
std::string RunCliSequence(const AppInput& app, const std::string& command, int jobs,
                           const fs::path& cache_dir, wasabi::Tracer* tracer,
                           wasabi::MetricsRegistry* metrics, Values* values) {
  LoadedApp loaded = Load(app.dir, tracer);
  wasabi::WasabiOptions options = CliOptions(app, command, jobs);
  std::unique_ptr<wasabi::CacheStore> cache;
  if (!cache_dir.empty() && command != "storm") {
    wasabi::ScopedSpan span(tracer, "cache.open");
    std::string error;
    cache = wasabi::CacheStore::Open(cache_dir.string(), &error);
  }
  std::string out;
  if (command == "test" || command == "static") {
    wasabi::Wasabi tool(*loaded.program, *loaded.index, options);
    tool.set_observability(tracer, metrics);
    tool.set_cache(cache.get());
    {
      wasabi::ScopedSpan span(tracer, "core.identify");
      wasabi::IdentificationResult identification = tool.IdentifyRetryStructures();
      if (values != nullptr) {
        AddIdentification(identification, values);
      }
    }
    wasabi::ReportHealth health;
    if (command == "test") {
      wasabi::DynamicResult result;
      {
        wasabi::ScopedSpan span(tracer, "core.dynamic");
        result = tool.RunDynamicWorkflow();
      }
      wasabi::ScopedSpan span(tracer, "tools.report");
      health.quarantined = result.quarantined;
      out = wasabi::AnalysisReportToJson(result.bugs, health);
      if (values != nullptr) {
        (*values)["testing.bugs"] = static_cast<double>(result.bugs.size());
      }
    } else {
      wasabi::StaticResult result;
      {
        wasabi::ScopedSpan span(tracer, "core.static");
        result = tool.RunStaticWorkflow();
      }
      wasabi::ScopedSpan span(tracer, "tools.report");
      std::vector<wasabi::BugReport> all = result.when_bugs;
      all.insert(all.end(), result.if_bugs.begin(), result.if_bugs.end());
      out = wasabi::AnalysisReportToJson(all, health);
      if (values != nullptr) {
        AddUsage(result.llm_usage, values);
      }
    }
  } else if (command == "storm") {
    std::vector<wasabi::EdgeRetryProfile> profiles;
    {
      wasabi::ScopedSpan span(tracer, "storm.profile");
      profiles = wasabi::ExtractRetryProfiles(*loaded.program, *loaded.index, jobs);
    }
    wasabi::StormReport report;
    {
      wasabi::ScopedSpan span(tracer, "storm.sim");
      report = wasabi::RunStormSim(options.app_name, profiles, wasabi::StormOptions{});
      wasabi::ExportStormStats(report, metrics, tracer);
    }
    wasabi::ScopedSpan span(tracer, "tools.report");
    out = wasabi::StormReportToJson(report);
    if (values != nullptr) {
      (*values)["storm.edges"] = static_cast<double>(profiles.size());
      (*values)["storm.sim_attempts"] = static_cast<double>(report.total_attempts);
    }
  } else {
    wasabi::RepairOptions repair;
    repair.wasabi = options;
    repair.wasabi.tracer = tracer;
    repair.wasabi.metrics = metrics;
    repair.wasabi.cache = cache.get();
    wasabi::RepairReport report;
    {
      wasabi::ScopedSpan span(tracer, "repair.run");
      report = wasabi::RunRepair(*loaded.program, *loaded.index, repair);
      wasabi::ExportRepairStats(report, metrics);
    }
    wasabi::ScopedSpan span(tracer, "tools.report");
    out = wasabi::RepairReportToJson(report);
    if (values != nullptr) {
      (*values)["repair.validation_passes"] = report.totals.patched;
      (*values)["repair.fixed"] = report.totals.fixed;
    }
  }
  if (cache != nullptr) {
    wasabi::ScopedSpan span(tracer, "cache.flush");
    std::string error;
    cache->Flush(&error);
  }
  if (values != nullptr) {
    (*values)["lang.files"] = static_cast<double>(loaded.files);
    (*values)["lang.kib"] = static_cast<double>(loaded.bytes) / 1024.0;
    if (cache != nullptr) {
      wasabi::CacheStats stats = cache->stats();
      (*values)["cache.hits"] = static_cast<double>(stats.hits);
      (*values)["cache.lookups"] = static_cast<double>(stats.hits + stats.misses);
      for (const char* ns : {"q1", "when", "cov", "camp"}) {
        auto hits = stats.hits_by_namespace.find(ns);
        auto misses = stats.misses_by_namespace.find(ns);
        double hit = hits == stats.hits_by_namespace.end() ? 0.0 : hits->second;
        double miss = misses == stats.misses_by_namespace.end() ? 0.0 : misses->second;
        (*values)[std::string("cache.hits.") + ns] = hit;
        (*values)[std::string("cache.lookups.") + ns] = hit + miss;
      }
      std::error_code ec;
      uintmax_t bytes = fs::file_size(cache_dir / "entries.tsv", ec);
      (*values)["cache.store_kib"] = ec ? 0.0 : static_cast<double>(bytes) / 1024.0;
    }
  }
  return out;
}

// Layer calls the CLI does not make on this invocation but whose cost it
// pays elsewhere: the dynamic workflow at 1 and `speedup_workers` workers
// (cache off; skipped when `speedup_workers` is 0), the VM compile and the
// one-shot clean suite, and for repair one pristine pipeline pass (what
// RunRepair's baseline and each validation pass run). Only the harness's
// spans are attached.
void RunExtraLayers(const AppInput& app, const std::string& command, int jobs,
                    int speedup_workers, wasabi::Tracer* tracer, Values* values) {
  if (command != "test" && command != "repair") {
    return;
  }
  LoadedApp loaded;
  {
    // Its own span: the lang.* spans inside would count the load twice.
    wasabi::ScopedSpan span(tracer, "bench.load");
    loaded = Load(app.dir, nullptr);
  }
  wasabi::WasabiOptions options = CliOptions(app, command, jobs);
  if (speedup_workers > 0) {
    for (int workers : {1, speedup_workers}) {
      wasabi::WasabiOptions scaled = options;
      scaled.jobs = workers;
      wasabi::Wasabi tool(*loaded.program, *loaded.index, scaled);
      wasabi::ScopedSpan span(tracer, workers == 1 ? "exec.dynamic_1" : "exec.dynamic_n");
      tool.RunDynamicWorkflow();
    }
  }
  {
    wasabi::ScopedSpan span(tracer, "vm.compile");
    wasabi::vm::Compile(*loaded.program, *loaded.index);
  }
  {
    wasabi::ScopedSpan span(tracer, "testing.clean_suite");
    RunCleanSuite(loaded, options);
  }
  if (command != "repair") {
    return;
  }
  wasabi::Wasabi tool(*loaded.program, *loaded.index, options);
  {
    wasabi::ScopedSpan span(tracer, "core.identify");
    AddIdentification(tool.IdentifyRetryStructures(), values);
  }
  {
    wasabi::ScopedSpan span(tracer, "core.dynamic");
    wasabi::DynamicResult result = tool.RunDynamicWorkflow();
    (*values)["testing.bugs"] = static_cast<double>(result.bugs.size());
  }
  {
    wasabi::ScopedSpan span(tracer, "core.static");
    AddUsage(tool.RunStaticWorkflow().llm_usage, values);
  }
  std::vector<wasabi::EdgeRetryProfile> profiles;
  {
    wasabi::ScopedSpan span(tracer, "storm.profile");
    profiles = wasabi::ExtractRetryProfiles(*loaded.program, *loaded.index, jobs);
  }
  if (!profiles.empty()) {
    wasabi::ScopedSpan span(tracer, "storm.sim");
    wasabi::StormReport report =
        wasabi::RunStormSim(options.app_name, profiles, wasabi::StormOptions{});
    (*values)["storm.edges"] = static_cast<double>(profiles.size());
    (*values)["storm.sim_attempts"] = static_cast<double>(report.total_attempts);
  }
}

// Metrics the program itself exported into the registry during the CLI
// sequence.
void AddRegistry(const wasabi::MetricsRegistry& metrics, Values* values) {
  auto counter = [&](const char* name) {
    return static_cast<double>(metrics.CounterValue(name));
  };
  if (metrics.GaugeValue("plan.naive_runs") > 0) {
    (*values)["testing.planned_runs"] = metrics.GaugeValue("plan.planned_runs");
    (*values)["testing.naive_runs"] = metrics.GaugeValue("plan.naive_runs");
    (*values)["testing.coverage_runs"] = counter("coverage.runs_total");
    (*values)["exec.campaign_runs"] = counter("campaign.runs_total");
    (*values)["inject.injections"] = counter("injector.injections_total");
    (*values)["interp.steps"] = metrics.HistogramFor("runner.steps").sum;
    (*values)["exec.pool_utilization"] = metrics.GaugeValue("pool.utilization");
    (*values)["exec.workers"] = metrics.GaugeValue("pool.workers");
    (*values)["exec.queue_wait_ms"] = metrics.HistogramFor("pool.queue_wait_us").sum / 1000.0;
    (*values)["robust.quarantined"] = counter("robust.quarantined_total");
  }
}

// Span durations (ms) by name among `events` on thread `tid` that start in
// [begin_us, end_us].
Values SpanTotals(const std::vector<wasabi::TraceEvent>& events, int tid, int64_t begin_us,
                  int64_t end_us) {
  Values totals;
  for (const wasabi::TraceEvent& event : events) {
    if (event.phase == 'X' && event.tid == tid && event.start_us >= begin_us &&
        event.start_us <= end_us) {
      totals[event.name] += static_cast<double>(event.duration_us) / 1000.0;
    }
  }
  return totals;
}

// Sets the ratio metric `name` = numerator / denominator when the
// denominator is positive (otherwise the input has no such ratio).
void SetRatio(Values* values, const std::string& name, double numerator, double denominator) {
  if (denominator > 0) {
    (*values)[name] = numerator / denominator;
  }
}

// Derives the per-layer metrics of one input from its span totals and the
// raw values its calls recorded.
void Derive(const Values& spans, Values* values) {
  auto span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second;
  };
  auto has_span = [&](const char* name) { return spans.count(name) > 0; };
  auto value = [&](const char* name) {
    auto it = values->find(name);
    return it == values->end() ? 0.0 : it->second;
  };
  for (auto [metric, name] : {std::pair{"lang.read_ms", "lang.read"},
                              {"lang.parse_ms", "lang.parse"},
                              {"lang.index_ms", "lang.index"},
                              {"core.identify_ms", "core.identify"},
                              {"core.static_ms", "core.static"},
                              {"core.dynamic_ms", "core.dynamic"},
                              {"testing.coverage_ms", "phase.coverage"},
                              {"exec.campaign_ms", "phase.campaign"},
                              {"testing.oracles_ms", "phase.oracles"},
                              {"exec.dynamic_ms_1", "exec.dynamic_1"},
                              {"exec.dynamic_ms_n", "exec.dynamic_n"},
                              {"vm.compile_ms", "vm.compile"},
                              {"testing.clean_suite_ms", "testing.clean_suite"},
                              {"storm.profile_ms", "storm.profile"},
                              {"storm.sim_ms", "storm.sim"},
                              {"repair.run_ms", "repair.run"},
                              {"cache.open_ms", "cache.open"},
                              {"cache.flush_ms", "cache.flush"},
                              {"obs.traced_ms", "tools.sequence"},
                              {"obs.untraced_ms", "obs.untraced_sequence"}}) {
    if (has_span(name)) {
      (*values)[metric] = span(name);
    }
  }
  double campaign_s = value("exec.campaign_ms") / 1000.0;
  SetRatio(values, "exec.runs_per_s", value("exec.campaign_runs"), campaign_s);
  SetRatio(values, "interp.steps_per_s", value("interp.steps"), campaign_s);
  SetRatio(values, "testing.plan_ratio", value("testing.planned_runs"),
           value("testing.naive_runs"));
  if (values->count("testing.bugs") > 0) {
    SetRatio(values, "testing.bug_yield", value("testing.bugs"), value("testing.planned_runs"));
  }
  SetRatio(values, "exec.speedup", value("exec.dynamic_ms_1"), value("exec.dynamic_ms_n"));
  if (has_span("repair.run")) {
    double pristine = span("core.identify") + span("core.dynamic") + span("core.static") +
                      span("storm.profile") + span("storm.sim") + span("testing.clean_suite");
    (*values)["repair.pristine_pass_ms"] = pristine;
    SetRatio(values, "repair.validation_ms_per_pass", span("repair.run") - pristine,
             value("repair.validation_passes"));
    SetRatio(values, "repair.fix_ratio", value("repair.fixed"), value("repair.validation_passes"));
  }
  if (values->count("cache.lookups") > 0) {
    SetRatio(values, "cache.hit_ratio", value("cache.hits"), value("cache.lookups"));
    for (const char* ns : {"q1", "when", "cov", "camp"}) {
      std::string lookups = std::string("cache.lookups.") + ns;
      SetRatio(values, std::string("cache.hit_ratio.") + ns,
               value((std::string("cache.hits.") + ns).c_str()), value(lookups.c_str()));
    }
  }
  SetRatio(values, "obs.trace_overhead", value("obs.traced_ms") - value("obs.untraced_ms"),
           value("obs.untraced_ms"));
  (*values)["tools.other_ms"] = value("tools.wall_ms") - value("tools.layer_sum_ms");
}

}  // namespace

TracedResult RunTraced(const WorkloadInputs& inputs, const std::string& cli, int jobs,
                       int speedup_workers, double seconds, OutputChecker& checker,
                       const fs::path& work) {
  TracedResult result;
  // The multi-worker pool hangs now and then (perfbench/README.md, "Known
  // defect"), so the run times it once, not per input.
  bool speedup_timed = false;
  wasabi::Tracer tracer;
  // Per (input, pass): the input's window on the trace and its raw values.
  struct Traced {
    std::string input;  // AnswerKey(app, command).
    int64_t begin_us = 0;
    int64_t end_us = 0;
    Values values;
  };
  std::vector<Traced> traced;
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  {
    wasabi::ScopedSpan root(&tracer, "traced.run");
    for (size_t pass = 0; pass == 0 || elapsed() < seconds; ++pass) {
      for (const Invocation& invocation : Cycle(inputs, pass)) {
        const AppInput& app = inputs.apps[invocation.app];
        Traced entry;
        entry.input = AnswerKey(app.id, invocation.command);
        entry.begin_us = tracer.NowUs();
        wasabi::ScopedSpan input_span(&tracer, "input");
        input_span.AddArg("app", app.id);
        input_span.AddArg("command", invocation.command);
        std::string problem;

        // The CLI, untraced: its wall and CPU time, and the reference stdout.
        ProcessResult plain;
        {
          wasabi::ScopedSpan span(&tracer, "tools.invoke");
          if (ResetCacheDir(inputs, invocation, &problem)) {
            plain = RunProcess(InvocationArgs(inputs, invocation, cli, jobs),
                               (work / "out.txt").string(), (work / "err.txt").string());
            problem = !plain.started || plain.timed_out
                          ? plain.error
                          : checker.Check(invocation, plain.exit_code, plain.out);
          }
          entry.values["tools.wall_ms"] = plain.wall_ms;
          entry.values["tools.cpu_ms"] = plain.cpu_ms;
        }
        // The CLI with --trace-out: how much of its wall its own spans cover.
        {
          wasabi::ScopedSpan span(&tracer, "tools.invoke_traced");
          std::vector<std::string> args = InvocationArgs(inputs, invocation, cli, jobs);
          args.push_back("--trace-out=" + (work / "cli_trace.json").string());
          std::string text;
          std::string error;
          std::vector<wasabi::TraceEvent> cli_events;
          if (ResetCacheDir(inputs, invocation, &error)) {
            ProcessResult run =
                RunProcess(args, (work / "out.txt").string(), (work / "err.txt").string());
            if (run.exit_code == 0 && ReadFile((work / "cli_trace.json").string(), &text) &&
                ParseChromeTrace(text, &cli_events, &error) && run.wall_ms > 0) {
              entry.values["obs.span_coverage"] =
                  static_cast<double>(CoveredUs(cli_events)) / 1000.0 / run.wall_ms;
            }
          }
        }
        // The CLI's calls in process, traced, then their untraced twin.
        wasabi::MetricsRegistry metrics;
        std::string error;
        {
          wasabi::ScopedSpan span(&tracer, "bench.cache_reset");
          ResetCacheDir(inputs, invocation, &error);
        }
        std::string out;
        {
          wasabi::ScopedSpan span(&tracer, "tools.sequence");
          out = RunCliSequence(app, invocation.command, jobs, inputs.cache_dir, &tracer, &metrics,
                               &entry.values);
        }
        AddRegistry(metrics, &entry.values);
        if (problem.empty() && out != plain.out) {
          problem = AnswerKey(app.id, invocation.command) +
                    ": in-process report differs from the CLI's stdout";
        }
        {
          wasabi::ScopedSpan span(&tracer, "bench.cache_reset");
          ResetCacheDir(inputs, invocation, &error);
        }
        {
          wasabi::ScopedSpan span(&tracer, "obs.untraced_sequence");
          RunCliSequence(app, invocation.command, jobs, inputs.cache_dir, nullptr, nullptr,
                         nullptr);
        }
        bool time_speedup =
            !speedup_timed && (invocation.command == "test" || invocation.command == "repair");
        RunExtraLayers(app, invocation.command, jobs, time_speedup ? speedup_workers : 0, &tracer,
                       &entry.values);
        speedup_timed = speedup_timed || time_speedup;

        ++result.attempted;
        if (!problem.empty()) {
          ++result.failed;
          result.failures.push_back(problem);
        }
        entry.end_us = tracer.NowUs();
        traced.push_back(std::move(entry));
      }
    }
  }

  std::vector<wasabi::TraceEvent> events = tracer.Collect();
  std::vector<int64_t> self = SelfTimesUs(events);
  // The root's and the per-input grouping spans' self times are harness
  // bookkeeping; every other span's self time is accounted to a call.
  int main_tid = 0;
  int64_t root_us = 0;
  int64_t bookkeeping_us = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == 'X' && events[i].name == "traced.run") {
      main_tid = events[i].tid;
      root_us = events[i].duration_us;
    }
    if (events[i].phase == 'X' && (events[i].name == "traced.run" || events[i].name == "input")) {
      bookkeeping_us += self[i];
    }
  }
  std::ofstream(work / "trace.json", std::ios::binary) << tracer.ToChromeJson();

  // Per input: the median over passes; per metric: the median over the
  // inputs that have it (0 when none does).
  std::map<std::string, std::map<std::string, std::vector<double>>> per_input;
  for (Traced& entry : traced) {
    Values spans = SpanTotals(events, main_tid, entry.begin_us, entry.end_us);
    // The CLI-order layer sum: the traced sequence minus what none of its
    // calls covers.
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].name == "tools.sequence" && events[i].tid == main_tid &&
          events[i].start_us >= entry.begin_us && events[i].start_us <= entry.end_us) {
        entry.values["tools.layer_sum_ms"] =
            static_cast<double>(events[i].duration_us - self[i]) / 1000.0;
      }
    }
    Derive(spans, &entry.values);
    for (const auto& [name, value] : entry.values) {
      per_input[entry.input][name].push_back(value);
    }
  }
  std::map<std::string, std::vector<double>> per_metric;
  std::ofstream table(work / "layers.tsv");
  table << "input\tmetric\tmedian over passes\n";
  for (const auto& [input, metrics] : per_input) {
    for (const auto& [name, samples] : metrics) {
      per_metric[name].push_back(Median(samples));
      table << input << "\t" << name << "\t" << Median(samples) << "\n";
    }
  }
  if (root_us > 0) {
    per_metric["obs.self_time_share"] = {static_cast<double>(root_us - bookkeeping_us) /
                                         static_cast<double>(root_us)};
  }
  for (const auto& [name, unit] : kPerLayer) {
    result.metrics.push_back({name, Median(per_metric[name]), unit});
  }
  return result;
}

}  // namespace perfbench
