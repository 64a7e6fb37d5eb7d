// Google-benchmark microbenchmarks for the substrate: parsing, CFG
// construction, retry-finder queries, SimLLM analysis, interpretation, and
// fault-injected test execution. These quantify the cost structure behind the
// table benches (the paper's §4.3 observation that test execution dominates
// and static analysis is <1% holds here too).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <thread>

#include "src/analysis/cfg.h"
#include "src/analysis/retry_finder.h"
#include "src/corpus/corpus.h"
#include "src/corpus/generator.h"
#include "src/exec/campaign.h"
#include "src/inject/injector.h"
#include "src/lang/parser.h"
#include "src/llm/sim_llm.h"
#include "src/testing/coverage.h"
#include "src/testing/runner.h"
#include "src/vm/bytecode.h"

namespace wasabi {
namespace {

const GeneratedApp& SampleApp() {
  static const GeneratedApp* kApp = [] {
    GeneratorSpec spec;
    spec.app = "benchapp";
    spec.display_name = "BenchApp";
    spec.seed = 99;
    spec.counts.ok_loops = 5;
    spec.counts.nodelay_loops = 2;
    spec.counts.ok_queues = 2;
    spec.counts.ok_state_machines = 2;
    spec.counts.unrelated_util_files = 5;
    return new GeneratedApp(GenerateApp(spec));
  }();
  return *kApp;
}

const CorpusApp& SampleCorpusApp() {
  static const CorpusApp* kApp = new CorpusApp(BuildCorpusApp("hacommon"));
  return *kApp;
}

void BM_ParseApp(benchmark::State& state) {
  const GeneratedApp& app = SampleApp();
  int64_t bytes = 0;
  for (auto _ : state) {
    mj::DiagnosticEngine diag;
    mj::Program program;
    for (const auto& [file, source] : app.files) {
      program.AddUnit(mj::ParseSource(file, source, diag));
      bytes += static_cast<int64_t>(source.size());
    }
    benchmark::DoNotOptimize(program.units().size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_ParseApp);

void BM_BuildAllCfgs(benchmark::State& state) {
  const CorpusApp& app = SampleCorpusApp();
  for (auto _ : state) {
    CfgBuilder builder;
    size_t nodes = 0;
    for (const mj::MethodDecl* method : app.index->all_methods()) {
      Cfg cfg = builder.Build(*method);
      nodes += cfg.size();
    }
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_BuildAllCfgs);

void BM_RetryFinderLoopQuery(benchmark::State& state) {
  const CorpusApp& app = SampleCorpusApp();
  for (auto _ : state) {
    RetryFinder finder(app.program, *app.index);
    benchmark::DoNotOptimize(finder.FindLoopStructures().size());
  }
}
BENCHMARK(BM_RetryFinderLoopQuery);

void BM_SimLlmAnalyzeApp(benchmark::State& state) {
  const CorpusApp& app = SampleCorpusApp();
  for (auto _ : state) {
    SimLlm llm;
    size_t coordinators = 0;
    for (const auto& unit : app.program.units()) {
      coordinators += llm.AnalyzeFile(*unit).coordinators.size();
    }
    benchmark::DoNotOptimize(coordinators);
  }
}
BENCHMARK(BM_SimLlmAnalyzeApp);

void BM_RunCleanTestSuite(benchmark::State& state, EngineKind engine) {
  // The runner's warm interpreter serves every run after the first (warm
  // frames + dispatch cache + compiled bytecode, ResetForRun isolation): the
  // configuration every campaign, coverage pass, and repair validation uses.
  const CorpusApp& app = SampleCorpusApp();
  RunnerOptions options;
  options.interp.engine = engine;
  options.config_overrides = app.default_configs;
  TestRunner runner(app.program, *app.index, options);
  std::vector<TestCase> tests = runner.DiscoverTests();
  int64_t steps = 0;
  for (auto _ : state) {
    int passed = 0;
    for (const TestCase& test : tests) {
      TestRunRecord record = runner.RunTest(test);
      passed += record.outcome.status == TestStatus::kPassed ? 1 : 0;
      steps += record.steps;
    }
    benchmark::DoNotOptimize(passed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tests.size()));
  state.counters["steps_per_sec"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
// The engine dimension (docs/PERFORMANCE.md): every interpretation benchmark
// runs under both the bytecode VM (the default engine) and the reference
// tree-walker, so BENCH_interp.json carries the speedup alongside the
// tree-walker numbers the earlier hot-path PRs recorded.
BENCHMARK_CAPTURE(BM_RunCleanTestSuite, vm, EngineKind::kVm);
BENCHMARK_CAPTURE(BM_RunCleanTestSuite, tree, EngineKind::kTree);

void BM_InjectedTestSuite(benchmark::State& state) {
  // The whole suite with a K=100 injector armed on the shared RPC client —
  // the cost shape of one planned WASABI injection campaign.
  const CorpusApp& app = SampleCorpusApp();
  RunnerOptions options;
  options.config_overrides = app.default_configs;
  TestRunner runner(app.program, *app.index, options);
  std::vector<TestCase> tests = runner.DiscoverTests();
  int64_t steps = 0;
  for (auto _ : state) {
    int outcomes = 0;
    for (const TestCase& test : tests) {
      FaultInjector injector({InjectionPoint{"HacommonRpcClient.call",
                                             "HacommonRpcClient.ping", "ConnectException",
                                             kInjectRepeatedly}});
      TestRunRecord record = runner.RunTest(test, {&injector});
      outcomes += static_cast<int>(record.outcome.status);
      steps += record.steps;
    }
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tests.size()));
  state.counters["steps_per_sec"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InjectedTestSuite);

void BM_CampaignRunsPerSecond(benchmark::State& state) {
  // End-to-end planned injection campaign over the corpus app, serial pool —
  // the runs/sec figure BENCH_interp.json reports (campaign throughput is the
  // quantity the §4.3 cost observation is about; the interpreter dominates
  // it). Uses the same coverage → plan → expand path as the dynamic workflow.
  const CorpusApp& app = SampleCorpusApp();
  RunnerOptions options;
  options.config_overrides = app.default_configs;
  TestRunner runner(app.program, *app.index, options);
  std::vector<TestCase> tests = runner.DiscoverTests();

  RetryFinder finder(app.program, *app.index);
  std::vector<RetryLocation> locations;
  for (const RetryStructure& structure : finder.FindLoopStructures()) {
    locations.insert(locations.end(), structure.locations.begin(), structure.locations.end());
  }
  TaskPool pool(1);
  CoverageMap coverage = MapCoverageParallel(runner, tests, locations, pool);
  std::vector<PlanEntry> plan = PlanInjections(coverage, locations.size());
  std::vector<CampaignRunSpec> specs =
      ExpandPlan(plan, locations, {kInjectOnce, kInjectRepeatedly});

  int64_t runs = 0;
  int64_t steps = 0;
  for (auto _ : state) {
    std::vector<CampaignRunResult> results = ExecuteCampaign(runner, locations, specs, pool);
    runs += static_cast<int64_t>(results.size());
    for (const CampaignRunResult& result : results) {
      steps += result.record.steps;
    }
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(runs);
  state.counters["campaign_runs_per_sec"] =
      benchmark::Counter(static_cast<double>(runs), benchmark::Counter::kIsRate);
  state.counters["steps_per_sec"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignRunsPerSecond);

void BM_InterpreterArithmeticThroughput(benchmark::State& state, EngineKind engine) {
  mj::DiagnosticEngine diag;
  mj::Program program;
  program.AddUnit(mj::ParseSource("hot.mj", R"(
    class Hot {
      int spin(n) {
        var acc = 0;
        for (var i = 0; i < n; i++) {
          acc = (acc + i * 3) % 1000003;
        }
        return acc;
      }
    }
  )", diag));
  mj::ProgramIndex index(program);
  InterpOptions interp_options;
  interp_options.engine = engine;
  int64_t steps = 0;
  for (auto _ : state) {
    Interpreter interp(program, index, interp_options);
    benchmark::DoNotOptimize(interp.Invoke("Hot.spin", {Value{int64_t{10000}}}));
    steps += interp.steps();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
  state.counters["steps_per_sec"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_InterpreterArithmeticThroughput, vm, EngineKind::kVm);
BENCHMARK_CAPTURE(BM_InterpreterArithmeticThroughput, tree, EngineKind::kTree);

void BM_InterpreterArenaReuseThroughput(benchmark::State& state, EngineKind engine) {
  // Same hot loop, but reusing one interpreter via ResetForRun the way
  // TestRunner does for each worker — isolates the per-run construction
  // overhead that reuse removes.
  mj::DiagnosticEngine diag;
  mj::Program program;
  program.AddUnit(mj::ParseSource("hot.mj", R"(
    class Hot {
      int spin(n) {
        var acc = 0;
        for (var i = 0; i < n; i++) {
          acc = (acc + i * 3) % 1000003;
        }
        return acc;
      }
    }
  )", diag));
  mj::ProgramIndex index(program);
  InterpOptions interp_options;
  interp_options.engine = engine;
  Interpreter interp(program, index, interp_options);
  int64_t steps = 0;
  for (auto _ : state) {
    interp.ResetForRun();
    benchmark::DoNotOptimize(interp.Invoke("Hot.spin", {Value{int64_t{10000}}}));
    steps += interp.steps();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
  state.counters["steps_per_sec"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_InterpreterArenaReuseThroughput, vm, EngineKind::kVm);
BENCHMARK_CAPTURE(BM_InterpreterArenaReuseThroughput, tree, EngineKind::kTree);

}  // namespace
}  // namespace wasabi

int main(int argc, char** argv) {
  // Same caveat micro_campaign records: throughput numbers from hosts with
  // few hardware threads are interpretable only alongside this value.
  benchmark::AddCustomContext("hardware_concurrency",
                              std::to_string(std::thread::hardware_concurrency()));
  // Which dispatch strategy the VM was compiled with (docs/PERFORMANCE.md):
  // "computed-goto" where the compiler probe found the GNU labels-as-values
  // extension, "switch" on the portable fallback. VM numbers from the two
  // strategies are not directly comparable, so the record carries the probe.
  benchmark::AddCustomContext("vm_dispatch", wasabi::vm::DispatchKindName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
