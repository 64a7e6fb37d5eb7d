// wasabi_bench — the end-to-end benchmark harness (perfbench/README.md).
//
//   wasabi_bench --cli PATH --workload detect|repair|edit-rescan --seed N
//                --seconds S --trace 0|1 [--commit ID]
//   wasabi_bench --cli PATH --write-known-answers FILE
//
// With --trace 0 it times `wasabi` CLI invocations, one at a time in a closed
// loop, over the whole blocks of cycles that take about S seconds, checks
// every output, and prints the end-to-end metrics. With --trace 1 it runs
// the traced in-process run instead and prints the per-layer metrics. The
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the exit code is 1 when any check failed.
//
// --write-known-answers runs every pool app once per command the workloads
// use and writes the summaries the checks compare against.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/spawn.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/traced.h"
#include "src/vm/bytecode.h"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

// Inputs are materialised this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;
// Failure reasons printed to stderr per run (the count is always complete).
constexpr size_t kFailuresShown = 10;
// A run still going after this long is stuck in a hung call; the watchdog
// ends it with a failed result, inside the 180 s a run may take.
constexpr std::chrono::seconds kRunDeadline{170};

const fs::path kKnownAnswers = "perfbench/known_answers.tsv";
const fs::path kWorkRoot = ".bench_work";

struct Args {
  std::string cli;
  Workload workload = Workload::kDetect;
  bool workload_set = false;
  uint64_t seed = 1;  // The default seed; perfbench/README.md names the held-out one.
  double seconds = 25;
  bool trace = false;
  std::string commit = "unknown";
  std::string write_known_answers;
};

int Usage(const std::string& message) {
  std::cerr << "wasabi_bench: " << message << "\n"
            << "usage: wasabi_bench --cli PATH --workload detect|repair|edit-rescan --seed N"
               " --seconds S --trace 0|1 [--commit ID]\n"
               "       wasabi_bench --cli PATH --write-known-answers FILE\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string name = argv[i];
    if (i + 1 >= argc) {
      *error = "option " + name + " needs a value";
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (name == "--cli") {
      args->cli = value;
    } else if (name == "--workload") {
      if (!ParseWorkload(value, &args->workload)) {
        *error = "unknown workload '" + value + "'";
        return false;
      }
      args->workload_set = true;
    } else if (name == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (name == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (args->seconds <= 0) {
        *error = "--seconds must be positive";
        return false;
      }
    } else if (name == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (name == "--commit") {
      args->commit = value;
    } else if (name == "--write-known-answers") {
      args->write_known_answers = value;
    } else {
      *error = "unknown option '" + name + "'";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "option " + name + " needs a number, got '" + value + "'";
      return false;
    }
  }
  if (args->cli.empty()) {
    *error = "--cli is required";
    return false;
  }
  if (args->write_known_answers.empty() && !args->workload_set) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

// Ends the process with a failed result if the run outlives its deadline:
// a hung CLI child is killed by RunProcess's timeout, but a hung in-process
// call of the traced run can only be stopped from another thread.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds deadline)
      : thread_([this, deadline] { Run(deadline); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Run(std::chrono::seconds deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (cv_.wait_for(lock, deadline, [this] { return done_; })) {
      return;
    }
    KillRunningChild();
    std::cerr << "wasabi_bench: run still going after " << deadline.count()
              << " s (a hung call); aborted\n";
    std::cout << "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
              << std::endl;
    std::_Exit(1);
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// CPUs this process may run on (what `nproc` prints).
int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

void PrintContext(const Args& args, int jobs) {
  std::cout << "context {\"workload\": \"" << WorkloadName(args.workload)
            << "\", \"seed\": " << args.seed << ", \"seconds\": " << FormatNumber(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"nproc\": " << AvailableCpus()
            << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
            << ", \"jobs\": " << jobs << ", \"dispatch\": \"" << wasabi::vm::DispatchKindName()
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
            << PERFBENCH_COMPILER << "\", \"commit\": \"" << args.commit << "\"}\n";
}

// Prints one line per metric, then the result object as the last line.
int Finish(const std::vector<Metric>& metrics, size_t attempted, size_t failed,
           const std::vector<std::string>& failures) {
  for (size_t i = 0; i < failures.size() && i < kFailuresShown; ++i) {
    std::cerr << "check failed: " << failures[i] << "\n";
  }
  for (const Metric& metric : metrics) {
    std::cout << "metric " << metric.name << " = " << FormatNumber(metric.value) << " "
              << metric.unit << "\n";
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i > 0 ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

// Materialises the inputs kSetupRepeats times; returns the median seconds.
bool SetUp(const Args& args, int jobs, WorkloadInputs* inputs, double* setup_s,
           std::string* error) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    auto start = std::chrono::steady_clock::now();
    if (!PrepareInputs(args.workload, args.seed, kWorkRoot / WorkloadName(args.workload),
                       args.cli, jobs, inputs, error)) {
      return false;
    }
    times.push_back(SecondsSince(start));
  }
  *setup_s = Median(times);
  return true;
}

// Seconds one block of cycles takes at --jobs 1, measured at this commit on
// the VM perfbench/README.md describes. A run does --seconds / this many
// blocks (at least one), so every run times the same invocations, each input
// the same number of times.
double NominalBlockSeconds(Workload workload) {
  switch (workload) {
    case Workload::kDetect:
      return 0.66;
    case Workload::kRepair:
      return 14.0;
    case Workload::kEditRescan:
      return 0.8;
  }
  return 1.0;
}

int RunEndToEnd(const Args& args, int jobs, const WorkloadInputs& inputs, double setup_s,
                OutputChecker& checker) {
  const fs::path work = kWorkRoot / WorkloadName(args.workload);
  std::vector<Outcome> outcomes;
  std::vector<std::string> failures;
  // The timed invocations' walls (ms) per input, an (app, command) pair.
  std::map<std::pair<size_t, std::string>, std::vector<double>> walls;
  double peak_rss_mb = 0.0;
  size_t warmup_attempted = 0;
  size_t warmup_failed = 0;
  // Runs and checks one invocation of cycle `cycle`; only a timed one feeds
  // the metrics.
  auto run = [&](const Invocation& invocation, size_t cycle, bool timed) {
    std::string problem;
    ProcessResult result;
    if (ResetCacheDir(inputs, invocation, &problem)) {
      result = RunProcess(InvocationArgs(inputs, invocation, args.cli, jobs),
                          (work / "out.txt").string(), (work / "err.txt").string());
      problem = !result.started || result.timed_out
                    ? result.error
                    : checker.Check(invocation, result.exit_code, result.out);
    }
    if (!problem.empty()) {
      failures.push_back(problem);
    }
    if (!timed) {
      ++warmup_attempted;
      warmup_failed += problem.empty() ? 0 : 1;
      return;
    }
    outcomes.push_back({cycle, invocation.app, problem.empty()});
    walls[{invocation.app, invocation.command}].push_back(result.wall_ms);
    peak_rss_mb = std::max(peak_rss_mb, result.max_rss_mb);
  };
  // Warm-up: the first invocation of each command in the first cycle,
  // checked but not timed. Then a closed loop with one client, the next
  // invocation spawned only after the previous one exited, over whole blocks
  // of cycles (every pool app once per block).
  std::set<std::string> warmed;
  for (const Invocation& invocation : Cycle(inputs, 0)) {
    if (warmed.insert(invocation.command).second) {
      run(invocation, 0, false);
    }
  }
  const size_t per_block = CyclesPerBlock(args.workload);
  const size_t blocks =
      std::max<size_t>(1, std::lround(args.seconds / NominalBlockSeconds(args.workload)));
  const size_t cycles = blocks * per_block;
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    for (const Invocation& invocation : Cycle(inputs, cycle)) {
      run(invocation, cycle, true);
    }
  }

  Tally tally = CountOutcomes(outcomes);
  // Every timing is taken over the inputs' median walls: a hiccup or a slow
  // stretch of the shared host hits a few invocations of an input, not its
  // median, so it moves neither the typical time nor the tail.
  std::vector<double> medians;
  double typical_wall_s = 0.0;
  for (const auto& [input, input_walls] : walls) {
    double median = Median(input_walls);
    medians.push_back(median);
    typical_wall_s += median * static_cast<double>(input_walls.size()) / 1000.0;
  }
  int tail_percentile = TailPercentile(medians.size());
  std::cout << "tail wall_tail_ms is p" << tail_percentile << " of the median walls of "
            << medians.size() << " inputs (" << outcomes.size() << " invocations in " << cycles
            << " cycles)\n";
  std::vector<Metric> metrics = {
      {"apps_per_s", static_cast<double>(tally.completed_apps) / typical_wall_s, "1/s"},
      {"wall_p50_ms", Median(medians), "ms"},
      {"wall_tail_ms", NearestRank(medians, tail_percentile), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"pass_ratio",
       static_cast<double>(tally.attempted + warmup_attempted - tally.failed - warmup_failed) /
           static_cast<double>(tally.attempted + warmup_attempted),
       "ratio"},
      {"setup_s", setup_s, "s"},
  };
  return Finish(metrics, tally.attempted + warmup_attempted, tally.failed + warmup_failed,
                failures);
}

// Runs every pool app once per command the workloads use and writes the
// known-answer summaries.
int WriteKnownAnswers(const Args& args, int jobs) {
  const fs::path work = kWorkRoot / "known-answers";
  std::vector<std::pair<std::string, std::vector<std::string>>> plan;
  for (const std::string& id : wasabi::ScaledCorpusAppNames(4)) {
    plan.push_back({id, {"test", "static", "repair"}});
  }
  plan.push_back({"stormlab", {"repair", "storm"}});
  plan.push_back({"repairlab", {"repair", "storm"}});

  std::ofstream out(args.write_known_answers);
  out << "# <app>\t<command>\t<summary of the CLI's --json output> "
         "(perfbench/README.md, \"Known answers\")\n";
  for (const auto& [id, commands] : plan) {
    wasabi::CorpusApp corpus_app = BuildPoolApp(id);
    WorkloadInputs inputs;
    inputs.workload = Workload::kRepair;
    inputs.cache_dir = work / "cache";
    inputs.apps.push_back(AppInput{id, work / "apps" / id, corpus_app.bugs, {}, {}});
    std::error_code ec;
    fs::remove_all(work, ec);
    std::string error;
    if (!WriteApp(work / "apps", corpus_app, std::nullopt, &error)) {
      std::cerr << "wasabi_bench: " << error << "\n";
      return 1;
    }
    for (const std::string& command : commands) {
      Invocation invocation{0, command};
      ResetCacheDir(inputs, invocation, &error);
      ProcessResult result = RunProcess(InvocationArgs(inputs, invocation, args.cli, jobs),
                                        (work / "out.txt").string(), (work / "err.txt").string());
      std::string summary;
      if (result.exit_code != 0 ||
          !SummarizeOutput(command, inputs.apps[0], result.out, &summary, &error)) {
        std::cerr << "wasabi_bench: " << id << " " << command << " failed: " << error << "\n";
        return 1;
      }
      out << id << "\t" << command << "\t" << summary << "\n";
      std::cerr << id << "\t" << command << "\t" << summary << "\n";
    }
  }
  return out ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    return Usage(error);
  }
  // Every invocation passes --jobs 1: at --jobs > 1 the CLI now and then
  // hangs in TaskPool (perfbench/README.md, "Known defect"), and one worker
  // keeps the timing off the shared host's scheduler. The traced run still
  // times the dynamic workflow at nproc workers once (exec.speedup).
  const int jobs = 1;
  if (!args.write_known_answers.empty()) {
    return WriteKnownAnswers(args, jobs);
  }
  KillChildOnTermination();
  Watchdog watchdog(kRunDeadline);
  PrintContext(args, jobs);

  std::map<std::string, std::string> answers;
  WorkloadInputs inputs;
  double setup_s = 0.0;
  if (!LoadKnownAnswers(kKnownAnswers, &answers, &error) ||
      !SetUp(args, jobs, &inputs, &setup_s, &error)) {
    std::cerr << "wasabi_bench: " << error << "\n";
    return 1;
  }
  OutputChecker checker(inputs, std::move(answers));
  if (!args.trace) {
    return RunEndToEnd(args, jobs, inputs, setup_s, checker);
  }
  TracedResult traced = RunTraced(inputs, args.cli, jobs, AvailableCpus(), args.seconds, checker,
                                  kWorkRoot / WorkloadName(args.workload));
  return Finish(traced.metrics, traced.attempted, traced.failed, traced.failures);
}
