// Flakiness-prober bench (docs/FLAKINESS.md): classification accuracy on the
// ground-truth "flakylab" app and probe overhead on the full Table 3 corpus.
//
// Accuracy: flakylab seeds exactly one failing verdict per stability class
// (stable / flaky / chaos-induced); the bench scores the prober's
// classifications against the manifest and reports exact-match precision.
//
// Overhead: the full dynamic workflow over all corpus applications with the
// prober off versus N in {1, 2, 4} repetitions, all at full parallelism. The
// prober runs on the campaign runner's warm per-worker interpreters, so the
// marginal cost per repetition is the probe reruns themselves, not re-setup —
// the ratio column makes that visible. A JSON record (first argument, default
// flakiness_probe.json) captures both halves for CI tracking.

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace wasabi;
  using Clock = std::chrono::steady_clock;
  const std::string json_path = argc > 1 ? argv[1] : "flakiness_probe.json";

  PrintHeading("Flakiness-aware verdicts: classification accuracy and probe overhead",
               "the flaky-test discussion in Section 6");

  // --- Accuracy on the ground-truth app -------------------------------------
  CorpusApp lab = BuildCorpusApp("flakylab");
  WasabiOptions lab_options = DefaultOptionsFor(lab);
  lab_options.prober.repetitions = 3;
  lab_options.robust.chaos.enabled = true;
  lab_options.robust.chaos.seed = 42;
  lab_options.robust.chaos.rate = 0.0;  // Degraded env only, no host faults.
  lab_options.robust.chaos.env_rate = 1.0;
  Wasabi lab_tool(lab.program, *lab.index, lab_options);
  DynamicResult lab_result = lab_tool.RunDynamicWorkflow();

  std::vector<SeededBug> truth;
  for (const SeededBug& bug : lab.bugs) {
    if (bug.type != BugType::kIfOutlier) {
      truth.push_back(bug);
    }
  }
  Scorecard scores = ScoreReports(lab_result.bugs, truth);
  ScoreCell total = scores.TotalAll();
  const int mismatches = static_cast<int>(scores.stability_mismatched_ids.size());

  TablePrinter accuracy({"Ground truth", "Probed runs", "Stable", "Flaky", "Chaos-induced",
                         "Exact matches", "Mismatches"});
  accuracy.AddRow({"flakylab (" + std::to_string(truth.size()) + " seeded)",
                   std::to_string(lab_result.probed_runs),
                   std::to_string(lab_result.stable_runs),
                   std::to_string(lab_result.flaky_runs),
                   std::to_string(lab_result.chaos_induced_runs),
                   Percent(total.stability_matches, static_cast<double>(truth.size())),
                   std::to_string(mismatches)});
  accuracy.Print();
  const bool exact = mismatches == 0 &&
                     total.stability_matches == static_cast<int>(truth.size());
  std::cout << "\nclassification against the manifest: "
            << (exact ? "exact" : "INEXACT — ground-truth regression") << "\n\n";

  // --- Overhead on the Table 3 corpus ---------------------------------------
  std::vector<CorpusApp> apps = BuildFullCorpus();
  std::vector<std::unique_ptr<Wasabi>> tools;
  tools.reserve(apps.size());
  for (CorpusApp& app : apps) {
    tools.push_back(std::make_unique<Wasabi>(app.program, *app.index, DefaultOptionsFor(app)));
  }
  auto run_all = [&](int repetitions) {
    size_t probed = 0;
    for (size_t i = 0; i < tools.size(); ++i) {
      WasabiOptions options = DefaultOptionsFor(apps[i]);
      options.prober.repetitions = repetitions;
      // Fresh instance per pass: a different prober config is a different
      // campaign identity, and the identification memo is cheap to refill.
      tools[i] = std::make_unique<Wasabi>(apps[i].program, *apps[i].index, options);
      probed += tools[i]->RunDynamicWorkflow().probed_runs;
    }
    return probed;
  };

  run_all(0);  // Warmup: interning pools, allocator, page cache.
  const int kLevels[] = {0, 1, 2, 4};
  double level_seconds[4] = {0, 0, 0, 0};
  size_t level_probed[4] = {0, 0, 0, 0};
  const int kReps = 3;
  for (size_t level = 0; level < 4; ++level) {
    double best = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      Clock::time_point start = Clock::now();
      size_t probed = run_all(kLevels[level]);
      double seconds = std::chrono::duration<double>(Clock::now() - start).count();
      if (rep == 0 || seconds < best) {
        best = seconds;
      }
      level_probed[level] = probed;
    }
    level_seconds[level] = best;
  }

  TablePrinter overhead({"Repetitions", "Seconds (best of 3)", "vs prober off",
                         "Failing runs probed"});
  for (size_t level = 0; level < 4; ++level) {
    std::ostringstream sec;
    sec << std::fixed << std::setprecision(3) << level_seconds[level];
    std::ostringstream ratio;
    if (level == 0) {
      ratio << "1.00x (baseline)";
    } else if (level_seconds[0] > 0) {
      ratio << std::fixed << std::setprecision(2)
            << level_seconds[level] / level_seconds[0] << "x";
    } else {
      ratio << "n/a";
    }
    overhead.AddRow({std::to_string(kLevels[level]), sec.str(), ratio.str(),
                     std::to_string(level_probed[level])});
  }
  overhead.Print();

  std::ofstream out(json_path);
  out << "{\"bench\":\"flakiness_probe\",\"exact_classification\":"
      << (exact ? "true" : "false")
      << ",\"stability_matches\":" << total.stability_matches
      << ",\"seeded\":" << truth.size() << ",\"levels\":[";
  for (size_t level = 0; level < 4; ++level) {
    out << (level > 0 ? "," : "") << "{\"repetitions\":" << kLevels[level]
        << ",\"seconds\":" << level_seconds[level]
        << ",\"probed_runs\":" << level_probed[level] << "}";
  }
  out << "]}\n";
  std::cout << "\nwrote " << json_path << "\n";
  return exact ? 0 : 1;
}
