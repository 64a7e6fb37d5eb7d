// Parallel fault-injection campaign executor (§3.1 dynamic workflow, scaled).
//
// The planner emits {test, location} pairs; each pair is executed under every
// K setting, so a campaign is a flat list of independent runs. Runs share only
// immutable state — the parsed Program and its ProgramIndex are built once and
// never mutated after construction — while every run gets fresh interpreter
// state (own environment, virtual clock, singletons, execution log) on its
// worker's warm interpreter (TestRunner) and its own FaultInjector, so
// workers never share a mutable sink.
//
// Determinism: every run carries a stable id assigned in expansion order
// (plan-entry-major, K-minor). The reducer orders results by that id before
// any downstream consumer (oracles, report grouping, JSON) sees them, so the
// output is byte-identical for any worker count and any scheduling.

#ifndef WASABI_SRC_EXEC_CAMPAIGN_H_
#define WASABI_SRC_EXEC_CAMPAIGN_H_

#include <cstdint>
#include <vector>

#include "src/exec/task_pool.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/obs/trace.h"
#include "src/robust/robust.h"
#include "src/testing/coverage.h"
#include "src/testing/runner.h"

namespace wasabi {

// Optional observability sinks threaded through the executor. All four are
// non-owning and may be null; the default-constructed value is "fully off".
// Spans and progress ticks are recorded from worker threads as runs execute;
// metric aggregation over run records happens at reduce time, serially and in
// run-id order, so the metrics snapshot is deterministic too. The journal
// records worker-side events through per-run JournalRun handles (one worker
// per run per wave) and reduce-side events serially, so its collected stream
// is byte-identical at any worker count (docs/OBSERVABILITY.md).
struct CampaignObs {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  ProgressMeter* progress = nullptr;
  RetryJournal* journal = nullptr;
};

// One unit of campaign work: run `test` while injecting at `location_index`
// with budget `k`.
struct CampaignRunSpec {
  uint64_t id = 0;  // Stable: position in expansion order.
  TestCase test;
  size_t location_index = 0;
  int k = kInjectOnce;
};

struct CampaignRunResult {
  uint64_t id = 0;
  size_t location_index = 0;
  int k = kInjectOnce;
  TestRunRecord record;  // Holds this run's private execution log.
};

// Expands the plan into run specs: for each entry, one spec per K value, in
// the order given. Ids number the specs 0..n-1.
std::vector<CampaignRunSpec> ExpandPlan(const std::vector<PlanEntry>& plan,
                                        const std::vector<RetryLocation>& locations,
                                        const std::vector<int>& k_values);

// Executes every spec on the pool and returns the results sorted by run id.
// With `obs` attached, every run gets a "run" span tagged
// {run_id, test, location, k}, per-run step/loop-iteration/virtual-time
// histograms and injection counters are fed to the registry, and the progress
// meter ticks once per completed run.
std::vector<CampaignRunResult> ExecuteCampaign(const TestRunner& runner,
                                               const std::vector<RetryLocation>& locations,
                                               const std::vector<CampaignRunSpec>& specs,
                                               TaskPool& pool, const CampaignObs& obs = {});

// The coverage-discovery pass (one clean run of every test, each with its own
// CoverageRecorder) on the pool. Produces exactly the map the serial
// MapCoverage produces: keyed and ordered by test name, empty runs omitted.
// With `obs` attached, each test run gets a "coverage.run" span, and the
// reduce emits cumulative-locations-covered over runs as both a metrics
// series and a Chrome counter track.
CoverageMap MapCoverageParallel(const TestRunner& runner, const std::vector<TestCase>& tests,
                                const std::vector<RetryLocation>& locations, TaskPool& pool,
                                const CampaignObs& obs = {});

// Merges the per-run logs into one campaign-wide log, runs in id order and
// entries in per-run append order — the deterministic reduce-time counterpart
// of the old "one shared log" view, with no concurrent appends anywhere.
ExecutionLog MergeCampaignLogs(const std::vector<CampaignRunResult>& results);

// --- Fault-contained execution (docs/ROBUSTNESS.md) -------------------------
//
// The robust variants never let a host-level failure kill the campaign:
// a run whose task throws is retried per RobustnessOptions::retry (waves:
// a parallel attempt wave, then a serial id-ordered reduce that classifies
// failures, feeds the per-location circuit breaker, and decides retries —
// so every resilience decision is independent of worker scheduling), and
// quarantined with a structured RunFailure once attempts are exhausted, the
// location's circuit is open, or fail-fast / the quarantine budget cut the
// campaign short. With default options and no failures the completed results
// are byte-identical to ExecuteCampaign's.

struct CampaignOutcome {
  std::vector<CampaignRunResult> results;  // Completed runs only, id-ordered.
  std::vector<RunFailure> quarantined;     // Given-up runs, id-ordered.
  RobustnessStats robustness;
};

// A journal in `obs` receives every run's campaign stream, which is also what
// record mode writes and replay compares.
CampaignOutcome ExecuteCampaignRobust(const TestRunner& runner,
                                      const std::vector<RetryLocation>& locations,
                                      const std::vector<CampaignRunSpec>& specs, TaskPool& pool,
                                      const RobustnessOptions& options,
                                      const CampaignObs& obs = {});

// Fault-contained coverage discovery: a test whose coverage run keeps failing
// at the host level is quarantined (location "<coverage>") and simply covers
// nothing, instead of killing the whole pass. A coverage run's chaos identity
// and backoff stream derive from its test's index, tagged with the top bit so
// they never collide with campaign run ids under one seed. With a journal in
// `obs`, each test's coverage events are derived at reduce time from its
// per-test totals, serially, so the stream is identical at any worker count.
struct CoverageOutcome {
  CoverageMap coverage;
  std::vector<RunFailure> quarantined;  // run_id = test index in `tests`.
  RobustnessStats robustness;
};

CoverageOutcome MapCoverageRobust(const TestRunner& runner, const std::vector<TestCase>& tests,
                                  const std::vector<RetryLocation>& locations, TaskPool& pool,
                                  const RobustnessOptions& options, const CampaignObs& obs = {});

}  // namespace wasabi

#endif  // WASABI_SRC_EXEC_CAMPAIGN_H_
