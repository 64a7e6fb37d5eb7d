// The WASABI facade: ties together retry identification (CodeQL-style finder +
// SimLLM), the dynamic repurposed-unit-testing workflow (coverage → plan →
// inject → oracles), and the static workflows (LLM WHEN detection, retry-ratio
// IF detection).
//
// One Wasabi instance analyzes one application (one mj::Program). All results
// are deterministic for a fixed program + options.

#ifndef WASABI_SRC_CORE_WASABI_H_
#define WASABI_SRC_CORE_WASABI_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/if_outliers.h"
#include "src/analysis/retry_finder.h"
#include "src/analysis/retry_model.h"
#include "src/cache/program_digest.h"
#include "src/cache/store.h"
#include "src/core/report.h"
#include "src/exec/prober.h"
#include "src/record/recorder.h"
#include "src/llm/sim_llm.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/obs/trace.h"
#include "src/robust/robust.h"
#include "src/testing/coverage.h"
#include "src/testing/oracles.h"
#include "src/testing/runner.h"

namespace wasabi {

struct WasabiOptions {
  std::string app_name;  // Stamped on every report.
  RetryFinderOptions finder;
  SimLlmConfig llm;
  OracleOptions oracles;
  IfOutlierOptions if_outliers;
  InterpOptions interp;
  // The application's documented default configuration, applied to every test
  // run (used together with config restoration, §3.1.4).
  std::vector<std::pair<std::string, Value>> default_configs;
  bool use_planner = true;       // Off reproduces Table 6 "w/o planning".
  bool use_oracles = true;       // Off reproduces the §4.4 oracle ablation.
  bool restore_configs = true;
  // Worker threads for the dynamic workflow's coverage pass and injection
  // campaign. 1 = strictly serial on the calling thread; 0 = one worker per
  // hardware thread. Results are byte-identical for every setting: runs carry
  // stable ids and the reducer consumes them in id order.
  int jobs = 1;
  // Fault containment for the dynamic workflow (docs/ROBUSTNESS.md): retry
  // policy for infrastructure-failed runs, per-location circuit breaker,
  // optional self-chaos, fail-fast / quarantine budget. The default value
  // changes nothing when no run fails at the host level.
  RobustnessOptions robust;
  // Observability sinks (all non-owning, all default-off). With sinks
  // attached the workflows open phase spans, tag every campaign run, and feed
  // the metric taxonomy in docs/OBSERVABILITY.md; every report and JSON
  // output stays byte-identical either way.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  ProgressMeter* progress = nullptr;
  // Retry-behavior journal (docs/OBSERVABILITY.md "Retry analytics"),
  // non-owning and default-off. With a journal attached the dynamic workflow
  // records every campaign/coverage/probe/cache retry event, never reads its
  // cache entry (a restored run executes nothing journal-worthy) though it
  // still writes it, and exports derived retry.* analytics into
  // `metrics`/`tracer`; stdout and every report byte stay identical either
  // way.
  RetryJournal* journal = nullptr;
  // Optional result cache (docs/CACHING.md), non-owning and default-off. With
  // a store attached, per-file SimLLM results and each whole dynamic workflow
  // (coverage, quarantines, resilience counters, classified reports, prober
  // counters) are memoized under content-digest keys; every report stays
  // byte-identical to a cache-off run. Without one, no code path changes at
  // all.
  CacheStore* cache = nullptr;
  // N-repetition flakiness prober (docs/FLAKINESS.md), default-off. With
  // repetitions > 0, every failing campaign verdict is re-executed under
  // virtual-clock perturbation and classified {stable, flaky, chaos-induced};
  // the classification rides on reports (probed == true) and, with the five
  // prober counters, in the dynamic workflow's cache entry. SimLLM judges a
  // root cause for non-stable classes.
  ProberOptions prober;
  // Record mode (docs/FLAKINESS.md): when non-empty, the dynamic workflow
  // journals the campaign (into `journal`, or a private journal when that is
  // null, so the cache entry is never read) and writes every run's slice of
  // it plus its verdict into this directory: one checksummed run-<id>.rec per
  // run plus MANIFEST.tsv. Recording never changes any report or journal byte.
  std::string record_dir;
};

// Merged output of both identification techniques (Figure 4).
struct IdentificationResult {
  std::vector<RetryStructure> structures;  // With found_by flags set.
  LlmUsage llm_usage;
  size_t candidate_loops_without_keyword_filter = 0;  // §4.4 ablation input.
  size_t files_truncated_by_llm = 0;                  // Large-file misses.
};

// Output of the dynamic workflow (Tables 3, 5, 6).
struct DynamicResult {
  std::vector<BugReport> bugs;            // Deduplicated.
  std::vector<OracleReport> raw_reports;  // Every oracle firing, pre-dedup.
  std::vector<RetryLocation> locations;   // All injectable retry locations.
  CoverageMap coverage;
  size_t total_tests = 0;
  size_t tests_covering_retry = 0;
  size_t structures_identified = 0;
  size_t structures_covered = 0;   // Structures with >= 1 covered location.
  size_t planned_runs = 0;         // Injected runs executed (with planning).
  size_t naive_runs = 0;           // Runs a plan-less WASABI would execute.
  size_t config_restrictions_restored = 0;
  int jobs_used = 1;               // Workers the campaign executor ran with.
  // Fault containment (docs/ROBUSTNESS.md): runs the campaign gave up on
  // (coverage runs carry location "<coverage>"), aggregate resilience
  // counters, and whether the result is degraded (some runs quarantined).
  std::vector<RunFailure> quarantined;
  RobustnessStats robustness;
  bool degraded = false;
  // Flakiness-prober summary (docs/FLAKINESS.md). All zero when the prober is
  // off; a warm cache restores the cold run's counts.
  size_t probed_runs = 0;
  size_t stable_runs = 0;
  size_t flaky_runs = 0;
  size_t chaos_induced_runs = 0;
  size_t probe_failures = 0;
  // Record mode: non-empty when writing the record directory failed (the
  // analysis itself is unaffected — recording is observation only).
  std::string record_error;
  // Wall-clock phase breakdown (§4.3: test execution dominates; the coverage
  // discovery pass alone is a significant share; static analysis is <1%).
  double identification_seconds = 0.0;
  double coverage_seconds = 0.0;
  double injection_seconds = 0.0;
};

// Output of the static workflow (Table 4, §4.1 IF bugs).
struct StaticResult {
  std::vector<BugReport> when_bugs;           // From SimLLM Q2/Q3.
  std::vector<BugReport> if_bugs;             // From retry-ratio outliers.
  std::vector<IfOutlierReport> if_outliers;   // Raw outlier data.
  LlmUsage llm_usage;
};

// §4.5 mitigation: collates static WHEN reports with dynamic-testing results.
// A static report against a coordinator whose retry locations WERE exercised
// by fault injection — without the dynamic workflow confirming the same bug —
// is dropped: the injected runs are direct evidence against it. Reports on
// coordinators unit testing never reached are kept (static checking's whole
// point is covering untested code).
std::vector<BugReport> CollateStaticWithDynamic(const std::vector<BugReport>& static_bugs,
                                                const DynamicResult& dynamic);

// Outcome of replaying one recorded run in isolation (docs/FLAKINESS.md).
struct ReplayOutcome {
  bool ok = false;        // Record loaded and validated (digests, checksum).
  bool executed = false;  // False for admission-skipped runs, which depend on
                          // campaign-wide state and are not re-executable in
                          // isolation; their recorded verdict stands.
  bool stream_identical = false;   // Replayed record (events + verdict) == recorded.
  bool verdict_identical = false;  // Replayed verdict line == recorded verdict line.
  std::string error;               // Load/validation diagnostic when !ok.
  std::string recorded_verdict;
  std::string replayed_verdict;
  std::string divergence;          // First differing event pair, when any.
  RecordedRun recorded;
  RecordedRun replayed;
};

class Wasabi {
 public:
  Wasabi(const mj::Program& program, const mj::ProgramIndex& index, WasabiOptions options = {});

  // Identification parses nothing (the Program is already an AST) but runs
  // the full CFG + SimLLM analysis, so its result is memoized per instance:
  // the corpus is analyzed once up front and every later workflow — including
  // repeated campaigns at different worker counts — reuses the same immutable
  // structures. The memo is mutex-guarded so concurrent callers are safe.
  IdentificationResult IdentifyRetryStructures();
  DynamicResult RunDynamicWorkflow();
  StaticResult RunStaticWorkflow();

  // Replays ONE recorded run in isolation: validates the record directory's
  // version/checksums and that its program/config digests match this instance,
  // re-executes the recorded spec as a one-run campaign with a private journal
  // (chaos draws, backoff draws, and injector decisions are pure functions of
  // (run_id, attempt)), and compares the journal slice and verdict against
  // the recorded ones event by event. Admission-skipped runs ("skipped:"
  // quarantines) return the recorded verdict with executed == false.
  ReplayOutcome ReplayRun(const std::string& record_dir, uint64_t run_id);

  const WasabiOptions& options() const { return options_; }
  // Re-runs of the dynamic workflow may change only the worker count; the
  // analysis memo and every report stay identical by construction.
  void set_jobs(int jobs) { options_.jobs = jobs; }
  // Attaches (or detaches, with nulls) observability sinks after
  // construction — the bench re-runs one instance at several worker counts
  // with a fresh registry per level.
  void set_observability(Tracer* tracer, MetricsRegistry* metrics,
                         ProgressMeter* progress = nullptr, RetryJournal* journal = nullptr) {
    options_.tracer = tracer;
    options_.metrics = metrics;
    options_.progress = progress;
    options_.journal = journal;
  }
  // Attaches (or detaches) the result cache after construction.
  void set_cache(CacheStore* cache) { options_.cache = cache; }

 private:
  std::vector<BugReport> ToBugReports(const std::vector<OracleReport>& reports) const;
  // Test preparation shared by the campaign and replay (§3.1.4): default
  // configs plus restoration of restricted retry configs, whose count goes to
  // `restrictions_restored` when non-null.
  RunnerOptions CampaignRunnerOptions(size_t* restrictions_restored = nullptr) const;
  // Content digest of the program, computed once per instance (the Program is
  // immutable for the instance's lifetime).
  const ProgramDigest& GetProgramDigest();

  const mj::Program& program_;
  const mj::ProgramIndex& index_;
  WasabiOptions options_;
  std::mutex identification_mutex_;
  std::optional<IdentificationResult> identification_memo_;
  std::mutex digest_mutex_;
  std::optional<ProgramDigest> program_digest_memo_;
};

}  // namespace wasabi

#endif  // WASABI_SRC_CORE_WASABI_H_
