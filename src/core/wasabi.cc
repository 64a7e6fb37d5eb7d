#include "src/core/wasabi.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "src/core/cache_codec.h"
#include "src/exec/campaign.h"
#include "src/exec/task_pool.h"
#include "src/obs/retry_stats.h"
#include "src/inject/injector.h"
#include "src/interp/value.h"
#include "src/lang/digest.h"
#include "src/testing/config_restore.h"

namespace wasabi {

namespace {

// Application-vs-test split by path convention: anything under a test/
// directory is harness code the analyses must not treat as application source.
bool IsTestPath(const std::string& file) {
  return file.find("/test/") != std::string::npos || file.rfind("test/", 0) == 0;
}

// Copies the pool's cumulative counters (coverage pass + injection campaign)
// into the registry, with a derived utilization gauge: busy time across all
// workers over `wall_seconds * workers`. Low utilization with high queue-wait
// means starved workers; low utilization with empty queue-wait means the wall
// clock went to serial phases.
void ExportPoolMetrics(MetricsRegistry& metrics, const TaskPool& pool, int workers,
                       double wall_seconds) {
  TaskPoolStats stats = pool.Stats();
  metrics.SetGauge("pool.workers", static_cast<double>(workers));
  for (size_t w = 0; w < stats.workers.size(); ++w) {
    const TaskPoolStats::Worker& worker = stats.workers[w];
    const std::string prefix = "pool.worker." + std::to_string(w);
    metrics.Increment(prefix + ".tasks", static_cast<int64_t>(worker.tasks));
    metrics.Increment(prefix + ".steals", static_cast<int64_t>(worker.steals));
    metrics.Increment(prefix + ".busy_us", worker.busy_us);
    for (int64_t wait_us : worker.queue_wait_us) {
      metrics.Observe("pool.queue_wait_us", static_cast<double>(wait_us));
    }
  }
  metrics.Increment("pool.tasks_total", static_cast<int64_t>(stats.total_tasks()));
  metrics.Increment("pool.steals_total", static_cast<int64_t>(stats.total_steals()));
  metrics.Increment("pool.busy_us_total", stats.total_busy_us());
  metrics.Increment("pool.wall_us_total", static_cast<int64_t>(wall_seconds * 1e6));
  if (wall_seconds > 0 && workers > 0) {
    metrics.SetGauge("pool.utilization", static_cast<double>(stats.total_busy_us()) /
                                             (wall_seconds * 1e6 * workers));
  }
}

// --- Result-cache plumbing (docs/CACHING.md) --------------------------------
//
// Per-file SimLLM memos live in the "q1" (identification) and "when" (static
// workflow) namespaces, keyed by (llm-config digest, file content digest);
// the dynamic workflow's one memo lives in "camp", keyed by (program digest,
// dynamic-config digest, location-list digest). The entry codecs are in
// src/core/cache_codec.h.

// Length-delimited string fold: plain concatenation would let adjacent fields
// alias ("ab"+"c" vs "a"+"bc").
uint64_t DigestStringField(std::string_view field, uint64_t hash) {
  hash = mj::Fnv1a64(field, hash);
  return mj::Fnv1a64Mix(field.size(), hash);
}

uint64_t DigestDoubleField(double value, uint64_t hash) {
  return mj::Fnv1a64Mix(std::bit_cast<uint64_t>(value), hash);
}

uint64_t DigestLlmConfig(const SimLlmConfig& config) {
  uint64_t hash = mj::kFnvOffsetBasis;
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(config.retry_threshold), hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(config.attention_window_tokens), hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(config.comprehension_noise_percent), hash);
  hash = mj::Fnv1a64Mix(config.seed, hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(config.q1_iteration_fp_percent), hash);
  hash = mj::Fnv1a64Mix(config.enable_q4_exclusion ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(config.q4_override_score), hash);
  return hash;
}

// Everything the dynamic workflow's cached results depend on, except the
// program (digested separately) and the retry-location list (ditto). `jobs`
// and `app_name` are deliberately absent: worker count cannot change any
// report byte, and the app name is stamped on reports AFTER cache replay.
uint64_t DigestDynamicConfig(const WasabiOptions& options) {
  uint64_t hash = DigestLlmConfig(options.llm);
  hash = mj::Fnv1a64Mix(options.finder.require_keyword ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(options.finder.keywords.size(), hash);
  for (const std::string& keyword : options.finder.keywords) {
    hash = DigestStringField(keyword, hash);
  }
  hash = mj::Fnv1a64Mix(options.finder.skip_test_classes ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.oracles.cap_injection_threshold), hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.oracles.delay_min_injections), hash);
  hash = mj::Fnv1a64Mix(options.oracles.assertions_require_single_injection ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(options.oracles.prune_wrapped_exceptions ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(options.oracles.context_aware_cap ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.interp.step_budget), hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.interp.virtual_time_budget_ms), hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.interp.max_call_depth), hash);
  // The engine is proven byte-identical, but it still participates: a cached
  // verdict should always be reproducible under the exact configuration that
  // produced it, and digesting it keeps an engine regression from hiding
  // behind warm cache hits after an engine switch.
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.interp.engine), hash);
  hash = mj::Fnv1a64Mix(options.default_configs.size(), hash);
  for (const auto& [key, value] : options.default_configs) {
    hash = DigestStringField(key, hash);
    hash = DigestStringField(ValueToString(value), hash);
  }
  hash = mj::Fnv1a64Mix(options.use_planner ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(options.use_oracles ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(options.restore_configs ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.robust.retry.max_attempts), hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.robust.retry.base_backoff_ms), hash);
  hash = DigestDoubleField(options.robust.retry.multiplier, hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.robust.retry.max_backoff_ms), hash);
  hash = DigestDoubleField(options.robust.retry.jitter, hash);
  hash = mj::Fnv1a64Mix(options.robust.retry.jitter_seed, hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.robust.breaker_threshold), hash);
  hash = mj::Fnv1a64Mix(options.robust.chaos.enabled ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(options.robust.chaos.seed, hash);
  hash = DigestDoubleField(options.robust.chaos.rate, hash);
  hash = mj::Fnv1a64Mix(options.robust.chaos.transient ? 1u : 0u, hash);
  hash = DigestDoubleField(options.robust.chaos.budget_fraction, hash);
  hash = DigestDoubleField(options.robust.chaos.env_rate, hash);
  hash = mj::Fnv1a64Mix(options.robust.fail_fast ? 1u : 0u, hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.robust.max_quarantined), hash);
  // The prober changes cached verdict content (classification fields), so its
  // settings are part of the config identity. `record_dir` is deliberately
  // absent: recording is observation only.
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.prober.repetitions), hash);
  hash = mj::Fnv1a64Mix(static_cast<uint64_t>(options.prober.epoch_stride_ms), hash);
  return hash;
}

uint64_t DigestLocationList(const std::vector<RetryLocation>& locations) {
  uint64_t hash = mj::Fnv1a64Mix(locations.size(), mj::kFnvOffsetBasis);
  for (const RetryLocation& location : locations) {
    hash = DigestStringField(location.Key(), hash);
  }
  return hash;
}

// Cache-lookup telemetry: one metrics increment, one cumulative Chrome
// counter-track sample (counter tracks plot running totals, so each site
// keeps its own tally), and one journal cache event per lookup. Every call
// site is serial, so the emission order is deterministic.
struct CacheLookupCounters {
  int64_t hits = 0;
  int64_t misses = 0;
};

void CountCacheLookup(const WasabiOptions& options, const char* ns, bool hit,
                      CacheLookupCounters& counters) {
  const int64_t cumulative = hit ? ++counters.hits : ++counters.misses;
  if (options.metrics != nullptr) {
    options.metrics->Increment(std::string(hit ? "cache.hits." : "cache.misses.") + ns);
  }
  if (options.tracer != nullptr) {
    options.tracer->Counter(hit ? "cache.hits" : "cache.misses", ns, cumulative);
  }
  if (options.journal != nullptr) {
    options.journal->CacheLookup(ns, hit);
  }
}

// --- Flakiness prober + record/replay plumbing (docs/FLAKINESS.md) ----------

// One run's oracle evaluation, shared by the campaign reduce and ReplayRun so
// a replayed verdict is computed by the exact same rule (including the §4.4
// naive ablation when oracles are off).
std::vector<OracleReport> EvaluateRunReports(const TestRunRecord& record,
                                             const RetryLocation& location,
                                             const OracleOptions& oracles, bool use_oracles) {
  if (use_oracles) {
    return EvaluateOracles(record, location, oracles);
  }
  std::vector<OracleReport> reports;
  if (record.outcome.status != TestStatus::kPassed) {
    OracleReport report;
    report.kind = OracleKind::kDifferentException;
    report.test = record.test.qualified_name;
    report.location = location;
    report.detail = "test failed: " + std::string(TestStatusName(record.outcome.status)) + " " +
                    record.outcome.exception_class;
    report.group_key = "naive|" + location.Key() + "|" + record.outcome.exception_class;
    reports.push_back(std::move(report));
  }
  return reports;
}

// The verdict line a record carries: "clean", or the deduped report count
// plus the FNV digest of the canonical oracle signature. Replay recomputes it
// independently, so equality proves the verdict reproduced.
std::string RunVerdictText(size_t deduped_count, const std::string& signature) {
  if (deduped_count == 0) {
    return "clean";
  }
  return "reports=" + std::to_string(deduped_count) +
         " sig=" + mj::DigestHex(mj::Fnv1a64(signature));
}

// An admission skip (fail-fast, quarantine quota, circuit open) depends on
// every other run's fate, so it is not re-executable in isolation. The
// executor journals it as a quarantine whose detail is "<kind>: skipped: ...".
bool IsAdmissionSkipped(const RecordedRun& run) {
  const std::string prefix =
      std::string(RunFailureKindName(RunFailureKind::kHostException)) + ": skipped:";
  for (const JournalEvent& event : run.events) {
    if (event.kind == JournalEventKind::kQuarantine && event.detail.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

// First event pair (or count mismatch) where two records diverge.
std::string FirstDivergence(const RecordedRun& recorded, const RecordedRun& replayed) {
  const size_t common = std::min(recorded.events.size(), replayed.events.size());
  for (size_t i = 0; i < common; ++i) {
    if (recorded.events[i] != replayed.events[i]) {
      return "event " + std::to_string(i) + ": recorded " +
             EncodeJournalEvent(recorded.events[i]) + " vs replayed " +
             EncodeJournalEvent(replayed.events[i]);
    }
  }
  if (recorded.events.size() != replayed.events.size()) {
    return "event count: recorded " + std::to_string(recorded.events.size()) +
           " vs replayed " + std::to_string(replayed.events.size());
  }
  return "header fields differ";
}

// The injectable retry locations, deduplicated across structures in
// identification order; `owners`, when non-null, receives each location's
// structure index.
std::vector<RetryLocation> InjectableLocations(const IdentificationResult& identification,
                                               std::vector<size_t>* owners = nullptr) {
  std::unordered_set<std::string> seen;
  std::vector<RetryLocation> locations;
  for (size_t s = 0; s < identification.structures.size(); ++s) {
    for (const RetryLocation& location : identification.structures[s].locations) {
      if (seen.insert(location.Key()).second) {
        locations.push_back(location);
        if (owners != nullptr) {
          owners->push_back(s);
        }
      }
    }
  }
  return locations;
}

}  // namespace

Wasabi::Wasabi(const mj::Program& program, const mj::ProgramIndex& index, WasabiOptions options)
    : program_(program), index_(index), options_(std::move(options)) {}

const ProgramDigest& Wasabi::GetProgramDigest() {
  std::lock_guard<std::mutex> lock(digest_mutex_);
  if (!program_digest_memo_.has_value()) {
    program_digest_memo_ = DigestProgram(program_);
  }
  return *program_digest_memo_;
}

RunnerOptions Wasabi::CampaignRunnerOptions(size_t* restrictions_restored) const {
  // Test preparation (§3.1.4): defaults + restoration of restricted configs.
  RunnerOptions runner_options;
  runner_options.interp = options_.interp;
  runner_options.config_overrides = options_.default_configs;
  if (options_.restore_configs) {
    ConfigRestorationResult restoration = ScanTestsForRetryRestrictions(program_);
    runner_options.frozen_keys = restoration.keys_to_freeze;
    if (restrictions_restored != nullptr) {
      *restrictions_restored = restoration.restrictions.size();
    }
  }
  return runner_options;
}

std::vector<BugReport> CollateStaticWithDynamic(const std::vector<BugReport>& static_bugs,
                                                const DynamicResult& dynamic) {
  // Coordinators whose locations were actually exercised by some unit test.
  std::unordered_set<size_t> covered_indices;
  for (const auto& [test, hits] : dynamic.coverage) {
    covered_indices.insert(hits.begin(), hits.end());
  }
  std::unordered_set<std::string> exercised_coordinators;
  for (size_t index : covered_indices) {
    if (index < dynamic.locations.size()) {
      exercised_coordinators.insert(dynamic.locations[index].coordinator);
    }
  }
  std::unordered_set<std::string> dynamic_keys;
  for (const BugReport& bug : dynamic.bugs) {
    dynamic_keys.insert(bug.MatchKey());
  }

  std::vector<BugReport> kept;
  for (const BugReport& bug : static_bugs) {
    bool exercised = exercised_coordinators.count(bug.coordinator) > 0;
    bool confirmed = dynamic_keys.count(bug.MatchKey()) > 0;
    if (exercised && !confirmed) {
      continue;  // Injection ran against this retry and disagreed.
    }
    kept.push_back(bug);
  }
  return kept;
}

IdentificationResult Wasabi::IdentifyRetryStructures() {
  std::lock_guard<std::mutex> lock(identification_mutex_);
  if (identification_memo_.has_value()) {
    return *identification_memo_;  // Front-loaded: analyze once per instance.
  }
  // Spans only on the memo miss: repeated campaigns reuse the memo and the
  // trace shows the analysis cost exactly once, where it was actually paid.
  ScopedSpan span(options_.tracer, "identify.analysis");
  span.AddArg("app", options_.app_name);
  IdentificationResult result;
  RetryFinder finder(program_, index_, options_.finder);

  // Technique 1: CodeQL-style loop analysis.
  std::vector<RetryStructure> structures = finder.FindLoopStructures();
  result.candidate_loops_without_keyword_filter = finder.FindCandidateLoops().size();

  // Index CodeQL structures by (file, coordinator) for merging.
  std::unordered_map<std::string, std::vector<size_t>> by_coordinator;
  for (size_t i = 0; i < structures.size(); ++i) {
    by_coordinator[structures[i].file + "|" + structures[i].coordinator].push_back(i);
  }

  // Technique 2: SimLLM, one file at a time. Only application source is fed
  // to the model (the paper analyzes the code base, not the test harness).
  // With a cache attached, per-file findings are memoized under
  // (llm-config digest, file content digest); the merge below runs either way.
  SimLlm llm(options_.llm);
  CacheStore* cache = options_.cache;
  const ProgramDigest* program_digest = cache != nullptr ? &GetProgramDigest() : nullptr;
  const std::string llm_prefix =
      cache != nullptr ? mj::DigestHex(DigestLlmConfig(options_.llm)) + "|" : std::string();
  LlmUsage cached_usage;
  CacheLookupCounters identify_lookups;
  for (size_t u = 0; u < program_.units().size(); ++u) {
    const auto& unit = program_.units()[u];
    if (IsTestPath(unit->file().name())) {
      continue;
    }
    LlmFileFindings findings;
    std::string entry_key;
    bool hit = false;
    if (cache != nullptr) {
      entry_key = llm_prefix + mj::DigestHex(program_digest->files[u].digest);
      std::optional<std::string> entry = cache->Get(kCacheNsIdentify, entry_key);
      LlmUsage delta;
      hit = entry.has_value() &&
            DecodeIdentifyEntry(*entry, index_, unit->file().name(), &findings, &delta);
      if (hit) {
        cached_usage.calls += delta.calls;
        cached_usage.bytes_sent += delta.bytes_sent;
        cached_usage.prompt_tokens += delta.prompt_tokens;
      }
      CountCacheLookup(options_, kCacheNsIdentify, hit, identify_lookups);
    }
    if (!hit) {
      LlmUsage before = llm.usage();
      findings = llm.AnalyzeFile(*unit);
      if (cache != nullptr) {
        LlmUsage delta{llm.usage().calls - before.calls, llm.usage().bytes_sent - before.bytes_sent,
                       llm.usage().prompt_tokens - before.prompt_tokens};
        cache->Put(kCacheNsIdentify, entry_key, EncodeIdentifyEntry(findings, delta));
      }
    }
    if (findings.truncated_by_attention) {
      ++result.files_truncated_by_llm;
    }
    for (const LlmCoordinator& coordinator : findings.coordinators) {
      std::string key = findings.file + "|" + coordinator.qualified_name;
      auto it = by_coordinator.find(key);
      if (it != by_coordinator.end()) {
        for (size_t index : it->second) {
          structures[index].found_by.llm = true;
        }
        // Both techniques emit triplets (§3.1.1); union the LLM's broader
        // "every invoked method" triplets into the structure so exceptions the
        // loop analysis cannot prove retriable still get injected (the oracles
        // absorb the over-approximation).
        if (coordinator.method != nullptr && !it->second.empty()) {
          RetryStructure& target = structures[it->second.front()];
          std::unordered_set<std::string> known;
          for (const RetryLocation& location : target.locations) {
            known.insert(location.Key());
          }
          for (RetryLocation& location :
               finder.TripletsForCoordinator(*coordinator.method, target.mechanism)) {
            if (known.insert(location.Key()).second) {
              target.locations.push_back(std::move(location));
            }
          }
        }
        continue;
      }
      // New structure only the LLM sees (non-loop retry, or loops the keyword
      // filter missed). The follow-up CodeQL query provides the triplets.
      RetryStructure structure;
      structure.file = findings.file;
      structure.coordinator = coordinator.qualified_name;
      structure.coordinator_decl = coordinator.method;
      structure.mechanism = coordinator.mechanism;
      structure.anchor = nullptr;
      structure.location = coordinator.method != nullptr ? coordinator.method->location
                                                         : mj::SourceLocation{};
      structure.found_by.llm = true;
      if (coordinator.method != nullptr) {
        structure.locations =
            finder.TripletsForCoordinator(*coordinator.method, coordinator.mechanism);
      }
      by_coordinator[key].push_back(structures.size());
      structures.push_back(std::move(structure));
    }
  }

  result.structures = std::move(structures);
  // Usage counters are additive, so live calls plus replayed per-file deltas
  // reproduce the cache-off totals exactly.
  result.llm_usage = llm.usage();
  result.llm_usage.calls += cached_usage.calls;
  result.llm_usage.bytes_sent += cached_usage.bytes_sent;
  result.llm_usage.prompt_tokens += cached_usage.prompt_tokens;
  identification_memo_ = std::move(result);
  return *identification_memo_;
}

std::vector<BugReport> Wasabi::ToBugReports(const std::vector<OracleReport>& reports) const {
  std::vector<BugReport> bugs;
  bugs.reserve(reports.size());
  for (const OracleReport& report : reports) {
    BugReport bug;
    switch (report.kind) {
      case OracleKind::kMissingCap:
        bug.type = BugType::kWhenMissingCap;
        break;
      case OracleKind::kMissingDelay:
        bug.type = BugType::kWhenMissingDelay;
        break;
      case OracleKind::kDifferentException:
        bug.type = BugType::kHow;
        break;
    }
    bug.technique = DetectionTechnique::kUnitTesting;
    bug.app = options_.app_name;
    bug.file = report.location.file;
    bug.coordinator = report.location.coordinator;
    bug.detail = report.detail + " [test " + report.test + "]";
    bug.group_key = report.group_key;
    bug.location = report.location.location;
    bug.probed = report.probed;
    bug.stability = report.stability;
    bug.flaky_cause = report.flaky_cause;
    bugs.push_back(std::move(bug));
  }
  return bugs;
}

DynamicResult Wasabi::RunDynamicWorkflow() {
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  DynamicResult result;
  ScopedSpan workflow_span(options_.tracer, "workflow.dynamic");
  workflow_span.AddArg("app", options_.app_name);

  Clock::time_point phase_start = Clock::now();
  IdentificationResult identification;
  {
    ScopedSpan span(options_.tracer, "phase.identify");
    identification = IdentifyRetryStructures();
  }
  result.identification_seconds = seconds_since(phase_start);
  result.structures_identified = identification.structures.size();

  std::vector<size_t> location_to_structure;
  result.locations = InjectableLocations(identification, &location_to_structure);
  TestRunner runner(program_, index_, CampaignRunnerOptions(&result.config_restrictions_restored));

  std::vector<TestCase> tests = runner.DiscoverTests();
  result.total_tests = tests.size();

  // Worker pool shared by the coverage pass, the injection campaign, and the
  // prober. Each worker runs on its own warm interpreter from `runner`, reset
  // to fresh-run state per run over the shared immutable Program/index, so
  // the only cross-run state is read-only.
  TaskPool pool(options_.jobs);
  result.jobs_used = pool.worker_count();
  CampaignObs obs{options_.tracer, options_.metrics, options_.progress, options_.journal};
  // Record mode writes each run's slice of the campaign journal: the
  // caller's, or a private one when none is attached.
  const bool recording = !options_.record_dir.empty();
  std::optional<RetryJournal> record_journal;
  CampaignObs campaign_obs = obs;
  if (recording && campaign_obs.journal == nullptr) {
    campaign_obs.journal = &record_journal.emplace();
  }

  // The workflow's memo: one all-or-nothing entry per (program, dynamic
  // config, location list) holding everything the phases below produce. A
  // journaled or recording run never reads it (a restored run executes
  // nothing to journal) but still writes it.
  std::string cache_key;
  bool warm = false;
  if (options_.cache != nullptr) {
    cache_key = mj::DigestHex(GetProgramDigest().digest) + "|" +
                mj::DigestHex(DigestDynamicConfig(options_)) + "|" +
                mj::DigestHex(DigestLocationList(result.locations));
    if (campaign_obs.journal == nullptr) {
      std::optional<std::string> entry = options_.cache->Get(kCacheNsDynamic, cache_key);
      warm = entry.has_value() && DecodeDynamicEntry(*entry, &result);
      CacheLookupCounters lookups;
      CountCacheLookup(options_, kCacheNsDynamic, warm, lookups);
    }
  }

  // Coverage discovery run (one run of every test).
  phase_start = Clock::now();
  if (!warm) {
    ScopedSpan span(options_.tracer, "phase.coverage");
    span.AddArg("tests", static_cast<int64_t>(tests.size()));
    if (options_.progress != nullptr) {
      options_.progress->Begin("coverage", tests.size());
    }
    CoverageOutcome coverage_outcome =
        MapCoverageRobust(runner, tests, result.locations, pool, options_.robust, obs);
    result.coverage = std::move(coverage_outcome.coverage);
    result.quarantined = std::move(coverage_outcome.quarantined);
    result.robustness.MergeFrom(coverage_outcome.robustness);
    if (options_.progress != nullptr) {
      options_.progress->Finish();
    }
  }
  result.coverage_seconds = seconds_since(phase_start);
  result.tests_covering_retry = result.coverage.size();

  // Structures covered: at least one of their locations fired in some test.
  std::unordered_set<size_t> covered_locations;
  for (const auto& [test, hit_indices] : result.coverage) {
    covered_locations.insert(hit_indices.begin(), hit_indices.end());
  }
  std::unordered_set<size_t> covered_structures;
  for (size_t index : covered_locations) {
    covered_structures.insert(location_to_structure[index]);
  }
  result.structures_covered = covered_structures.size();

  // Plan and execute injections; two K settings per planned pair (§3.1.2).
  std::vector<CampaignRunSpec> specs;
  {
    ScopedSpan span(options_.tracer, "phase.plan");
    std::vector<PlanEntry> plan = options_.use_planner
                                      ? PlanInjections(result.coverage, result.locations.size())
                                      : NaivePlan(result.coverage);
    result.naive_runs = NaivePlan(result.coverage).size() * 2;
    result.planned_runs = plan.size() * 2;
    specs = ExpandPlan(plan, result.locations, {kInjectOnce, kInjectRepeatedly});
    span.AddArg("planned_runs", static_cast<int64_t>(result.planned_runs));
    span.AddArg("naive_runs", static_cast<int64_t>(result.naive_runs));
  }
  if (options_.metrics != nullptr) {
    options_.metrics->SetGauge("plan.planned_runs", static_cast<double>(result.planned_runs));
    options_.metrics->SetGauge("plan.naive_runs", static_cast<double>(result.naive_runs));
    options_.metrics->SetGauge("identify.structures", static_cast<double>(
                                                          result.structures_identified));
    options_.metrics->SetGauge("identify.locations", static_cast<double>(
                                                         result.locations.size()));
  }

  // Fan the campaign out over the pool; evaluate oracles serially over the
  // id-ordered results, which is exactly the order the serial loop produced
  // (plan-entry-major, K-minor) — worker scheduling cannot change the output.
  phase_start = Clock::now();
  if (!warm) {
    std::vector<CampaignRunResult> campaign;
    {
      ScopedSpan span(options_.tracer, "phase.campaign");
      span.AddArg("runs", static_cast<int64_t>(specs.size()));
      span.AddArg("jobs", static_cast<int64_t>(result.jobs_used));
      if (options_.progress != nullptr) {
        options_.progress->Begin("campaign", specs.size());
      }
      CampaignOutcome campaign_outcome =
          ExecuteCampaignRobust(runner, result.locations, specs, pool, options_.robust,
                                campaign_obs);
      campaign = std::move(campaign_outcome.results);
      result.quarantined.insert(result.quarantined.end(),
                                campaign_outcome.quarantined.begin(),
                                campaign_outcome.quarantined.end());
      result.robustness.MergeFrom(campaign_outcome.robustness);
      if (options_.progress != nullptr) {
        options_.progress->Finish();
      }
    }

    // Oracle evaluation, serial in id order. Reports are kept per run (not
    // immediately flattened) so the prober and the record verdicts can consume
    // each failing run's verdict individually.
    std::vector<std::vector<OracleReport>> run_reports(specs.size());
    std::vector<char> run_completed(specs.size(), 0);
    std::vector<std::string> run_signatures(specs.size());   // Deduped, canonical.
    std::vector<size_t> run_deduped_counts(specs.size(), 0);
    std::optional<ScopedSpan> oracle_span(std::in_place, options_.tracer, "phase.oracles");
    for (const CampaignRunResult& run : campaign) {
      const RetryLocation& location = result.locations[run.location_index];
      run_completed[run.id] = 1;
      run_reports[run.id] =
          EvaluateRunReports(run.record, location, options_.oracles, options_.use_oracles);
      std::vector<OracleReport> deduped = DeduplicateReports(run_reports[run.id]);
      run_signatures[run.id] = OracleSignature(deduped);
      run_deduped_counts[run.id] = deduped.size();
    }
    oracle_span.reset();

    // Flakiness prober (docs/FLAKINESS.md): classify every failing verdict by
    // re-executing it under virtual-clock perturbation on the campaign
    // runner's warm interpreters, then let SimLLM judge a root cause for the
    // non-stable classes.
    if (options_.prober.enabled() && options_.use_oracles) {
      std::vector<ProbeRequest> requests;
      for (size_t i = 0; i < specs.size(); ++i) {
        if (run_reports[i].empty()) {
          continue;
        }
        ProbeRequest request;
        request.run_id = specs[i].id;
        request.baseline_signature = run_signatures[i];
        requests.push_back(std::move(request));
      }
      if (!requests.empty()) {
        ScopedSpan span(options_.tracer, "phase.probe");
        span.AddArg("failing_runs", static_cast<int64_t>(requests.size()));
        span.AddArg("repetitions", static_cast<int64_t>(options_.prober.repetitions));
        if (options_.progress != nullptr) {
          options_.progress->Begin("probe", requests.size());
        }
        std::vector<ProbeResult> probe_results =
            ProbeFailingRuns(runner, result.locations, specs, requests, options_.robust.chaos,
                             options_.oracles, options_.prober, pool, obs);
        if (options_.progress != nullptr) {
          options_.progress->Finish();
        }
        SimLlm flaky_llm(options_.llm);
        std::unordered_map<std::string, const mj::CompilationUnit*> unit_by_file;
        for (const auto& unit : program_.units()) {
          unit_by_file[unit->file().name()] = unit.get();
        }
        // Cause judgments are per (file, coordinator); memoized so one flaky
        // structure reported by many runs is judged once.
        std::unordered_map<std::string, std::string> cause_memo;
        for (const ProbeResult& probe : probe_results) {
          ++result.probed_runs;
          if (probe.probe_failed) {
            ++result.probe_failures;
          }
          switch (probe.stability) {
            case VerdictStability::kStable:
              ++result.stable_runs;
              break;
            case VerdictStability::kFlaky:
              ++result.flaky_runs;
              break;
            case VerdictStability::kChaosInduced:
              ++result.chaos_induced_runs;
              break;
          }
          for (OracleReport& report : run_reports[probe.run_id]) {
            report.probed = true;
            report.stability = probe.stability;
            if (probe.stability == VerdictStability::kStable) {
              continue;
            }
            const std::string key = report.location.file + "|" + report.location.coordinator;
            auto [it, inserted] = cause_memo.try_emplace(key);
            if (inserted) {
              auto unit_it = unit_by_file.find(report.location.file);
              if (unit_it != unit_by_file.end()) {
                it->second = flaky_llm
                                 .JudgeFlakinessCause(
                                     *unit_it->second,
                                     index_.FindQualified(report.location.coordinator))
                                 .cause;
              }
            }
            report.flaky_cause = it->second;
          }
        }
      }
    }

    // Record mode: each run's journal slice plus its verdict (an
    // oracle-phase fact the executor could not know).
    if (recording) {
      RecordManifest manifest;
      manifest.program_digest = mj::DigestHex(GetProgramDigest().digest);
      manifest.config_digest = mj::DigestHex(DigestDynamicConfig(options_));
      std::vector<RecordedRun> recorded_runs(specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        RecordedRun& run = recorded_runs[i];
        run.run_id = static_cast<int64_t>(specs[i].id);
        run.test = specs[i].test.qualified_name;
        run.location_key = result.locations[specs[i].location_index].Key();
        run.k = specs[i].k;
        run.degraded_env = ChaosDegradedEnvironment(options_.robust.chaos, specs[i].id);
        run.verdict = run_completed[i] ? RunVerdictText(run_deduped_counts[i], run_signatures[i])
                                       : "quarantined";
        manifest.runs.push_back(
            RecordManifest::Entry{run.run_id, run.test, run.location_key, run.k});
      }
      // Collect() sorts by (stream, run, seq), so every slice arrives whole
      // and in order; spec ids are the positions 0..n-1.
      for (JournalEvent& event : campaign_obs.journal->Collect()) {
        if (event.stream == JournalStream::kCampaign && event.run_id < recorded_runs.size()) {
          recorded_runs[event.run_id].events.push_back(std::move(event));
        }
      }
      std::string record_write_error;
      if (!WriteRecordDir(options_.record_dir, manifest, recorded_runs,
                          &record_write_error)) {
        result.record_error = record_write_error;
      }
    }

    // Assemble the flat, id-ordered report list, then memoize the workflow.
    for (std::vector<OracleReport>& reports : run_reports) {
      result.raw_reports.insert(result.raw_reports.end(),
                                std::make_move_iterator(reports.begin()),
                                std::make_move_iterator(reports.end()));
    }
    if (options_.cache != nullptr) {
      options_.cache->Put(kCacheNsDynamic, cache_key, EncodeDynamicEntry(result));
    }
  }
  result.degraded = !result.quarantined.empty();

  result.injection_seconds = seconds_since(phase_start);

  if (options_.metrics != nullptr) {
    options_.metrics->Increment("oracles.reports_total",
                                static_cast<int64_t>(result.raw_reports.size()));
    ExportPoolMetrics(*options_.metrics, pool, result.jobs_used,
                      result.coverage_seconds + result.injection_seconds);
  }

  // Derived retry analytics (docs/OBSERVABILITY.md "Retry analytics"): the
  // collected journal — merged and (stream, run, seq)-sorted, so identical at
  // any worker count — feeds amplification / goodput / time-to-recover /
  // latency-quantile stats into the metrics registry and trace counter tracks.
  if (options_.journal != nullptr) {
    ExportRetryStats(ComputeRetryStats(options_.journal->Collect()), options_.metrics,
                     options_.tracer);
  }

  result.bugs = DeduplicateBugs(ToBugReports(DeduplicateReports(result.raw_reports)));
  return result;
}

ReplayOutcome Wasabi::ReplayRun(const std::string& record_dir, uint64_t run_id) {
  ReplayOutcome outcome;
  ScopedSpan span(options_.tracer, "replay.run");
  span.AddArg("run_id", static_cast<int64_t>(run_id));

  // Load + validate: version/checksum (inside the loaders), then that the
  // record was taken from this exact program and configuration.
  RecordManifest manifest;
  if (!LoadRecordManifest(record_dir, &manifest, &outcome.error)) {
    return outcome;
  }
  if (manifest.program_digest != mj::DigestHex(GetProgramDigest().digest)) {
    outcome.error = "program digest mismatch: record " + manifest.program_digest +
                    " vs current " + mj::DigestHex(GetProgramDigest().digest);
    return outcome;
  }
  if (manifest.config_digest != mj::DigestHex(DigestDynamicConfig(options_))) {
    outcome.error = "config digest mismatch: record " + manifest.config_digest +
                    " vs current " + mj::DigestHex(DigestDynamicConfig(options_));
    return outcome;
  }
  const RecordManifest::Entry* entry = nullptr;
  for (const RecordManifest::Entry& candidate : manifest.runs) {
    if (candidate.run_id == static_cast<int64_t>(run_id)) {
      entry = &candidate;
      break;
    }
  }
  if (entry == nullptr) {
    outcome.error = "run " + std::to_string(run_id) + " not in record manifest";
    return outcome;
  }
  if (!LoadRecordedRun(record_dir, entry->run_id, &outcome.recorded, &outcome.error)) {
    return outcome;
  }
  outcome.ok = true;
  const RecordedRun& recorded = outcome.recorded;
  outcome.recorded_verdict = recorded.verdict;

  // Admission skips (fail-fast, quarantine quota, open circuit) depend on the
  // fate of every other campaign run; the recorded verdict stands.
  if (IsAdmissionSkipped(recorded)) {
    outcome.replayed_verdict = outcome.recorded_verdict;
    outcome.stream_identical = true;
    outcome.verdict_identical = true;
    return outcome;
  }
  outcome.executed = true;

  // The same location list the dynamic workflow builds (the identification
  // memo makes this cheap after the recording run).
  std::vector<RetryLocation> locations = InjectableLocations(IdentifyRetryStructures());
  auto location = std::find_if(locations.begin(), locations.end(), [&](const RetryLocation& l) {
    return l.Key() == recorded.location_key;
  });
  if (location == locations.end()) {
    outcome.ok = false;
    outcome.executed = false;
    outcome.error = "recorded location not identified: " + recorded.location_key;
    return outcome;
  }

  // Re-execute the recorded spec as a one-run campaign on a one-worker pool,
  // journaled privately. Chaos draws, backoff draws, the degraded-environment
  // flag, and injector decisions are all pure functions of (run_id, attempt),
  // so the slice reproduces without any campaign context. The breaker is
  // isolated: it sees only this run's failures, which matches the campaign
  // whenever this run alone fed its location's circuit; genuine cross-run
  // breaker interaction surfaces as an honest divergence.
  TestRunner runner(program_, index_, CampaignRunnerOptions());
  CampaignRunSpec spec;
  spec.id = run_id;
  spec.test.qualified_name = recorded.test;
  spec.k = recorded.k;
  RetryJournal journal;
  TaskPool pool(1);
  CampaignOutcome campaign =
      ExecuteCampaignRobust(runner, {*location}, {spec}, pool, options_.robust,
                            CampaignObs{options_.tracer, options_.metrics, nullptr, &journal});

  RecordedRun& replayed = outcome.replayed;
  replayed = recorded;  // Same run identity by construction.
  replayed.degraded_env = ChaosDegradedEnvironment(options_.robust.chaos, run_id);
  replayed.verdict = "quarantined";
  if (!campaign.results.empty()) {
    std::vector<OracleReport> deduped = DeduplicateReports(EvaluateRunReports(
        campaign.results.front().record, *location, options_.oracles, options_.use_oracles));
    replayed.verdict = RunVerdictText(deduped.size(), OracleSignature(deduped));
  }
  replayed.events = journal.Collect();
  outcome.replayed_verdict = replayed.verdict;
  outcome.stream_identical = replayed == recorded;
  outcome.verdict_identical = outcome.replayed_verdict == outcome.recorded_verdict;
  if (!outcome.stream_identical) {
    outcome.divergence = FirstDivergence(recorded, replayed);
  }
  return outcome;
}

StaticResult Wasabi::RunStaticWorkflow() {
  StaticResult result;
  ScopedSpan workflow_span(options_.tracer, "workflow.static");
  workflow_span.AddArg("app", options_.app_name);

  // --- WHEN bugs via the LLM prompts (§3.2.1) ---------------------------------
  // With a cache attached, a file's AnalyzeFile + JudgeWhen answers (and the
  // usage they charged) are memoized together under the file content digest.
  std::optional<ScopedSpan> when_span(std::in_place, options_.tracer, "phase.static.when");
  SimLlm llm(options_.llm);
  CacheStore* cache = options_.cache;
  const ProgramDigest* program_digest = cache != nullptr ? &GetProgramDigest() : nullptr;
  const std::string llm_prefix =
      cache != nullptr ? mj::DigestHex(DigestLlmConfig(options_.llm)) + "|" : std::string();
  LlmUsage cached_usage;
  CacheLookupCounters when_lookups;
  for (size_t u = 0; u < program_.units().size(); ++u) {
    const auto& unit = program_.units()[u];
    if (IsTestPath(unit->file().name())) {
      continue;
    }
    const std::string file = unit->file().name();
    std::vector<CachedWhenJudgment> judgments;
    std::string entry_key;
    bool hit = false;
    if (cache != nullptr) {
      entry_key = llm_prefix + mj::DigestHex(program_digest->files[u].digest);
      std::optional<std::string> entry = cache->Get(kCacheNsWhen, entry_key);
      LlmUsage delta;
      hit = entry.has_value() && DecodeWhenEntry(*entry, index_, &judgments, &delta);
      if (hit) {
        cached_usage.calls += delta.calls;
        cached_usage.bytes_sent += delta.bytes_sent;
        cached_usage.prompt_tokens += delta.prompt_tokens;
      }
      CountCacheLookup(options_, kCacheNsWhen, hit, when_lookups);
    }
    if (!hit) {
      LlmUsage before = llm.usage();
      LlmFileFindings findings = llm.AnalyzeFile(*unit);
      for (const LlmCoordinator& coordinator : findings.coordinators) {
        LlmWhenJudgment judgment = llm.JudgeWhen(*unit, coordinator);
        judgments.push_back(CachedWhenJudgment{coordinator.qualified_name, coordinator.method,
                                               judgment.sleeps_before_retry, judgment.has_cap,
                                               judgment.poll_or_spin});
      }
      if (cache != nullptr) {
        LlmUsage delta{llm.usage().calls - before.calls, llm.usage().bytes_sent - before.bytes_sent,
                       llm.usage().prompt_tokens - before.prompt_tokens};
        cache->Put(kCacheNsWhen, entry_key, EncodeWhenEntry(judgments, delta));
      }
    }
    for (const CachedWhenJudgment& judgment : judgments) {
      if (judgment.poll_or_spin) {
        continue;  // Q4 exclusion.
      }
      auto make_bug = [&](BugType type, const std::string& detail) {
        BugReport bug;
        bug.type = type;
        bug.technique = DetectionTechnique::kLlmStatic;
        bug.app = options_.app_name;
        bug.file = file;
        bug.coordinator = judgment.qualified_name;
        bug.detail = detail;
        bug.group_key =
            std::string(BugTypeName(type)) + "|" + file + "|" + judgment.qualified_name;
        bug.location = judgment.method != nullptr ? judgment.method->location
                                                  : mj::SourceLocation{};
        result.when_bugs.push_back(std::move(bug));
      };
      if (!judgment.has_cap) {
        make_bug(BugType::kWhenMissingCap,
                 "LLM: no cap or time limit on retry (Q3 answered No)");
      }
      if (!judgment.sleeps_before_retry) {
        make_bug(BugType::kWhenMissingDelay,
                 "LLM: no sleep before retrying (Q2 answered No)");
      }
    }
  }
  result.when_bugs = DeduplicateBugs(std::move(result.when_bugs));
  result.llm_usage = llm.usage();
  result.llm_usage.calls += cached_usage.calls;
  result.llm_usage.bytes_sent += cached_usage.bytes_sent;
  result.llm_usage.prompt_tokens += cached_usage.prompt_tokens;
  when_span.reset();

  // --- IF bugs via retry ratios (§3.2.2) ----------------------------------------
  ScopedSpan if_span(options_.tracer, "phase.static.if");
  IfOutlierAnalysis analysis(program_, index_, options_.if_outliers);
  result.if_outliers = analysis.FindOutliers();
  for (const IfOutlierReport& outlier : result.if_outliers) {
    for (const CatchSite& site : outlier.outlier_sites) {
      BugReport bug;
      bug.type = BugType::kIfOutlier;
      bug.technique = DetectionTechnique::kCodeQlStatic;
      bug.app = options_.app_name;
      bug.file = site.file;
      bug.coordinator = site.coordinator;
      bug.exception = outlier.exception;
      bug.detail = outlier.exception + " retried in " + std::to_string(outlier.retried) + "/" +
                   std::to_string(outlier.caught_in_retry_loops) +
                   " retry loops; this site is the outlier (" +
                   (site.retried ? "retried" : "not retried") + ")";
      bug.group_key = "if|" + outlier.exception + "|" + site.file + "|" + site.coordinator;
      bug.location = site.location;
      result.if_bugs.push_back(std::move(bug));
    }
  }
  result.if_bugs = DeduplicateBugs(std::move(result.if_bugs));
  if (options_.metrics != nullptr) {
    options_.metrics->SetGauge("static.when_reports", static_cast<double>(result.when_bugs.size()));
    options_.metrics->SetGauge("static.if_reports", static_cast<double>(result.if_bugs.size()));
  }
  return result;
}

}  // namespace wasabi
