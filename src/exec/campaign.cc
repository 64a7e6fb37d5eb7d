#include "src/exec/campaign.h"

#include <algorithm>
#include <set>

namespace wasabi {

std::vector<CampaignRunSpec> ExpandPlan(const std::vector<PlanEntry>& plan,
                                        const std::vector<RetryLocation>& locations,
                                        const std::vector<int>& k_values) {
  std::vector<CampaignRunSpec> specs;
  specs.reserve(plan.size() * k_values.size());
  for (const PlanEntry& entry : plan) {
    if (entry.location_index >= locations.size()) {
      continue;  // Defensive: the planner never emits these.
    }
    for (int k : k_values) {
      CampaignRunSpec spec;
      spec.id = specs.size();
      spec.test = TestCase{entry.test};
      spec.location_index = entry.location_index;
      spec.k = k;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

std::vector<CampaignRunResult> ExecuteCampaign(const TestRunner& runner,
                                               const std::vector<RetryLocation>& locations,
                                               const std::vector<CampaignRunSpec>& specs,
                                               TaskPool& pool, const CampaignObs& obs) {
  std::vector<CampaignRunResult> results(specs.size());
  pool.ParallelFor(specs.size(), [&](size_t i) {
    const CampaignRunSpec& spec = specs[i];
    const RetryLocation& location = locations[spec.location_index];
    ScopedSpan span(obs.tracer, "run");
    span.AddArg("run_id", static_cast<int64_t>(spec.id));
    span.AddArg("test", spec.test.qualified_name);
    span.AddArg("location", location.Key());
    span.AddArg("k", static_cast<int64_t>(spec.k));
    // Per-run injector: counts and log entries are private to this run; only
    // the commutative metric counters land in the shared (locked) registry.
    FaultInjector injector({InjectionPoint{location.retried_method, location.coordinator,
                                           location.exception_name, spec.k}},
                           obs.metrics);
    CampaignRunResult& result = results[i];
    result.id = spec.id;
    result.location_index = spec.location_index;
    result.k = spec.k;
    result.record = runner.RunTest(spec.test, {&injector});
    if (obs.progress != nullptr) {
      obs.progress->Tick();
    }
  });
  // Slot i already holds run id i, but sort anyway so the invariant "reducer
  // output is id-ordered" survives any future scheduling change.
  std::sort(results.begin(), results.end(),
            [](const CampaignRunResult& a, const CampaignRunResult& b) { return a.id < b.id; });
  // Per-run telemetry, aggregated at reduce time — serial, id-ordered, and
  // therefore identical for every worker count.
  if (obs.metrics != nullptr) {
    obs.metrics->Increment("campaign.runs_total", static_cast<int64_t>(results.size()));
    for (const CampaignRunResult& result : results) {
      obs.metrics->Observe("runner.steps", static_cast<double>(result.record.steps));
      obs.metrics->Observe("runner.loop_iterations",
                           static_cast<double>(result.record.loop_iterations));
      obs.metrics->Observe("runner.virtual_ms",
                           static_cast<double>(result.record.virtual_duration_ms));
    }
  }
  return results;
}

CoverageMap MapCoverageParallel(const TestRunner& runner, const std::vector<TestCase>& tests,
                                const std::vector<RetryLocation>& locations, TaskPool& pool,
                                const CampaignObs& obs) {
  std::vector<std::vector<size_t>> hits(tests.size());
  pool.ParallelFor(tests.size(), [&](size_t i) {
    ScopedSpan span(obs.tracer, "coverage.run");
    span.AddArg("test", tests[i].qualified_name);
    CoverageRecorder recorder(&locations);
    runner.RunTest(tests[i], {&recorder});
    hits[i] = recorder.hits();
    if (obs.progress != nullptr) {
      obs.progress->Tick();
    }
  });
  CoverageMap coverage;
  // Cumulative coverage over runs (discovery order) is the §4.3 "how fast do
  // tests reach new retry code" signal: a metrics series plus a Chrome
  // counter track. Emitted at reduce time, so the values are deterministic
  // even though the counter-track timestamps are reduce-side.
  std::set<size_t> cumulative;
  for (size_t i = 0; i < tests.size(); ++i) {
    cumulative.insert(hits[i].begin(), hits[i].end());
    if (obs.metrics != nullptr) {
      obs.metrics->AppendSeries("coverage.cumulative_locations",
                                static_cast<double>(cumulative.size()));
    }
    if (obs.tracer != nullptr) {
      obs.tracer->Counter("coverage.cumulative_locations", "locations",
                          static_cast<int64_t>(cumulative.size()));
    }
    if (!hits[i].empty()) {
      coverage[tests[i].qualified_name] = std::move(hits[i]);
    }
  }
  if (obs.metrics != nullptr) {
    obs.metrics->Increment("coverage.runs_total", static_cast<int64_t>(tests.size()));
    obs.metrics->SetGauge("coverage.locations_covered", static_cast<double>(cumulative.size()));
  }
  return coverage;
}

ExecutionLog MergeCampaignLogs(const std::vector<CampaignRunResult>& results) {
  ExecutionLog merged;
  for (const CampaignRunResult& result : results) {
    merged.AppendAll(result.record.log);
  }
  return merged;
}

namespace {

// Chaos identity for a coverage run: top bit set so the draw stream never
// collides with campaign run ids under the same seed.
uint64_t CoverageChaosIdentity(size_t test_index) {
  return (1ULL << 63) | static_cast<uint64_t>(test_index);
}

void ExportRobustMetrics(const CampaignObs& obs, const RobustnessStats& stats) {
  if (obs.metrics == nullptr) {
    return;
  }
  obs.metrics->Increment("robust.retries_total", stats.retries);
  obs.metrics->Increment("robust.recovered_total", stats.recovered);
  obs.metrics->Increment("robust.quarantined_total", stats.quarantined);
  obs.metrics->Increment("robust.chaos_faults_total", stats.chaos_faults);
  obs.metrics->Increment("robust.breaker_open_total", stats.breaker_open);
  obs.metrics->Increment("robust.fail_fast_skipped_total", stats.fail_fast_skipped);
  obs.metrics->Increment("robust.backoff_virtual_ms", stats.backoff_virtual_ms);
}

// Counts retry-loop (while/for) iterations executed inside the coordinator
// method for the journal. One instance per in-flight attempt, owned by the
// worker lambda; the coordinator filter keeps the application's unrelated
// loops (map phases, list walks) out of the retry accounting. Coalesced to
// one kLoopIterations event per attempt at attempt end.
struct JournalLoopObserver : LoopObserver {
  std::string_view coordinator;
  int64_t iterations = 0;
  int64_t last_ms = 0;
  void OnLoopIteration(std::string_view method, int64_t virtual_ms) override {
    if (method == coordinator) {
      ++iterations;
      last_ms = virtual_ms;
    }
  }
};

}  // namespace

CampaignOutcome ExecuteCampaignRobust(const TestRunner& runner,
                                      const std::vector<RetryLocation>& locations,
                                      const std::vector<CampaignRunSpec>& specs, TaskPool& pool,
                                      const RobustnessOptions& options, const CampaignObs& obs) {
  CampaignOutcome outcome;
  RobustnessStats& stats = outcome.robustness;
  std::vector<CampaignRunResult> results(specs.size());
  std::vector<int> attempts(specs.size(), 0);
  std::vector<char> completed(specs.size(), 0);
  CircuitBreaker breaker(options.breaker_threshold);

  // One journal handle per spec, begun up front so even never-admitted runs
  // get a complete slice. A handle is touched by at most one worker per wave
  // and by the serial reduce after the wave joins, so its per-run sequence
  // numbers never race.
  std::vector<JournalRun> journal_runs;
  if (obs.journal != nullptr) {
    journal_runs.resize(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      journal_runs[i].Begin(obs.journal, JournalStream::kCampaign, specs[i].id,
                            specs[i].test.qualified_name,
                            locations[specs[i].location_index].Key(), specs[i].k);
    }
  }
  auto journal_for = [&](size_t i) -> JournalRun* {
    return obs.journal != nullptr ? &journal_runs[i] : nullptr;
  };
  int64_t breaker_opens = 0;  // Cumulative, for the breaker counter track.

  auto quarantine = [&](size_t i, RunFailure failure) {
    const CampaignRunSpec& spec = specs[i];
    failure.run_id = spec.id;
    failure.test = spec.test.qualified_name;
    failure.location = locations[spec.location_index].Key();
    failure.attempts = attempts[i];
    if (JournalRun* jr = journal_for(i)) {
      jr->Quarantine(RunFailureKindName(failure.kind), failure.detail);
    }
    outcome.quarantined.push_back(std::move(failure));
    ++stats.quarantined;
  };

  // Wave execution: attempts within a wave run in parallel; everything that
  // *decides* anything — admission, failure classification, breaker feeding,
  // retry scheduling — happens serially in id order between waves, so the
  // outcome is byte-identical for any worker count.
  std::vector<size_t> wave(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    wave[i] = i;
  }
  while (!wave.empty()) {
    // Admission, serial in id order.
    std::vector<size_t> admitted;
    admitted.reserve(wave.size());
    for (size_t i : wave) {
      const std::string key = locations[specs[i].location_index].Key();
      const bool quota_hit =
          options.max_quarantined >= 0 &&
          static_cast<int64_t>(outcome.quarantined.size()) > options.max_quarantined;
      if (quota_hit || (options.fail_fast && !outcome.quarantined.empty())) {
        RunFailure skip;
        skip.kind = RunFailureKind::kHostException;
        skip.detail = quota_hit ? "skipped: quarantine limit reached"
                                : "skipped: fail-fast after earlier quarantine";
        stats.aborted = stats.aborted || quota_hit;
        ++stats.fail_fast_skipped;
        quarantine(i, std::move(skip));
        continue;
      }
      if (breaker.IsOpen(key)) {
        RunFailure skip;
        skip.kind = RunFailureKind::kHostException;
        skip.detail = "skipped: circuit open for " + key;
        ++stats.breaker_open;
        if (obs.tracer != nullptr) {
          obs.tracer->Counter("robust.breaker_open", "skipped_runs", stats.breaker_open);
        }
        quarantine(i, std::move(skip));
        continue;
      }
      admitted.push_back(i);
    }
    if (admitted.empty()) {
      break;
    }
    std::vector<std::exception_ptr> errors = pool.ParallelForCaptured(
        admitted.size(), [&](size_t w) {
          const size_t i = admitted[w];
          const CampaignRunSpec& spec = specs[i];
          const RetryLocation& location = locations[spec.location_index];
          const int attempt = attempts[i] + 1;
          ScopedSpan span(obs.tracer, "run");
          span.AddArg("run_id", static_cast<int64_t>(spec.id));
          span.AddArg("test", spec.test.qualified_name);
          span.AddArg("location", location.Key());
          span.AddArg("k", static_cast<int64_t>(spec.k));
          if (attempt > 1) {
            span.AddArg("attempt", static_cast<int64_t>(attempt));
          }
          // The chaos seam sits before the injector so a faulted attempt
          // contributes no injection counters — the fault-free metric totals
          // stay reachable by retry.
          ChaosMaybeFault(options.chaos, spec.id, attempt);
          FaultInjector injector({InjectionPoint{location.retried_method, location.coordinator,
                                                 location.exception_name, spec.k}},
                                 obs.metrics);
          JournalLoopObserver loop_observer;
          RunPerturbation perturbation;
          perturbation.chaos_degraded_env = ChaosDegradedEnvironment(options.chaos, spec.id);
          JournalRun* jr = journal_for(i);
          if (jr != nullptr) {
            // After the chaos seam: a chaos-faulted attempt never began at
            // the app level and shows up as a reduce-time kHostFailure.
            jr->AttemptBegin(attempt);
            loop_observer.coordinator = location.coordinator;
            perturbation.loop_observer = &loop_observer;
          }
          CampaignRunResult& result = results[i];
          result.id = spec.id;
          result.location_index = spec.location_index;
          result.k = spec.k;
          result.record = runner.RunTest(spec.test, {&injector}, perturbation);
          if (jr != nullptr) {
            // Derive the attempt's retry timeline from run-private data (the
            // execution log preserves fire/sleep interleaving in virtual-time
            // order), so journal content never depends on which worker ran it.
            for (const LogEntry& entry : result.record.log.entries()) {
              if (entry.kind == LogEntryKind::kInjection) {
                jr->InjectFire(attempt, entry.virtual_time_ms, entry.amount);
              } else if (entry.kind == LogEntryKind::kSleep) {
                jr->Sleep(attempt, entry.virtual_time_ms, entry.amount);
              }
            }
            if (injector.TotalSkips() > 0) {
              jr->InjectSkip(attempt, injector.TotalSkips());
            }
            if (loop_observer.iterations > 0) {
              jr->LoopIterations(attempt, loop_observer.iterations, loop_observer.last_ms);
            }
            jr->Work(attempt, result.record.steps);
            jr->AttemptEnd(attempt, TestStatusName(result.record.outcome.status),
                           result.record.virtual_duration_ms);
          }
          if (obs.progress != nullptr) {
            obs.progress->Tick();
          }
        });
    // Reduce, serial in id order: classify, feed the breaker, decide retries.
    std::vector<size_t> next_wave;
    for (size_t w = 0; w < admitted.size(); ++w) {
      const size_t i = admitted[w];
      ++attempts[i];
      const std::string key = locations[specs[i].location_index].Key();
      if (!errors[w]) {
        completed[i] = 1;
        breaker.RecordSuccess(key);
        if (attempts[i] > 1) {
          ++stats.recovered;
        }
        continue;
      }
      RunFailure failure = ClassifyFailure(errors[w]);
      if (failure.chaos) {
        ++stats.chaos_faults;
      }
      if (JournalRun* jr = journal_for(i)) {
        jr->HostFailure(attempts[i], RunFailureKindName(failure.kind), failure.chaos);
      }
      const bool was_open = breaker.IsOpen(key);
      breaker.RecordFailure(key);
      if (!was_open && breaker.IsOpen(key)) {
        ++breaker_opens;
        if (obs.tracer != nullptr) {
          obs.tracer->Counter("robust.breaker_open", "open_locations", breaker_opens);
        }
        if (JournalRun* jr = journal_for(i)) {
          jr->BreakerOpen(attempts[i]);
        }
      }
      const int next_attempt = attempts[i] + 1;
      if (options.retry.ShouldRetry(next_attempt) && !breaker.IsOpen(key)) {
        ++stats.retries;
        const int64_t backoff_ms = options.retry.BackoffMs(specs[i].id, next_attempt);
        stats.backoff_virtual_ms += backoff_ms;
        if (JournalRun* jr = journal_for(i)) {
          jr->BackoffWait(next_attempt, backoff_ms);
        }
        next_wave.push_back(i);
      } else {
        quarantine(i, std::move(failure));
      }
    }
    wave = std::move(next_wave);
  }
  stats.open_locations = breaker.OpenKeys();

  outcome.results.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    if (completed[i]) {
      outcome.results.push_back(std::move(results[i]));
    }
  }
  std::sort(outcome.results.begin(), outcome.results.end(),
            [](const CampaignRunResult& a, const CampaignRunResult& b) { return a.id < b.id; });
  std::sort(outcome.quarantined.begin(), outcome.quarantined.end(),
            [](const RunFailure& a, const RunFailure& b) { return a.run_id < b.run_id; });
  // Same reduce-time telemetry as ExecuteCampaign over the completed runs,
  // plus the resilience counters.
  if (obs.metrics != nullptr) {
    obs.metrics->Increment("campaign.runs_total", static_cast<int64_t>(outcome.results.size()));
    for (const CampaignRunResult& result : outcome.results) {
      obs.metrics->Observe("runner.steps", static_cast<double>(result.record.steps));
      obs.metrics->Observe("runner.loop_iterations",
                           static_cast<double>(result.record.loop_iterations));
      obs.metrics->Observe("runner.virtual_ms",
                           static_cast<double>(result.record.virtual_duration_ms));
    }
  }
  ExportRobustMetrics(obs, stats);
  return outcome;
}

CoverageOutcome MapCoverageRobust(const TestRunner& runner, const std::vector<TestCase>& tests,
                                  const std::vector<RetryLocation>& locations, TaskPool& pool,
                                  const RobustnessOptions& options, const CampaignObs& obs) {
  // Everything one test's coverage run produced, including its slice of the
  // resilience counters (sums over tests reproduce RobustnessStats).
  struct CoverageRunOutcome {
    std::vector<size_t> hits;  // Location indices; empty when quarantined.
    int attempts = 0;
    int64_t retries = 0;
    bool recovered = false;
    int64_t chaos_faults = 0;
    int64_t backoff_virtual_ms = 0;
    bool quarantined = false;
    RunFailure failure;  // Kind, detail, and chaos flag when quarantined.
  };
  std::vector<CoverageRunOutcome> per_test(tests.size());

  std::vector<size_t> wave(tests.size());
  for (size_t i = 0; i < tests.size(); ++i) {
    wave[i] = i;
  }
  while (!wave.empty()) {
    std::vector<std::exception_ptr> errors = pool.ParallelForCaptured(
        wave.size(), [&](size_t w) {
          const size_t i = wave[w];
          const int attempt = per_test[i].attempts + 1;
          ScopedSpan span(obs.tracer, "coverage.run");
          span.AddArg("test", tests[i].qualified_name);
          if (attempt > 1) {
            span.AddArg("attempt", static_cast<int64_t>(attempt));
          }
          ChaosMaybeFault(options.chaos, CoverageChaosIdentity(i), attempt);
          CoverageRecorder recorder(&locations);
          runner.RunTest(tests[i], {&recorder});
          per_test[i].hits = recorder.hits();
          if (obs.progress != nullptr) {
            obs.progress->Tick();
          }
        });
    std::vector<size_t> next_wave;
    for (size_t w = 0; w < wave.size(); ++w) {
      const size_t i = wave[w];
      CoverageRunOutcome& out = per_test[i];
      ++out.attempts;
      if (!errors[w]) {
        if (out.attempts > 1) {
          out.recovered = true;
        }
        continue;
      }
      RunFailure failure = ClassifyFailure(errors[w]);
      if (failure.chaos) {
        ++out.chaos_faults;
      }
      if (options.retry.ShouldRetry(out.attempts + 1)) {
        ++out.retries;
        out.backoff_virtual_ms +=
            options.retry.BackoffMs(CoverageChaosIdentity(i), out.attempts + 1);
        next_wave.push_back(i);
      } else {
        out.quarantined = true;
        out.failure = std::move(failure);
        out.hits.clear();  // A quarantined test covers nothing.
      }
    }
    wave = std::move(next_wave);
  }

  // Serial reduce in discovery order: quarantine records, summed stats, the
  // journal's coverage stream, and the cumulative-coverage series.
  CoverageOutcome outcome;
  RobustnessStats& stats = outcome.robustness;
  for (size_t i = 0; i < tests.size(); ++i) {
    const CoverageRunOutcome& out = per_test[i];
    stats.retries += out.retries;
    stats.chaos_faults += out.chaos_faults;
    stats.backoff_virtual_ms += out.backoff_virtual_ms;
    if (obs.journal != nullptr) {
      // Derived serially from the per-test totals, so the stream does not
      // depend on which worker ran which attempt.
      JournalRun jr;
      jr.Begin(obs.journal, JournalStream::kCoverage, static_cast<uint64_t>(i),
               tests[i].qualified_name, "<coverage>", 0);
      for (int64_t f = 0; f < out.chaos_faults; ++f) {
        jr.HostFailure(static_cast<int>(f) + 1, "chaos", true);
      }
      if (out.backoff_virtual_ms > 0) {
        jr.BackoffWait(out.attempts, out.backoff_virtual_ms);
      }
      if (out.quarantined) {
        jr.Quarantine(RunFailureKindName(out.failure.kind), out.failure.detail);
      } else {
        jr.AttemptEnd(out.attempts, out.recovered ? "recovered" : "passed", 0);
      }
    }
    if (out.quarantined) {
      RunFailure failure = out.failure;
      failure.run_id = static_cast<uint64_t>(i);
      failure.test = tests[i].qualified_name;
      failure.location = "<coverage>";
      failure.attempts = out.attempts;
      outcome.quarantined.push_back(std::move(failure));
      ++stats.quarantined;
    } else if (out.recovered) {
      ++stats.recovered;
    }
  }

  // Identical reduce to MapCoverageParallel over the surviving runs.
  std::set<size_t> cumulative;
  for (size_t i = 0; i < tests.size(); ++i) {
    cumulative.insert(per_test[i].hits.begin(), per_test[i].hits.end());
    if (obs.metrics != nullptr) {
      obs.metrics->AppendSeries("coverage.cumulative_locations",
                                static_cast<double>(cumulative.size()));
    }
    if (obs.tracer != nullptr) {
      obs.tracer->Counter("coverage.cumulative_locations", "locations",
                          static_cast<int64_t>(cumulative.size()));
    }
    if (!per_test[i].hits.empty()) {
      outcome.coverage[tests[i].qualified_name] = std::move(per_test[i].hits);
    }
  }
  if (obs.metrics != nullptr) {
    obs.metrics->Increment("coverage.runs_total", static_cast<int64_t>(tests.size()));
    obs.metrics->SetGauge("coverage.locations_covered", static_cast<double>(cumulative.size()));
  }
  ExportRobustMetrics(obs, stats);
  return outcome;
}

}  // namespace wasabi
