#include "src/exec/prober.h"

#include <utility>

namespace wasabi {

std::string OracleSignature(const std::vector<OracleReport>& reports) {
  std::string signature;
  for (const OracleReport& report : reports) {
    signature.append(OracleKindName(report.kind));
    signature.push_back('|');
    signature.append(report.location.Key());
    signature.push_back('|');
    signature.append(report.group_key);
    signature.push_back('|');
    signature.append(report.detail);
    signature.push_back('\n');
  }
  return signature;
}

namespace {

// Executes one probe rerun of `spec` and returns the rerun's report
// signature. Throws whatever the host run throws (caller contains it).
std::string ProbeSignature(const TestRunner& runner, const RetryLocation& location,
                           const CampaignRunSpec& spec, const OracleOptions& oracles,
                           int64_t epoch_ms, bool degraded_env) {
  FaultInjector injector({InjectionPoint{location.retried_method, location.coordinator,
                                         location.exception_name, spec.k}},
                         nullptr);
  RunPerturbation perturbation;
  perturbation.virtual_clock_epoch_ms = epoch_ms;
  perturbation.chaos_degraded_env = degraded_env;
  TestRunRecord record = runner.RunTest(spec.test, {&injector}, perturbation);
  return OracleSignature(
      DeduplicateReports(EvaluateOracles(record, location, oracles)));
}

}  // namespace

std::vector<ProbeResult> ProbeFailingRuns(const TestRunner& runner,
                                          const std::vector<RetryLocation>& locations,
                                          const std::vector<CampaignRunSpec>& specs,
                                          const std::vector<ProbeRequest>& requests,
                                          const ChaosConfig& chaos,
                                          const OracleOptions& oracles,
                                          const ProberOptions& options, TaskPool& pool,
                                          const CampaignObs& obs) {
  std::vector<ProbeResult> results(requests.size());
  if (requests.empty() || !options.enabled()) {
    return results;
  }
  // One journal handle per request; begun serially here (deterministic order),
  // repetitions appended by the single worker that owns the request's task,
  // verdicts appended by the serial reduce below.
  std::vector<JournalRun> journal_runs;
  if (obs.journal != nullptr) {
    journal_runs.resize(requests.size());
    for (size_t r = 0; r < requests.size(); ++r) {
      const CampaignRunSpec& spec = specs[requests[r].run_id];
      journal_runs[r].Begin(obs.journal, JournalStream::kProbe, requests[r].run_id,
                            spec.test.qualified_name,
                            locations[spec.location_index].Key(), spec.k);
    }
  }

  // Each request's probing is one self-contained task: its repetitions run
  // serially on one worker (on that worker's warm interpreter), so worker
  // count never changes the classification. Host failures inside a probe are
  // contained per request (captured, counted, fall back to stable) — a broken
  // probe must not kill the campaign that already produced its verdicts.
  std::vector<std::exception_ptr> errors =
      pool.ParallelForCaptured(requests.size(), [&](size_t r) {
        const ProbeRequest& request = requests[r];
        const CampaignRunSpec& spec = specs[request.run_id];
        const RetryLocation& location = locations[spec.location_index];
        ScopedSpan span(obs.tracer, "probe.run");
        span.AddArg("run_id", static_cast<int64_t>(request.run_id));
        span.AddArg("test", spec.test.qualified_name);
        span.AddArg("k", static_cast<int64_t>(spec.k));

        ProbeResult& result = results[r];
        result.run_id = request.run_id;
        JournalRun* jr = obs.journal != nullptr ? &journal_runs[r] : nullptr;
        const bool degraded = ChaosDegradedEnvironment(chaos, spec.id);
        bool diverged = false;
        for (int rep = 1; rep <= options.repetitions; ++rep) {
          ++result.repetitions;
          std::string signature =
              ProbeSignature(runner, location, spec, oracles,
                             static_cast<int64_t>(rep) * options.epoch_stride_ms, degraded);
          diverged = signature != request.baseline_signature;
          if (jr != nullptr) {
            jr->ProbeRepetition(rep, diverged, /*counterfactual=*/false);
          }
          if (diverged) {
            break;  // Any divergence settles the class; later reps add nothing.
          }
        }
        if (diverged) {
          result.stability = VerdictStability::kFlaky;
        } else {
          result.stability = VerdictStability::kStable;
          if (degraded) {
            // Counterfactual: original epoch, degradation off. If the verdict
            // vanishes, the environment caused it.
            ++result.repetitions;
            std::string signature = ProbeSignature(runner, location, spec, oracles,
                                                   /*epoch_ms=*/0, /*degraded_env=*/false);
            const bool vanished = signature != request.baseline_signature;
            if (jr != nullptr) {
              jr->ProbeRepetition(result.repetitions, vanished, /*counterfactual=*/true);
            }
            if (vanished) {
              result.stability = VerdictStability::kChaosInduced;
            }
          }
        }
        if (obs.progress != nullptr) {
          obs.progress->Tick();
        }
      });

  // Serial reduce in request (== run id) order: contain probe failures and
  // export the deterministic flaky.* metric family.
  int64_t repetitions_total = 0;
  int64_t stable = 0;
  int64_t flaky = 0;
  int64_t chaos_induced = 0;
  int64_t probe_failures = 0;
  for (size_t r = 0; r < requests.size(); ++r) {
    ProbeResult& result = results[r];
    result.run_id = requests[r].run_id;
    if (errors[r]) {
      // The probe itself failed at the host level; the campaign verdict
      // stands, unclassified beyond the conservative default.
      result.probe_failed = true;
      result.stability = VerdictStability::kStable;
      ++probe_failures;
    }
    if (obs.journal != nullptr) {
      journal_runs[r].ProbeVerdict(VerdictStabilityName(result.stability), result.probe_failed);
    }
    repetitions_total += result.repetitions;
    switch (result.stability) {
      case VerdictStability::kStable:
        ++stable;
        break;
      case VerdictStability::kFlaky:
        ++flaky;
        break;
      case VerdictStability::kChaosInduced:
        ++chaos_induced;
        break;
    }
  }
  if (obs.metrics != nullptr) {
    obs.metrics->Increment("flaky.probed_runs", static_cast<int64_t>(requests.size()));
    obs.metrics->Increment("flaky.repetitions_total", repetitions_total);
    obs.metrics->Increment("flaky.stable_verdicts", stable);
    obs.metrics->Increment("flaky.flaky_verdicts", flaky);
    obs.metrics->Increment("flaky.chaos_induced_verdicts", chaos_induced);
    obs.metrics->Increment("flaky.probe_failures", probe_failures);
  }
  return results;
}

}  // namespace wasabi
