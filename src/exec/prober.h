// N-repetition flakiness prober (docs/FLAKINESS.md).
//
// After the injection campaign and oracle evaluation, every FAILING verdict
// (a completed run with at least one oracle report) is re-executed N times
// with a perturbed virtual-clock epoch, on the campaign runner's warm
// per-worker interpreters. The rerun report signatures decide the verdict's
// stability class:
//   * any divergence under timing perturbation            -> flaky
//   * reproduces, but only in the chaos-degraded env      -> chaos-induced
//     (a counterfactual rerun with the degradation off and the clock at the
//     original epoch no longer produces the signature)
//   * reproduces everywhere                               -> stable
//
// Determinism contract: the classification of a run is a pure function of
// (program, spec, chaos config, prober options) — probe repetitions run on
// whatever worker picks them up, but each run's probing is self-contained and
// the reduce is serial in run-id order, so the result is identical for any
// worker count and for warm or cold caches.

#ifndef WASABI_SRC_EXEC_PROBER_H_
#define WASABI_SRC_EXEC_PROBER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/exec/campaign.h"
#include "src/testing/oracles.h"

namespace wasabi {

struct ProberOptions {
  // Probe repetitions per failing verdict; <= 0 disables the prober entirely
  // (the default — classification is opt-in via --repetitions).
  int repetitions = 0;
  // Probe repetition r (1-based) starts its virtual clock at r * stride ms.
  // A fixed stride (not a hash) so timing-dependent ground-truth apps flip
  // deterministically under probing.
  int64_t epoch_stride_ms = 1000;

  bool enabled() const { return repetitions > 0; }
};

// The canonical signature of a run's oracle reports: what "same verdict"
// means for both the prober and the record/replay validator. Covers kind,
// location, detail, and group key of every report, in order.
std::string OracleSignature(const std::vector<OracleReport>& reports);

// One failing verdict to classify.
struct ProbeRequest {
  uint64_t run_id = 0;  // Index into the campaign's spec list.
  std::string baseline_signature;
};

struct ProbeResult {
  uint64_t run_id = 0;
  VerdictStability stability = VerdictStability::kStable;
  int repetitions = 0;     // Probe reruns actually executed.
  bool probe_failed = false;  // A rerun failed at the host level (fell back to stable).
};

// Probes every request and returns results in request order (the caller
// passes requests id-ordered). Passing the campaign's runner reuses its warm
// interpreters. Probe runs never pass the host-level chaos fault seam —
// `chaos` is consulted only for the degraded-environment draw. Emits a
// "probe.run" span per request and the flaky.* metric family at reduce time.
std::vector<ProbeResult> ProbeFailingRuns(const TestRunner& runner,
                                          const std::vector<RetryLocation>& locations,
                                          const std::vector<CampaignRunSpec>& specs,
                                          const std::vector<ProbeRequest>& requests,
                                          const ChaosConfig& chaos,
                                          const OracleOptions& oracles,
                                          const ProberOptions& options, TaskPool& pool,
                                          const CampaignObs& obs = {});

}  // namespace wasabi

#endif  // WASABI_SRC_EXEC_PROBER_H_
