// Umbrella header for the robustness subsystem (docs/ROBUSTNESS.md):
// failure taxonomy + retry policy + circuit breaker + chaos harness, plus the
// option/stat bundles the campaign executor and facade thread through.

#ifndef WASABI_SRC_ROBUST_ROBUST_H_
#define WASABI_SRC_ROBUST_ROBUST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/robust/chaos.h"
#include "src/robust/circuit_breaker.h"
#include "src/robust/failure.h"
#include "src/robust/retry_policy.h"

namespace wasabi {

// Knobs for fault-contained campaign execution. The default-constructed value
// is the "default-off" configuration: retry enabled for infrastructure
// failures (invisible when nothing fails), breaker armed, no chaos — with no
// failures anywhere the output is byte-identical to the legacy executor.
struct RobustnessOptions {
  RetryPolicy retry;
  // Consecutive infrastructure failures per location before its circuit
  // opens; <= 0 disables the breaker. An open campaign circuit never
  // half-opens: quarantine is final (docs/ROBUSTNESS.md).
  int breaker_threshold = 8;
  ChaosConfig chaos;
  // Stop scheduling new waves after the first quarantined run.
  bool fail_fast = false;
  // Abort the campaign once more than this many runs are quarantined;
  // < 0 means unlimited.
  int64_t max_quarantined = -1;
};

// Deterministic aggregate counters describing where resilience kicked in.
struct RobustnessStats {
  int64_t retries = 0;            // Re-attempts executed.
  int64_t recovered = 0;          // Runs that failed then completed on retry.
  int64_t quarantined = 0;        // Runs given up on.
  int64_t chaos_faults = 0;       // Failures attributed to the chaos harness.
  int64_t breaker_open = 0;       // Runs skipped because a circuit was open.
  int64_t fail_fast_skipped = 0;  // Runs skipped by --fail-fast / --max-quarantined.
  int64_t backoff_virtual_ms = 0;  // Total virtual backoff charged.
  std::vector<std::string> open_locations;  // Sorted open-circuit keys.
  bool aborted = false;  // True when --max-quarantined cut the campaign short.

  void MergeFrom(const RobustnessStats& other);
};

}  // namespace wasabi

#endif  // WASABI_SRC_ROBUST_ROBUST_H_
