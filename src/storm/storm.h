// Deterministic retry-storm simulator (docs/STORM.md).
//
// The paper's worst retry bugs are not single-test failures: they are
// system-level storms — synchronized retry waves, fan-out amplification, and
// metastable overload where load stays above capacity long after the fault
// that caused it has cleared. RunStormSim replays a whole app's extracted
// retry policies (src/storm/profile.h) against one shared backend in a
// discrete-event simulation and measures exactly those behaviors.
//
// Model. Every profiled service is one "edge" (frontend -> backend call
// site). Open-loop traffic arrives in bursts of `burst` requests every
// `arrival_interval_ms` per edge; each attempt ships `fanout` copies to a
// single-server backend with a bounded FIFO queue; a transient fault window
// [fault_start_ms, fault_end_ms) makes the backend instantly unavailable.
// Failed primaries retry per the edge's own extracted policy (attempt cap,
// backoff schedule, jitter, overload behavior); requests not done after
// `request_timeout_ms` abandon. Edges that shed on overload get an
// admission CircuitBreaker (threshold + half-open cooldown from
// src/robust); edges that retry on overload lack one — that is the bug.
//
// Determinism. The event loop is serial over an EventQueue (src/storm/sim.h,
// a timing wheel) that pops in time order, same instant in push order; all
// jitter comes from per-edge SimRng splits; the journal (stream kStorm) and
// the report are pure functions of (profiles, options). Reports are
// byte-identical at any --jobs level and across repeated same-seed runs
// (bench/stress_storm proves it), and tests/goldens/storm.golden pins their
// bytes across builds.
//
// Cost. One default-options run pops about 770k events; the wheel makes
// each push and pop O(1), with near events stored as bare payloads and the
// push/pop path inlined into the event loop, and per-request state is a
// window indexed by the dense request id; only the per-request breaker
// bookkeeping still hashes (docs/PERFORMANCE.md). Repair validation runs
// the simulation only when a patch changed a profile: RunStormSim is a pure
// function of (app, profiles, options), so equal profiles reuse the
// baseline's verdicts.

#ifndef WASABI_SRC_STORM_STORM_H_
#define WASABI_SRC_STORM_STORM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/report.h"
#include "src/storm/profile.h"

namespace wasabi {

class RetryJournal;
class MetricsRegistry;
class Tracer;

struct StormOptions {
  uint64_t seed = 1;

  // Timeline (simulated milliseconds).
  int64_t duration_ms = 30'000;
  int64_t fault_start_ms = 5'000;
  int64_t fault_end_ms = 10'000;

  // Open-loop traffic: every edge receives `burst` simultaneous requests
  // each `arrival_interval_ms` (bursts are what synchronize retry waves).
  // The defaults put steady offered load at ~90% of backend capacity, so a
  // well-behaved app runs fine but has no headroom to absorb a retry storm.
  int64_t arrival_interval_ms = 400;
  int burst = 12;

  // Backend: single server, FIFO queue bounded at `queue_limit` (arrivals
  // beyond it get an overload rejection), `service_ms` per copy, one-way
  // network latency `latency_ms`. Rejecting a copy is not free: each
  // queue-full rejection charges the server `reject_cost_ms` of overhead —
  // the wasted work that makes retry-on-overload metastable (the server
  // spends its capacity saying "no" instead of draining the queue).
  int64_t service_ms = 5;
  int64_t latency_ms = 5;
  int queue_limit = 64;
  int64_t reject_cost_ms = 1;

  // Clients abandon a request that has not completed after this long.
  int64_t request_timeout_ms = 8'000;

  // Admission breaker for overload-shedding edges (src/robust semantics:
  // threshold consecutive failures open it; `cooldown` shed admissions
  // later it half-opens for one probe).
  int breaker_threshold = 5;
  int breaker_cooldown = 25;

  // Gauge sampling cadence and the trailing window used for the
  // metastability verdict ("is load still above capacity at the end?").
  int64_t sample_interval_ms = 250;
  int64_t recovery_window_ms = 5'000;
};

// One gauge sample, taken every sample_interval_ms by the event loop.
struct StormSample {
  int64_t t_ms = 0;
  int64_t backend_depth = 0;                // Queued + in service.
  std::vector<int64_t> edge_inflight;       // Retrying requests, per edge.
};

// Per-edge outcome counters. All ratios are integer x1000 so the report
// serializes byte-stably with no float formatting.
struct StormEdgeStats {
  EdgeRetryProfile profile;

  int64_t requests = 0;          // Offered by the traffic model.
  int64_t shed_by_breaker = 0;   // Rejected at admission (breaker open).
  int64_t attempts = 0;          // Dispatched attempts (all copies of one send).
  int64_t copies_sent = 0;       // attempts x fanout.
  int64_t succeeded = 0;
  int64_t gave_up = 0;           // Bounded policy exhausted its attempts.
  int64_t shed_on_overload = 0;  // Completed by honoring overload push-back.
  int64_t timed_out = 0;
  int64_t unfinished = 0;        // Still mid-retry when the sim ended.

  int64_t unavailable_responses = 0;  // Fault-window rejections seen.
  int64_t overload_responses = 0;     // Queue-full rejections seen.

  int64_t work_ms = 0;          // Backend service time consumed by this edge.
  int64_t goodput_ms = 0;       // Service time of copies whose request succeeded.
  int64_t needed_attempts = 0;  // Per request: min(attempts used, 4) — the
                                // same cap retry_stats charges a correct policy.
  int64_t amplification_x1000 = 1000;  // copies_sent / needed_attempts.

  int64_t wave_peak = 0;             // Max retry dispatches in one simulated ms.
  int64_t inflight_retries_max = 0;  // Peak concurrently-retrying requests.
  int64_t queue_depth_max = 0;       // Peak backend-queue copies owned by edge.
  int64_t post_window_attempts = 0;  // Attempts in the last recovery window.
  int64_t time_to_recover_ms = -1;   // First success after the fault cleared.
  bool metastable = false;           // Still storming in the recovery window.
};

struct StormReport {
  std::string app;
  StormOptions options;
  std::vector<StormEdgeStats> edges;
  std::vector<StormSample> samples;  // In-memory only (journal carries them).

  // Totals across edges.
  int64_t total_requests = 0;
  int64_t total_attempts = 0;
  int64_t total_copies = 0;
  int64_t total_succeeded = 0;
  int64_t total_work_ms = 0;
  int64_t total_goodput_ms = 0;
  int64_t total_needed_attempts = 0;
  int64_t amplification_x1000 = 1000;  // total copies / total needed attempts.
  int64_t goodput_x1000 = 1000;        // goodput_ms / work_ms.

  // Backend-side aggregates.
  int64_t backend_queue_peak = 0;
  int64_t backend_unavailable = 0;         // Fault-window rejections issued.
  int64_t backend_overload_rejections = 0; // Queue-full rejections issued.
  int64_t backend_reject_work_ms = 0;      // Server time burned rejecting.
  int64_t post_window_copies = 0;          // Copies offered in the last window.
  int64_t time_to_recover_ms = -1;  // First empty-backend sample after the
                                    // fault cleared; -1 = never drained.
  bool metastable = false;  // Offered work in the last window exceeds capacity.

  // Storm oracles (technique kStormSim): missing jitter, unbounded fan-out
  // retry, retry-on-overload. Scored against the corpus manifest exactly.
  std::vector<BugReport> bugs;
};

// Runs the simulation. Serial and allocation-bounded; `journal` (nullable)
// receives the kStorm stream: run 0 = backend timeline (queue-depth samples,
// fault markers), run e+1 = edge e (breaker transitions, in-flight-retry
// samples). `app` stamps the bug reports and journal export. A non-null
// `tracer` gets a "storm.sim" span (args `edges`, `attempts`).
StormReport RunStormSim(std::string_view app, const std::vector<EdgeRetryProfile>& profiles,
                        const StormOptions& options, RetryJournal* journal = nullptr,
                        Tracer* tracer = nullptr);

// Versioned ("wasabi-storm-v1"), fixed key order, integers only —
// byte-stable for the determinism benches and CLI smoke diffs.
std::string StormReportToJson(const StormReport& report);

// Human-readable summary for `wasabi storm` without --json.
std::string StormReportToText(const StormReport& report);

// Publishes storm gauges ("storm.*", including per-service queue-depth and
// in-flight-retry peaks) and Chrome-trace counter tracks from the samples.
void ExportStormStats(const StormReport& report, MetricsRegistry* metrics, Tracer* tracer);

}  // namespace wasabi

#endif  // WASABI_SRC_STORM_STORM_H_
