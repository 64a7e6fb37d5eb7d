// Per-edge retry-policy extraction for the storm simulator (docs/STORM.md).
//
// A "service" is any mj class exposing the frontend shape the corpus storm
// templates follow: a zero-arg `handle()` entry point that (possibly) retries
// a downstream `send()`. Instead of statically guessing what each retry loop
// does, the extractor RUNS `handle()` a few times under an interceptor that
// forces `send()` to fail — the same pointcut seam the injection campaign
// uses — and measures the policy the code actually implements:
//
//   - probe 0 (clean):      sends per successful request  -> fan-out
//   - probe 1 (transport):  every send throws ServiceUnavailableException;
//                           attempts until give-up (budget abort = unbounded)
//                           and the virtual-sleep schedule between attempts
//   - probe 2 (transport'): same, with a different storm.request.id config —
//                           a schedule that changes with request identity is
//                           jittered, a byte-identical schedule is not
//   - probe 3 (overload):   every send throws ResourceExhaustedException;
//                           retrying instead of shedding is the
//                           retry-on-overload signal
//
// Probes run through two TestRunners (request ids 0 and 1) with small
// budgets, in parallel across services via TaskPool; results land in a
// pre-sized vector by index, so the extracted profiles are byte-identical at
// any worker count.

#ifndef WASABI_SRC_STORM_PROFILE_H_
#define WASABI_SRC_STORM_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/lang/sema.h"
#include "src/lang/source.h"

namespace wasabi {

class Tracer;

struct EdgeRetryProfile {
  std::string service;      // Class name.
  std::string coordinator;  // "Class.handle" — joins the retry ground truth.
  std::string file;         // Unit file the class lives in.
  mj::SourceLocation location;  // Of the handle() declaration.

  // Transport-failure retry policy (probe 1/2).
  bool bounded = true;  // false: probe 1 hit the step/virtual-time budget.
  int attempts = 1;     // Attempts observed under persistent failure (<= 64).
  std::vector<int64_t> backoff_ms;  // Sleep schedule between attempts (<= 8 kept).
  bool jittered = false;

  // Overload behavior (probe 3).
  bool retries_on_overload = false;
  int64_t overload_backoff_ms = 0;  // First sleep before an overload retry.

  // Copies offered downstream per attempt (probe 0).
  int fanout = 1;

  bool operator==(const EdgeRetryProfile& other) const {
    return service == other.service && coordinator == other.coordinator && file == other.file &&
           location.offset == other.location.offset && location.line == other.location.line &&
           location.column == other.location.column && bounded == other.bounded &&
           attempts == other.attempts && backoff_ms == other.backoff_ms &&
           jittered == other.jittered && retries_on_overload == other.retries_on_overload &&
           overload_backoff_ms == other.overload_backoff_ms && fanout == other.fanout;
  }
};

// Extracts one profile per service class, sorted by class name. `jobs`
// follows TaskPool semantics (<= 0 = hardware default, 1 = serial). A
// non-null `tracer` gets a "storm.profile" span (arg `edges`).
std::vector<EdgeRetryProfile> ExtractRetryProfiles(const mj::Program& program,
                                                   const mj::ProgramIndex& index, int jobs = 1,
                                                   Tracer* tracer = nullptr);

}  // namespace wasabi

#endif  // WASABI_SRC_STORM_PROFILE_H_
