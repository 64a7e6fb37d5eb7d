// Automated repair loop for confirmed retry bugs (docs/REPAIR.md).
//
// RunRepair closes the paper's loop from detection to remediation:
//
//   1. Baseline. Run the full WASABI pipeline — dynamic campaign, collated
//      static WHEN checking, storm simulation — and collect every confirmed
//      verdict in the REPAIRABLE universe (WHEN/missing-cap,
//      WHEN/missing-delay, and the three storm classes). HOW and IF verdicts
//      are out of scope: their fixes are semantic, not structural.
//   2. Synthesize. Map each verdict to its repair template
//      (src/repair/templates.h), optionally detour through SimRepair's
//      modeled LLM error modes, and apply the patch as an AST rewrite
//      (src/lang/rewrite.h) that is proven to round-trip and to touch only
//      its target method.
//   3. Validate. Re-run the pipeline on the patched program and diff verdicts
//      against the baseline, re-run the clean suite, and replay the
//      baseline's covering test under K=1 injection on both programs:
//        fixed      — the target verdict is gone, nothing new appeared, no
//                     clean test broke, and the coordinator still absorbs a
//                     single fault.
//        not-fixed  — the target verdict is still reported (or no patch could
//                     be applied).
//        regressed  — the patch introduced a new verdict, broke a clean test,
//                     or killed the retry outright (the cap-too-low mode: the
//                     verdict diff alone would call it fixed; only the K=1
//                     replay catches it).
//
// Every patch is validated INDEPENDENTLY against the pristine baseline, and
// reuses what the patch cannot change (docs/REPAIR.md "What validation
// reuses"):
//   - Cache. Validation campaigns share the caller's CacheStore: the per-file
//     identification (q1) and WHEN (when) entries of every unpatched file
//     hit. The dynamic workflow's one `camp` entry is keyed by the program
//     digest, so it misses on every patched program and the coverage,
//     campaign, oracles and prober of each pass run in full. Reports stay
//     byte-identical to a cold re-campaign (repair_e2e_test proves both).
//   - Storm work. A pass re-probes only the services whose baseline probes
//     ran code of the patched file (src/storm/profile.h), and when the
//     profiles equal the baseline's it takes the baseline's storm verdicts
//     instead of simulating again.
// Parsing, indexing, the clean suite and the K=1 replays are redone for
// every patch, and so is identification when no cache is attached.
//
// Determinism: the report is a pure function of (program, options) — byte
// identical at any jobs level, any cache state, and both interpreter engines.

#ifndef WASABI_SRC_REPAIR_REPAIR_H_
#define WASABI_SRC_REPAIR_REPAIR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/store.h"
#include "src/core/scoring.h"
#include "src/core/wasabi.h"
#include "src/llm/sim_repair.h"
#include "src/repair/templates.h"
#include "src/storm/storm.h"

namespace wasabi {

struct RepairOptions {
  // Pipeline configuration for the baseline and every validation re-campaign.
  // Observability sinks and record_dir apply to the BASELINE only; nested
  // validation runs always detach them (their phase structure is an
  // implementation detail of validation), and the tracer instead gets one
  // repair.patch and one repair.validate span per patched bug. The cache
  // pointer IS shared with validation runs: unpatched files' entries hit.
  WasabiOptions wasabi;
  StormOptions storm;
  // Modeled repair-error modes; all-off by default (faithful templates).
  SimRepairConfig sim;
  // Attempt budget installed by the bound-retry template.
  int attempt_cap = 5;
};

enum class RepairOutcome : uint8_t {
  kFixed,
  kNotFixed,
  kRegressed,
  kNoTemplate,
};

const char* RepairOutcomeName(RepairOutcome outcome);

// One confirmed verdict's trip through the repair loop.
struct RepairRow {
  BugType type = BugType::kWhenMissingCap;
  std::string file;
  std::string coordinator;
  std::string detail;                                    // From the verdict.
  RepairTemplate tmpl = RepairTemplate::kNone;
  RepairErrorMode error_mode = RepairErrorMode::kNone;   // SimRepair's draw.
  bool patched = false;          // A rewrite was produced and validated.
  RepairOutcome outcome = RepairOutcome::kNotFixed;
  std::string note;              // Rewrite error / validation evidence.
};

struct RepairTotals {
  int confirmed = 0;     // Verdicts in the repairable universe, deduplicated.
  int eligible = 0;      // Confirmed verdicts with a template (!= no-template).
  int patched = 0;
  int fixed = 0;
  int not_fixed = 0;
  int regressed = 0;
  int no_template = 0;
};

struct RepairReport {
  std::string app;
  std::vector<RepairRow> rows;   // Sorted by (file, coordinator, type name).
  RepairTotals totals;

  // Cache traffic of the validation phase only (stats delta across all
  // nested re-campaigns). In-memory evidence for the slicing claim — NEVER
  // serialized: the report's bytes must not depend on cache state.
  CacheStats validation_cache_delta;
};

// Runs the full repair loop. `program`/`index` are the pristine application;
// patched programs are rebuilt internally per row. A tracer in
// `options.wasabi` gets, on the calling thread, a repair.baseline span
// (holding the traced baseline pipeline and its repair.clean_suite) and per
// patched bug a repair.patch span (rewrite, parse, index) and a
// repair.validate span holding repair.pipeline (int args services_probed,
// services_reused, sim_reused), repair.clean_suite and repair.k1_probes.
RepairReport RunRepair(const mj::Program& program, const mj::ProgramIndex& index,
                       const RepairOptions& options);

// Versioned ("wasabi-repair-v1"), fixed key order, integers and strings only,
// no cache or timing data — byte-stable across jobs/cache/engine settings.
std::string RepairReportToJson(const RepairReport& report);

// Human-readable summary for `wasabi repair` without --json.
std::string RepairReportToText(const RepairReport& report);

// Publishes repair.* gauges (confirmed/patched/fixed/not-fixed/regressed/
// no-template plus validation cache hit/miss counts).
void ExportRepairStats(const RepairReport& report, MetricsRegistry* metrics);

// --- Ground-truth manifest (repairlab) --------------------------------------

// Expected end state of one repairable seeded bug under the all-faithful
// (SimRepair off) configuration.
struct RepairExpectation {
  BugType type = BugType::kWhenMissingCap;
  std::string file;
  std::string coordinator;
  RepairTemplate tmpl = RepairTemplate::kNone;
  RepairOutcome outcome = RepairOutcome::kFixed;
};

// Derives the expected repair outcomes from a corpus manifest: every seeded
// bug in the repairable universe maps to its template and expected outcome
// (template-fixable -> fixed; unbounded fan-out -> no-template). Seeded
// storm services whose loops are ALSO uncapped surface as additional
// WHEN/missing-cap verdicts; those derived expectations are included.
std::vector<RepairExpectation> ExpectedRepairs(const std::vector<SeededBug>& bugs);

}  // namespace wasabi

#endif  // WASABI_SRC_REPAIR_REPAIR_H_
