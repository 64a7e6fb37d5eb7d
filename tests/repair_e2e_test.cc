// End-to-end repair pipeline over the repairlab ground-truth app: run the
// full detect -> synthesize -> validate loop, score the outcomes exactly
// against the seeded manifest (every template-fixable bug fixed, zero false
// fixes), prove the report is byte-identical at every worker count / cache
// state / engine, prove the validator catches every SimRepair-injected bad
// patch, and prove validation re-campaigns really are cache-sliced.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/store.h"
#include "src/corpus/corpus.h"
#include "src/obs/trace.h"
#include "src/repair/repair.h"

namespace wasabi {
namespace {

namespace fs = std::filesystem;

RepairOptions OptionsFor(const CorpusApp& app) {
  RepairOptions options;
  options.wasabi.app_name = app.name;
  options.wasabi.default_configs = app.default_configs;
  return options;
}

RepairReport RunOnce(const CorpusApp& app, RepairOptions options) {
  return RunRepair(app.program, *app.index, options);
}

std::string UniqueTempDir(const char* tag) {
  static int counter = 0;
  return ::testing::TempDir() + "wasabi_repair_e2e_" + tag + "_" +
         std::to_string(++counter) + "_" + std::to_string(::getpid());
}

TEST(RepairE2eTest, RepairlabOutcomesMatchTheSeededManifestExactly) {
  CorpusApp app = BuildCorpusApp("repairlab");
  RepairReport report = RunOnce(app, OptionsFor(app));

  std::vector<RepairExpectation> expected = ExpectedRepairs(app.bugs);
  ASSERT_EQ(report.rows.size(), expected.size())
      << RepairReportToText(report);
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(expected[i].file + " / " + expected[i].coordinator);
    EXPECT_EQ(report.rows[i].type, expected[i].type);
    EXPECT_EQ(report.rows[i].file, expected[i].file);
    EXPECT_EQ(report.rows[i].coordinator, expected[i].coordinator);
    EXPECT_EQ(report.rows[i].tmpl, expected[i].tmpl);
    EXPECT_EQ(report.rows[i].outcome, expected[i].outcome);
    EXPECT_EQ(report.rows[i].error_mode, RepairErrorMode::kNone);
  }

  // TP = every template-fixable bug fixed; FP = zero bogus "fixed" rows.
  int expected_fixed = 0;
  for (const RepairExpectation& e : expected) {
    expected_fixed += e.outcome == RepairOutcome::kFixed ? 1 : 0;
  }
  EXPECT_EQ(report.totals.fixed, expected_fixed);
  EXPECT_EQ(report.totals.not_fixed, 0);
  EXPECT_EQ(report.totals.regressed, 0);
  EXPECT_EQ(report.totals.no_template, 1) << "only the unbounded fan-out has no template";
  EXPECT_EQ(report.totals.confirmed,
            report.totals.fixed + report.totals.not_fixed + report.totals.regressed +
                report.totals.no_template);
}

TEST(RepairE2eTest, ReportIsByteIdenticalAtAnyWorkerCountAndBothEngines) {
  CorpusApp app = BuildCorpusApp("repairlab");
  RepairOptions baseline_options = OptionsFor(app);
  baseline_options.wasabi.jobs = 1;
  std::string baseline = RepairReportToJson(RunOnce(app, baseline_options));
  ASSERT_FALSE(baseline.empty());

  for (int jobs : {2, 4, 8}) {
    RepairOptions options = OptionsFor(app);
    options.wasabi.jobs = jobs;
    EXPECT_EQ(RepairReportToJson(RunOnce(app, options)), baseline) << "jobs=" << jobs;
  }
  RepairOptions tree = OptionsFor(app);
  tree.wasabi.interp.engine = EngineKind::kTree;
  EXPECT_EQ(RepairReportToJson(RunOnce(app, tree)), baseline)
      << "the tree-walker must reproduce the VM's repair report byte for byte";
}

TEST(RepairE2eTest, ReportIsByteIdenticalWithCacheOffColdAndWarm) {
  CorpusApp app = BuildCorpusApp("repairlab");
  std::string off = RepairReportToJson(RunOnce(app, OptionsFor(app)));

  std::string dir = UniqueTempDir("cache");
  std::string error;
  std::unique_ptr<CacheStore> store = CacheStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;

  RepairOptions cold_options = OptionsFor(app);
  cold_options.wasabi.cache = store.get();
  RepairReport cold = RunOnce(app, cold_options);
  EXPECT_EQ(RepairReportToJson(cold), off) << "cold cache must not change the report";
  ASSERT_TRUE(store->Flush(&error)) << error;

  std::unique_ptr<CacheStore> warm_store = CacheStore::Open(dir, &error);
  ASSERT_NE(warm_store, nullptr) << error;
  RepairOptions warm_options = OptionsFor(app);
  warm_options.wasabi.cache = warm_store.get();
  RepairReport warm = RunOnce(app, warm_options);
  EXPECT_EQ(RepairReportToJson(warm), off) << "warm cache must not change the report";

  fs::remove_all(dir);
}

TEST(RepairE2eTest, ValidationReusesTheUnpatchedSliceOfTheCache) {
  CorpusApp app = BuildCorpusApp("repairlab");
  std::string dir = UniqueTempDir("slice");
  std::string error;
  std::unique_ptr<CacheStore> store = CacheStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;

  RepairOptions options = OptionsFor(app);
  options.wasabi.cache = store.get();
  RepairReport report = RunOnce(app, options);

  // Starting COLD, the baseline populates per-file entries; each validation
  // re-campaign then hits the q1/when entries of every UNPATCHED file (their
  // digests are unchanged) and misses for the patched file plus the
  // program-digest-keyed namespaces. Both sides non-zero is the slicing
  // signature: neither a full recompute nor an (impossible) full hit.
  const CacheStats& delta = report.validation_cache_delta;
  EXPECT_GT(delta.hits, 0u) << "validation must reuse the unpatched slice";
  EXPECT_GT(delta.misses, 0u) << "a patched file must invalidate its own entries";
  EXPECT_GT(delta.hits_by_namespace.count("q1"), 0u);
  EXPECT_GT(delta.hits_by_namespace.count("when"), 0u);

  fs::remove_all(dir);
}

TEST(RepairE2eTest, EverySimRepairBadPatchIsCaughtNeverReportedFixed) {
  CorpusApp app = BuildCorpusApp("repairlab");

  struct ModeCase {
    const char* name;
    void (*arm)(SimRepairConfig*);
    RepairErrorMode mode;
  };
  const ModeCase kCases[] = {
      {"wrong-location", [](SimRepairConfig* c) { c->wrong_location_percent = 100; },
       RepairErrorMode::kWrongLocation},
      {"cap-too-low", [](SimRepairConfig* c) { c->cap_too_low_percent = 100; },
       RepairErrorMode::kCapTooLow},
      {"drop-jitter", [](SimRepairConfig* c) { c->drop_jitter_percent = 100; },
       RepairErrorMode::kDropJitter},
  };
  for (const ModeCase& mode_case : kCases) {
    SCOPED_TRACE(mode_case.name);
    RepairOptions options = OptionsFor(app);
    mode_case.arm(&options.sim);
    RepairReport report = RunOnce(app, options);
    int corrupted = 0;
    for (const RepairRow& row : report.rows) {
      if (row.error_mode != mode_case.mode) {
        continue;
      }
      ++corrupted;
      EXPECT_NE(row.outcome, RepairOutcome::kFixed)
          << row.file << " / " << row.coordinator
          << ": an injected bad patch must never be reported fixed\n"
          << RepairReportToText(report);
    }
    EXPECT_GT(corrupted, 0) << "the 100% knob must corrupt at least one patch";
  }
}

TEST(RepairE2eTest, CapTooLowIsCaughtBySingleFaultResilienceNotTheVerdictDiff) {
  // Cap 1 clears the missing-cap oracle (no more unbounded retry), so the
  // verdict diff alone would celebrate it. Only the K=1 replay — the patched
  // coordinator no longer survives a single transient fault — exposes it.
  CorpusApp app = BuildCorpusApp("repairlab");
  RepairOptions options = OptionsFor(app);
  options.sim.cap_too_low_percent = 100;
  RepairReport report = RunOnce(app, options);
  int regressed_caps = 0;
  for (const RepairRow& row : report.rows) {
    if (row.error_mode != RepairErrorMode::kCapTooLow) {
      continue;
    }
    EXPECT_EQ(row.outcome, RepairOutcome::kRegressed)
        << row.coordinator << ": " << row.note;
    EXPECT_NE(row.note.find("single-fault replay"), std::string::npos) << row.note;
    ++regressed_caps;
  }
  EXPECT_GT(regressed_caps, 0);
}

TEST(RepairE2eTest, SimRepairReportsAreDeterministicToo) {
  CorpusApp app = BuildCorpusApp("repairlab");
  RepairOptions options = OptionsFor(app);
  options.sim.wrong_location_percent = 40;
  options.sim.cap_too_low_percent = 40;
  options.sim.drop_jitter_percent = 40;
  std::string first = RepairReportToJson(RunOnce(app, options));
  options.wasabi.jobs = 4;
  EXPECT_EQ(RepairReportToJson(RunOnce(app, options)), first)
      << "error-mode draws are keyed on (seed, bug), not execution order";
}

// With a tracer, the repair thread records one repair.baseline span, which
// holds every span of the traced baseline pipeline (phase.*, storm.*, runs),
// and per patched bug a repair.patch span and a repair.validate span holding
// repair.pipeline, repair.clean_suite and repair.k1_probes. Validation
// pipelines run untraced: no other span falls outside the baseline.
TEST(RepairE2eTest, TraceCoversTheRepairLoopWithAFixedSpanTaxonomy) {
  CorpusApp app = BuildCorpusApp("repairlab");
  Tracer tracer;
  RepairOptions options = OptionsFor(app);
  options.wasabi.tracer = &tracer;
  RepairReport report = RunOnce(app, options);
  EXPECT_EQ(RepairReportToJson(report), RepairReportToJson(RunOnce(app, OptionsFor(app))))
      << "a tracer must not change the report";

  std::map<std::string, std::vector<TraceEvent>> spans;
  for (TraceEvent& event : tracer.Collect()) {
    if (event.phase == 'X') {
      spans[event.name].push_back(std::move(event));
    }
  }
  auto inside = [](const TraceEvent& inner, const TraceEvent& outer) {
    return inner.start_us >= outer.start_us &&
           inner.start_us + inner.duration_us <= outer.start_us + outer.duration_us;
  };
  size_t k1_probed = 0;
  for (const RepairRow& row : report.rows) {
    k1_probed += row.patched && row.tmpl != RepairTemplate::kShedOnOverload ? 1 : 0;
  }
  const auto patched = static_cast<size_t>(report.totals.patched);
  ASSERT_EQ(patched, 7u);
  ASSERT_EQ(spans["repair.baseline"].size(), 1u);
  const TraceEvent& baseline = spans["repair.baseline"][0];
  EXPECT_EQ(spans["repair.patch"].size(), patched);
  EXPECT_EQ(spans["repair.validate"].size(), patched);
  EXPECT_EQ(spans["repair.pipeline"].size(), patched);
  EXPECT_EQ(spans["repair.clean_suite"].size(), patched + 1);
  EXPECT_EQ(spans["repair.k1_probes"].size(), k1_probed);
  EXPECT_EQ(spans["storm.profile"].size(), 1u);
  EXPECT_EQ(spans["storm.sim"].size(), 1u);
  EXPECT_EQ(spans["phase.campaign"].size(), 1u);
  for (const auto& [name, events] : spans) {
    if (name.rfind("repair.", 0) == 0) {
      continue;
    }
    for (const TraceEvent& event : events) {
      EXPECT_TRUE(inside(event, baseline)) << name << " outside repair.baseline";
    }
  }

  // Validation children nest in a repair.validate on the repair thread; one
  // clean suite belongs to the baseline.
  int baseline_clean_suites = 0;
  for (const char* child : {"repair.pipeline", "repair.clean_suite", "repair.k1_probes"}) {
    for (const TraceEvent& event : spans[child]) {
      if (inside(event, baseline)) {
        ++baseline_clean_suites;
        EXPECT_STREQ(child, "repair.clean_suite");
        continue;
      }
      bool nested = false;
      for (const TraceEvent& validate : spans["repair.validate"]) {
        nested = nested || (validate.tid == event.tid && inside(event, validate));
      }
      EXPECT_TRUE(nested) << child << " outside every repair.validate";
    }
  }
  EXPECT_EQ(baseline_clean_suites, 1);

  // Three patches reach no service probe (baseline profiles and verdicts
  // reused); the other four re-probe their own service only.
  std::map<std::string, int64_t> totals;
  for (const TraceEvent& event : spans["repair.pipeline"]) {
    std::map<std::string, int64_t> args(event.int_args.begin(), event.int_args.end());
    ASSERT_EQ(args.size(), 3u);
    EXPECT_EQ(args["services_probed"] + args["services_reused"], 4);
    for (const auto& [key, value] : args) {
      totals[key] += value;
    }
  }
  EXPECT_EQ(totals["services_probed"], 4);
  EXPECT_EQ(totals["services_reused"], 24);
  EXPECT_EQ(totals["sim_reused"], 3);
}

TEST(RepairE2eTest, RepairJsonIsVersionedAndCacheFree) {
  CorpusApp app = BuildCorpusApp("repairlab");
  std::string json = RepairReportToJson(RunOnce(app, OptionsFor(app)));
  EXPECT_NE(json.find("\"version\": \"wasabi-repair-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"app\": \"repairlab\""), std::string::npos);
  // The slicing evidence is in-memory only: serialized bytes must not depend
  // on cache state.
  EXPECT_EQ(json.find("cache"), std::string::npos);
}

}  // namespace
}  // namespace wasabi
