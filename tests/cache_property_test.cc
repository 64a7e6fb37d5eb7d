// Cache-correctness property tests (ctest label "cache", docs/CACHING.md).
//
// The contract under test: attaching a CacheStore NEVER changes any workflow
// output — not on a cold run (populate), not on a warm run (full replay), not
// after mutating exactly one corpus file (partial replay), and not with a
// poisoned cache directory (checksum/version fallback). The cache may only
// ever trade recomputation for lookups; a wrong report is the one failure
// mode that must be impossible.
//
// Invalidation granularity is also pinned here: mutating one non-test source
// file must recompute exactly that file's per-file SimLLM entries (q1/when
// namespaces) while every other file replays, and must miss the dynamic
// workflow's one program-digest-keyed entry (camp) exactly once. The store's
// shape is pinned too: per-file entries plus one entry per dynamic workflow.

#include <unistd.h>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/cache/store.h"
#include "src/core/report_json.h"
#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"

namespace wasabi {
namespace {

// Flattens everything the dynamic workflow reports (the golden-equivalence
// fingerprint): bugs, raw oracle firings, coverage, counters, quarantine set.
std::string DynamicFingerprint(const DynamicResult& result) {
  std::ostringstream out;
  out << "bugs=" << BugReportsToJson(result.bugs);
  out << "\nraw_reports=" << result.raw_reports.size() << "\n";
  for (const OracleReport& report : result.raw_reports) {
    out << OracleKindName(report.kind) << "|" << report.test << "|"
        << report.location.retried_method << "|" << report.group_key << "|" << report.detail
        << "\n";
  }
  out << "coverage=\n";
  for (const auto& [test, hits] : result.coverage) {
    out << test << ":";
    for (size_t hit : hits) {
      out << " " << hit;
    }
    out << "\n";
  }
  out << "locations=" << result.locations.size() << " total_tests=" << result.total_tests
      << " covering=" << result.tests_covering_retry << " planned=" << result.planned_runs
      << " naive=" << result.naive_runs << " structures=" << result.structures_identified << "/"
      << result.structures_covered << " restored=" << result.config_restrictions_restored << "\n";
  out << "degraded=" << result.degraded << " quarantined=" << result.quarantined.size() << "\n";
  for (const RunFailure& failure : result.quarantined) {
    out << failure.run_id << "|" << failure.test << "|" << failure.location << "|"
        << RunFailureKindName(failure.kind) << "|" << failure.attempts << "\n";
  }
  out << "robust retries=" << result.robustness.retries
      << " recovered=" << result.robustness.recovered
      << " quarantined=" << result.robustness.quarantined
      << " chaos=" << result.robustness.chaos_faults
      << " breaker=" << result.robustness.breaker_open
      << " backoff=" << result.robustness.backoff_virtual_ms << "\n";
  return out.str();
}

// Static workflow surface, including the replayed LLM usage counters (the
// cache stores per-file usage deltas; their sum must reproduce the cache-off
// totals exactly).
std::string StaticFingerprint(const StaticResult& result) {
  std::ostringstream out;
  out << "when=" << BugReportsToJson(result.when_bugs);
  out << "\nif=" << BugReportsToJson(result.if_bugs);
  out << "\noutliers=" << result.if_outliers.size();
  out << "\nllm calls=" << result.llm_usage.calls << " bytes=" << result.llm_usage.bytes_sent
      << " tokens=" << result.llm_usage.prompt_tokens << "\n";
  return out.str();
}

std::string IdentificationFingerprint(const IdentificationResult& result) {
  std::ostringstream out;
  out << "structures=" << result.structures.size() << "\n";
  for (const RetryStructure& structure : result.structures) {
    out << structure.coordinator << "|" << static_cast<int>(structure.mechanism) << "|"
        << structure.found_by.codeql << structure.found_by.llm << "\n";
  }
  out << "truncated=" << result.files_truncated_by_llm
      << " candidates=" << result.candidate_loops_without_keyword_filter
      << " llm calls=" << result.llm_usage.calls << " bytes=" << result.llm_usage.bytes_sent
      << " tokens=" << result.llm_usage.prompt_tokens << "\n";
  return out.str();
}

bool IsTestUnit(const std::string& file) {
  return file.find("/test/") != std::string::npos || file.rfind("test/", 0) == 0;
}

// Reparses `base` into a fresh Program, appending a comment (digest-visible,
// semantics-preserving) to the unit at `mutate_index`; pass SIZE_MAX for a
// byte-identical rebuild.
mj::Program RebuildProgram(const mj::Program& base, size_t mutate_index) {
  mj::Program rebuilt;
  mj::DiagnosticEngine diag;
  for (size_t i = 0; i < base.units().size(); ++i) {
    const auto& unit = base.units()[i];
    std::string text(unit->file().text());
    if (i == mutate_index) {
      text += "\n// cache-property mutation\n";
    }
    rebuilt.AddUnit(mj::ParseSource(unit->file().name(), text, diag));
  }
  EXPECT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
  return rebuilt;
}

size_t FirstNonTestUnit(const mj::Program& program) {
  for (size_t i = 0; i < program.units().size(); ++i) {
    if (!IsTestUnit(program.units()[i]->file().name())) {
      return i;
    }
  }
  ADD_FAILURE() << "corpus app has no non-test unit";
  return 0;
}

class CachePropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "wasabi_cache_property_test_" +
           std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<CacheStore> OpenStore() {
    std::string error;
    std::unique_ptr<CacheStore> store = CacheStore::Open(dir_, &error);
    EXPECT_NE(store, nullptr) << error;
    return store;
  }

  static WasabiOptions OptionsFor(const CorpusApp& app) {
    WasabiOptions options;
    options.app_name = app.name;
    options.default_configs = app.default_configs;
    return options;
  }

  std::string dir_;
};

TEST_F(CachePropertyTest, WarmRunIsByteIdenticalAndSkipsEveryNamespace) {
  CorpusApp app = BuildCorpusApp("hacommon");

  // Ground truth: the workflows without any cache attached.
  Wasabi plain(app.program, *app.index, OptionsFor(app));
  const std::string base_identify = IdentificationFingerprint(plain.IdentifyRetryStructures());
  const std::string base_dynamic = DynamicFingerprint(plain.RunDynamicWorkflow());
  const std::string base_static = StaticFingerprint(plain.RunStaticWorkflow());

  // Cold run populates; output must not move.
  MetricsRegistry cold_metrics;
  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(app.program, *app.index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.set_observability(nullptr, &cold_metrics);
    EXPECT_EQ(IdentificationFingerprint(cold.IdentifyRetryStructures()), base_identify);
    EXPECT_EQ(DynamicFingerprint(cold.RunDynamicWorkflow()), base_dynamic);
    EXPECT_EQ(StaticFingerprint(cold.RunStaticWorkflow()), base_static);
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
    EXPECT_GT(store->stats().puts, 0);
  }
  EXPECT_GT(cold_metrics.CounterValue("cache.misses.q1"), 0);
  EXPECT_EQ(cold_metrics.CounterValue("cache.misses.camp"), 1);
  EXPECT_GT(cold_metrics.CounterValue("cache.misses.when"), 0);

  // Warm run replays everything: zero misses, hit counts mirror the cold
  // misses, and every fingerprint is byte-identical.
  MetricsRegistry warm_metrics;
  std::unique_ptr<CacheStore> store = OpenStore();
  EXPECT_GT(store->stats().loaded_entries, 0);
  Wasabi warm(app.program, *app.index, OptionsFor(app));
  warm.set_cache(store.get());
  warm.set_observability(nullptr, &warm_metrics);
  EXPECT_EQ(IdentificationFingerprint(warm.IdentifyRetryStructures()), base_identify);
  EXPECT_EQ(DynamicFingerprint(warm.RunDynamicWorkflow()), base_dynamic);
  EXPECT_EQ(StaticFingerprint(warm.RunStaticWorkflow()), base_static);

  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.q1"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.camp"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.when"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.q1"),
            cold_metrics.CounterValue("cache.misses.q1"));
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.camp"), 1);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.when"),
            cold_metrics.CounterValue("cache.misses.when"));
}

TEST_F(CachePropertyTest, SingleFileMutationRecomputesOnlyDigestDependents) {
  CorpusApp app = BuildCorpusApp("hacommon");

  // Populate from the pristine program.
  MetricsRegistry cold_metrics;
  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(app.program, *app.index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.set_observability(nullptr, &cold_metrics);
    cold.RunDynamicWorkflow();
    cold.RunStaticWorkflow();
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }

  // Mutate exactly one non-test file (an appended comment: the content digest
  // hashes comments and byte length, so this invalidates like a code edit).
  const size_t mutated_unit = FirstNonTestUnit(app.program);
  mj::Program mutated = RebuildProgram(app.program, mutated_unit);
  mj::ProgramIndex mutated_index(mutated);

  WasabiOptions options = OptionsFor(app);
  Wasabi mutated_plain(mutated, mutated_index, options);
  const std::string base_dynamic = DynamicFingerprint(mutated_plain.RunDynamicWorkflow());
  const std::string base_static = StaticFingerprint(mutated_plain.RunStaticWorkflow());

  MetricsRegistry warm_metrics;
  std::unique_ptr<CacheStore> store = OpenStore();
  Wasabi warm(mutated, mutated_index, options);
  warm.set_cache(store.get());
  warm.set_observability(nullptr, &warm_metrics);
  DynamicResult dynamic = warm.RunDynamicWorkflow();
  EXPECT_EQ(DynamicFingerprint(dynamic), base_dynamic);
  EXPECT_EQ(StaticFingerprint(warm.RunStaticWorkflow()), base_static);

  // Per-file namespaces: exactly the mutated file recomputes.
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.q1"), 1);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.q1"),
            cold_metrics.CounterValue("cache.misses.q1") - 1);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.when"), 1);
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.when"),
            cold_metrics.CounterValue("cache.misses.when") - 1);

  // The dynamic workflow's entry misses exactly once (a mutated file moves
  // the program digest, and run verdicts are only sound for the exact
  // program they were produced by).
  EXPECT_EQ(warm_metrics.CounterValue("cache.hits.camp"), 0);
  EXPECT_EQ(warm_metrics.CounterValue("cache.misses.camp"), 1);
  EXPECT_GT(dynamic.planned_runs, 0u);
}

// After `test` and `static`, the store holds one q1 and one when entry per
// non-test file and a single camp entry for the whole dynamic workflow.
TEST_F(CachePropertyTest, StoreHoldsPerFileEntriesAndOneDynamicEntry) {
  CorpusApp app = BuildCorpusApp("hbase");
  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(app.program, *app.index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.RunDynamicWorkflow();
    cold.RunStaticWorkflow();
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  int64_t source_files = 0;
  for (const auto& unit : app.program.units()) {
    source_files += IsTestUnit(unit->file().name()) ? 0 : 1;
  }

  // entries.tsv holds one `<checksum>\t<namespace>\t<key>\t<value>` line per
  // record; count them by namespace.
  std::ifstream in(dir_ + "/entries.tsv", std::ios::binary);
  std::map<std::string, int64_t> by_namespace;
  int64_t bytes = 0;
  for (std::string line; std::getline(in, line);) {
    bytes += static_cast<int64_t>(line.size()) + 1;
    const size_t first = line.find('\t');
    ASSERT_NE(first, std::string::npos) << line;
    ++by_namespace[line.substr(first + 1, line.find('\t', first + 1) - first - 1)];
  }
  const std::map<std::string, int64_t> expected = {
      {"camp", 1}, {"q1", source_files}, {"when", source_files}};
  EXPECT_EQ(by_namespace, expected);
  EXPECT_GT(source_files, 0);
  ::testing::Test::RecordProperty("store_bytes", static_cast<int>(bytes));

  // A warm re-run reads that entry once and writes nothing.
  std::unique_ptr<CacheStore> store = OpenStore();
  Wasabi warm(app.program, *app.index, OptionsFor(app));
  warm.set_cache(store.get());
  warm.RunDynamicWorkflow();
  warm.RunStaticWorkflow();
  EXPECT_EQ(store->stats().hits_by_namespace["camp"], 1);
  EXPECT_EQ(store->stats().misses, 0);
  EXPECT_EQ(store->stats().puts, 0);
}

TEST_F(CachePropertyTest, PoisonedEntriesFallBackColdWithoutWrongReports) {
  CorpusApp app = BuildCorpusApp("hacommon");
  Wasabi plain(app.program, *app.index, OptionsFor(app));
  const std::string base_dynamic = DynamicFingerprint(plain.RunDynamicWorkflow());

  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(app.program, *app.index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.RunDynamicWorkflow();
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }

  // Poison the entries file: tear off the tail mid-record and append garbage.
  const std::string entries_path = dir_ + "/entries.tsv";
  std::string content;
  {
    std::ifstream in(entries_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    content = buffer.str();
  }
  ASSERT_GT(content.size(), 100u);
  content.resize(content.size() * 3 / 5);
  content += "\ngarbage that is definitely not a record\n\t\t\t\t\t\n";
  {
    std::ofstream out(entries_path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  // The damaged store must detect and drop poisoned records (counted), serve
  // what survived, and the report must still not move by a byte.
  std::unique_ptr<CacheStore> store = OpenStore();
  EXPECT_GT(store->stats().corrupt_entries, 0);
  Wasabi warm(app.program, *app.index, OptionsFor(app));
  warm.set_cache(store.get());
  EXPECT_EQ(DynamicFingerprint(warm.RunDynamicWorkflow()), base_dynamic);
}

TEST_F(CachePropertyTest, VersionMismatchFallsBackColdAndRecovers) {
  CorpusApp app = BuildCorpusApp("hacommon");
  Wasabi plain(app.program, *app.index, OptionsFor(app));
  const std::string base_dynamic = DynamicFingerprint(plain.RunDynamicWorkflow());

  {
    std::unique_ptr<CacheStore> store = OpenStore();
    Wasabi cold(app.program, *app.index, OptionsFor(app));
    cold.set_cache(store.get());
    cold.RunDynamicWorkflow();
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  {
    std::ofstream version(dir_ + "/VERSION", std::ios::trunc);
    version << "wasabi-cache-v999-from-the-future\n";
  }

  // Stale-schema store: discarded wholesale, run falls back cold, and the
  // Flush re-populates the directory under the current schema.
  MetricsRegistry metrics;
  {
    std::unique_ptr<CacheStore> store = OpenStore();
    EXPECT_EQ(store->stats().version_mismatches, 1);
    EXPECT_EQ(store->stats().loaded_entries, 0);
    Wasabi warm(app.program, *app.index, OptionsFor(app));
    warm.set_cache(store.get());
    warm.set_observability(nullptr, &metrics);
    EXPECT_EQ(DynamicFingerprint(warm.RunDynamicWorkflow()), base_dynamic);
    EXPECT_EQ(metrics.CounterValue("cache.hits.camp"), 0);
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  std::unique_ptr<CacheStore> recovered = OpenStore();
  EXPECT_EQ(recovered->stats().version_mismatches, 0);
  EXPECT_GT(recovered->stats().loaded_entries, 0);
}

}  // namespace
}  // namespace wasabi
