// Retry-journal contract tests (ctest label "obsjournal",
// docs/OBSERVABILITY.md "Retry journal"). The contracts: the collected
// journal is byte-identical at any worker count (with and without host
// chaos), journaling is output-neutral (bug reports byte-identical journal on
// vs off, including against a warm result cache, whose dynamic-workflow
// entry a journaled run never reads), the JSON export round-trips through the
// strict parser, and every campaign location surfaces in the derived retry
// analytics.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/store.h"
#include "src/core/report_json.h"
#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"
#include "src/obs/journal.h"
#include "src/obs/retry_stats.h"

namespace wasabi {
namespace {

namespace fs = std::filesystem;

WasabiOptions JournalOptionsFor(const CorpusApp& app) {
  WasabiOptions options;
  options.app_name = app.name;
  options.default_configs = app.default_configs;
  options.prober.repetitions = 2;
  // Degraded environment on every run, no host-level fault interference: the
  // chaos-cap seed fires deterministically (same setup as the prober tests).
  options.robust.chaos.enabled = true;
  options.robust.chaos.seed = 42;
  options.robust.chaos.rate = 0.0;
  options.robust.chaos.env_rate = 1.0;
  return options;
}

std::string JournalJsonAt(const CorpusApp& app, WasabiOptions options, int jobs,
                          DynamicResult* result_out = nullptr) {
  options.jobs = jobs;
  RetryJournal journal;
  Wasabi wasabi(app.program, *app.index, options);
  wasabi.set_observability(nullptr, nullptr, nullptr, &journal);
  DynamicResult result = wasabi.RunDynamicWorkflow();
  if (result_out != nullptr) {
    *result_out = std::move(result);
  }
  return journal.ToJson(app.name);
}

TEST(JournalDeterminismTest, ByteIdenticalAtEveryWorkerCount) {
  CorpusApp app = BuildCorpusApp("flakylab");
  const std::string baseline = JournalJsonAt(app, JournalOptionsFor(app), /*jobs=*/1);
  EXPECT_NE(baseline.find("\"wasabi-journal-v1\""), std::string::npos);
  EXPECT_NE(baseline.find("\"attempt_end\""), std::string::npos);
  EXPECT_NE(baseline.find("\"inject_fire\""), std::string::npos);
  EXPECT_NE(baseline.find("\"probe_rep\""), std::string::npos);
  for (int jobs : {2, 4, 8}) {
    EXPECT_EQ(JournalJsonAt(app, JournalOptionsFor(app), jobs), baseline)
        << "jobs=" << jobs;
  }
}

TEST(JournalDeterminismTest, ByteIdenticalUnderHostChaos) {
  // Nonzero host-fault rate exercises the retry/backoff/quarantine half of
  // the journal (host_failure, backoff_wait events) — still deterministic,
  // because chaos decisions are seeded per run id, not per worker.
  CorpusApp app = BuildCorpusApp("flakylab");
  WasabiOptions options = JournalOptionsFor(app);
  options.robust.chaos.rate = 0.2;
  const std::string one = JournalJsonAt(app, options, /*jobs=*/1);
  const std::string four = JournalJsonAt(app, options, /*jobs=*/4);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"host_failure\""), std::string::npos);
  EXPECT_NE(one.find("\"backoff_wait\""), std::string::npos);
}

TEST(JournalNeutralityTest, JournalingDoesNotChangeResults) {
  CorpusApp app = BuildCorpusApp("flakylab");

  Wasabi plain(app.program, *app.index, JournalOptionsFor(app));
  DynamicResult without = plain.RunDynamicWorkflow();

  DynamicResult with;
  JournalJsonAt(app, JournalOptionsFor(app), /*jobs=*/2, &with);

  EXPECT_EQ(BugReportsToJson(with.bugs), BugReportsToJson(without.bugs));
  EXPECT_EQ(with.raw_reports.size(), without.raw_reports.size());
  EXPECT_EQ(with.probed_runs, without.probed_runs);
  EXPECT_EQ(with.planned_runs, without.planned_runs);
}

TEST(JournalNeutralityTest, WarmCacheIsForcedColdAndStaysNeutral) {
  // A warm dynamic-workflow entry skips execution, which would leave the
  // journal empty; a journaled run therefore never reads it and runs cold
  // (it still writes the entry). The results must still match the warm ones,
  // and the journal must match an uncached run's.
  CorpusApp app = BuildCorpusApp("flakylab");
  WasabiOptions options = JournalOptionsFor(app);

  fs::path dir = fs::path(::testing::TempDir()) / "wasabi_journal_cache_test";
  fs::remove_all(dir);
  std::string error;
  std::unique_ptr<CacheStore> store = CacheStore::Open(dir.string(), &error);
  ASSERT_NE(store, nullptr) << error;

  Wasabi cold(app.program, *app.index, options);
  cold.set_cache(store.get());
  DynamicResult cold_result = cold.RunDynamicWorkflow();

  RetryJournal journal;
  Wasabi journaled(app.program, *app.index, options);
  journaled.set_cache(store.get());
  journaled.set_observability(nullptr, nullptr, nullptr, &journal);
  const CacheStats before = store->stats();
  DynamicResult journaled_result = journaled.RunDynamicWorkflow();
  const CacheStats delta = DiffStats(before, store->stats());

  EXPECT_EQ(BugReportsToJson(journaled_result.bugs), BugReportsToJson(cold_result.bugs));
  EXPECT_EQ(delta.hits_by_namespace.count("camp"), 0u);
  EXPECT_EQ(delta.misses_by_namespace.count("camp"), 0u);
  EXPECT_EQ(delta.puts, 1);  // The workflow entry, rewritten.

  // The cache stream legitimately differs (it records the lookups that only
  // happen when a cache is attached); every other stream must match an
  // uncached run byte for byte — the forced-cold campaign really executed.
  auto without_cache_stream = [&](const std::string& json) {
    std::vector<JournalEvent> events;
    std::string parsed_app;
    std::string parse_error;
    EXPECT_TRUE(RetryJournal::ParseJson(json, &events, &parsed_app, &parse_error))
        << parse_error;
    RetryJournal filtered;
    for (const JournalEvent& event : events) {
      if (event.stream != JournalStream::kCache) {
        filtered.Append(event);
      }
    }
    return filtered.ToJson(parsed_app);
  };
  const std::string with_cache = journal.ToJson(app.name);
  EXPECT_NE(with_cache.find("\"attempt_end\""), std::string::npos);
  EXPECT_NE(with_cache.find("\"cache_hit\""), std::string::npos);
  // Only the per-file identification lookups are journaled.
  for (const JournalEvent& event : journal.Collect()) {
    if (event.stream == JournalStream::kCache) {
      EXPECT_EQ(event.detail, "q1");
    }
  }
  EXPECT_EQ(without_cache_stream(with_cache),
            without_cache_stream(JournalJsonAt(app, options, /*jobs=*/1)));

  fs::remove_all(dir);
}

TEST(JournalJsonTest, ExportRoundTripsThroughStrictParser) {
  CorpusApp app = BuildCorpusApp("flakylab");
  const std::string exported = JournalJsonAt(app, JournalOptionsFor(app), /*jobs=*/1);

  std::vector<JournalEvent> events;
  std::string parsed_app;
  std::string error;
  ASSERT_TRUE(RetryJournal::ParseJson(exported, &events, &parsed_app, &error)) << error;
  EXPECT_EQ(parsed_app, app.name);
  EXPECT_FALSE(events.empty());

  // Re-appending the parsed events reproduces the exact bytes.
  RetryJournal rebuilt;
  for (const JournalEvent& event : events) {
    rebuilt.Append(event);
  }
  EXPECT_EQ(rebuilt.ToJson(parsed_app), exported);

  std::string bad_error;
  EXPECT_FALSE(RetryJournal::ParseJson("{\"version\":\"nope\"}", &events, &parsed_app,
                                       &bad_error));
  EXPECT_FALSE(bad_error.empty());
  EXPECT_FALSE(RetryJournal::ParseJson("not json", &events, &parsed_app, &bad_error));
}

TEST(JournalJsonTest, OutOfRangeIntegersAreRejectedWithTheirOffset) {
  JournalEvent event;
  event.run_id = 3;
  event.seq = 4;
  event.test = "T.t";
  event.location = "loc";
  event.k = 100;
  event.attempt = 2;
  const std::string valid = EncodeJournalEvent(event);
  JournalEvent decoded;
  std::string error;
  ASSERT_TRUE(DecodeJournalEvent(valid, &decoded, &error)) << error;
  EXPECT_EQ(decoded, event);

  // Each case replaces one field's value; the diagnostic names the field and
  // the offset where its value starts.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"\"run\":3", "\"run\":12345678901234567890123"},
      {"\"run\":3", "\"run\":-1"},
      {"\"seq\":4", "\"seq\":-5"},
      {"\"seq\":4", "\"seq\":4294967296"},
      {"\"k\":100", "\"k\":2147483648"},
      {"\"attempt\":2", "\"attempt\":-2147483649"},
      {"\"t_ms\":0", "\"t_ms\":9223372036854775808"},
      {"\"value\":0", "\"value\":-9223372036854775809"},
  };
  for (const auto& [field, replacement] : cases) {
    std::string text = valid;
    const size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    text.replace(at, field.size(), replacement);
    const std::string name = field.substr(1, field.find('"', 1) - 1);
    const size_t offset = at + field.find(':') + 1;
    EXPECT_FALSE(DecodeJournalEvent(text, &decoded, &error)) << replacement;
    EXPECT_EQ(error, "'" + name + "' out of range at offset " + std::to_string(offset))
        << replacement;

    // The same event inside a whole journal fails the same way.
    const std::string journal =
        "{\"version\":\"wasabi-journal-v1\",\"app\":\"a\",\"event_count\":1,\"events\":[" +
        text + "]}";
    std::vector<JournalEvent> events;
    std::string app;
    EXPECT_FALSE(RetryJournal::ParseJson(journal, &events, &app, &error)) << replacement;
    EXPECT_NE(error.find("'" + name + "' out of range"), std::string::npos) << error;
  }

  // The extremes of each field's type still decode.
  std::string extremes = valid;
  extremes.replace(extremes.find("\"seq\":4"), 7, "\"seq\":4294967295");
  extremes.replace(extremes.find("\"t_ms\":0"), 8, "\"t_ms\":-9223372036854775808");
  ASSERT_TRUE(DecodeJournalEvent(extremes, &decoded, &error)) << error;
  EXPECT_EQ(decoded.seq, 4294967295u);
  EXPECT_EQ(decoded.t_ms, INT64_MIN);
}

TEST(JournalAnalyticsTest, EveryCampaignLocationHasRetryStats) {
  // Acceptance check from the issue: amplification/goodput/TTR/latency
  // quantiles exist for every seeded retry bug the campaign exercised.
  CorpusApp app = BuildCorpusApp("flakylab");
  RetryJournal journal;
  Wasabi wasabi(app.program, *app.index, JournalOptionsFor(app));
  wasabi.set_observability(nullptr, nullptr, nullptr, &journal);
  DynamicResult result = wasabi.RunDynamicWorkflow();
  ASSERT_FALSE(result.raw_reports.empty());

  RetryStatsReport stats = ComputeRetryStats(journal.Collect());
  EXPECT_FALSE(stats.runs.empty());
  std::set<std::string> covered;
  for (const LocationRetryStats& loc : stats.locations) {
    EXPECT_GT(loc.runs, 0u);
    EXPECT_GE(loc.amplification, 0.0);
    EXPECT_GE(loc.latency_p99_ms, loc.latency_p50_ms);
    covered.insert(loc.location);
  }
  for (const OracleReport& report : result.raw_reports) {
    EXPECT_TRUE(covered.count(report.location.Key())) << report.location.Key();
  }
  EXPECT_GT(stats.amplification, 0.0);
}

}  // namespace
}  // namespace wasabi
