// Seeded byte-mutation fuzzing of the on-disk event codecs (ctest label
// "fuzz", run under AddressSanitizer by scripts/reproduce.sh). Three real
// inputs from one recorded, journaled flakylab campaign — a run-<id>.rec
// file, the record directory's MANIFEST.tsv, and the campaign's journal JSON
// — each take 10,000 bit flips, truncations, and byte insertions. The contract: a mutated
// record or manifest is always rejected with a diagnostic (every byte is
// under the checksum), a mutated journal either parses or fails with a
// diagnostic, and nothing crashes or reads out of bounds.
//
// The dynamic workflow's cache entry ("camp", src/core/cache_codec.h) takes
// the same 10,000 mutations: nothing crashes, and every mutant that still
// decodes holds only in-range enums and listed locations. Its codec must also
// round-trip: encode, decode, encode is byte-stable on every corpus app and
// lab.
//
// The cache store's loader (src/cache/store.h) takes 10,000 bit flips,
// truncations, insertions and duplicated lines of a real entries.tsv (hbase
// after the dynamic and static workflows): Open never fails, every line that
// is not byte-identical to an intact record is dropped and counted as
// corrupt, and every Get returns nothing or a value an intact record of that
// key carried.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <unordered_set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/cache/store.h"
#include "src/core/cache_codec.h"
#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"
#include "src/obs/journal.h"
#include "src/record/recorder.h"

namespace wasabi {
namespace {

namespace fs = std::filesystem;

constexpr int kCasesPerInput = 10'000;

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Case i applies one mutation, cycling bit flip / truncation / insertion.
std::string Mutate(const std::string& input, int i, std::mt19937_64& rng) {
  std::string out = input;
  const size_t pos = rng() % input.size();
  switch (i % 3) {
    case 0:
      out[pos] = static_cast<char>(out[pos] ^ (1u << (rng() % 8)));
      break;
    case 1:
      out.resize(pos);
      break;
    default:
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos), static_cast<char>(rng() % 256));
      break;
  }
  return out;
}

// Runs kCasesPerInput mutations of `input` through `parse` (which returns
// whether the text parsed and fills its diagnostic otherwise).
void FuzzInput(const std::string& name, const std::string& input, uint64_t seed,
               bool must_reject,
               const std::function<bool(const std::string&, std::string*)>& parse) {
  ASSERT_FALSE(input.empty()) << name;
  std::string error;
  ASSERT_TRUE(parse(input, &error)) << name << " does not parse unmutated: " << error;
  std::mt19937_64 rng(seed);
  int accepted = 0;
  for (int i = 0; i < kCasesPerInput; ++i) {
    const std::string mutated = Mutate(input, i, rng);
    error.clear();
    if (parse(mutated, &error)) {
      ++accepted;
      EXPECT_FALSE(must_reject) << name << " case " << i << " was accepted";
    } else {
      EXPECT_FALSE(error.empty()) << name << " case " << i << " failed without a diagnostic";
    }
  }
  ::testing::Test::RecordProperty(name + "_accepted", accepted);
}

TEST(CodecFuzzTest, MutatedRecordsManifestsAndJournalsNeverCrash) {
  CorpusApp app = BuildCorpusApp("flakylab");
  const fs::path dir = fs::path(::testing::TempDir()) / "wasabi_codec_fuzz_test";
  fs::remove_all(dir);
  WasabiOptions options;
  options.app_name = app.name;
  options.default_configs = app.default_configs;
  options.record_dir = dir.string();
  options.robust.chaos.enabled = true;
  options.robust.chaos.seed = 7;
  options.robust.chaos.rate = 0.2;
  options.robust.chaos.env_rate = 0.5;
  RetryJournal journal;
  Wasabi wasabi(app.program, *app.index, options);
  wasabi.set_observability(nullptr, nullptr, nullptr, &journal);
  ASSERT_TRUE(wasabi.RunDynamicWorkflow().record_error.empty());

  // The first run that backed off after a chaos-faulted attempt, so its
  // record carries host-failure and backoff events as well.
  RecordManifest manifest;
  std::string error;
  ASSERT_TRUE(LoadRecordManifest(dir.string(), &manifest, &error)) << error;
  std::string record;
  for (const RecordManifest::Entry& entry : manifest.runs) {
    record = ReadFileBytes(dir / RecordFileName(entry.run_id));
    if (record.find("backoff_wait") != std::string::npos) {
      break;
    }
  }
  ASSERT_NE(record.find("backoff_wait"), std::string::npos);

  FuzzInput("record", record, 1, /*must_reject=*/true,
            [](const std::string& text, std::string* diagnostic) {
              RecordedRun parsed;
              return ParseRecordedRun(text, &parsed, diagnostic);
            });
  FuzzInput("manifest", ReadFileBytes(dir / "MANIFEST.tsv"), 2, /*must_reject=*/true,
            [](const std::string& text, std::string* diagnostic) {
              RecordManifest parsed;
              return ParseRecordManifest(text, &parsed, diagnostic);
            });
  FuzzInput("journal", journal.ToJson(app.name), 3, /*must_reject=*/false,
            [](const std::string& text, std::string* diagnostic) {
              std::vector<JournalEvent> events;
              std::string parsed_app;
              return RetryJournal::ParseJson(text, &events, &parsed_app, diagnostic);
            });
  fs::remove_all(dir);
}

// The range checks DecodeDynamicEntry promises for everything it accepts.
void ExpectDecodedWithinRange(const DynamicResult& decoded, int case_index) {
  std::unordered_set<std::string> keys;
  for (const RetryLocation& location : decoded.locations) {
    keys.insert(location.Key());
  }
  for (const auto& [test, hits] : decoded.coverage) {
    EXPECT_FALSE(hits.empty()) << "case " << case_index << " " << test;
    for (size_t hit : hits) {
      EXPECT_LT(hit, decoded.locations.size()) << "case " << case_index;
    }
  }
  for (const RunFailure& failure : decoded.quarantined) {
    EXPECT_LE(static_cast<int>(failure.kind), static_cast<int>(RunFailureKind::kChaos))
        << "case " << case_index;
    EXPECT_GE(failure.attempts, 0) << "case " << case_index;
  }
  for (const OracleReport& report : decoded.raw_reports) {
    EXPECT_LE(static_cast<int>(report.kind), static_cast<int>(OracleKind::kDifferentException))
        << "case " << case_index;
    EXPECT_LE(static_cast<int>(report.stability),
              static_cast<int>(VerdictStability::kChaosInduced))
        << "case " << case_index;
    EXPECT_EQ(keys.count(report.location.Key()), 1u) << "case " << case_index;
  }
  const RobustnessStats& stats = decoded.robustness;
  for (int64_t counter : {stats.retries, stats.recovered, stats.quarantined, stats.chaos_faults,
                          stats.breaker_open, stats.fail_fast_skipped,
                          stats.backoff_virtual_ms}) {
    EXPECT_GE(counter, 0) << "case " << case_index;
  }
}

// Decodes `entry` against `locations` into a fresh result.
bool DecodeAgainst(const std::string& entry, const std::vector<RetryLocation>& locations,
                   DynamicResult* decoded) {
  decoded->locations = locations;
  return DecodeDynamicEntry(entry, decoded);
}

TEST(CodecFuzzTest, MutatedDynamicEntriesNeverCrashAndDecodeOnlyInRange) {
  // `--repetitions 2 --chaos 7:0.2:0.5` on flakylab, with host retries off
  // so that chaos-faulted runs are quarantined: the entry then carries
  // coverage, reports with prober fields, quarantines, and open circuits.
  CorpusApp app = BuildCorpusApp("flakylab");
  WasabiOptions options;
  options.app_name = app.name;
  options.default_configs = app.default_configs;
  options.prober.repetitions = 2;
  options.robust.chaos.enabled = true;
  options.robust.chaos.seed = 7;
  options.robust.chaos.rate = 0.2;
  options.robust.chaos.env_rate = 0.5;
  options.robust.retry.max_attempts = 1;
  Wasabi wasabi(app.program, *app.index, options);
  const DynamicResult result = wasabi.RunDynamicWorkflow();
  ASSERT_FALSE(result.coverage.empty());
  ASSERT_FALSE(result.quarantined.empty());
  ASSERT_GT(result.probed_runs, 0u);
  ASSERT_FALSE(result.raw_reports.empty());
  const std::string entry = EncodeDynamicEntry(result);

  DynamicResult decoded;
  ASSERT_TRUE(DecodeAgainst(entry, result.locations, &decoded));
  EXPECT_EQ(EncodeDynamicEntry(decoded), entry);

  std::mt19937_64 rng(4);
  int accepted = 0;
  for (int i = 0; i < kCasesPerInput; ++i) {
    const std::string mutated = Mutate(entry, i, rng);
    DynamicResult mutant;
    if (!DecodeAgainst(mutated, result.locations, &mutant)) {
      EXPECT_TRUE(mutant.raw_reports.empty() && mutant.coverage.empty())
          << "case " << i << " failed but changed the result";
      continue;
    }
    ++accepted;
    ExpectDecodedWithinRange(mutant, i);
    // What decodes re-encodes to an entry that decodes again.
    DynamicResult again;
    EXPECT_TRUE(DecodeAgainst(EncodeDynamicEntry(mutant), result.locations, &again))
        << "case " << i;
  }
  ::testing::Test::RecordProperty("dynamic_entry_accepted", accepted);
  std::cout << "dynamic entry: " << accepted << " of " << kCasesPerInput
            << " mutants decode\n";
}

TEST(CodecFuzzTest, DynamicEntryRoundTripsOnEveryAppAndLab) {
  std::vector<std::string> names = CorpusAppNames();
  names.insert(names.end(), {"flakylab", "stormlab", "repairlab"});
  for (const std::string& name : names) {
    CorpusApp app = BuildCorpusApp(name);
    WasabiOptions options;
    options.app_name = app.name;
    options.default_configs = app.default_configs;
    Wasabi wasabi(app.program, *app.index, options);
    const DynamicResult result = wasabi.RunDynamicWorkflow();
    const std::string entry = EncodeDynamicEntry(result);
    DynamicResult decoded;
    ASSERT_TRUE(DecodeAgainst(entry, result.locations, &decoded)) << name;
    EXPECT_EQ(EncodeDynamicEntry(decoded), entry) << name;
    EXPECT_EQ(decoded.coverage, result.coverage) << name;
    EXPECT_EQ(decoded.raw_reports.size(), result.raw_reports.size()) << name;
  }
}

// The non-empty lines of `text`, split on '\n' as the store's loader does.
std::vector<std::string> NonEmptyLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

// Case i applies one mutation, cycling bit flip / truncation / insertion /
// a copy of one of `lines` (the intact records) inserted at a line start.
std::string MutateStore(const std::string& input, const std::vector<std::string>& lines, int i,
                        std::mt19937_64& rng) {
  if (i % 4 != 3) {
    return Mutate(input, i % 4, rng);
  }
  std::vector<size_t> starts = {0};
  for (size_t at = input.find('\n'); at != std::string::npos && at + 1 < input.size();
       at = input.find('\n', at + 1)) {
    starts.push_back(at + 1);
  }
  std::string out = input;
  out.insert(starts[rng() % starts.size()], lines[rng() % lines.size()] + "\n");
  return out;
}

TEST(CodecFuzzTest, MutatedCacheStoresServeOnlyIntactRecords) {
  CorpusApp app = BuildCorpusApp("hbase");
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("wasabi_store_fuzz_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  std::string error;
  {
    std::unique_ptr<CacheStore> store = CacheStore::Open(dir.string(), &error);
    ASSERT_NE(store, nullptr) << error;
    WasabiOptions options;
    options.app_name = app.name;
    options.default_configs = app.default_configs;
    options.cache = store.get();
    Wasabi wasabi(app.program, *app.index, options);
    wasabi.RunDynamicWorkflow();
    wasabi.RunStaticWorkflow();
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  const std::string original = ReadFileBytes(dir / "entries.tsv");
  const std::vector<std::string> lines = NonEmptyLines(original);
  ASSERT_GT(lines.size(), 100u);
  const std::set<std::string> intact(lines.begin(), lines.end());

  // Every value the intact records carry, by (namespace, key).
  std::map<std::pair<std::string, std::string>, std::set<std::string>> values;
  for (const std::string& line : lines) {
    const size_t t1 = line.find('\t');
    const size_t t2 = line.find('\t', t1 + 1);
    const size_t t3 = line.find('\t', t2 + 1);
    ASSERT_NE(t3, std::string::npos) << line;
    std::string key;
    std::string value;
    ASSERT_TRUE(CacheStore::UnescapeField(line.substr(t2 + 1, t3 - t2 - 1), &key));
    ASSERT_TRUE(CacheStore::UnescapeField(line.substr(t3 + 1), &value));
    values[{line.substr(t1 + 1, t2 - t1 - 1), key}].insert(value);
  }
  std::set<std::string> namespaces;
  for (const auto& [name, carried] : values) {
    namespaces.insert(name.first);
  }
  ASSERT_EQ(namespaces, (std::set<std::string>{"camp", "q1", "when"}));

  std::mt19937_64 rng(5);
  int64_t dropped = 0;
  for (int i = 0; i < kCasesPerInput; ++i) {
    const std::string mutated = MutateStore(original, lines, i, rng);
    {
      std::ofstream out(dir / "entries.tsv", std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    int64_t expect_loaded = 0;
    int64_t expect_corrupt = 0;
    for (const std::string& line : NonEmptyLines(mutated)) {
      ++(intact.count(line) > 0 ? expect_loaded : expect_corrupt);
    }
    std::unique_ptr<CacheStore> store = CacheStore::Open(dir.string(), &error);
    ASSERT_NE(store, nullptr) << "case " << i << ": " << error;
    const CacheStats stats = store->stats();
    ASSERT_EQ(stats.loaded_entries, expect_loaded) << "case " << i;
    ASSERT_EQ(stats.corrupt_entries, expect_corrupt) << "case " << i;
    dropped += stats.corrupt_entries;
    for (const auto& [name, carried] : values) {
      const std::optional<std::string> got = store->Get(name.first, name.second);
      ASSERT_TRUE(!got.has_value() || carried.count(*got) > 0)
          << "case " << i << " served a value no intact record of " << name.first << "/"
          << name.second << " carried";
    }
  }
  fs::remove_all(dir);
  std::cout << "cache store: " << dropped << " damaged records dropped over " << kCasesPerInput
            << " mutants of " << lines.size() << " records\n";
}

}  // namespace
}  // namespace wasabi
