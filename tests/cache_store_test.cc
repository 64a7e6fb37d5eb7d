// Unit tests for the versioned on-disk cache store (src/cache/store.h, ctest
// label "cache"): field escaping, persistence across sessions, last-write-wins
// reload, one appended record per changed key, schema-version invalidation,
// and — the robustness contract — that corrupt or truncated records can only
// ever cause recomputation (dropped + counted), never a wrong value and never
// a crash.

#include "src/cache/store.h"

#include <unistd.h>
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace wasabi {
namespace {

class CacheStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "wasabi_cache_store_test_" +
           std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<CacheStore> Open() {
    std::string error;
    std::unique_ptr<CacheStore> store = CacheStore::Open(dir_, &error);
    EXPECT_NE(store, nullptr) << error;
    return store;
  }

  std::string EntriesPath() const { return dir_ + "/entries.tsv"; }

  std::string ReadEntriesFile() const {
    std::ifstream in(EntriesPath(), std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  void WriteEntriesFile(const std::string& content) const {
    std::ofstream out(EntriesPath(), std::ios::binary | std::ios::trunc);
    out << content;
  }

  std::string dir_;
};

TEST_F(CacheStoreTest, EscapeRoundTripsEveryHostileByte) {
  const std::vector<std::string> cases = {
      "",
      "plain",
      "tab\there",
      "newline\nhere",
      "carriage\rreturn",
      "back\\slash",
      std::string("field\x1fsep"),
      std::string("record\x1esep"),
      "\\t literal backslash-t",
      std::string("\t\n\\\x1f\x1e"),
  };
  for (const std::string& raw : cases) {
    const std::string escaped = CacheStore::EscapeField(raw);
    EXPECT_EQ(escaped.find('\t'), std::string::npos) << raw;
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << raw;
    std::string back;
    ASSERT_TRUE(CacheStore::UnescapeField(escaped, &back)) << raw;
    EXPECT_EQ(back, raw);
  }
}

TEST_F(CacheStoreTest, GetPutAndStatsAccounting) {
  std::unique_ptr<CacheStore> store = Open();
  EXPECT_FALSE(store->Get("ns", "missing").has_value());
  store->Put("ns", "k", "v");
  std::optional<std::string> hit = store->Get("ns", "k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "v");
  // Namespaces partition the key space.
  EXPECT_FALSE(store->Get("other", "k").has_value());

  CacheStats stats = store->stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.puts, 1);
  EXPECT_EQ(stats.hits_by_namespace.at("ns"), 1);
  EXPECT_EQ(stats.misses_by_namespace.at("other"), 1);
}

TEST_F(CacheStoreTest, FlushPersistsAcrossSessionsAndLastWriteWins) {
  {
    std::unique_ptr<CacheStore> store = Open();
    store->Put("q1", "key1", "first");
    store->Put("camp", "key with\ttab", "value with\nnewline");
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  {
    std::unique_ptr<CacheStore> store = Open();
    EXPECT_EQ(store->stats().loaded_entries, 2);
    EXPECT_EQ(store->Get("q1", "key1").value_or(""), "first");
    EXPECT_EQ(store->Get("camp", "key with\ttab").value_or(""), "value with\nnewline");
    // Overwrite in a second session: Flush appends, reload takes the latest.
    store->Put("q1", "key1", "second");
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  std::unique_ptr<CacheStore> store = Open();
  EXPECT_EQ(store->Get("q1", "key1").value_or(""), "second");
  EXPECT_EQ(store->stats().corrupt_entries, 0);
  EXPECT_EQ(store->stats().version_mismatches, 0);
}

TEST_F(CacheStoreTest, PutsOfHeldValuesAppendNothingAndRepeatedPutsAppendOnce) {
  std::string error;
  {
    std::unique_ptr<CacheStore> store = Open();
    store->Put("camp", "k", "v1");
    store->Put("camp", "k", "v1");
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  const std::string flushed = ReadEntriesFile();
  {
    // A warm session putting the value the key already holds appends nothing,
    // but every call still counts as a put.
    std::unique_ptr<CacheStore> store = Open();
    store->Put("camp", "k", "v1");
    store->Put("camp", "k", "v1");
    EXPECT_EQ(store->stats().puts, 2);
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  EXPECT_EQ(ReadEntriesFile(), flushed);
  {
    // Several puts of one key before a flush append one record, with the
    // last value; a second flush with nothing changed appends nothing.
    std::unique_ptr<CacheStore> store = Open();
    store->Put("camp", "k", "v2");
    store->Put("q1", "other", "x");
    store->Put("camp", "k", "v3");
    store->Put("camp", "k", "v4");
    EXPECT_EQ(store->stats().puts, 4);
    EXPECT_EQ(store->Get("camp", "k").value_or(""), "v4");
    ASSERT_TRUE(store->Flush(&error)) << error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  const std::string entries = ReadEntriesFile();
  ASSERT_EQ(entries.compare(0, flushed.size(), flushed), 0) << "flush must append";
  const std::string appended = entries.substr(flushed.size());
  EXPECT_EQ(std::count(appended.begin(), appended.end(), '\n'), 2) << appended;
  EXPECT_EQ(appended.find("v2"), std::string::npos) << appended;
  EXPECT_EQ(appended.find("v3"), std::string::npos) << appended;
  std::unique_ptr<CacheStore> store = Open();
  EXPECT_EQ(store->stats().loaded_entries, 3);
  EXPECT_EQ(store->Get("camp", "k").value_or(""), "v4");
  EXPECT_EQ(store->Get("q1", "other").value_or(""), "x");
}

TEST_F(CacheStoreTest, VersionMismatchDiscardsStoreAndRewrites) {
  {
    std::unique_ptr<CacheStore> store = Open();
    store->Put("q1", "old", "stale");
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  {
    std::ofstream version(dir_ + "/VERSION", std::ios::trunc);
    version << "wasabi-cache-v0-bogus\n";
  }
  {
    std::unique_ptr<CacheStore> store = Open();
    // Stale-schema entries must never be served.
    EXPECT_FALSE(store->Get("q1", "old").has_value());
    EXPECT_EQ(store->stats().version_mismatches, 1);
    EXPECT_EQ(store->stats().loaded_entries, 0);
    store->Put("q1", "fresh", "value");
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  // The rewrite restored the current schema: reload is clean.
  std::unique_ptr<CacheStore> store = Open();
  EXPECT_EQ(store->stats().version_mismatches, 0);
  EXPECT_FALSE(store->Get("q1", "old").has_value());
  EXPECT_EQ(store->Get("q1", "fresh").value_or(""), "value");
  std::ifstream version(dir_ + "/VERSION");
  std::string tag;
  std::getline(version, tag);
  EXPECT_EQ(tag, std::string(kCacheSchemaVersion));
}

TEST_F(CacheStoreTest, BitFlippedAndGarbageRecordsAreDroppedNotServed) {
  {
    std::unique_ptr<CacheStore> store = Open();
    store->Put("ns", "intact", "good");
    store->Put("ns", "victim", "value");
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  std::string content = ReadEntriesFile();
  // Flip the last byte of the record holding "value" — checksum must catch it.
  size_t victim_pos = content.find("value");
  ASSERT_NE(victim_pos, std::string::npos);
  content[victim_pos + 4] = 'X';
  // And append lines that are not records at all.
  content += "not a record at all\n";
  content += "deadbeef\tns\tonly-three-fields\n";
  WriteEntriesFile(content);

  std::unique_ptr<CacheStore> store = Open();
  EXPECT_EQ(store->Get("ns", "intact").value_or(""), "good");
  EXPECT_FALSE(store->Get("ns", "victim").has_value())
      << "a checksum-failed record must read as a miss, not a wrong value";
  EXPECT_GE(store->stats().corrupt_entries, 3);
  EXPECT_EQ(store->stats().loaded_entries, 1);
}

TEST_F(CacheStoreTest, TruncatedEntriesFileLosesOnlyTheTornRecord) {
  {
    std::unique_ptr<CacheStore> store = Open();
    store->Put("ns", "first", "aaaa");
    store->Put("ns", "second", "bbbb");
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  std::string content = ReadEntriesFile();
  // Tear the file mid-way through the final record (a crash mid-append).
  WriteEntriesFile(content.substr(0, content.size() - 5));

  std::unique_ptr<CacheStore> store = Open();
  EXPECT_EQ(store->stats().loaded_entries, 1);
  EXPECT_GE(store->stats().corrupt_entries, 1);
  EXPECT_EQ(store->Get("ns", "first").value_or(""), "aaaa");
  EXPECT_FALSE(store->Get("ns", "second").has_value());
}

TEST_F(CacheStoreTest, WholeFileGarbageFallsBackToEmptyStore) {
  {
    std::unique_ptr<CacheStore> store = Open();
    store->Put("ns", "k", "v");
    std::string error;
    ASSERT_TRUE(store->Flush(&error)) << error;
  }
  WriteEntriesFile(std::string("\x00\x01\x02\xff binary junk\twith tabs\n\n\t\t\t\t\n", 33));
  std::unique_ptr<CacheStore> store = Open();
  EXPECT_EQ(store->stats().loaded_entries, 0);
  EXPECT_GE(store->stats().corrupt_entries, 1);
  EXPECT_FALSE(store->Get("ns", "k").has_value());
  // The damaged store stays fully usable.
  store->Put("ns", "k", "v2");
  std::string error;
  ASSERT_TRUE(store->Flush(&error)) << error;
}

TEST_F(CacheStoreTest, OpenFailsCleanlyWhenDirIsAFile) {
  std::ofstream blocker(dir_);
  blocker << "not a directory";
  blocker.close();
  std::string error;
  std::unique_ptr<CacheStore> store = CacheStore::Open(dir_, &error);
  EXPECT_EQ(store, nullptr);
  EXPECT_FALSE(error.empty());
  std::filesystem::remove(dir_);
}

}  // namespace
}  // namespace wasabi
