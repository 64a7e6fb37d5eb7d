// Unit tests for single-run record files (docs/FLAKINESS.md): serialize/parse
// round trips of a run's journal slice, the record-directory store, and — the
// contract corruption tests ride on — clean rejection of truncated,
// bit-flipped, and version-skewed record files.

#include "src/record/recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace wasabi {
namespace {

namespace fs = std::filesystem;

// A representative run: a chaos-faulted first attempt, a backoff, and a
// retried attempt that injects twice and passes.
RecordedRun MakeRun() {
  RecordedRun run;
  run.run_id = 7;
  run.test = "FetcherTest.testFetch";
  run.location_key = "Fetcher.mj:3 Fetcher.fetch ConnectException";
  run.k = 100;
  run.degraded_env = true;
  run.verdict = "clean";
  auto add = [&](JournalEventKind kind, int attempt, int64_t t_ms, int64_t value,
                 std::string detail) {
    JournalEvent event;
    event.run_id = 7;
    event.seq = static_cast<uint32_t>(run.events.size());
    event.kind = kind;
    event.test = run.test;
    event.location = run.location_key;
    event.k = run.k;
    event.attempt = attempt;
    event.t_ms = t_ms;
    event.value = value;
    event.detail = std::move(detail);
    run.events.push_back(std::move(event));
  };
  add(JournalEventKind::kRunBegin, 0, 0, 100, "");
  add(JournalEventKind::kHostFailure, 1, 0, 1, "host-exception");
  add(JournalEventKind::kBackoffWait, 2, 0, 40, "");
  add(JournalEventKind::kAttemptBegin, 2, 0, 0, "");
  add(JournalEventKind::kInjectFire, 2, 0, 1, "");
  add(JournalEventKind::kSleep, 2, 0, 50, "");
  add(JournalEventKind::kInjectFire, 2, 50, 2, "");
  add(JournalEventKind::kWork, 2, 0, 412, "");
  add(JournalEventKind::kAttemptEnd, 2, 0, 50, "passed");
  return run;
}

TEST(RecordRoundTripTest, SerializeParseIsLossless) {
  RecordedRun run = MakeRun();
  std::string text = SerializeRecordedRun(run);

  RecordedRun parsed;
  std::string error;
  ASSERT_TRUE(ParseRecordedRun(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.run_id, 7);
  EXPECT_EQ(parsed.test, "FetcherTest.testFetch");
  EXPECT_EQ(parsed.location_key, "Fetcher.mj:3 Fetcher.fetch ConnectException");
  EXPECT_EQ(parsed.k, 100);
  EXPECT_TRUE(parsed.degraded_env);
  EXPECT_EQ(parsed.verdict, "clean");
  EXPECT_EQ(parsed.events, run.events);
  // Re-serializing the parse reproduces the exact bytes: the format is
  // canonical, so byte comparison of records is meaningful.
  EXPECT_EQ(SerializeRecordedRun(parsed), text);
}

TEST(RecordRoundTripTest, EventsOfAnotherRunAreRejected) {
  RecordedRun run = MakeRun();
  run.events[3].run_id = 8;
  RecordedRun parsed;
  std::string error;
  EXPECT_FALSE(ParseRecordedRun(SerializeRecordedRun(run), &parsed, &error));
  EXPECT_NE(error.find("record event 3"), std::string::npos) << error;
}

TEST(RecordCorruptionTest, TruncatedRecordRejected) {
  std::string text = SerializeRecordedRun(MakeRun());
  // Drop the checksum line (and the trailing newline before it).
  std::string truncated = text.substr(0, text.rfind("checksum"));
  RecordedRun parsed;
  std::string error;
  EXPECT_FALSE(ParseRecordedRun(truncated, &parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(RecordCorruptionTest, BitFlipRejected) {
  std::string text = SerializeRecordedRun(MakeRun());
  // Flip one character in an event payload (not in the checksum line).
  size_t pos = text.find("inject_fire");
  ASSERT_NE(pos, std::string::npos);
  std::string flipped = text;
  flipped[pos] ^= 0x1;
  RecordedRun parsed;
  std::string error;
  EXPECT_FALSE(ParseRecordedRun(flipped, &parsed, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(RecordCorruptionTest, VersionSkewRejected) {
  std::string text = SerializeRecordedRun(MakeRun());
  std::string skewed = "wasabi-record-v999" + text.substr(text.find('\n'));
  RecordedRun parsed;
  std::string error;
  EXPECT_FALSE(ParseRecordedRun(skewed, &parsed, &error));
  EXPECT_FALSE(error.empty());
  // A v1 decision-stream record is version skew too, never misread as v2.
  std::string v1 = "wasabi-record-v1" + text.substr(text.find('\n'));
  EXPECT_FALSE(ParseRecordedRun(v1, &parsed, &error));
  EXPECT_NE(error.find("version mismatch"), std::string::npos) << error;
}

TEST(RecordCorruptionTest, ManifestRoundTripAndVersionSkew) {
  RecordManifest manifest;
  manifest.program_digest = "abc123";
  manifest.config_digest = "def456";
  manifest.runs.push_back(RecordManifest::Entry{0, "T.a", "loc-a", 1});
  manifest.runs.push_back(RecordManifest::Entry{1, "T.b", "loc-b", 100});
  std::string text = SerializeRecordManifest(manifest);

  RecordManifest parsed;
  std::string error;
  ASSERT_TRUE(ParseRecordManifest(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.program_digest, "abc123");
  EXPECT_EQ(parsed.config_digest, "def456");
  ASSERT_EQ(parsed.runs.size(), 2u);
  EXPECT_EQ(parsed.runs[1].test, "T.b");
  EXPECT_EQ(parsed.runs[1].k, 100);

  std::string skewed = "wasabi-record-manifest-v999" + text.substr(text.find('\n'));
  EXPECT_FALSE(ParseRecordManifest(skewed, &parsed, &error));
}

TEST(RecordDirTest, WriteThenLoadRoundTripsAndRejectsDamage) {
  fs::path dir = fs::path(::testing::TempDir()) / "wasabi_record_dir_test";
  fs::remove_all(dir);

  RecordManifest manifest;
  manifest.program_digest = "p";
  manifest.config_digest = "c";
  manifest.runs.push_back(RecordManifest::Entry{7, "FetcherTest.testFetch",
                                                "Fetcher.mj:3 Fetcher.fetch ConnectException",
                                                100});
  std::vector<RecordedRun> runs{MakeRun()};
  std::string error;
  ASSERT_TRUE(WriteRecordDir(dir.string(), manifest, runs, &error)) << error;

  RecordManifest loaded_manifest;
  ASSERT_TRUE(LoadRecordManifest(dir.string(), &loaded_manifest, &error)) << error;
  EXPECT_EQ(loaded_manifest.runs.size(), 1u);

  RecordedRun loaded_run;
  ASSERT_TRUE(LoadRecordedRun(dir.string(), 7, &loaded_run, &error)) << error;
  EXPECT_EQ(loaded_run, runs[0]);

  // A missing run id fails with a diagnostic, not a crash.
  EXPECT_FALSE(LoadRecordedRun(dir.string(), 99, &loaded_run, &error));

  // Damage the run file on disk: the loader must reject it.
  fs::path run_file = dir / RecordFileName(7);
  std::string bytes;
  {
    std::ifstream in(run_file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x2;
  {
    std::ofstream out(run_file, std::ios::trunc);
    out << bytes;
  }
  EXPECT_FALSE(LoadRecordedRun(dir.string(), 7, &loaded_run, &error));
  EXPECT_FALSE(error.empty());

  fs::remove_all(dir);
}

}  // namespace
}  // namespace wasabi
