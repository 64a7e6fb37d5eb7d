// Replay-determinism property tests (ctest label "replay", docs/FLAKINESS.md).
//
// The record/replay contract: a campaign recorded at ANY worker count writes
// the same per-run decision streams byte for byte; replaying any recorded run
// in isolation — repeatedly — reproduces its stream and verdict exactly; and
// damaged records (truncation, bit flips, version skew) or a mismatched
// program/config are rejected with a diagnostic, never replayed.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"
#include "src/record/recorder.h"

namespace wasabi {
namespace {

namespace fs = std::filesystem;

WasabiOptions RecordOptionsFor(const CorpusApp& app, const fs::path& record_dir) {
  WasabiOptions options;
  options.app_name = app.name;
  options.default_configs = app.default_configs;
  options.record_dir = record_dir.string();
  // Chaos on with a nonzero fault rate so the record carries host-failure,
  // backoff, and degraded-environment events, not just clean dispatches.
  options.robust.chaos.enabled = true;
  options.robust.chaos.seed = 7;
  options.robust.chaos.rate = 0.2;
  options.robust.chaos.env_rate = 0.5;
  return options;
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Records one flakylab campaign into `dir` at the given worker count and
// returns the bytes of every file in the record directory, keyed by name.
std::map<std::string, std::string> RecordCampaign(const CorpusApp& app, const fs::path& dir,
                                                  int jobs) {
  fs::remove_all(dir);
  WasabiOptions options = RecordOptionsFor(app, dir);
  options.jobs = jobs;
  Wasabi wasabi(app.program, *app.index, options);
  DynamicResult result = wasabi.RunDynamicWorkflow();
  EXPECT_TRUE(result.record_error.empty()) << result.record_error;
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = ReadFileBytes(entry.path());
  }
  EXPECT_FALSE(files.empty());
  return files;
}

TEST(ReplayDeterminismTest, RecordDirIdenticalAtEveryWorkerCount) {
  CorpusApp app = BuildCorpusApp("flakylab");
  fs::path base = fs::path(::testing::TempDir()) / "wasabi_replay_det_test";
  std::map<std::string, std::string> baseline =
      RecordCampaign(app, base / "jobs1", 1);
  for (int jobs : {2, 4, 8}) {
    std::map<std::string, std::string> files =
        RecordCampaign(app, base / ("jobs" + std::to_string(jobs)), jobs);
    EXPECT_EQ(files, baseline) << "jobs=" << jobs;
  }
  fs::remove_all(base);
}

TEST(ReplayDeterminismTest, EveryRecordedRunReplaysByteIdentically) {
  CorpusApp app = BuildCorpusApp("flakylab");
  fs::path dir = fs::path(::testing::TempDir()) / "wasabi_replay_exact_test";
  RecordCampaign(app, dir, 4);

  RecordManifest manifest;
  std::string error;
  ASSERT_TRUE(LoadRecordManifest(dir.string(), &manifest, &error)) << error;
  ASSERT_FALSE(manifest.runs.empty());

  // Replaying needs a Wasabi with the same program/config (minus record_dir,
  // which is not part of the config digest).
  WasabiOptions options = RecordOptionsFor(app, dir);
  options.record_dir.clear();
  Wasabi wasabi(app.program, *app.index, options);

  for (const RecordManifest::Entry& entry : manifest.runs) {
    // Twice per run: replay itself must be deterministic.
    for (int pass = 0; pass < 2; ++pass) {
      ReplayOutcome outcome = wasabi.ReplayRun(dir.string(), entry.run_id);
      ASSERT_TRUE(outcome.ok) << "run " << entry.run_id << ": " << outcome.error;
      EXPECT_TRUE(outcome.stream_identical)
          << "run " << entry.run_id << " pass " << pass << ": " << outcome.divergence;
      EXPECT_TRUE(outcome.verdict_identical)
          << "run " << entry.run_id << ": recorded \"" << outcome.recorded_verdict
          << "\" replayed \"" << outcome.replayed_verdict << "\"";
    }
  }
  fs::remove_all(dir);
}

TEST(ReplayDeterminismTest, AdmissionSkippedRunsKeepTheirRecordedVerdict) {
  CorpusApp app = BuildCorpusApp("flakylab");
  fs::path dir = fs::path(::testing::TempDir()) / "wasabi_replay_skip_test";
  fs::remove_all(dir);
  // More host faults and a circuit that opens on a location's second
  // consecutive failure: a run still waiting to retry when a sibling at its
  // location opens the circuit is skipped at admission.
  WasabiOptions options = RecordOptionsFor(app, dir);
  options.robust.chaos.rate = 0.4;
  options.robust.breaker_threshold = 2;
  {
    Wasabi recorder(app.program, *app.index, options);
    ASSERT_TRUE(recorder.RunDynamicWorkflow().record_error.empty());
  }
  options.record_dir.clear();
  Wasabi wasabi(app.program, *app.index, options);
  RecordManifest manifest;
  std::string error;
  ASSERT_TRUE(LoadRecordManifest(dir.string(), &manifest, &error)) << error;
  int skipped = 0;
  for (const RecordManifest::Entry& entry : manifest.runs) {
    ReplayOutcome outcome = wasabi.ReplayRun(dir.string(), entry.run_id);
    ASSERT_TRUE(outcome.ok) << "run " << entry.run_id << ": " << outcome.error;
    if (!outcome.executed) {
      ++skipped;
      EXPECT_EQ(outcome.recorded_verdict, "quarantined");
      EXPECT_TRUE(outcome.stream_identical && outcome.verdict_identical);
    }
  }
  EXPECT_GT(skipped, 0);
  fs::remove_all(dir);
}

TEST(ReplayDeterminismTest, DamagedRecordsAreRejected) {
  CorpusApp app = BuildCorpusApp("flakylab");
  fs::path dir = fs::path(::testing::TempDir()) / "wasabi_replay_damage_test";
  RecordCampaign(app, dir, 2);

  RecordManifest manifest;
  std::string error;
  ASSERT_TRUE(LoadRecordManifest(dir.string(), &manifest, &error)) << error;
  ASSERT_FALSE(manifest.runs.empty());
  const uint64_t run_id = manifest.runs.front().run_id;
  fs::path run_file = dir / RecordFileName(run_id);
  const std::string original = ReadFileBytes(run_file);
  ASSERT_FALSE(original.empty());

  WasabiOptions options = RecordOptionsFor(app, dir);
  options.record_dir.clear();
  Wasabi wasabi(app.program, *app.index, options);

  // Truncated.
  {
    std::ofstream out(run_file, std::ios::binary | std::ios::trunc);
    out << original.substr(0, original.size() / 2);
  }
  ReplayOutcome truncated = wasabi.ReplayRun(dir.string(), run_id);
  EXPECT_FALSE(truncated.ok);
  EXPECT_FALSE(truncated.error.empty());

  // Bit-flipped.
  {
    std::string flipped = original;
    flipped[flipped.size() / 3] ^= 0x4;
    std::ofstream out(run_file, std::ios::binary | std::ios::trunc);
    out << flipped;
  }
  ReplayOutcome flipped = wasabi.ReplayRun(dir.string(), run_id);
  EXPECT_FALSE(flipped.ok);
  EXPECT_FALSE(flipped.error.empty());

  // Version-skewed.
  {
    std::string skewed = "wasabi-record-v999" + original.substr(original.find('\n'));
    std::ofstream out(run_file, std::ios::binary | std::ios::trunc);
    out << skewed;
  }
  ReplayOutcome skewed = wasabi.ReplayRun(dir.string(), run_id);
  EXPECT_FALSE(skewed.ok);
  EXPECT_FALSE(skewed.error.empty());

  // Restore the run file but skew the manifest: also rejected.
  {
    std::ofstream out(run_file, std::ios::binary | std::ios::trunc);
    out << original;
  }
  fs::path manifest_file = dir / "MANIFEST.tsv";
  const std::string manifest_bytes = ReadFileBytes(manifest_file);
  {
    std::ofstream out(manifest_file, std::ios::binary | std::ios::trunc);
    out << "wasabi-record-manifest-v999" << manifest_bytes.substr(manifest_bytes.find('\n'));
  }
  ReplayOutcome bad_manifest = wasabi.ReplayRun(dir.string(), run_id);
  EXPECT_FALSE(bad_manifest.ok);
  EXPECT_FALSE(bad_manifest.error.empty());

  fs::remove_all(dir);
}

TEST(ReplayDeterminismTest, DigestMismatchIsRejectedCleanly) {
  CorpusApp app = BuildCorpusApp("flakylab");
  fs::path dir = fs::path(::testing::TempDir()) / "wasabi_replay_digest_test";
  RecordCampaign(app, dir, 1);

  RecordManifest manifest;
  std::string error;
  ASSERT_TRUE(LoadRecordManifest(dir.string(), &manifest, &error)) << error;
  ASSERT_FALSE(manifest.runs.empty());

  // Same program, different campaign configuration (chaos off): the config
  // digest no longer matches and replay must refuse rather than produce a
  // stream that silently diverges.
  WasabiOptions options;
  options.app_name = app.name;
  options.default_configs = app.default_configs;
  Wasabi mismatched(app.program, *app.index, options);
  ReplayOutcome outcome = mismatched.ReplayRun(dir.string(), manifest.runs.front().run_id);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("digest"), std::string::npos) << outcome.error;

  fs::remove_all(dir);
}

}  // namespace
}  // namespace wasabi
