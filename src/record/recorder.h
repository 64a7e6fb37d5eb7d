// Single-run record/replay (docs/FLAKINESS.md).
//
// A record is one injected campaign run's slice of the retry journal
// (src/obs/journal.h): the run's campaign-stream events — attempts, work
// steps, coordinator loop iterations, injection fires and skips, sleeps,
// backoff waits, host failures, breaker opens, and the quarantine, if any —
// plus the verdict the oracles reached. The slice is a pure function of the
// run (not of worker count, interpreter reuse, or cache state), which is what
// makes a recorded run independently replayable: re-executing the same
// (run_id, test, location, k) spec under the same configuration must
// reproduce the events exactly.
//
// Serialized records are versioned and checksummed (FNV-1a 64, the repo-wide
// stable hash): a truncated, bit-flipped, or version-skewed file is rejected
// with a diagnostic, never mis-replayed. A record directory holds one
// `run-<id>.rec` file per run plus a checksummed MANIFEST.tsv binding the runs
// to the program digest and dynamic-config digest they were recorded under.

#ifndef WASABI_SRC_RECORD_RECORDER_H_
#define WASABI_SRC_RECORD_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/journal.h"

namespace wasabi {

// Bump on ANY change to the record layout: replay of a stale record must fail
// validation, not silently misinterpret fields.
inline constexpr std::string_view kRecordFormatVersion = "wasabi-record-v2";
inline constexpr std::string_view kRecordManifestVersion = "wasabi-record-manifest-v1";

// One run's parsed (or freshly sliced) record.
struct RecordedRun {
  int64_t run_id = 0;
  std::string test;          // "Cls.testX".
  std::string location_key;  // RetryLocation::Key().
  int k = 0;                 // Injection count (1 or 100).
  bool degraded_env = false; // Run executed under the chaos-degraded config.
  std::string verdict;       // "clean", "reports=N sig=HEX", or "quarantined".
  std::vector<JournalEvent> events;  // The run's campaign journal slice, in seq order.

  bool operator==(const RecordedRun&) const = default;
};

// The record directory's table of contents. Replay refuses to execute against
// a program or dynamic configuration different from the recorded one — the
// digests are the proof the replayed decisions still mean the same thing.
struct RecordManifest {
  std::string program_digest;
  std::string config_digest;
  struct Entry {
    int64_t run_id = 0;
    std::string test;
    std::string location_key;
    int k = 0;

    bool operator==(const Entry&) const = default;
  };
  std::vector<Entry> runs;  // In run-id order.

  bool operator==(const RecordManifest&) const = default;
};

// --- Serialization ----------------------------------------------------------
// Text layout (tab-separated header fields; identifiers never contain tabs):
//   wasabi-record-v2
//   run      <id>
//   test     <name>
//   location <key>
//   k        <k>
//   env      <0|1>
//   verdict  <text>
//   events   <count>
//   <one EncodeJournalEvent object per line ...>
//   checksum <fnv1a64-hex of everything above>
// Every event must carry the header's run identity (campaign stream, run id,
// test, location, k); the parser rejects one that does not.

std::string SerializeRecordedRun(const RecordedRun& run);
bool ParseRecordedRun(std::string_view text, RecordedRun* out, std::string* error);

std::string SerializeRecordManifest(const RecordManifest& manifest);
bool ParseRecordManifest(std::string_view text, RecordManifest* out, std::string* error);

// "run-<id>.rec" — one file per recorded run.
std::string RecordFileName(int64_t run_id);

// --- Record-directory store -------------------------------------------------
// Write is all-or-nothing per file; Load validates version and checksum and
// returns false (with a diagnostic) on any corruption.

bool WriteRecordDir(const std::string& dir, const RecordManifest& manifest,
                    const std::vector<RecordedRun>& runs, std::string* error);
bool LoadRecordManifest(const std::string& dir, RecordManifest* out, std::string* error);
bool LoadRecordedRun(const std::string& dir, int64_t run_id, RecordedRun* out,
                     std::string* error);

}  // namespace wasabi

#endif  // WASABI_SRC_RECORD_RECORDER_H_
