#include "src/record/recorder.h"

#include <climits>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/lang/decimal.h"
#include "src/lang/digest.h"

namespace wasabi {

namespace {

namespace fs = std::filesystem;

// Splits one line on tabs. Record identifiers (tests, qualified names,
// location keys) never contain tabs, so the split is unambiguous.
std::vector<std::string_view> SplitTabs(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (true) {
    size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

// One `name\tvalue` header line; fails with a positional diagnostic so a
// corrupted record names the line it died on.
bool ReadHeader(const std::vector<std::string_view>& lines, size_t index,
                std::string_view name, std::string_view* value, std::string* error) {
  if (index >= lines.size()) {
    *error = "record truncated before '" + std::string(name) + "' header";
    return false;
  }
  std::vector<std::string_view> fields = SplitTabs(lines[index]);
  if (fields.size() != 2 || fields[0] != name) {
    *error = "record header line " + std::to_string(index + 1) + " is not '" +
             std::string(name) + "\\t<value>'";
    return false;
  }
  *value = fields[1];
  return true;
}

bool ReadIntHeader(const std::vector<std::string_view>& lines, size_t index,
                   std::string_view name, int64_t min, int64_t max, int64_t* out,
                   std::string* error) {
  std::string_view value;
  if (!ReadHeader(lines, index, name, &value, error)) {
    return false;
  }
  if (!mj::ParseDecimal<int64_t>(value, min, max, out)) {
    *error = "bad '" + std::string(name) + "' header value '" + std::string(value) + "'";
    return false;
  }
  return true;
}

// Splits `text` into lines, requiring a trailing newline on the last one (a
// record without it was truncated mid-line).
bool SplitLines(std::string_view text, std::vector<std::string_view>* lines,
                std::string* error) {
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      *error = "record is truncated (no trailing newline)";
      return false;
    }
    lines->push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  if (lines->empty()) {
    *error = "record is empty";
    return false;
  }
  return true;
}

// Shared version + checksum envelope validation for records and manifests.
// The checksum covers every byte before the checksum line. On success `lines`
// holds the payload lines between the version line and the checksum line.
bool ValidateEnvelope(std::string_view text, std::string_view version,
                      std::vector<std::string_view>* lines, std::string* error) {
  std::vector<std::string_view> all;
  if (!SplitLines(text, &all, error)) {
    return false;
  }
  if (all[0] != version) {
    *error = "version mismatch: got '" + std::string(all[0]) + "', want '" +
             std::string(version) + "'";
    return false;
  }
  if (all.size() < 2) {
    *error = "record truncated before checksum";
    return false;
  }
  std::vector<std::string_view> last = SplitTabs(all.back());
  if (last.size() != 2 || last[0] != "checksum") {
    *error = "record truncated (last line is not a checksum)";
    return false;
  }
  const size_t body_size = text.size() - all.back().size() - 1;
  if (last[1] != mj::DigestHex(mj::Fnv1a64(text.substr(0, body_size)))) {
    *error = "checksum mismatch: file is corrupt";
    return false;
  }
  lines->assign(all.begin() + 1, all.end() - 1);
  return true;
}

void AppendChecksum(std::string* out) {
  uint64_t hash = mj::Fnv1a64(*out);
  out->append("checksum\t");
  out->append(mj::DigestHex(hash));
  out->push_back('\n');
}

bool WriteFileAtomic(const fs::path& path, const std::string& text, std::string* error) {
  fs::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) {
      *error = "cannot write " + tmp.generic_string();
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    *error = "cannot move " + tmp.generic_string() + " into place: " + ec.message();
    return false;
  }
  return true;
}

bool ReadFileText(const fs::path& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path.generic_string();
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

}  // namespace

// --- Serialization ----------------------------------------------------------

std::string SerializeRecordedRun(const RecordedRun& run) {
  std::string out;
  out.append(kRecordFormatVersion);
  out.push_back('\n');
  out.append("run\t" + std::to_string(run.run_id) + "\n");
  out.append("test\t" + run.test + "\n");
  out.append("location\t" + run.location_key + "\n");
  out.append("k\t" + std::to_string(run.k) + "\n");
  out.append("env\t" + std::string(run.degraded_env ? "1" : "0") + "\n");
  out.append("verdict\t" + run.verdict + "\n");
  out.append("events\t" + std::to_string(run.events.size()) + "\n");
  for (const JournalEvent& event : run.events) {
    out.append(EncodeJournalEvent(event));
    out.push_back('\n');
  }
  AppendChecksum(&out);
  return out;
}

bool ParseRecordedRun(std::string_view text, RecordedRun* out, std::string* error) {
  error->clear();
  std::vector<std::string_view> lines;
  if (!ValidateEnvelope(text, kRecordFormatVersion, &lines, error)) {
    return false;
  }
  RecordedRun run;
  std::string_view value;
  int64_t number = 0;
  if (!ReadIntHeader(lines, 0, "run", 0, INT64_MAX, &run.run_id, error) ||
      !ReadHeader(lines, 1, "test", &value, error)) {
    return false;
  }
  run.test = std::string(value);
  if (!ReadHeader(lines, 2, "location", &value, error)) {
    return false;
  }
  run.location_key = std::string(value);
  if (!ReadIntHeader(lines, 3, "k", INT_MIN, INT_MAX, &number, error)) {
    return false;
  }
  run.k = static_cast<int>(number);
  if (!ReadIntHeader(lines, 4, "env", 0, 1, &number, error)) {
    return false;
  }
  run.degraded_env = number == 1;
  if (!ReadHeader(lines, 5, "verdict", &value, error)) {
    return false;
  }
  run.verdict = std::string(value);
  constexpr size_t kHeaderLines = 7;
  if (!ReadIntHeader(lines, 6, "events", 0, INT64_MAX, &number, error)) {
    return false;
  }
  if (lines.size() - kHeaderLines != static_cast<uint64_t>(number)) {
    *error = "event count mismatch: header says " + std::to_string(number) + ", found " +
             std::to_string(lines.size() - kHeaderLines);
    return false;
  }
  run.events.resize(static_cast<size_t>(number));
  for (size_t i = 0; i < run.events.size(); ++i) {
    JournalEvent& event = run.events[i];
    std::string event_error;
    if (!DecodeJournalEvent(lines[kHeaderLines + i], &event, &event_error)) {
      *error = "record event " + std::to_string(i) + ": " + event_error;
      return false;
    }
    if (event.stream != JournalStream::kCampaign ||
        event.run_id != static_cast<uint64_t>(run.run_id) || event.test != run.test ||
        event.location != run.location_key || event.k != run.k) {
      *error = "record event " + std::to_string(i) + " does not belong to this record's run";
      return false;
    }
  }
  *out = std::move(run);
  return true;
}

std::string SerializeRecordManifest(const RecordManifest& manifest) {
  std::string out;
  out.append(kRecordManifestVersion);
  out.push_back('\n');
  out.append("program\t" + manifest.program_digest + "\n");
  out.append("config\t" + manifest.config_digest + "\n");
  for (const RecordManifest::Entry& entry : manifest.runs) {
    out.append("run\t" + std::to_string(entry.run_id) + "\t" + entry.test + "\t" +
               entry.location_key + "\t" + std::to_string(entry.k) + "\n");
  }
  AppendChecksum(&out);
  return out;
}

bool ParseRecordManifest(std::string_view text, RecordManifest* out, std::string* error) {
  std::vector<std::string_view> lines;
  if (!ValidateEnvelope(text, kRecordManifestVersion, &lines, error)) {
    return false;
  }
  RecordManifest manifest;
  std::string_view value;
  if (!ReadHeader(lines, 0, "program", &value, error)) {
    return false;
  }
  manifest.program_digest = std::string(value);
  if (!ReadHeader(lines, 1, "config", &value, error)) {
    return false;
  }
  manifest.config_digest = std::string(value);
  for (size_t i = 2; i < lines.size(); ++i) {
    std::vector<std::string_view> fields = SplitTabs(lines[i]);
    RecordManifest::Entry entry;
    int64_t k = 0;
    if (fields.size() != 5 || fields[0] != "run" ||
        !mj::ParseDecimal<int64_t>(fields[1], 0, INT64_MAX, &entry.run_id) ||
        !mj::ParseDecimal<int64_t>(fields[4], INT_MIN, INT_MAX, &k)) {
      *error = "bad manifest run line " + std::to_string(i + 2);
      return false;
    }
    entry.test = std::string(fields[2]);
    entry.location_key = std::string(fields[3]);
    entry.k = static_cast<int>(k);
    manifest.runs.push_back(std::move(entry));
  }
  *out = std::move(manifest);
  return true;
}

std::string RecordFileName(int64_t run_id) {
  return "run-" + std::to_string(run_id) + ".rec";
}

// --- Record-directory store -------------------------------------------------

bool WriteRecordDir(const std::string& dir, const RecordManifest& manifest,
                    const std::vector<RecordedRun>& runs, std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  for (const RecordedRun& run : runs) {
    if (!WriteFileAtomic(fs::path(dir) / RecordFileName(run.run_id),
                         SerializeRecordedRun(run), error)) {
      return false;
    }
  }
  return WriteFileAtomic(fs::path(dir) / "MANIFEST.tsv", SerializeRecordManifest(manifest),
                         error);
}

bool LoadRecordManifest(const std::string& dir, RecordManifest* out, std::string* error) {
  std::string text;
  if (!ReadFileText(fs::path(dir) / "MANIFEST.tsv", &text, error)) {
    return false;
  }
  return ParseRecordManifest(text, out, error);
}

bool LoadRecordedRun(const std::string& dir, int64_t run_id, RecordedRun* out,
                     std::string* error) {
  std::string text;
  if (!ReadFileText(fs::path(dir) / RecordFileName(run_id), &text, error)) {
    return false;
  }
  if (!ParseRecordedRun(text, out, error)) {
    return false;
  }
  if (out->run_id != run_id) {
    *error = "record file for run " + std::to_string(run_id) + " contains run " +
             std::to_string(out->run_id);
    return false;
  }
  return true;
}

}  // namespace wasabi
