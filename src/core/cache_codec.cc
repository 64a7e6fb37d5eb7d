#include "src/core/cache_codec.h"

#include <climits>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/lang/decimal.h"

namespace wasabi {

namespace {

constexpr char kRecordSep = '\x1e';
constexpr char kFieldSep = '\x1f';

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

// Appends fields to an entry: fields of one record joined by kFieldSep,
// records joined by kRecordSep. Text fields escape both separators and the
// escape character itself.
class EntryWriter {
 public:
  template <typename T>
  EntryWriter& Int(T value) {
    Separate();
    out_ += std::to_string(value);
    return *this;
  }
  EntryWriter& Bool(bool value) {
    Separate();
    out_.push_back(value ? '1' : '0');
    return *this;
  }
  EntryWriter& Text(std::string_view text) {
    Separate();
    for (char c : text) {
      switch (c) {
        case '\\': out_ += "\\\\"; break;
        case kRecordSep: out_ += "\\R"; break;
        case kFieldSep: out_ += "\\F"; break;
        default: out_.push_back(c);
      }
    }
    return *this;
  }
  EntryWriter& NextRecord() {
    out_.push_back(kRecordSep);
    first_ = true;
    return *this;
  }
  std::string Take() { return std::move(out_); }

 private:
  void Separate() {
    if (!first_) {
      out_.push_back(kFieldSep);
    }
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
};

// Reads one record's fields in order. Each getter consumes one field and
// fails on a missing or malformed one; callers check size() first.
class FieldReader {
 public:
  explicit FieldReader(std::string_view record) : fields_(Split(record, kFieldSep)) {}

  size_t size() const { return fields_.size(); }

  template <typename T>
  bool Int(T min, T max, T* out) {
    return next_ < fields_.size() && mj::ParseDecimal(fields_[next_++], min, max, out);
  }
  // A non-negative counter of any integer type.
  template <typename T>
  bool Count(T* out) {
    return Int<T>(0, std::numeric_limits<T>::max(), out);
  }
  template <typename E>
  bool Enum(E last, E* out) {
    int value = 0;
    if (!Int(0, static_cast<int>(last), &value)) {
      return false;
    }
    *out = static_cast<E>(value);
    return true;
  }
  bool Bool(bool* out) {
    if (next_ >= fields_.size() || (fields_[next_] != "0" && fields_[next_] != "1")) {
      return false;
    }
    *out = fields_[next_++] == "1";
    return true;
  }
  // Unescapes a Text field; a dangling or unknown escape fails.
  bool Text(std::string* out) {
    if (next_ >= fields_.size()) {
      return false;
    }
    std::string_view escaped = fields_[next_++];
    out->clear();
    for (size_t i = 0; i < escaped.size(); ++i) {
      if (escaped[i] != '\\') {
        out->push_back(escaped[i]);
        continue;
      }
      if (++i >= escaped.size()) {
        return false;
      }
      switch (escaped[i]) {
        case '\\': out->push_back('\\'); break;
        case 'R': out->push_back(kRecordSep); break;
        case 'F': out->push_back(kFieldSep); break;
        default: return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::string_view> fields_;
  size_t next_ = 0;
};

EntryWriter& WriteUsage(EntryWriter& out, const LlmUsage& usage) {
  return out.Int(usage.calls).Int(usage.bytes_sent).Int(usage.prompt_tokens);
}

bool ReadUsage(FieldReader& in, LlmUsage* usage) {
  return in.Count(&usage->calls) && in.Count(&usage->bytes_sent) &&
         in.Count(&usage->prompt_tokens);
}

// A cached coordinator name that claims a method must still resolve.
bool ResolveMethod(bool has_method, const mj::ProgramIndex& index, const std::string& name,
                   const mj::MethodDecl** method) {
  *method = has_method ? index.FindQualified(name) : nullptr;
  return !has_method || *method != nullptr;
}

}  // namespace

std::string EncodeIdentifyEntry(const LlmFileFindings& findings, const LlmUsage& delta) {
  EntryWriter out;
  out.Bool(findings.performs_retry).Bool(findings.truncated_by_attention);
  WriteUsage(out, delta);
  for (const LlmCoordinator& coordinator : findings.coordinators) {
    out.NextRecord()
        .Text(coordinator.qualified_name)
        .Int(static_cast<int>(coordinator.mechanism))
        .Int(coordinator.evidence_score)
        .Bool(coordinator.method != nullptr);
  }
  return out.Take();
}

bool DecodeIdentifyEntry(std::string_view entry, const mj::ProgramIndex& index,
                         const std::string& file, LlmFileFindings* findings, LlmUsage* delta) {
  std::vector<std::string_view> records = Split(entry, kRecordSep);
  FieldReader header(records[0]);
  LlmFileFindings out;
  LlmUsage usage;
  out.file = file;
  if (header.size() != 5 || !header.Bool(&out.performs_retry) ||
      !header.Bool(&out.truncated_by_attention) || !ReadUsage(header, &usage)) {
    return false;
  }
  for (size_t r = 1; r < records.size(); ++r) {
    FieldReader fields(records[r]);
    LlmCoordinator coordinator;
    bool has_method = false;
    if (fields.size() != 4 || !fields.Text(&coordinator.qualified_name) ||
        !fields.Enum(RetryMechanism::kStateMachine, &coordinator.mechanism) ||
        !fields.Int(INT_MIN, INT_MAX, &coordinator.evidence_score) ||
        !fields.Bool(&has_method) ||
        !ResolveMethod(has_method, index, coordinator.qualified_name, &coordinator.method)) {
      return false;
    }
    out.coordinators.push_back(std::move(coordinator));
  }
  *findings = std::move(out);
  *delta = usage;
  return true;
}

std::string EncodeWhenEntry(const std::vector<CachedWhenJudgment>& judgments,
                            const LlmUsage& delta) {
  EntryWriter out;
  WriteUsage(out, delta);
  for (const CachedWhenJudgment& judgment : judgments) {
    out.NextRecord()
        .Text(judgment.qualified_name)
        .Bool(judgment.method != nullptr)
        .Bool(judgment.sleeps_before_retry)
        .Bool(judgment.has_cap)
        .Bool(judgment.poll_or_spin);
  }
  return out.Take();
}

bool DecodeWhenEntry(std::string_view entry, const mj::ProgramIndex& index,
                     std::vector<CachedWhenJudgment>* judgments, LlmUsage* delta) {
  std::vector<std::string_view> records = Split(entry, kRecordSep);
  FieldReader header(records[0]);
  LlmUsage usage;
  if (header.size() != 3 || !ReadUsage(header, &usage)) {
    return false;
  }
  std::vector<CachedWhenJudgment> out;
  for (size_t r = 1; r < records.size(); ++r) {
    FieldReader fields(records[r]);
    CachedWhenJudgment judgment;
    bool has_method = false;
    if (fields.size() != 5 || !fields.Text(&judgment.qualified_name) ||
        !fields.Bool(&has_method) || !fields.Bool(&judgment.sleeps_before_retry) ||
        !fields.Bool(&judgment.has_cap) || !fields.Bool(&judgment.poll_or_spin) ||
        !ResolveMethod(has_method, index, judgment.qualified_name, &judgment.method)) {
      return false;
    }
    out.push_back(std::move(judgment));
  }
  *judgments = std::move(out);
  *delta = usage;
  return true;
}

// "camp" layout. Header: the seven RobustnessStats counters and `aborted`,
// the five prober counters, then the record count of each section. Records,
// section by section: coverage (test, then its hit location indices),
// quarantined runs (run id, test, location, kind, detail, attempts, chaos),
// open-circuit location keys, and reports (kind, test, location index,
// detail, group key, probed, stability, flaky cause).
std::string EncodeDynamicEntry(const DynamicResult& result) {
  std::unordered_map<std::string, size_t> location_index;
  for (size_t i = 0; i < result.locations.size(); ++i) {
    location_index.emplace(result.locations[i].Key(), i);
  }
  const RobustnessStats& stats = result.robustness;
  EntryWriter out;
  out.Int(stats.retries)
      .Int(stats.recovered)
      .Int(stats.quarantined)
      .Int(stats.chaos_faults)
      .Int(stats.breaker_open)
      .Int(stats.fail_fast_skipped)
      .Int(stats.backoff_virtual_ms)
      .Bool(stats.aborted)
      .Int(result.probed_runs)
      .Int(result.stable_runs)
      .Int(result.flaky_runs)
      .Int(result.chaos_induced_runs)
      .Int(result.probe_failures)
      .Int(result.coverage.size())
      .Int(result.quarantined.size())
      .Int(stats.open_locations.size())
      .Int(result.raw_reports.size());
  for (const auto& [test, hits] : result.coverage) {
    out.NextRecord().Text(test);
    for (size_t hit : hits) {
      out.Int(hit);
    }
  }
  for (const RunFailure& failure : result.quarantined) {
    out.NextRecord()
        .Int(failure.run_id)
        .Text(failure.test)
        .Text(failure.location)
        .Int(static_cast<int>(failure.kind))
        .Text(failure.detail)
        .Int(failure.attempts)
        .Bool(failure.chaos);
  }
  for (const std::string& key : stats.open_locations) {
    out.NextRecord().Text(key);
  }
  for (const OracleReport& report : result.raw_reports) {
    // Reports only ever carry a listed location; were one not listed, its
    // out-of-range index would make the entry decode as a miss.
    auto it = location_index.find(report.location.Key());
    out.NextRecord()
        .Int(static_cast<int>(report.kind))
        .Text(report.test)
        .Int(it != location_index.end() ? it->second : result.locations.size())
        .Text(report.detail)
        .Text(report.group_key)
        .Bool(report.probed)
        .Int(static_cast<int>(report.stability))
        .Text(report.flaky_cause);
  }
  return out.Take();
}

bool DecodeDynamicEntry(std::string_view entry, DynamicResult* result) {
  const std::vector<RetryLocation>& locations = result->locations;
  std::vector<std::string_view> records = Split(entry, kRecordSep);
  FieldReader header(records[0]);
  RobustnessStats stats;
  size_t probe_counts[5] = {};
  size_t section_sizes[4] = {};
  if (header.size() != 17 || !header.Count(&stats.retries) || !header.Count(&stats.recovered) ||
      !header.Count(&stats.quarantined) || !header.Count(&stats.chaos_faults) ||
      !header.Count(&stats.breaker_open) || !header.Count(&stats.fail_fast_skipped) ||
      !header.Count(&stats.backoff_virtual_ms) || !header.Bool(&stats.aborted)) {
    return false;
  }
  for (size_t& count : probe_counts) {
    if (!header.Count(&count)) {
      return false;
    }
  }
  size_t total = 1;
  for (size_t& size : section_sizes) {
    if (!header.Count(&size) || size > records.size() - total) {
      return false;
    }
    total += size;
  }
  if (total != records.size()) {
    return false;
  }

  size_t next = 1;
  CoverageMap coverage;
  for (size_t i = 0; i < section_sizes[0]; ++i) {
    FieldReader fields(records[next++]);
    std::string test;
    // Map order, no duplicates, and no empty runs: what the coverage pass
    // itself produces.
    if (fields.size() < 2 || !fields.Text(&test) ||
        (!coverage.empty() && test <= coverage.rbegin()->first)) {
      return false;
    }
    std::vector<size_t> hits(fields.size() - 1);
    for (size_t& hit : hits) {
      if (locations.empty() || !fields.Int<size_t>(0, locations.size() - 1, &hit)) {
        return false;
      }
    }
    coverage.emplace_hint(coverage.end(), std::move(test), std::move(hits));
  }
  std::vector<RunFailure> quarantined(section_sizes[1]);
  for (RunFailure& failure : quarantined) {
    FieldReader fields(records[next++]);
    if (fields.size() != 7 || !fields.Count(&failure.run_id) || !fields.Text(&failure.test) ||
        !fields.Text(&failure.location) || !fields.Enum(RunFailureKind::kChaos, &failure.kind) ||
        !fields.Text(&failure.detail) || !fields.Count(&failure.attempts) ||
        !fields.Bool(&failure.chaos)) {
      return false;
    }
  }
  stats.open_locations.resize(section_sizes[2]);
  for (std::string& key : stats.open_locations) {
    FieldReader fields(records[next++]);
    if (fields.size() != 1 || !fields.Text(&key)) {
      return false;
    }
  }
  std::vector<OracleReport> reports(section_sizes[3]);
  for (OracleReport& report : reports) {
    FieldReader fields(records[next++]);
    size_t location = 0;
    if (fields.size() != 8 || locations.empty() ||
        !fields.Enum(OracleKind::kDifferentException, &report.kind) ||
        !fields.Text(&report.test) || !fields.Int<size_t>(0, locations.size() - 1, &location) ||
        !fields.Text(&report.detail) || !fields.Text(&report.group_key) ||
        !fields.Bool(&report.probed) ||
        !fields.Enum(VerdictStability::kChaosInduced, &report.stability) ||
        !fields.Text(&report.flaky_cause)) {
      return false;
    }
    report.location = locations[location];
  }

  result->coverage = std::move(coverage);
  result->quarantined = std::move(quarantined);
  result->robustness = std::move(stats);
  result->raw_reports = std::move(reports);
  result->probed_runs = probe_counts[0];
  result->stable_runs = probe_counts[1];
  result->flaky_runs = probe_counts[2];
  result->chaos_induced_runs = probe_counts[3];
  result->probe_failures = probe_counts[4];
  return true;
}

}  // namespace wasabi
