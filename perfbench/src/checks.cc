#include "perfbench/src/checks.h"

#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "perfbench/src/json.h"
#include "src/core/report.h"
#include "src/repair/repair.h"

namespace perfbench {

namespace {

std::optional<wasabi::BugType> BugTypeFromName(const std::string& name) {
  for (uint8_t i = 0; i <= static_cast<uint8_t>(wasabi::BugType::kStormRetryOnOverload); ++i) {
    auto type = static_cast<wasabi::BugType>(i);
    if (name == wasabi::BugTypeName(type)) {
      return type;
    }
  }
  return std::nullopt;
}

// Reports of a JSON bug-report array. File names are relative to the app
// directory in CLI output and prefixed with the app id in the manifest.
bool ReportsFromJson(const Json& array, const std::string& app_id,
                     std::vector<wasabi::BugReport>* reports, std::string* error) {
  if (array.kind != Json::Kind::kArray) {
    *error = "expected a bug-report array";
    return false;
  }
  for (const Json& item : array.items) {
    std::optional<wasabi::BugType> type = BugTypeFromName(item.StringOr("type"));
    if (!type) {
      *error = "unknown bug type '" + item.StringOr("type") + "'";
      return false;
    }
    wasabi::BugReport report;
    report.type = *type;
    report.app = item.StringOr("app");
    report.file = app_id + "/" + item.StringOr("file");
    report.coordinator = item.StringOr("coordinator");
    reports->push_back(std::move(report));
  }
  return true;
}

std::string ScoreSummary(const std::vector<wasabi::BugReport>& reports,
                         const std::vector<wasabi::SeededBug>& truth) {
  wasabi::ScoreCell total = wasabi::ScoreReports(reports, truth).TotalAll();
  return "tp=" + std::to_string(total.true_positives) +
         " fp=" + std::to_string(total.false_positives) +
         " fn=" + std::to_string(total.false_negatives);
}

std::vector<wasabi::SeededBug> TruthFor(const std::string& command,
                                        const std::vector<wasabi::SeededBug>& bugs) {
  using wasabi::DetectionTechnique;
  if (command == "test") {
    return wasabi::DetectableBugs(bugs, DetectionTechnique::kUnitTesting);
  }
  if (command == "storm") {
    return wasabi::DetectableBugs(bugs, DetectionTechnique::kStormSim);
  }
  // static prints the LLM's WHEN reports and the retry-ratio IF reports.
  std::vector<wasabi::SeededBug> truth =
      wasabi::DetectableBugs(bugs, DetectionTechnique::kLlmStatic);
  for (wasabi::SeededBug& bug : wasabi::DetectableBugs(bugs, DetectionTechnique::kCodeQlStatic)) {
    truth.push_back(std::move(bug));
  }
  return truth;
}

std::string RepairSummary(int confirmed, int eligible, int patched, int fixed, int not_fixed,
                          int regressed, int no_template) {
  std::ostringstream out;
  out << "confirmed=" << confirmed << " eligible=" << eligible << " patched=" << patched
      << " fixed=" << fixed << " not_fixed=" << not_fixed << " regressed=" << regressed
      << " no_template=" << no_template;
  return out.str();
}

// The summary the lab manifests fix exactly: repairlab `repair` from
// ExpectedRepairs (8 confirmed, 7 fixed, 0 not-fixed, 0 regressed,
// 1 no-template) and stormlab `storm` (every seeded storm bug found, no
// false positive: TP=3/FP=0). Null for every other input.
std::optional<std::string> LabSummary(const std::string& command, const AppInput& app) {
  if (app.id == "repairlab" && command == "repair") {
    int fixed = 0;
    int not_fixed = 0;
    int regressed = 0;
    int no_template = 0;
    std::vector<wasabi::RepairExpectation> expected = wasabi::ExpectedRepairs(app.bugs);
    for (const wasabi::RepairExpectation& expectation : expected) {
      switch (expectation.outcome) {
        case wasabi::RepairOutcome::kFixed:
          ++fixed;
          break;
        case wasabi::RepairOutcome::kNotFixed:
          ++not_fixed;
          break;
        case wasabi::RepairOutcome::kRegressed:
          ++regressed;
          break;
        case wasabi::RepairOutcome::kNoTemplate:
          ++no_template;
          break;
      }
    }
    int confirmed = static_cast<int>(expected.size());
    int eligible = confirmed - no_template;
    return RepairSummary(confirmed, eligible, eligible, fixed, not_fixed, regressed, no_template);
  }
  if (app.id == "stormlab" && command == "storm") {
    size_t seeded = TruthFor(command, app.bugs).size();
    return "tp=" + std::to_string(seeded) + " fp=0 fn=0";
  }
  return std::nullopt;
}

}  // namespace

bool SummarizeOutput(const std::string& command, const AppInput& app, const std::string& out,
                     std::string* summary, std::string* error) {
  Json root;
  if (!ParseJson(out, &root, error)) {
    *error = "output is not JSON: " + *error;
    return false;
  }
  if (command == "repair") {
    const Json* totals = root.Find("totals");
    if (root.StringOr("version") != "wasabi-repair-v1" || totals == nullptr) {
      *error = "not a wasabi-repair-v1 report";
      return false;
    }
    auto count = [totals](const char* key) { return static_cast<int>(totals->NumberOr(key)); };
    *summary = RepairSummary(count("confirmed"), count("eligible"), count("patched"),
                             count("fixed"), count("not_fixed"), count("regressed"),
                             count("no_template"));
    return true;
  }
  const Json* array = &root;
  if (command == "storm") {
    array = root.Find("bugs");
    if (root.StringOr("version") != "wasabi-storm-v1" || array == nullptr) {
      *error = "not a wasabi-storm-v1 report";
      return false;
    }
  } else if (root.kind == Json::Kind::kObject) {
    *error = "degraded report (skipped files or quarantined runs)";
    return false;
  }
  std::vector<wasabi::BugReport> reports;
  if (!ReportsFromJson(*array, app.id, &reports, error)) {
    return false;
  }
  *summary = ScoreSummary(reports, TruthFor(command, app.bugs));
  return true;
}

std::string AnswerKey(const std::string& app, const std::string& command) {
  return app + " " + command;
}

bool LoadKnownAnswers(const std::filesystem::path& path,
                      std::map<std::string, std::string>* answers, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path.string();
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t first = line.find('\t');
    size_t second = first == std::string::npos ? first : line.find('\t', first + 1);
    if (second == std::string::npos) {
      *error = "malformed known-answer line: " + line;
      return false;
    }
    (*answers)[AnswerKey(line.substr(0, first), line.substr(first + 1, second - first - 1))] =
        line.substr(second + 1);
  }
  return true;
}

std::string OutputChecker::Check(const Invocation& invocation, int exit_code,
                                 const std::string& out) {
  const AppInput& app = inputs_.apps[invocation.app];
  const std::string key = AnswerKey(app.id, invocation.command);
  if (exit_code != 0) {
    return key + ": exit code " + std::to_string(exit_code);
  }
  auto first = first_out_.find(key);
  if (first != first_out_.end()) {
    return first->second == out ? "" : key + ": output differs from the first run's";
  }
  std::string summary;
  std::string error;
  if (!SummarizeOutput(invocation.command, app, out, &summary, &error)) {
    return key + ": " + error;
  }
  auto answer = answers_.find(key);
  if (answer == answers_.end()) {
    return key + ": no known answer";
  }
  if (summary != answer->second) {
    return key + ": scored " + summary + ", known answer " + answer->second;
  }
  std::optional<std::string> lab = LabSummary(invocation.command, app);
  if (lab && summary != *lab) {
    return key + ": scored " + summary + ", lab manifest " + *lab;
  }
  auto unedited = app.unedited_out.find(invocation.command);
  if (unedited != app.unedited_out.end() && unedited->second != out) {
    return key + ": edited app's report differs from the unedited app's";
  }
  first_out_.emplace(key, out);
  return "";
}

Tally CountOutcomes(const std::vector<Outcome>& outcomes) {
  Tally tally;
  std::set<std::pair<size_t, size_t>> seen;
  std::set<std::pair<size_t, size_t>> broken;
  for (const Outcome& outcome : outcomes) {
    ++tally.attempted;
    seen.emplace(outcome.cycle, outcome.app);
    if (!outcome.ok) {
      ++tally.failed;
      broken.emplace(outcome.cycle, outcome.app);
    }
  }
  tally.completed_apps = seen.size() - broken.size();
  return tally;
}

}  // namespace perfbench
