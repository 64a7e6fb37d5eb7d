// Known-answer checks on CLI output, and the failure tally they feed.

#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"

namespace perfbench {

// The known-answer summary of one invocation's stdout:
//   test, static, storm: "tp=N fp=N fn=N", ScoreReports of the printed
//     reports against the app's seeded bugs of the classes the command can
//     detect;
//   repair: "confirmed=N eligible=N patched=N fixed=N not_fixed=N
//     regressed=N no_template=N", the report's totals.
// False with `error` when the output does not parse, is degraded (skipped
// files or quarantined runs), or names an unknown bug type.
bool SummarizeOutput(const std::string& command, const AppInput& app, const std::string& out,
                     std::string* summary, std::string* error);

// perfbench/known_answers.tsv: "<app>\t<command>\t<summary>" per line, keyed
// here by "<app> <command>".
bool LoadKnownAnswers(const std::filesystem::path& path,
                      std::map<std::string, std::string>* answers, std::string* error);
std::string AnswerKey(const std::string& app, const std::string& command);

// Checks invocations' outputs against the known answers. Only the first
// output per (app, command) is parsed and scored; every later one must equal
// it byte for byte.
class OutputChecker {
 public:
  OutputChecker(const WorkloadInputs& inputs, std::map<std::string, std::string> answers)
      : inputs_(inputs), answers_(std::move(answers)) {}

  // Empty when the invocation passed; otherwise why it failed. A non-zero
  // exit, a degraded report, a summary that differs from the known answer or
  // lab manifest, an edit-rescan report that differs from the unedited app's,
  // and a repeat that differs from the first output all fail.
  std::string Check(const Invocation& invocation, int exit_code, const std::string& out);

 private:
  const WorkloadInputs& inputs_;
  std::map<std::string, std::string> answers_;
  std::map<std::string, std::string> first_out_;
};

// One checked invocation, as the failure tally sees it.
struct Outcome {
  size_t cycle = 0;
  size_t app = 0;
  bool ok = false;
};

struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  // (cycle, app) pairs whose every invocation in that cycle passed.
  size_t completed_apps = 0;
};

Tally CountOutcomes(const std::vector<Outcome>& outcomes);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
