// Workload inputs: the seeded draw from the app pool, the seeded
// behaviour-neutral edit of `edit-rescan`, and their materialisation on disk.

#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/scoring.h"
#include "src/corpus/corpus.h"
#include "src/lang/sema.h"

namespace perfbench {

enum class Workload { kDetect, kRepair, kEditRescan };

bool ParseWorkload(std::string_view name, Workload* workload);
const char* WorkloadName(Workload workload);

// splitmix64: the same seed gives the same draws on every platform and
// standard library (std:: distributions do not promise that).
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // A draw in [0, bound); bound must be positive.
  size_t Below(size_t bound) { return static_cast<size_t>(Next() % bound); }

 private:
  uint64_t state_;
};

// The apps of one block of cycles, drawn from the pool: each of the 8 base
// apps as variant 1 (the app itself) to 4 (BuildCorpusAppVariant), plus the
// labs. A block runs every pool app once, in seeded order, so every block
// of a workload does the same work:
//   detect:      2 cycles of 2 distinct variants per base app (16 apps);
//   repair:      4 cycles of 1 variant per base app, then stormlab and
//                repairlab (the labs run in every cycle);
//   edit-rescan: 4 cycles of 1 variant per base app.
// Ids are corpus ids ("hbase", "hbase_v3") and double as directory names.
std::vector<std::vector<std::string>> DrawBlock(Workload workload, SeededRng& rng);

// Cycles in one DrawBlock block of `workload`.
size_t CyclesPerBlock(Workload workload);

// A same-length rename of one local variable in one non-test method: every
// identifier token spelling the local is rewritten in place, so byte length
// and line numbers are unchanged.
struct LocalRename {
  std::string file;    // Unit name, e.g. "hbase/BlockCodec.mj".
  std::string method;  // Qualified method name.
  std::string old_name;
  std::string new_name;
  std::vector<uint32_t> offsets;  // Byte offsets of the rewritten tokens.
};

// True when `name` contains a word the retry finder or SimLLM reads meaning
// into (retry words, attempt/limit words, sleep/poll/state words). Neither
// side of a rename may contain one, so identification and every LLM judgment
// stay the same.
bool HasNameSensitiveWord(std::string_view name);

// Draws a rename with `rng`. Eligible locals are `var` declarations in a
// method of a class not named "*Test", without a name-sensitive word, whose
// every occurrence in the file is a bare identifier (not `.name`, not
// `name(`) inside that method. The new name collides with no identifier in
// the program and is not a keyword. Null when the program has none.
std::optional<LocalRename> PickLocalRename(const mj::Program& program, SeededRng& rng);

// `text` (the renamed unit's source) with the rename applied.
std::string ApplyRename(std::string text, const LocalRename& rename);

// Builds pool app `id`: a corpus id ("hbase", "hbase_v3") or a lab.
wasabi::CorpusApp BuildPoolApp(const std::string& id);

// Writes every unit of `app` under `root` (unit names start with the app
// id), with `rename` applied to its unit, which must still parse.
bool WriteApp(const std::filesystem::path& root, const wasabi::CorpusApp& app,
              const std::optional<LocalRename>& rename, std::string* error);

struct AppInput {
  std::string id;             // Corpus id and directory name (the CLI's app name).
  std::filesystem::path dir;  // The sources the CLI runs on.
  std::vector<wasabi::SeededBug> bugs;
  // edit-rescan only: the cache store primed on the unedited app, and the
  // unedited app's stdout per command.
  std::filesystem::path primed_store;
  std::map<std::string, std::string> unedited_out;
};

// One CLI invocation of a cycle: a command on an app.
struct Invocation {
  size_t app = 0;  // Index into WorkloadInputs::apps.
  std::string command;  // "test", "static", "repair", or "storm".
};

struct WorkloadInputs {
  Workload workload = Workload::kDetect;
  uint64_t seed = 0;
  // Every pool app of the workload, materialised; cycles draw from these.
  std::vector<AppInput> apps;
  // The cache directory invocations use (repair, edit-rescan); reset before
  // every invocation by ResetCacheDir.
  std::filesystem::path cache_dir;
};

// Materialises every pool app of a workload under `root` (recreated): its
// sources, and for edit-rescan an edited copy with a rename drawn from the
// seed, plus the cache store primed by running `cli` test and static on the
// unedited app. `jobs` is the --jobs value of every CLI invocation.
bool PrepareInputs(Workload workload, uint64_t seed, const std::filesystem::path& root,
                   const std::string& cli, int jobs, WorkloadInputs* inputs, std::string* error);

// Cycle `index` of the closed loop: cycle index % CyclesPerBlock of the
// block index / CyclesPerBlock, drawn by DrawBlock with a generator seeded
// from (seed, block), as the drawn apps' invocations in order (test then
// static per app; repair per app, then storm on the labs).
std::vector<Invocation> Cycle(const WorkloadInputs& inputs, size_t index);

// The command line of one invocation.
std::vector<std::string> InvocationArgs(const WorkloadInputs& inputs, const Invocation& invocation,
                                        const std::string& cli, int jobs);

// Gives the next invocation its cache: an empty directory for repair, a fresh
// copy of the app's primed store for edit-rescan; nothing for detect.
bool ResetCacheDir(const WorkloadInputs& inputs, const Invocation& invocation,
                   std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
