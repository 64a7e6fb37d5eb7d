#include "perfbench/src/inputs.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <system_error>

#include "perfbench/src/spawn.h"
#include "src/corpus/corpus.h"
#include "src/lang/ast.h"
#include "src/lang/diagnostics.h"
#include "src/lang/lexer.h"
#include "src/lang/parser.h"

namespace fs = std::filesystem;

namespace perfbench {

bool ParseWorkload(std::string_view name, Workload* workload) {
  for (Workload candidate : {Workload::kDetect, Workload::kRepair, Workload::kEditRescan}) {
    if (name == WorkloadName(candidate)) {
      *workload = candidate;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kDetect:
      return "detect";
    case Workload::kRepair:
      return "repair";
    case Workload::kEditRescan:
      return "edit-rescan";
  }
  return "?";
}

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

constexpr int kPoolVariants = 4;

std::string VariantId(const std::string& base, int variant) {
  return variant == 1 ? base : base + "_v" + std::to_string(variant);
}

bool IsLab(const std::string& id) { return id == "stormlab" || id == "repairlab"; }

// Every app DrawBlock can return for `workload`.
std::vector<std::string> PoolApps(Workload workload) {
  std::vector<std::string> ids = wasabi::ScaledCorpusAppNames(kPoolVariants);
  if (workload == Workload::kRepair) {
    ids.push_back("stormlab");
    ids.push_back("repairlab");
  }
  return ids;
}

// Independent generator streams of one seed: block draws and per-app renames.
constexpr uint64_t kCycleStream = 0x9E3779B97F4A7C15ULL;
constexpr uint64_t kRenameStream = 0xD1B54A32D192ED03ULL;

}  // namespace

size_t CyclesPerBlock(Workload workload) {
  return workload == Workload::kDetect ? kPoolVariants / 2 : kPoolVariants;
}

std::vector<std::vector<std::string>> DrawBlock(Workload workload, SeededRng& rng) {
  const size_t cycles = CyclesPerBlock(workload);
  const size_t per_cycle = kPoolVariants / cycles;
  std::vector<std::vector<std::string>> block(cycles);
  for (const std::string& base : wasabi::CorpusAppNames()) {
    // A seeded permutation of the variants (Fisher-Yates), dealt out in order.
    std::vector<int> variants;
    for (int variant = 1; variant <= kPoolVariants; ++variant) {
      variants.push_back(variant);
    }
    for (size_t i = variants.size() - 1; i > 0; --i) {
      std::swap(variants[i], variants[rng.Below(i + 1)]);
    }
    for (size_t i = 0; i < variants.size(); ++i) {
      block[i / per_cycle].push_back(VariantId(base, variants[i]));
    }
  }
  if (workload == Workload::kRepair) {
    for (std::vector<std::string>& cycle : block) {
      cycle.push_back("stormlab");
      cycle.push_back("repairlab");
    }
  }
  return block;
}

bool HasNameSensitiveWord(std::string_view name) {
  // Union of the retry finder's keywords and SimLLM's word lists
  // (src/llm/sim_llm.cc: retry, soft-retry, attempt-ish, poll/spin, state,
  // sleep and enqueue words).
  static const char* const kWords[] = {
      "retr",  "reattempt", "resubmit", "reschedule", "attempt", "backoff", "poll",
      "spin",  "busywait",  "state",    "count",      "tries",   "max",     "limit",
      "cap",   "deadline",  "elapsed",  "timeout",    "remaining", "sleep", "pause",
      "delay", "wait",      "queue",    "put",        "add",     "offer",   "push",
      "submit"};
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  for (const char* word : kWords) {
    if (lower.find(word) != std::string::npos) {
      return true;
    }
  }
  return false;
}

namespace {

std::vector<mj::Token> LexUnit(const mj::CompilationUnit& unit) {
  mj::DiagnosticEngine diag;
  mj::Lexer lexer(unit.file(), diag);
  return lexer.LexAll();
}

// Token index range [open, close] of a method body, found by brace matching
// from the body's opening brace. Nullopt when the body cannot be located.
std::optional<std::pair<size_t, size_t>> BodyRange(const std::vector<mj::Token>& tokens,
                                                   const mj::MethodDecl& method) {
  uint32_t open_offset = method.body->location.offset;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].location.offset != open_offset || !tokens[i].is(mj::TokenKind::kLBrace)) {
      continue;
    }
    int depth = 0;
    for (size_t j = i; j < tokens.size(); ++j) {
      if (tokens[j].is(mj::TokenKind::kLBrace)) {
        ++depth;
      } else if (tokens[j].is(mj::TokenKind::kRBrace) && --depth == 0) {
        return std::make_pair(i, j);
      }
    }
    return std::nullopt;
  }
  return std::nullopt;
}

// Offsets of `name`'s tokens when every occurrence in the unit is a bare
// identifier inside [open, close]; nullopt otherwise.
std::optional<std::vector<uint32_t>> LocalOccurrences(const std::vector<mj::Token>& tokens,
                                                       std::pair<size_t, size_t> body,
                                                       const std::string& name) {
  std::vector<uint32_t> offsets;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!tokens[i].is(mj::TokenKind::kIdentifier) || tokens[i].text != name) {
      continue;
    }
    bool inside = i > body.first && i < body.second;
    bool member = i > 0 && tokens[i - 1].is(mj::TokenKind::kDot);
    bool call = i + 1 < tokens.size() && tokens[i + 1].is(mj::TokenKind::kLParen);
    if (!inside || member || call) {
      return std::nullopt;
    }
    offsets.push_back(tokens[i].location.offset);
  }
  return offsets;
}

}  // namespace

std::optional<LocalRename> PickLocalRename(const mj::Program& program, SeededRng& rng) {
  struct Candidate {
    const mj::CompilationUnit* unit;
    const mj::MethodDecl* method;
    std::string name;
  };
  std::set<std::string> taken;
  std::vector<Candidate> candidates;
  for (const auto& unit : program.units()) {
    for (const mj::Token& token : LexUnit(*unit)) {
      if (token.is(mj::TokenKind::kIdentifier)) {
        taken.emplace(token.text);
      }
    }
    for (const mj::ClassDecl* cls : unit->classes()) {
      if (cls->name.size() >= 4 && cls->name.compare(cls->name.size() - 4, 4, "Test") == 0) {
        continue;
      }
      for (const mj::MethodDecl* method : cls->methods) {
        if (method->body == nullptr) {
          continue;
        }
        std::set<std::string> locals;
        mj::WalkStmts(
            method->body,
            [&](const mj::Stmt& stmt) {
              if (stmt.kind == mj::AstKind::kVarDecl) {
                locals.insert(static_cast<const mj::VarDeclStmt&>(stmt).name);
              }
            },
            [](const mj::Expr&) {});
        for (const std::string& name : locals) {
          if (!HasNameSensitiveWord(name)) {
            candidates.push_back({unit.get(), method, name});
          }
        }
      }
    }
  }

  static const char kLetters[] = "bcdfghjklmnpqrstvwxz";
  while (!candidates.empty()) {
    size_t pick = rng.Below(candidates.size());
    Candidate candidate = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<mj::Token> tokens = LexUnit(*candidate.unit);
    std::optional<std::pair<size_t, size_t>> body = BodyRange(tokens, *candidate.method);
    if (!body) {
      continue;
    }
    std::optional<std::vector<uint32_t>> offsets =
        LocalOccurrences(tokens, *body, candidate.name);
    if (!offsets || offsets->empty()) {
      continue;
    }
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::string fresh(candidate.name.size(), 'x');
      for (char& c : fresh) {
        c = kLetters[rng.Below(sizeof(kLetters) - 1)];
      }
      if (taken.count(fresh) == 0 && mj::KeywordKind(fresh) == mj::TokenKind::kIdentifier &&
          !HasNameSensitiveWord(fresh)) {
        return LocalRename{candidate.unit->file().name(), candidate.method->QualifiedName(),
                           candidate.name, fresh, *offsets};
      }
    }
  }
  return std::nullopt;
}

std::string ApplyRename(std::string text, const LocalRename& rename) {
  for (uint32_t offset : rename.offsets) {
    text.replace(offset, rename.old_name.size(), rename.new_name);
  }
  return text;
}

namespace {

bool WriteText(const fs::path& path, const std::string& text, std::string* error) {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    *error = "cannot write " + path.string();
    return false;
  }
  return true;
}

// Runs `cli` test and static on the unedited app with one cache directory,
// leaving it primed, and keeps their stdout as the expected reports.
bool PrimeApp(const std::string& cli, int jobs, const fs::path& app_dir, const fs::path& work,
              AppInput* app, std::string* error) {
  for (const char* command : {"test", "static"}) {
    ProcessResult result =
        RunProcess({cli, command, app_dir.string(), "--json", "--jobs", std::to_string(jobs),
                    "--cache-dir=" + app->primed_store.string()},
                   (work / "prime.out").string(), (work / "prime.err").string());
    if (!result.started || result.exit_code != 0) {
      *error = "priming " + std::string(command) + " on " + app->id + " failed: " +
               (result.error.empty() ? "exit " + std::to_string(result.exit_code)
                                     : result.error);
      return false;
    }
    app->unedited_out[command] = result.out;
  }
  return true;
}

}  // namespace

wasabi::CorpusApp BuildPoolApp(const std::string& id) {
  return IsLab(id) ? wasabi::BuildCorpusApp(id) : wasabi::BuildScaledCorpusApp(id);
}

bool WriteApp(const fs::path& root, const wasabi::CorpusApp& app,
              const std::optional<LocalRename>& rename, std::string* error) {
  for (const auto& unit : app.program.units()) {
    std::string text(unit->file().text());
    if (rename && unit->file().name() == rename->file) {
      text = ApplyRename(std::move(text), *rename);
      mj::DiagnosticEngine diag;
      mj::ParseSource(rename->file, text, diag);
      if (diag.has_errors()) {
        *error = "edited " + rename->file + " does not parse";
        return false;
      }
    }
    if (!WriteText(root / unit->file().name(), text, error)) {
      return false;
    }
  }
  return true;
}

bool PrepareInputs(Workload workload, uint64_t seed, const fs::path& root, const std::string& cli,
                   int jobs, WorkloadInputs* inputs, std::string* error) {
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  if (ec) {
    *error = "cannot create " + root.string() + ": " + ec.message();
    return false;
  }
  *inputs = WorkloadInputs{};
  inputs->workload = workload;
  inputs->seed = seed;
  if (workload != Workload::kDetect) {
    inputs->cache_dir = root / "cache";
  }
  std::vector<std::string> ids = PoolApps(workload);
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::string& id = ids[i];
    wasabi::CorpusApp corpus_app = BuildPoolApp(id);
    AppInput app;
    app.id = id;
    app.bugs = corpus_app.bugs;
    if (workload == Workload::kEditRescan) {
      SeededRng rng(seed + kRenameStream * (i + 1));
      std::optional<LocalRename> rename = PickLocalRename(corpus_app.program, rng);
      if (!rename) {
        *error = "no renameable local in " + id;
        return false;
      }
      app.primed_store = root / "primed" / id;
      if (!WriteApp(root / "orig", corpus_app, std::nullopt, error) ||
          !PrimeApp(cli, jobs, root / "orig" / id, root, &app, error) ||
          !WriteApp(root / "edit", corpus_app, rename, error)) {
        return false;
      }
      app.dir = root / "edit" / id;
    } else {
      if (!WriteApp(root / "apps", corpus_app, std::nullopt, error)) {
        return false;
      }
      app.dir = root / "apps" / id;
    }
    inputs->apps.push_back(std::move(app));
  }
  return true;
}

std::vector<Invocation> Cycle(const WorkloadInputs& inputs, size_t index) {
  const size_t per_block = CyclesPerBlock(inputs.workload);
  SeededRng rng(inputs.seed + kCycleStream * (index / per_block + 1));
  std::vector<std::string> ids = DrawBlock(inputs.workload, rng)[index % per_block];
  std::vector<Invocation> cycle;
  std::vector<size_t> labs;
  for (const std::string& id : ids) {
    size_t app = 0;
    while (inputs.apps[app].id != id) {
      ++app;
    }
    if (inputs.workload != Workload::kRepair) {
      cycle.push_back({app, "test"});
      cycle.push_back({app, "static"});
      continue;
    }
    cycle.push_back({app, "repair"});
    if (IsLab(id)) {
      labs.push_back(app);
    }
  }
  for (size_t lab : labs) {
    cycle.push_back({lab, "storm"});
  }
  return cycle;
}

std::vector<std::string> InvocationArgs(const WorkloadInputs& inputs, const Invocation& invocation,
                                        const std::string& cli, int jobs) {
  std::vector<std::string> args = {cli, invocation.command,
                                   inputs.apps[invocation.app].dir.string(), "--json", "--jobs",
                                   std::to_string(jobs)};
  if (invocation.command != "storm" && !inputs.cache_dir.empty()) {
    args.push_back("--cache-dir=" + inputs.cache_dir.string());
  }
  return args;
}

bool ResetCacheDir(const WorkloadInputs& inputs, const Invocation& invocation,
                   std::string* error) {
  if (inputs.cache_dir.empty()) {
    return true;
  }
  std::error_code ec;
  fs::remove_all(inputs.cache_dir, ec);
  const AppInput& app = inputs.apps[invocation.app];
  if (!ec && !app.primed_store.empty()) {
    fs::copy(app.primed_store, inputs.cache_dir, fs::copy_options::recursive, ec);
  } else if (!ec) {
    fs::create_directories(inputs.cache_dir, ec);
  }
  if (ec) {
    *error = "cannot reset " + inputs.cache_dir.string() + ": " + ec.message();
    return false;
  }
  return true;
}

}  // namespace perfbench
