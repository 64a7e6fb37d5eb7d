// wasabi — command-line driver for the retry-bug detection toolkit.
//
// Usage:
//   wasabi dump-corpus <dir>          write the 8 evaluation applications' mj
//                                     sources (and MANIFEST.txt) under <dir>
//   wasabi identify <dir>             retry-structure inventory for the mj
//                                     sources under <dir> (recursive)
//   wasabi static <dir>               static workflow: LLM WHEN bugs + IF
//                                     retry-ratio outliers
//   wasabi test <dir>                 dynamic workflow: repurposed unit tests
//                                     with fault injection and oracles
//   wasabi analyze <dir>              alias for `test`
//   wasabi storm <dir>                deterministic retry-storm simulation of
//                                     the app's extracted retry policies
//                                     (docs/STORM.md)
//   wasabi repair <dir>               automated repair loop: synthesize a
//                                     template patch for every confirmed
//                                     WHEN/storm verdict and validate it by a
//                                     cache-sliced re-campaign (docs/REPAIR.md)
//   wasabi study                      print the §2 issue-study summary
//   wasabi report --journal=FILE --out=FILE [--metrics=FILE] [--trace=FILE]
//                 [--repair=FILE]     render a journal (plus optional sibling
//                                     artifacts, including a repair report)
//                                     into one self-contained HTML dashboard —
//                                     no analysis is run
//
// Options:
//   --json                            machine-readable bug reports
//   --jobs N                          worker threads for the injection
//                                     campaign (default: all hardware
//                                     threads; output is identical for any N)
//   --trace-out=FILE                  write a Chrome trace-event JSON of the
//                                     run (open in chrome://tracing/Perfetto)
//   --metrics-out=FILE                write the metrics snapshot
//   --metrics-format=json|openmetrics metrics-out encoding (default json);
//                                     openmetrics is Prometheus-scrapeable
//   --journal-out=FILE                write the retry-behavior journal JSON
//                                     (docs/OBSERVABILITY.md); byte-identical
//                                     at any --jobs N
//   --report-out=FILE                 render the HTML retry dashboard for this
//                                     run (implies journaling)
//   --progress                        periodic campaign progress on stderr
//   --fail-fast                       stop scheduling runs after the first
//                                     quarantined one
//   --max-quarantined N               abort the campaign once more than N
//                                     runs are quarantined
//   --chaos SEED:RATE[:ENV_RATE]      self-chaos: deterministically fail RATE
//                                     of runs at the host level (containment
//                                     drill, docs/ROBUSTNESS.md); ENV_RATE of
//                                     runs additionally execute in the seeded
//                                     degraded-environment mode
//   --repetitions N                   flakiness prober: rerun each failing
//                                     campaign verdict N times under clock
//                                     perturbation and classify it {stable,
//                                     flaky, chaos-induced} (docs/FLAKINESS.md)
//   --record DIR                      record every campaign run's slice of
//                                     the retry journal (attempts, injections,
//                                     sleeps, backoff, host failures) and its
//                                     verdict into DIR; output-neutral
//   --replay ID                       test/analyze only: replay the single
//                                     recorded run ID from --record DIR in
//                                     isolation and compare its journal events
//                                     and verdict with the record (pass the
//                                     same flags as the recording run)
//   --cache-dir=DIR                   memoize per-file analysis and each whole
//                                     dynamic workflow under DIR keyed by
//                                     content digests (docs/CACHING.md);
//                                     reports are byte-identical with the
//                                     cache on, off, warm, or damaged
//   --scale N                         dump-corpus only: emit N seeded variants
//                                     of each application (default 1)
//   --app NAME                        dump-corpus only: emit a single known
//                                     app (including the on-demand labs
//                                     "flakylab", "stormlab", and "repairlab");
//                                     unknown names are rejected with exit
//                                     code 2
//   --storm                           test/analyze only: also run the storm
//                                     simulation, output-neutral — results go
//                                     to the obs sinks (journal/metrics/trace/
//                                     report) only
//   --storm-seed N                    storm RNG seed (non-negative; default 1)
//   --storm-duration MS               simulated duration (positive; default
//                                     30000)
//   --storm-fault START:END           transient backend fault window in
//                                     simulated ms (0 <= START < END <=
//                                     duration; default 5000:10000)
//   --storm-out=FILE                  write the storm report JSON
//                                     ("wasabi-storm-v1"; byte-identical at
//                                     any --jobs N)
//   --repair-out=FILE                 repair only: write the repair report
//                                     JSON ("wasabi-repair-v1"; byte-identical
//                                     at any --jobs N and any cache state)
//
// Malformed .mj files no longer abort an analysis: they are skipped with a
// diagnostic on stderr and the report is marked degraded (JSON gains
// "degraded": true plus skipped_files/quarantined sections; exit stays 0).
//
// Instrumentation never touches stdout: reports are byte-identical with and
// without --trace-out/--metrics-out/--progress. Unknown options and options
// missing a required value are rejected with exit code 2.
//
// Directory layout convention: every *.mj file is part of the application;
// classes whose names end in "Test" are unit tests. The directory's base name
// is used as the application name in reports.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cache/store.h"
#include "src/core/report_json.h"
#include "src/core/wasabi.h"
#include "src/corpus/corpus.h"
#include "src/lang/decimal.h"
#include "src/lang/parser.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/obs/report_html.h"
#include "src/obs/retry_stats.h"
#include "src/obs/trace.h"
#include "src/repair/repair.h"
#include "src/storm/profile.h"
#include "src/storm/storm.h"
#include "src/study/study.h"

namespace fs = std::filesystem;

namespace {

using namespace wasabi;

int Usage() {
  std::cerr << "usage: wasabi <dump-corpus|identify|static|test|analyze|storm|repair|study>"
               " [dir] [--json]"
               " [--jobs N] [--trace-out=FILE] [--metrics-out=FILE]"
               " [--metrics-format=json|openmetrics] [--journal-out=FILE]"
               " [--report-out=FILE] [--progress]"
               " [--fail-fast] [--max-quarantined N] [--chaos SEED:RATE[:ENV_RATE]]"
               " [--cache-dir=DIR] [--scale N] [--app NAME] [--repetitions N] [--record DIR]"
               " [--replay ID] [--storm] [--storm-seed N] [--storm-duration MS]"
               " [--storm-fault START:END] [--storm-out=FILE] [--repair-out=FILE]\n"
               "       wasabi report --journal=FILE --out=FILE [--metrics=FILE] [--trace=FILE]"
               " [--repair=FILE]\n";
  return 2;
}

// Parsed command-line options shared by the analysis commands.
struct CliOptions {
  bool json = false;
  bool progress = false;
  int jobs = 0;  // 0 = all hardware threads (DefaultJobCount).
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_format = "json";  // "json" | "openmetrics".
  bool metrics_format_set = false;      // For "--metrics-format without --metrics-out" errors.
  std::string journal_out;  // Empty = retry journal off.
  std::string report_out;   // Empty = no HTML report; non-empty implies journaling.
  bool fail_fast = false;
  int64_t max_quarantined = -1;  // < 0 = unlimited.
  ChaosConfig chaos;
  std::string cache_dir;  // Empty = cache off (the default code path).
  int scale = 1;          // dump-corpus variant multiplier.
  int repetitions = 0;    // Flakiness-prober repetitions; 0 = prober off.
  std::string record_dir;     // Empty = record mode off.
  int64_t replay_run_id = -1;  // < 0 = no replay requested.
  std::string corpus_app;  // --app: dump-corpus single-app selection.
  bool storm = false;      // --storm: output-neutral storm phase on test/analyze.
  StormOptions storm_options;  // Defaults unless --storm-* flags override.
  std::string storm_out;       // --storm-out: write the storm report JSON.
  std::string storm_flag;      // First --storm-* value flag seen (validation).
  bool storm_fault_set = false;
  std::string repair_out;      // --repair-out: write the repair report JSON.
  bool repair_flag = false;    // A --repair-* flag was seen (command scoping).
};

// Strict flag parsing: every `--name=value` / `--name value` form must match
// a known option, and value-taking options must actually get a value — a
// typo like --trace-ot=t.json fails loudly instead of silently running an
// uninstrumented campaign. Returns false after printing the usage line.
bool ParseOptions(int argc, char** argv, int first, CliOptions* options) {
  auto fail = [](const std::string& message) {
    std::cerr << "error: " << message << "\n";
    Usage();
    return false;
  };
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (size_t eq = arg.find('='); arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    auto take_value = [&](const char* flag) {
      if (has_value) {
        return true;
      }
      if (i + 1 < argc) {
        value = argv[++i];
        return true;
      }
      std::cerr << "error: option " << flag << " requires a value\n";
      return false;
    };
    // Takes the option's value as a whole-field decimal in [min, max]; a
    // value outside the range (or the type) fails instead of wrapping.
    auto take_int = [&]<typename T>(T* out, T min, T max, const char* expected) {
      if (!take_value(name.c_str())) {
        Usage();
        return false;
      }
      if (!mj::ParseDecimal(value, min, max, out)) {
        return fail("option " + name + " needs " + expected + ", got '" + value + "'");
      }
      return true;
    };
    if (name == "--json" || name == "--progress" || name == "--fail-fast") {
      if (has_value) {
        return fail("option " + name + " does not take a value");
      }
      if (name == "--json") {
        options->json = true;
      } else if (name == "--progress") {
        options->progress = true;
      } else {
        options->fail_fast = true;
      }
    } else if (name == "--jobs") {
      if (!take_int(&options->jobs, 1, INT_MAX, "a positive integer")) {
        return false;
      }
    } else if (name == "--max-quarantined") {
      if (!take_int(&options->max_quarantined, int64_t{0}, INT64_MAX,
                    "a non-negative integer")) {
        return false;
      }
    } else if (name == "--chaos") {
      if (!take_value("--chaos")) {
        Usage();
        return false;
      }
      std::string error;
      if (!ParseChaosSpec(value, &options->chaos, &error)) {
        return fail("option --chaos needs SEED:RATE, got '" + value + "' (" + error + ")");
      }
    } else if (name == "--trace-out") {
      if (!take_value("--trace-out")) {
        Usage();
        return false;
      }
      options->trace_out = value;
    } else if (name == "--metrics-out") {
      if (!take_value("--metrics-out")) {
        Usage();
        return false;
      }
      options->metrics_out = value;
    } else if (name == "--metrics-format") {
      if (!take_value("--metrics-format")) {
        Usage();
        return false;
      }
      if (value != "json" && value != "openmetrics") {
        return fail("option --metrics-format must be json or openmetrics, got '" + value + "'");
      }
      options->metrics_format = value;
      options->metrics_format_set = true;
    } else if (name == "--journal-out") {
      if (!take_value("--journal-out")) {
        Usage();
        return false;
      }
      if (value.empty()) {
        return fail("option --journal-out needs a non-empty path");
      }
      options->journal_out = value;
    } else if (name == "--report-out") {
      if (!take_value("--report-out")) {
        Usage();
        return false;
      }
      if (value.empty()) {
        return fail("option --report-out needs a non-empty path");
      }
      options->report_out = value;
    } else if (name == "--cache-dir") {
      if (!take_value("--cache-dir")) {
        Usage();
        return false;
      }
      if (value.empty()) {
        return fail("option --cache-dir needs a non-empty directory");
      }
      options->cache_dir = value;
    } else if (name == "--repetitions") {
      if (!take_int(&options->repetitions, 1, INT_MAX, "a positive integer")) {
        return false;
      }
    } else if (name == "--record") {
      if (!take_value("--record")) {
        Usage();
        return false;
      }
      if (value.empty()) {
        return fail("option --record needs a non-empty directory");
      }
      options->record_dir = value;
    } else if (name == "--replay") {
      if (!take_int(&options->replay_run_id, int64_t{0}, INT64_MAX, "a non-negative run id")) {
        return false;
      }
    } else if (name == "--scale") {
      if (!take_int(&options->scale, 1, INT_MAX, "a positive integer")) {
        return false;
      }
    } else if (name == "--app") {
      if (!take_value("--app")) {
        Usage();
        return false;
      }
      if (value.empty()) {
        return fail("option --app needs a non-empty corpus app name");
      }
      options->corpus_app = value;
    } else if (name == "--storm") {
      if (has_value) {
        return fail("option --storm does not take a value");
      }
      options->storm = true;
    } else if (name == "--storm-seed") {
      if (!take_int(&options->storm_options.seed, uint64_t{0}, UINT64_MAX,
                    "a non-negative integer")) {
        return false;
      }
      options->storm_flag = "--storm-seed";
    } else if (name == "--storm-duration") {
      if (!take_int(&options->storm_options.duration_ms, int64_t{1}, INT64_MAX,
                    "a positive integer of simulated ms")) {
        return false;
      }
      options->storm_flag = "--storm-duration";
    } else if (name == "--storm-fault") {
      if (!take_value("--storm-fault")) {
        Usage();
        return false;
      }
      const std::string_view window = value;
      const size_t colon = window.find(':');
      int64_t start = 0;
      int64_t stop = 0;
      if (colon == std::string_view::npos ||
          !mj::ParseDecimal(window.substr(0, colon), int64_t{0}, INT64_MAX, &start) ||
          !mj::ParseDecimal(window.substr(colon + 1), int64_t{0}, INT64_MAX, &stop) ||
          stop <= start) {
        return fail("option --storm-fault needs START:END with 0 <= START < END, got '" +
                    value + "'");
      }
      options->storm_options.fault_start_ms = start;
      options->storm_options.fault_end_ms = stop;
      options->storm_fault_set = true;
      options->storm_flag = "--storm-fault";
    } else if (name == "--storm-out") {
      if (!take_value("--storm-out")) {
        Usage();
        return false;
      }
      if (value.empty()) {
        return fail("option --storm-out needs a non-empty path");
      }
      options->storm_out = value;
      options->storm_flag = "--storm-out";
    } else if (name == "--repair-out") {
      if (!take_value("--repair-out")) {
        Usage();
        return false;
      }
      if (value.empty()) {
        return fail("option --repair-out needs a non-empty path");
      }
      options->repair_out = value;
      options->repair_flag = true;
    } else {
      return fail("unknown option '" + arg + "'");
    }
  }
  if (options->metrics_format_set && options->metrics_out.empty()) {
    return fail("option --metrics-format requires --metrics-out=FILE");
  }
  if (options->storm_fault_set &&
      options->storm_options.fault_end_ms > options->storm_options.duration_ms) {
    return fail("option --storm-fault window must end within --storm-duration");
  }
  return true;
}

struct ObsSinks;

bool WriteFileOrComplain(const std::string& path, const std::string& bytes, const char* what) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) {
    std::cerr << "error: cannot write " << what << " to " << path << "\n";
    return false;
  }
  return true;
}

// Opens the --cache-dir store. A store that cannot be opened (filesystem-level
// failure) only warns on stderr and runs the analysis cold: the cache is an
// accelerator, never a correctness dependency. Returns null when the flag is
// absent, which keeps every cache code path disabled.
std::unique_ptr<CacheStore> OpenCliCache(const CliOptions& cli) {
  if (cli.cache_dir.empty()) {
    return nullptr;
  }
  std::string error;
  std::unique_ptr<CacheStore> store = CacheStore::Open(cli.cache_dir, &error);
  if (store == nullptr) {
    std::cerr << "warning: cache disabled: " << error << "\n";
  }
  return store;
}

// Persists new cache entries and exports the store's health counters into the
// metrics registry (robust.* — corruption can only cost recomputation, and
// these gauges prove when it did). Call before ExportObservability.
void FinishCliCache(CacheStore* store, MetricsRegistry* metrics) {
  if (store == nullptr) {
    return;
  }
  if (metrics != nullptr) {
    CacheStats stats = store->stats();
    metrics->SetGauge("cache.loaded_entries", static_cast<double>(stats.loaded_entries));
    metrics->SetGauge("cache.puts", static_cast<double>(stats.puts));
    metrics->SetGauge("robust.cache_corrupt_entries",
                      static_cast<double>(stats.corrupt_entries));
    metrics->SetGauge("robust.cache_version_mismatches",
                      static_cast<double>(stats.version_mismatches));
  }
  std::string error;
  if (!store->Flush(&error)) {
    std::cerr << "warning: cache flush failed: " << error << "\n";
  }
}

// Reads `path` whole into `text` with open/fstat/read, sized from the
// file's size so the bytes are copied once. Reads resume after EINTR and
// short reads; a file that shrinks between fstat and the read keeps what was
// read, and one that grows is read up to its fstat size. An open, fstat or
// read error makes the file unreadable.
bool ReadSourceFile(const fs::path& path, std::string* text) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return false;
  }
  struct stat info;
  bool ok = ::fstat(fd, &info) == 0;
  size_t read_bytes = 0;
  if (ok) {
    text->resize(static_cast<size_t>(info.st_size));
    while (read_bytes < text->size()) {
      const ssize_t n = ::read(fd, text->data() + read_bytes, text->size() - read_bytes);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        ok = n == 0;  // 0: end of file, the file shrank.
        break;
      }
      read_bytes += static_cast<size_t>(n);
    }
  }
  ::close(fd);
  text->resize(ok ? read_bytes : 0);
  return ok;
}

// One app as the analysis commands load it: its program, the index every
// command builds over it, and the files left out of it.
struct LoadedApp {
  mj::Program program;
  std::unique_ptr<mj::ProgramIndex> index;
  std::vector<SkippedFile> skipped;
};

// Loads every .mj file under `root` (recursively) into `app` and indexes the
// program. Files are named by their path below `root` as walked, so the
// names do not depend on how `root` is spelled, and a symlinked file keeps
// its own name. The phases record load.read, load.parse and load.index spans
// on `tracer` (null: no spans).
//
// Degraded-mode containment (docs/ROBUSTNESS.md): each file parses against
// its own DiagnosticEngine, so a malformed or unreadable file is reported on
// stderr, recorded in `app->skipped`, and left out of the program instead of
// aborting the whole analysis. Only "no file loaded at all" is fatal.
bool LoadProgram(const fs::path& root, Tracer* tracer, LoadedApp* app) {
  struct Source {
    std::string name;
    std::string text;
    bool readable = false;
  };
  std::vector<Source> sources;
  {
    ScopedSpan span(tracer, "load.read");
    std::vector<fs::path> files;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root, ec), end; it != end && !ec;
         it.increment(ec)) {
      if (it->is_regular_file() && it->path().extension() == ".mj") {
        files.push_back(it->path());
      }
    }
    if (ec) {
      std::cerr << "error: cannot read " << root << ": " << ec.message() << "\n";
      return false;
    }
    if (files.empty()) {
      std::cerr << "error: no .mj files under " << root << "\n";
      return false;
    }
    std::sort(files.begin(), files.end());
    sources.resize(files.size());
    for (size_t i = 0; i < files.size(); ++i) {
      sources[i].name = files[i].lexically_relative(root).generic_string();
      sources[i].readable = ReadSourceFile(files[i], &sources[i].text);
    }
  }
  size_t loaded = 0;
  {
    ScopedSpan span(tracer, "load.parse");
    // Warnings go out in file order, unreadable files included.
    for (Source& source : sources) {
      if (!source.readable) {
        std::cerr << "warning: skipping unreadable file " << source.name << "\n";
        app->skipped.push_back({source.name, "unreadable"});
        continue;
      }
      mj::DiagnosticEngine diag;
      auto unit = mj::ParseSource(source.name, std::move(source.text), diag);
      if (diag.has_errors()) {
        std::cerr << diag.FormatAll(&unit->file());
        std::cerr << "warning: skipping " << source.name << " (" << diag.error_count()
                  << " parse error(s))\n";
        app->skipped.push_back(
            {source.name, std::to_string(diag.error_count()) + " parse error(s)"});
        continue;
      }
      app->program.AddUnit(std::move(unit));
      ++loaded;
    }
  }
  if (loaded == 0) {
    std::cerr << "error: no loadable .mj files under " << root << "\n";
    return false;
  }
  ScopedSpan span(tracer, "load.index");
  app->index = std::make_unique<mj::ProgramIndex>(app->program);
  return true;
}

void WriteCorpusApp(const fs::path& root, const CorpusApp& app) {
  std::ostringstream manifest;
  manifest << "# Seeded bugs for " << app.display_name << "\n";
  for (const SeededBug& bug : app.bugs) {
    manifest << bug.id << "\t" << BugTypeName(bug.type) << "\t" << bug.coordinator << "\t"
             << bug.note << "\n";
  }
  for (const auto& unit : app.program.units()) {
    fs::path out_path = root / unit->file().name();
    std::error_code ec;
    fs::create_directories(out_path.parent_path(), ec);
    std::ofstream out(out_path);
    out << unit->file().text();
  }
  fs::path manifest_path = root / app.name / "MANIFEST.txt";
  std::ofstream out(manifest_path);
  out << manifest.str();
  std::cout << "wrote " << app.source_files << " files + manifest under "
            << (root / app.name).generic_string() << "\n";
}

int DumpCorpus(const fs::path& root, const CliOptions& cli) {
  if (!cli.corpus_app.empty()) {
    // Single-app dumps reach the on-demand labs (flakylab, stormlab) that are
    // deliberately outside the eight-app goldens; unknown names are a usage
    // error, not an abort.
    if (!IsKnownCorpusApp(cli.corpus_app)) {
      std::cerr << "error: unknown corpus app '" << cli.corpus_app << "'\n";
      return Usage();
    }
    if (cli.scale != 1) {
      std::cerr << "error: option --scale does not combine with --app\n";
      return Usage();
    }
    WriteCorpusApp(root, BuildCorpusApp(cli.corpus_app));
    return 0;
  }
  for (const std::string& name : ScaledCorpusAppNames(cli.scale)) {
    WriteCorpusApp(root, BuildScaledCorpusApp(name));
  }
  return 0;
}

WasabiOptions OptionsFor(const fs::path& root) {
  WasabiOptions options;
  // "dir/" names the same app as "dir".
  options.app_name =
      (root.has_filename() ? root : root.parent_path()).filename().generic_string();
  if (options.app_name.empty()) {
    options.app_name = "app";
  }
  return options;
}

int Identify(const fs::path& root, const CliOptions& cli) {
  LoadedApp app;
  if (!LoadProgram(root, nullptr, &app)) {
    return 1;
  }
  Wasabi tool(app.program, *app.index, OptionsFor(root));
  std::unique_ptr<CacheStore> cache = OpenCliCache(cli);
  tool.set_cache(cache.get());
  IdentificationResult result = tool.IdentifyRetryStructures();
  FinishCliCache(cache.get(), nullptr);
  std::cout << result.structures.size() << " retry structures ("
            << result.candidate_loops_without_keyword_filter
            << " candidate loops before keyword filtering):\n";
  for (const RetryStructure& structure : result.structures) {
    std::cout << "  " << structure.file << ":" << structure.location.line << "\t"
              << structure.coordinator << "\t" << RetryMechanismName(structure.mechanism)
              << "\t"
              << (structure.found_by.both()    ? "codeql+llm"
                  : structure.found_by.codeql ? "codeql"
                                              : "llm")
              << "\t" << structure.locations.size() << " location(s)\n";
  }
  return 0;
}

// Sinks backing the --trace-out/--metrics-out/--journal-out/--report-out/
// --progress flags. The pointers are null unless the matching flag was given,
// so an unflagged run takes the exact uninstrumented code paths. --report-out
// implies journaling: the dashboard is rendered from this run's journal.
struct ObsSinks {
  explicit ObsSinks(const CliOptions& cli)
      : progress_meter(&std::cerr),
        tracer_ptr(cli.trace_out.empty() ? nullptr : &tracer),
        metrics_ptr(cli.metrics_out.empty() ? nullptr : &metrics),
        progress_ptr(cli.progress ? &progress_meter : nullptr),
        journal_ptr(cli.journal_out.empty() && cli.report_out.empty() ? nullptr : &journal) {}

  Tracer tracer;
  MetricsRegistry metrics;
  ProgressMeter progress_meter;
  RetryJournal journal;
  Tracer* tracer_ptr;
  MetricsRegistry* metrics_ptr;
  ProgressMeter* progress_ptr;
  RetryJournal* journal_ptr;
};

// Exports every requested observability artifact after a workflow: trace,
// metrics (JSON or OpenMetrics), journal, and the in-process HTML report
// (rendered from this run's journal, embedding whatever sibling artifacts
// were also requested). Returns false when a file cannot be written.
bool ExportObservability(const CliOptions& cli, const std::string& app, ObsSinks& obs,
                         const std::string& repair_json = std::string()) {
  if (!cli.trace_out.empty() &&
      !WriteFileOrComplain(cli.trace_out, obs.tracer.ToChromeJson(), "trace")) {
    return false;
  }
  if (!cli.metrics_out.empty() &&
      !WriteFileOrComplain(cli.metrics_out,
                           cli.metrics_format == "openmetrics" ? obs.metrics.ToOpenMetrics()
                                                               : obs.metrics.ToJson(),
                           "metrics")) {
    return false;
  }
  if (!cli.journal_out.empty() &&
      !WriteFileOrComplain(cli.journal_out, obs.journal.ToJson(app), "journal")) {
    return false;
  }
  if (!cli.report_out.empty()) {
    std::vector<JournalEvent> events = obs.journal.Collect();
    RetryStatsReport stats = ComputeRetryStats(events);
    std::string html = RenderHtmlReport(
        app, events, stats, obs.metrics_ptr != nullptr ? obs.metrics.ToJson() : std::string(),
        obs.tracer_ptr != nullptr ? obs.tracer.ToChromeJson() : std::string(), repair_json);
    if (!WriteFileOrComplain(cli.report_out, html, "report")) {
      return false;
    }
  }
  return true;
}

int StaticWorkflow(const fs::path& root, const CliOptions& cli) {
  bool json = cli.json;
  ObsSinks obs(cli);
  LoadedApp app;
  if (!LoadProgram(root, obs.tracer_ptr, &app)) {
    return 1;
  }
  Wasabi tool(app.program, *app.index, OptionsFor(root));
  tool.set_observability(obs.tracer_ptr, obs.metrics_ptr, obs.progress_ptr, obs.journal_ptr);
  std::unique_ptr<CacheStore> cache = OpenCliCache(cli);
  tool.set_cache(cache.get());
  StaticResult result = tool.RunStaticWorkflow();
  FinishCliCache(cache.get(), obs.metrics_ptr);
  if (!ExportObservability(cli, tool.options().app_name, obs)) {
    return 1;
  }
  ReportHealth health;
  health.skipped_files = app.skipped;
  if (json) {
    std::vector<BugReport> all = result.when_bugs;
    all.insert(all.end(), result.if_bugs.begin(), result.if_bugs.end());
    std::cout << AnalysisReportToJson(all, health);
    return 0;
  }
  std::cout << result.when_bugs.size() << " WHEN report(s):\n";
  for (const BugReport& bug : result.when_bugs) {
    std::cout << "  " << bug.file << ":" << bug.location.line << "\t" << BugTypeName(bug.type)
              << "\t" << bug.coordinator << "\n";
  }
  std::cout << result.if_bugs.size() << " IF report(s):\n";
  for (const BugReport& bug : result.if_bugs) {
    std::cout << "  " << bug.file << ":" << bug.location.line << "\t" << bug.exception << "\t"
              << bug.detail << "\n";
  }
  std::cout << "LLM usage: " << result.llm_usage.calls << " calls, ~"
            << result.llm_usage.prompt_tokens << " tokens\n";
  if (health.degraded()) {
    std::cout << "DEGRADED: " << health.skipped_files.size() << " file(s) skipped\n";
  }
  return 0;
}

// Shared option plumbing for the dynamic workflow and replay: both must build
// the exact same WasabiOptions or the record's config digest will not match.
WasabiOptions DynamicOptionsFor(const fs::path& root, const CliOptions& cli) {
  WasabiOptions options = OptionsFor(root);
  options.jobs = cli.jobs;
  options.robust.fail_fast = cli.fail_fast;
  options.robust.max_quarantined = cli.max_quarantined;
  options.robust.chaos = cli.chaos;
  options.prober.repetitions = cli.repetitions;
  return options;
}

// Replays one recorded run in isolation (docs/FLAKINESS.md). Exit 0 when the
// replayed journal events and verdict are identical to the record, 1 on any
// divergence or load failure.
int Replay(const fs::path& root, const CliOptions& cli) {
  ObsSinks obs(cli);
  LoadedApp app;
  if (!LoadProgram(root, obs.tracer_ptr, &app)) {
    return 1;
  }
  Wasabi tool(app.program, *app.index, DynamicOptionsFor(root, cli));
  tool.set_observability(obs.tracer_ptr, obs.metrics_ptr, obs.progress_ptr, obs.journal_ptr);
  ReplayOutcome outcome = tool.ReplayRun(cli.record_dir,
                                         static_cast<uint64_t>(cli.replay_run_id));
  if (!ExportObservability(cli, tool.options().app_name, obs)) {
    return 1;
  }
  if (!outcome.ok) {
    std::cerr << "error: replay failed: " << outcome.error << "\n";
    return 1;
  }
  if (!outcome.executed) {
    std::cout << "run " << cli.replay_run_id
              << " was admission-skipped during the recorded campaign; recorded verdict \""
              << outcome.recorded_verdict << "\" stands\n";
    return 0;
  }
  std::cout << "replayed run " << cli.replay_run_id << ": verdict \""
            << outcome.replayed_verdict << "\" (recorded \"" << outcome.recorded_verdict
            << "\")\n";
  if (outcome.stream_identical && outcome.verdict_identical) {
    std::cout << "decision stream: identical (" << outcome.recorded.events.size()
              << " events)\n";
    return 0;
  }
  if (!outcome.stream_identical) {
    std::cout << "decision stream: DIVERGED at " << outcome.divergence << "\n";
  }
  if (!outcome.verdict_identical) {
    std::cout << "verdict: DIVERGED\n";
  }
  return 1;
}

int DynamicWorkflow(const fs::path& root, const CliOptions& cli) {
  ObsSinks obs(cli);
  LoadedApp app;
  if (!LoadProgram(root, obs.tracer_ptr, &app)) {
    return 1;
  }
  WasabiOptions options = DynamicOptionsFor(root, cli);
  options.record_dir = cli.record_dir;
  Wasabi tool(app.program, *app.index, options);
  tool.set_observability(obs.tracer_ptr, obs.metrics_ptr, obs.progress_ptr, obs.journal_ptr);
  std::unique_ptr<CacheStore> cache = OpenCliCache(cli);
  tool.set_cache(cache.get());
  DynamicResult result = tool.RunDynamicWorkflow();
  FinishCliCache(cache.get(), obs.metrics_ptr);
  if (!result.record_error.empty()) {
    std::cerr << "warning: recording failed: " << result.record_error << "\n";
  }
  ReportHealth health;
  health.skipped_files = app.skipped;
  health.quarantined = result.quarantined;
  {
    // Report formatting gets its own span so a trace accounts for the whole
    // wall clock, not just the analysis phases.
    ScopedSpan report_span(obs.tracer_ptr, "phase.report");
    if (cli.json) {
      std::cout << AnalysisReportToJson(result.bugs, health);
    } else {
      std::cout << result.total_tests << " unit tests, " << result.tests_covering_retry
                << " cover retry; " << result.planned_runs << " injected runs (naive: "
                << result.naive_runs << ") on " << result.jobs_used << " worker(s)\n";
      if (result.probed_runs > 0) {
        std::cout << "flakiness prober: " << result.probed_runs << " failing run(s) probed — "
                  << result.stable_runs << " stable, " << result.flaky_runs << " flaky, "
                  << result.chaos_induced_runs << " chaos-induced\n";
      }
      std::cout << result.bugs.size() << " bug report(s):\n";
      for (const BugReport& bug : result.bugs) {
        std::cout << "  " << bug.file << ":" << bug.location.line << "\t"
                  << BugTypeName(bug.type) << "\t" << bug.coordinator;
        if (bug.probed) {
          std::cout << "\t[" << VerdictStabilityName(bug.stability)
                    << (bug.flaky_cause.empty() ? "" : ": " + bug.flaky_cause) << "]";
        }
        std::cout << "\n\t" << bug.detail << "\n";
      }
      if (health.degraded()) {
        std::cout << "DEGRADED: " << health.skipped_files.size() << " file(s) skipped, "
                  << health.quarantined.size() << " run(s) quarantined";
        if (result.robustness.recovered > 0) {
          std::cout << " (" << result.robustness.recovered << " recovered by retry)";
        }
        std::cout << "\n";
        for (const SkippedFile& file : health.skipped_files) {
          std::cout << "  skipped " << file.path << ": " << file.reason << "\n";
        }
        for (const RunFailure& failure : health.quarantined) {
          std::cout << "  quarantined run " << failure.run_id << " ["
                    << RunFailureKindName(failure.kind) << "] " << failure.test << " @ "
                    << failure.location << ": " << failure.detail << "\n";
        }
      }
    }
  }
  if (cli.storm) {
    // Output-neutral storm phase: the simulation runs after the campaign and
    // feeds only the obs sinks (journal/metrics/trace, and --storm-out), so
    // stdout is byte-identical with and without --storm.
    std::vector<EdgeRetryProfile> profiles =
        ExtractRetryProfiles(app.program, *app.index, cli.jobs, obs.tracer_ptr);
    StormReport storm = RunStormSim(options.app_name, profiles, cli.storm_options,
                                    obs.journal_ptr, obs.tracer_ptr);
    ExportStormStats(storm, obs.metrics_ptr, obs.tracer_ptr);
    if (!cli.storm_out.empty() &&
        !WriteFileOrComplain(cli.storm_out, StormReportToJson(storm), "storm report")) {
      return 1;
    }
  }
  if (!ExportObservability(cli, options.app_name, obs)) {
    return 1;
  }
  if (result.robustness.aborted) {
    std::cerr << "error: campaign aborted: quarantine limit (--max-quarantined "
              << cli.max_quarantined << ") exceeded\n";
    return 1;
  }
  return 0;
}

// `wasabi storm`: extracts every service's retry policy by probing (src/storm/
// profile.h) and replays them against a shared backend in the deterministic
// discrete-event simulation (docs/STORM.md). The report (JSON with --json,
// summary text otherwise) and the kStorm journal stream are byte-identical at
// any --jobs N and across repeated same-seed runs.
int StormCommand(const fs::path& root, const CliOptions& cli) {
  ObsSinks obs(cli);
  LoadedApp loaded;
  if (!LoadProgram(root, obs.tracer_ptr, &loaded)) {
    return 1;
  }
  const std::string app = OptionsFor(root).app_name;
  std::vector<EdgeRetryProfile> profiles =
      ExtractRetryProfiles(loaded.program, *loaded.index, cli.jobs, obs.tracer_ptr);
  if (profiles.empty()) {
    std::cerr << "error: no storm-profilable services (zero-arg handle() plus send()) under "
              << root << "\n";
    return 1;
  }
  StormReport report =
      RunStormSim(app, profiles, cli.storm_options, obs.journal_ptr, obs.tracer_ptr);
  ExportStormStats(report, obs.metrics_ptr, obs.tracer_ptr);
  std::string json = StormReportToJson(report);
  if (!cli.storm_out.empty() && !WriteFileOrComplain(cli.storm_out, json, "storm report")) {
    return 1;
  }
  if (cli.json) {
    std::cout << json;
  } else {
    std::cout << StormReportToText(report);
  }
  if (!ExportObservability(cli, app, obs)) {
    return 1;
  }
  return 0;
}

// `wasabi repair`: the automated repair loop (docs/REPAIR.md). Runs the full
// detection pipeline, synthesizes a template patch for every confirmed WHEN/
// storm verdict, and validates each patch with a cache-sliced re-campaign.
// The report (JSON with --json, summary text otherwise) is byte-identical at
// any --jobs N and with the cache off/cold/warm.
int RepairCommand(const fs::path& root, const CliOptions& cli) {
  ObsSinks obs(cli);
  LoadedApp app;
  if (!LoadProgram(root, obs.tracer_ptr, &app)) {
    return 1;
  }
  std::unique_ptr<CacheStore> cache = OpenCliCache(cli);
  RepairOptions options;
  options.wasabi = DynamicOptionsFor(root, cli);
  // Sinks and the cache ride on the baseline options; RunRepair detaches the
  // sinks (but keeps the cache — that is the sliced re-campaign) for every
  // nested validation run.
  options.wasabi.tracer = obs.tracer_ptr;
  options.wasabi.metrics = obs.metrics_ptr;
  options.wasabi.progress = obs.progress_ptr;
  options.wasabi.journal = obs.journal_ptr;
  options.wasabi.cache = cache.get();
  options.storm = cli.storm_options;
  RepairReport report = RunRepair(app.program, *app.index, options);
  ExportRepairStats(report, obs.metrics_ptr);
  FinishCliCache(cache.get(), obs.metrics_ptr);
  std::string json = RepairReportToJson(report);
  if (!cli.repair_out.empty() && !WriteFileOrComplain(cli.repair_out, json, "repair report")) {
    return 1;
  }
  if (cli.json) {
    std::cout << json;
  } else {
    std::cout << RepairReportToText(report);
  }
  if (!ExportObservability(cli, options.wasabi.app_name, obs, json)) {
    return 1;
  }
  return 0;
}

// `wasabi report`: offline renderer. Consumes a journal JSON written by
// --journal-out (plus optional --metrics/--trace artifacts from the same run)
// and writes the self-contained HTML dashboard. No analysis is executed, so
// the output is a pure function of the input files.
int ReportCommand(int argc, char** argv) {
  auto fail = [](const std::string& message) {
    std::cerr << "error: " << message << "\n";
    return Usage();
  };
  std::string journal_path;
  std::string metrics_path;
  std::string trace_path;
  std::string repair_path;
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (size_t eq = arg.find('='); arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        return fail("option " + name + " requires a value");
      }
      value = argv[++i];
    }
    if (value.empty()) {
      return fail("option " + name + " needs a non-empty path");
    }
    if (name == "--journal") {
      journal_path = value;
    } else if (name == "--metrics") {
      metrics_path = value;
    } else if (name == "--trace") {
      trace_path = value;
    } else if (name == "--repair") {
      repair_path = value;
    } else if (name == "--out") {
      out_path = value;
    } else {
      return fail("unknown option '" + arg + "'");
    }
  }
  if (journal_path.empty()) {
    return fail("report requires --journal=FILE");
  }
  if (out_path.empty()) {
    return fail("report requires --out=FILE");
  }
  auto read_file = [](const std::string& path, std::string* text) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *text = buffer.str();
    return true;
  };
  std::string journal_text;
  if (!read_file(journal_path, &journal_text)) {
    std::cerr << "error: cannot read journal " << journal_path << "\n";
    return 1;
  }
  std::vector<JournalEvent> events;
  std::string app;
  std::string parse_error;
  if (!RetryJournal::ParseJson(journal_text, &events, &app, &parse_error)) {
    std::cerr << "error: malformed journal " << journal_path << ": " << parse_error << "\n";
    return 1;
  }
  std::string metrics_text;
  if (!metrics_path.empty() && !read_file(metrics_path, &metrics_text)) {
    std::cerr << "error: cannot read metrics " << metrics_path << "\n";
    return 1;
  }
  std::string trace_text;
  if (!trace_path.empty() && !read_file(trace_path, &trace_text)) {
    std::cerr << "error: cannot read trace " << trace_path << "\n";
    return 1;
  }
  std::string repair_text;
  if (!repair_path.empty() && !read_file(repair_path, &repair_text)) {
    std::cerr << "error: cannot read repair report " << repair_path << "\n";
    return 1;
  }
  RetryStatsReport stats = ComputeRetryStats(events);
  std::string html =
      RenderHtmlReport(app, events, stats, metrics_text, trace_text, repair_text);
  std::ofstream out(out_path, std::ios::binary);
  out << html;
  if (!out) {
    std::cerr << "error: cannot write report to " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote retry report for " << app << " (" << events.size() << " events, "
            << html.size() << " bytes) to " << out_path << "\n";
  return 0;
}

int Study() {
  std::cout << "70 studied retry issues across 6 applications.\n\nBy root cause:\n";
  for (auto [cause, count] : StudyCountByRootCause()) {
    std::cout << "  " << StudyRootCauseName(cause) << ": " << count << "\n";
  }
  std::cout << "\nBy mechanism:\n";
  for (auto [mechanism, count] : StudyCountByMechanism()) {
    std::cout << "  " << RetryMechanismName(mechanism) << ": " << count << "\n";
  }
  std::cout << "\nNamed issues:\n";
  for (const StudyIssue& issue : StudyDataset()) {
    if (issue.pinned) {
      std::cout << "  " << issue.id << " — " << issue.summary << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  if (command == "study") {
    return Study();
  }
  if (command == "report") {
    // No corpus directory: report renders existing artifacts.
    return ReportCommand(argc, argv);
  }
  if (argc < 3) {
    return Usage();
  }
  fs::path root = argv[2];
  CliOptions cli;
  if (!ParseOptions(argc, argv, 3, &cli)) {
    return 2;
  }
  if (!cli.storm_out.empty() && command != "storm" && !cli.storm) {
    std::cerr << "error: option --storm-out requires the storm command or --storm\n";
    return Usage();
  }
  if (!cli.storm_flag.empty() && command != "storm" && command != "repair" && !cli.storm) {
    std::cerr << "error: option " << cli.storm_flag
              << " requires the storm or repair command, or --storm\n";
    return Usage();
  }
  if (cli.repair_flag && command != "repair") {
    std::cerr << "error: option --repair-out only applies to the repair command\n";
    return Usage();
  }
  if (cli.storm && command != "test" && command != "analyze") {
    std::cerr << "error: option --storm only applies to the test/analyze command\n";
    return Usage();
  }
  if (!cli.corpus_app.empty() && command != "dump-corpus") {
    std::cerr << "error: option --app only applies to the dump-corpus command\n";
    return Usage();
  }
  if (command == "storm") {
    return StormCommand(root, cli);
  }
  if (command == "repair") {
    return RepairCommand(root, cli);
  }
  if (cli.replay_run_id >= 0) {
    if (cli.record_dir.empty()) {
      std::cerr << "error: option --replay requires --record DIR (the record to replay from)\n";
      return Usage();
    }
    if (command != "test" && command != "analyze") {
      std::cerr << "error: option --replay only applies to the test/analyze command\n";
      return Usage();
    }
    return Replay(root, cli);
  }
  if (command == "dump-corpus") {
    return DumpCorpus(root, cli);
  }
  if (command == "identify") {
    return Identify(root, cli);
  }
  if (command == "static") {
    return StaticWorkflow(root, cli);
  }
  if (command == "test" || command == "analyze") {
    return DynamicWorkflow(root, cli);
  }
  return Usage();
}
