// Cache cold/warm benchmark (docs/CACHING.md): the full dynamic campaign over
// the seed corpus (the paper's 8 applications) and over a ~10x scaled corpus
// (`BuildScaledCorpus`, deterministic seeded variants), each run three ways:
//
//   cold  — empty --cache-dir: every lookup misses, everything executes, the
//           store is populated and flushed,
//   warm  — a fresh process image (fresh stores, fresh Wasabi instances)
//           re-running the identical workload: per-file SimLLM results and
//           each app's dynamic-workflow entry replay,
//   off   — no cache at all, the byte-identity reference.
//
// The committed BENCH_cache.json records the cold/warm seconds and speedup
// for both corpora plus the byte-identity verdicts; the acceptance bar is a
// warm re-run >= 5x faster than cold across the seed corpus.
//
// Usage: stress_campaign [out.json] [cache-dir-root] [scale]

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cache/store.h"
#include "src/core/report_json.h"
#include "src/exec/task_pool.h"

namespace wasabi {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct PassResult {
  double seconds = 0;
  std::string fingerprint;  // Bug reports + raw firing counts, all apps.
};

// One full campaign pass over `apps`. `cache_root` empty = cache off;
// otherwise each app gets `<cache_root>/<app>` (opened fresh, flushed after).
PassResult RunPass(std::vector<CorpusApp>& apps, const std::string& cache_root) {
  PassResult pass;
  std::ostringstream fingerprint;
  Clock::time_point begin = Clock::now();
  for (CorpusApp& app : apps) {
    WasabiOptions options = DefaultOptionsFor(app);
    Wasabi tool(app.program, *app.index, options);
    std::unique_ptr<CacheStore> store;
    if (!cache_root.empty()) {
      std::string error;
      store = CacheStore::Open(cache_root + "/" + app.name, &error);
      if (store == nullptr) {
        std::cerr << "cache disabled for " << app.name << ": " << error << "\n";
      }
      tool.set_cache(store.get());
    }
    DynamicResult result = tool.RunDynamicWorkflow();
    fingerprint << app.name << "|" << BugReportsToJson(result.bugs) << "|"
                << result.raw_reports.size() << "|" << result.planned_runs << "\n";
    if (store != nullptr) {
      std::string error;
      if (!store->Flush(&error)) {
        std::cerr << "cache flush failed for " << app.name << ": " << error << "\n";
      }
    }
  }
  pass.seconds = Seconds(begin, Clock::now());
  pass.fingerprint = fingerprint.str();
  return pass;
}

struct CorpusRecord {
  std::string label;
  size_t apps = 0;
  double cold_seconds = 0;
  double warm_seconds = 0;
  double speedup = 0;
  bool byte_identical = false;
};

// Best-of-N wall clock per pass, standard bench hygiene: the fingerprint is
// asserted identical across repetitions, the minimum time is recorded.
constexpr int kRepetitions = 3;

CorpusRecord MeasureCorpus(const std::string& label, std::vector<CorpusApp>& apps,
                           const std::string& cache_root) {
  std::filesystem::remove_all(cache_root);
  CorpusRecord record;
  record.label = label;
  record.apps = apps.size();

  PassResult off, cold, warm;
  for (int i = 0; i < kRepetitions; ++i) {
    PassResult pass = RunPass(apps, "");
    if (i == 0 || pass.seconds < off.seconds) off.seconds = pass.seconds;
    off.fingerprint = pass.fingerprint;
  }
  for (int i = 0; i < kRepetitions; ++i) {
    std::filesystem::remove_all(cache_root);  // Every cold repetition starts empty.
    PassResult pass = RunPass(apps, cache_root);
    if (i == 0 || pass.seconds < cold.seconds) cold.seconds = pass.seconds;
    cold.fingerprint = pass.fingerprint;
  }
  for (int i = 0; i < kRepetitions; ++i) {
    PassResult pass = RunPass(apps, cache_root);
    if (i == 0 || pass.seconds < warm.seconds) warm.seconds = pass.seconds;
    warm.fingerprint = pass.fingerprint;
  }
  record.cold_seconds = cold.seconds;
  record.warm_seconds = warm.seconds;
  record.speedup = warm.seconds > 0 ? cold.seconds / warm.seconds : 0;
  record.byte_identical =
      off.fingerprint == cold.fingerprint && off.fingerprint == warm.fingerprint;

  TablePrinter table({"Pass", "Seconds", "Speedup vs cold", "Byte-identical"});
  std::ostringstream cold_s, warm_s, off_s, speed;
  off_s << std::fixed << std::setprecision(3) << off.seconds;
  cold_s << std::fixed << std::setprecision(3) << cold.seconds;
  warm_s << std::fixed << std::setprecision(3) << warm.seconds;
  speed << std::fixed << std::setprecision(1) << record.speedup << "x";
  table.AddRow({"cache off", off_s.str(), "-", "reference"});
  table.AddRow({"cold (populate)", cold_s.str(), "1.0x", off.fingerprint == cold.fingerprint ? "yes" : "NO"});
  table.AddRow({"warm (replay)", warm_s.str(), speed.str(), off.fingerprint == warm.fingerprint ? "yes" : "NO"});
  std::cout << "\n" << label << " (" << apps.size() << " apps):\n";
  table.Print();

  std::filesystem::remove_all(cache_root);
  return record;
}

void AppendRecordJson(std::ostream& out, const CorpusRecord& record) {
  out << "{\"label\":\"" << record.label << "\",\"apps\":" << record.apps
      << ",\"cold_seconds\":" << record.cold_seconds
      << ",\"warm_seconds\":" << record.warm_seconds << ",\"speedup\":" << record.speedup
      << ",\"byte_identical\":" << (record.byte_identical ? "true" : "false") << "}";
}

}  // namespace
}  // namespace wasabi

int main(int argc, char** argv) {
  using namespace wasabi;
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_cache.json";
  const std::string cache_root = argc > 2 ? argv[2] : ".stress-campaign-cache";
  const int scale = argc > 3 ? std::atoi(argv[3]) : 10;

  PrintHeading("Result-cache cold/warm campaign benchmark", "docs/CACHING.md");

  std::vector<CorpusApp> seed = BuildFullCorpus();
  CorpusRecord seed_record = MeasureCorpus("seed corpus", seed, cache_root + "/seed");
  seed.clear();

  std::vector<CorpusApp> scaled = BuildScaledCorpus(scale);
  CorpusRecord stress_record =
      MeasureCorpus("stress corpus (scale " + std::to_string(scale) + ")", scaled,
                    cache_root + "/stress");
  scaled.clear();
  std::filesystem::remove_all(cache_root);

  const bool meets_bar = seed_record.speedup >= 5.0;
  std::cout << "\nwarm seed-corpus re-run speedup: " << std::fixed << std::setprecision(1)
            << seed_record.speedup << "x (acceptance bar: >= 5x) — "
            << (meets_bar ? "met" : "NOT MET") << "\n";

  std::ofstream out(json_path);
  out << "{\"bench\":\"stress_campaign\",\"hardware_concurrency\":" << DefaultJobCount()
      << ",\"scale\":" << scale << ",\"warm_meets_5x\":" << (meets_bar ? "true" : "false")
      << ",\"corpora\":[";
  AppendRecordJson(out, seed_record);
  out << ",";
  AppendRecordJson(out, stress_record);
  out << "]}\n";
  std::cout << "record: " << json_path << "\n";

  return seed_record.byte_identical && stress_record.byte_identical && meets_bar ? 0 : 1;
}
