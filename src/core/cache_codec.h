// Entry codecs of the result cache (docs/CACHING.md), one per namespace:
//
//   "q1"    per-file identification findings, keyed by (llm-config digest,
//           file content digest);
//   "when"  per-file static WHEN judgments, same key;
//   "camp"  one whole dynamic workflow, keyed by (program digest,
//           dynamic-config digest, retry-location-list digest).
//
// An entry is records separated by '\x1e' and fields by '\x1f'; free-text
// fields escape both separators. Every decode validates the shape, enum
// ranges and location indices, and parses integers over the whole field
// within a range, so a damaged or stale entry decodes as a miss: cache damage
// can only cause recomputation, never a wrong report.

#ifndef WASABI_SRC_CORE_CACHE_CODEC_H_
#define WASABI_SRC_CORE_CACHE_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/core/wasabi.h"

namespace wasabi {

inline constexpr char kCacheNsIdentify[] = "q1";
inline constexpr char kCacheNsWhen[] = "when";
inline constexpr char kCacheNsDynamic[] = "camp";

// "q1": header (performs_retry, truncated, usage delta), then one record per
// coordinator (qualified name, mechanism, evidence, has-method). A coordinator
// with a method is resolved against `index`; a name that no longer resolves
// is a miss.
std::string EncodeIdentifyEntry(const LlmFileFindings& findings, const LlmUsage& delta);
bool DecodeIdentifyEntry(std::string_view entry, const mj::ProgramIndex& index,
                         const std::string& file, LlmFileFindings* findings, LlmUsage* delta);

// One coordinator's Q2/Q3/Q4 answers in the static WHEN workflow.
struct CachedWhenJudgment {
  std::string qualified_name;
  const mj::MethodDecl* method = nullptr;
  bool sleeps_before_retry = false;
  bool has_cap = false;
  bool poll_or_spin = false;
};

// "when": header (usage delta over AnalyzeFile + every JudgeWhen), then one
// record per coordinator (qualified name, has-method, Q2/Q3/Q4 answers).
std::string EncodeWhenEntry(const std::vector<CachedWhenJudgment>& judgments,
                            const LlmUsage& delta);
bool DecodeWhenEntry(std::string_view entry, const mj::ProgramIndex& index,
                     std::vector<CachedWhenJudgment>* judgments, LlmUsage* delta);

// "camp": everything a warm dynamic workflow restores from `result` — the
// coverage map, the quarantined runs, the merged RobustnessStats, the
// post-oracle and post-prober reports in run-id order (`raw_reports`, each
// location stored as its index in `result.locations`), and the five prober
// counters. Decoding fills exactly those fields of `result` and needs its
// `locations` already set; on failure `result` is unchanged.
std::string EncodeDynamicEntry(const DynamicResult& result);
bool DecodeDynamicEntry(std::string_view entry, DynamicResult* result);

}  // namespace wasabi

#endif  // WASABI_SRC_CORE_CACHE_CODEC_H_
