// Versioned on-disk key/value store backing the incremental pipeline cache
// (docs/CACHING.md).
//
// Layout: `<dir>/VERSION` holds the schema tag, `<dir>/entries.tsv` holds one
// record per line: `<fnv-hex>\t<namespace>\t<key>\t<value>` with key and value
// backslash-escaped. The leading field is an FNV-1a checksum over the raw
// (unescaped) namespace + key + value, so a truncated or bit-flipped record
// is detected on load, dropped, and counted — a corrupt cache can only ever
// cause recomputation, never a wrong report. A VERSION mismatch discards the
// whole store the same way (counted separately) and the next Flush rewrites
// it under the current schema.
//
// The store is a plain map in memory; Get/Put are mutex-guarded so the facade
// may consult it from reduce loops without caring which thread runs them.
// Flush persists changed entries (append when the on-disk file is still the
// one we loaded, full rewrite after a version mismatch): a put of the value a
// key already holds changes nothing, and a key put several times between
// flushes appends one record, with its last value.

#ifndef WASABI_SRC_CACHE_STORE_H_
#define WASABI_SRC_CACHE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wasabi {

// Bumping this invalidates every existing cache directory.
// v2: campaign run verdicts carry flakiness-prober classification fields.
// v3: one "camp" entry per dynamic workflow replaces the per-test "cov",
//     per-run "run" and per-campaign "camp" entries.
inline constexpr std::string_view kCacheSchemaVersion = "wasabi-cache-v3";

struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t puts = 0;
  int64_t loaded_entries = 0;
  int64_t corrupt_entries = 0;      // Checksum/format failures dropped on load.
  int64_t version_mismatches = 0;   // 1 when the VERSION tag did not match.
  std::map<std::string, int64_t> hits_by_namespace;
  std::map<std::string, int64_t> misses_by_namespace;
};

// Component-wise difference (`after` - `before`) of two stats snapshots,
// including the per-namespace maps. How phase-scoped cache accounting works:
// snapshot stats() around a phase and diff — the repair validator uses it to
// report how much of each re-campaign the warm per-file entries absorbed.
CacheStats DiffStats(const CacheStats& before, const CacheStats& after);

class CacheStore {
 public:
  // Opens (creating if needed) a cache directory and loads its entries.
  // Returns null only when the directory cannot be created or the entries
  // file cannot be read at the filesystem level; corrupt or version-stale
  // CONTENT is not an error (the store just starts empty and counts it).
  static std::unique_ptr<CacheStore> Open(const std::string& dir, std::string* error);

  std::optional<std::string> Get(std::string_view ns, std::string_view key);
  void Put(std::string_view ns, std::string_view key, std::string value);

  // Persists entries added since load. Returns false (with `error`) when the
  // directory is unwritable; the in-memory store stays usable either way.
  bool Flush(std::string* error);

  CacheStats stats() const;
  const std::string& dir() const { return dir_; }

  // Escaping for the TSV record fields (exposed for tests).
  static std::string EscapeField(std::string_view raw);
  static bool UnescapeField(std::string_view escaped, std::string* out);

 private:
  explicit CacheStore(std::string dir) : dir_(std::move(dir)) {}
  void LoadLocked();
  void ClearDirtyLocked();

  struct Entry {
    std::string value;
    bool dirty = false;  // Changed since the last flush (listed in dirty_).
  };

  using EntryMap = std::map<std::string, Entry>;  // "<ns>\x1f<key>" -> value.

  std::string dir_;
  mutable std::mutex mutex_;
  EntryMap entries_;
  // Entries changed since the last flush, in first-put order. Map nodes
  // never move, so the pointers stay valid.
  std::vector<EntryMap::value_type*> dirty_;
  bool needs_rewrite_ = false;  // Version mismatch: Flush rewrites everything.
  CacheStats stats_;
};

}  // namespace wasabi

#endif  // WASABI_SRC_CACHE_STORE_H_
