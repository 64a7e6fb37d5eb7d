#include "src/cache/store.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/lang/digest.h"

namespace wasabi {

namespace {

namespace fs = std::filesystem;

std::string EntryKey(std::string_view ns, std::string_view key) {
  std::string full;
  full.reserve(ns.size() + 1 + key.size());
  full.append(ns);
  full.push_back('\x1f');
  full.append(key);
  return full;
}

// Checksum over the raw record content; the '\x1f' separators make the three
// fields unambiguous (none of them may contain that byte — enforced by the
// escape step never emitting it and our keys never containing it).
uint64_t RecordChecksum(std::string_view ns, std::string_view key, std::string_view value) {
  uint64_t hash = mj::Fnv1a64(ns);
  hash = mj::Fnv1a64("\x1f", hash);
  hash = mj::Fnv1a64(key, hash);
  hash = mj::Fnv1a64("\x1f", hash);
  return mj::Fnv1a64(value, hash);
}

void AppendRecord(std::ostream& out, std::string_view ns, std::string_view key,
                  std::string_view value) {
  out << mj::DigestHex(RecordChecksum(ns, key, value)) << '\t' << ns << '\t'
      << CacheStore::EscapeField(key) << '\t' << CacheStore::EscapeField(value) << '\n';
}

}  // namespace

std::string CacheStore::EscapeField(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

bool CacheStore::UnescapeField(std::string_view escaped, std::string* out) {
  out->clear();
  out->reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    char c = escaped[i];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= escaped.size()) {
      return false;  // Dangling escape: truncated record.
    }
    switch (escaped[i]) {
      case '\\': out->push_back('\\'); break;
      case 't': out->push_back('\t'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      default: return false;
    }
  }
  return true;
}

std::unique_ptr<CacheStore> CacheStore::Open(const std::string& dir, std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create cache directory " + dir + ": " + ec.message();
    }
    return nullptr;
  }
  std::unique_ptr<CacheStore> store(new CacheStore(dir));
  store->LoadLocked();
  return store;
}

void CacheStore::LoadLocked() {
  const fs::path version_path = fs::path(dir_) / "VERSION";
  const fs::path entries_path = fs::path(dir_) / "entries.tsv";

  std::error_code ec;
  if (!fs::exists(version_path, ec)) {
    // Fresh directory: nothing to load; first Flush writes the tag.
    needs_rewrite_ = true;
    return;
  }
  std::ifstream version_in(version_path);
  std::string version;
  std::getline(version_in, version);
  if (version != kCacheSchemaVersion) {
    ++stats_.version_mismatches;
    needs_rewrite_ = true;  // Stale schema: start empty, rewrite on Flush.
    return;
  }

  std::ifstream in(entries_path);
  if (!in) {
    return;  // No entries yet.
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    size_t t1 = line.find('\t');
    size_t t2 = t1 == std::string::npos ? std::string::npos : line.find('\t', t1 + 1);
    size_t t3 = t2 == std::string::npos ? std::string::npos : line.find('\t', t2 + 1);
    if (t3 == std::string::npos || line.find('\t', t3 + 1) != std::string::npos) {
      ++stats_.corrupt_entries;
      continue;
    }
    std::string_view checksum_hex = std::string_view(line).substr(0, t1);
    std::string_view ns = std::string_view(line).substr(t1 + 1, t2 - t1 - 1);
    std::string key;
    std::string value;
    if (!UnescapeField(std::string_view(line).substr(t2 + 1, t3 - t2 - 1), &key) ||
        !UnescapeField(std::string_view(line).substr(t3 + 1), &value)) {
      ++stats_.corrupt_entries;
      continue;
    }
    if (mj::DigestHex(RecordChecksum(ns, key, value)) != checksum_hex) {
      ++stats_.corrupt_entries;
      continue;
    }
    entries_[EntryKey(ns, key)].value = std::move(value);  // Last record wins.
    ++stats_.loaded_entries;
  }
}

std::optional<std::string> CacheStore::Get(std::string_view ns, std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(EntryKey(ns, key));
  const std::string ns_name(ns);
  if (it == entries_.end()) {
    ++stats_.misses;
    ++stats_.misses_by_namespace[ns_name];
    return std::nullopt;
  }
  ++stats_.hits;
  ++stats_.hits_by_namespace[ns_name];
  return it->second.value;
}

void CacheStore::Put(std::string_view ns, std::string_view key, std::string value) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.puts;
  auto [it, inserted] = entries_.try_emplace(EntryKey(ns, key));
  Entry& entry = it->second;
  if (!inserted && entry.value == value) {
    return;  // Already held (and persisted, or listed in dirty_).
  }
  entry.value = std::move(value);
  if (!entry.dirty) {
    entry.dirty = true;
    dirty_.push_back(&*it);
  }
}

bool CacheStore::Flush(std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  const fs::path version_path = fs::path(dir_) / "VERSION";
  const fs::path entries_path = fs::path(dir_) / "entries.tsv";

  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };

  if (needs_rewrite_) {
    {
      std::ofstream version_out(version_path, std::ios::trunc);
      version_out << kCacheSchemaVersion << '\n';
      if (!version_out) {
        return fail("cannot write " + version_path.string());
      }
    }
    std::ofstream out(entries_path, std::ios::trunc);
    for (const auto& [full, entry] : entries_) {
      size_t sep = full.find('\x1f');
      AppendRecord(out, std::string_view(full).substr(0, sep),
                   std::string_view(full).substr(sep + 1), entry.value);
    }
    if (!out) {
      return fail("cannot write " + entries_path.string());
    }
    needs_rewrite_ = false;
    ClearDirtyLocked();
    return true;
  }

  if (dirty_.empty()) {
    return true;
  }
  std::ofstream out(entries_path, std::ios::app);
  for (const auto* dirty : dirty_) {
    const std::string& full = dirty->first;
    size_t sep = full.find('\x1f');
    AppendRecord(out, std::string_view(full).substr(0, sep),
                 std::string_view(full).substr(sep + 1), dirty->second.value);
  }
  if (!out) {
    return fail("cannot append to " + entries_path.string());
  }
  ClearDirtyLocked();
  return true;
}

void CacheStore::ClearDirtyLocked() {
  for (auto* dirty : dirty_) {
    dirty->second.dirty = false;
  }
  dirty_.clear();
}

CacheStats CacheStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

CacheStats DiffStats(const CacheStats& before, const CacheStats& after) {
  CacheStats delta;
  delta.hits = after.hits - before.hits;
  delta.misses = after.misses - before.misses;
  delta.puts = after.puts - before.puts;
  delta.loaded_entries = after.loaded_entries - before.loaded_entries;
  delta.corrupt_entries = after.corrupt_entries - before.corrupt_entries;
  delta.version_mismatches = after.version_mismatches - before.version_mismatches;
  for (const auto& [ns, count] : after.hits_by_namespace) {
    auto it = before.hits_by_namespace.find(ns);
    int64_t diff = count - (it == before.hits_by_namespace.end() ? 0 : it->second);
    if (diff != 0) {
      delta.hits_by_namespace[ns] = diff;
    }
  }
  for (const auto& [ns, count] : after.misses_by_namespace) {
    auto it = before.misses_by_namespace.find(ns);
    int64_t diff = count - (it == before.misses_by_namespace.end() ? 0 : it->second);
    if (diff != 0) {
      delta.misses_by_namespace[ns] = diff;
    }
  }
  return delta;
}

}  // namespace wasabi
