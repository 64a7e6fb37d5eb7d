#include "src/obs/journal.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <sstream>

namespace wasabi {

namespace {

constexpr std::string_view kJournalVersion = "wasabi-journal-v1";

std::atomic<uint64_t> g_next_journal_id{1};

// Every thread caches the buffers it registered, keyed by process-unique
// journal id — the same never-reused-id scheme as Tracer, so a stale entry
// for a destroyed journal can never alias a live one.
struct CachedBuffer {
  uint64_t journal_id = 0;
  void* buffer = nullptr;
};
thread_local std::vector<CachedBuffer> t_buffer_cache;

// Local JSON string escaping, deliberately duplicated per obs source file so
// the substrate stays dependency-free and linkable from every layer.
std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(static_cast<char>(c));
        }
        break;
    }
  }
  return out;
}

constexpr JournalStream kAllStreams[] = {
    JournalStream::kCoverage,
    JournalStream::kCampaign,
    JournalStream::kProbe,
    JournalStream::kCache,
    JournalStream::kStorm,
};

constexpr JournalEventKind kAllKinds[] = {
    JournalEventKind::kRunBegin,        JournalEventKind::kAttemptBegin,
    JournalEventKind::kAttemptEnd,      JournalEventKind::kWork,
    JournalEventKind::kLoopIterations,  JournalEventKind::kInjectFire,
    JournalEventKind::kInjectSkip,      JournalEventKind::kSleep,
    JournalEventKind::kBackoffWait,     JournalEventKind::kHostFailure,
    JournalEventKind::kBreakerOpen,     JournalEventKind::kQuarantine,
    JournalEventKind::kCacheHit,        JournalEventKind::kCacheMiss,
    JournalEventKind::kProbeRepetition, JournalEventKind::kProbeVerdict,
    JournalEventKind::kQueueDepth,      JournalEventKind::kInflightRetries,
    JournalEventKind::kFaultBegin,      JournalEventKind::kFaultEnd,
    JournalEventKind::kBreakerHalfOpen, JournalEventKind::kBreakerClose,
};

bool StreamFromName(std::string_view name, JournalStream* out) {
  for (JournalStream stream : kAllStreams) {
    if (name == JournalStreamName(stream)) {
      *out = stream;
      return true;
    }
  }
  return false;
}

bool KindFromName(std::string_view name, JournalEventKind* out) {
  for (JournalEventKind kind : kAllKinds) {
    if (name == JournalEventKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

// --- Strict scanner for the exact shape ToJson writes. -----------------
//
// The writer emits every key in a fixed order, so the parser can demand that
// order and stay ~100 lines with exact error positions instead of carrying a
// generic JSON DOM.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  bool Fail(const std::string& message, std::string* error) {
    *error = message + " at offset " + std::to_string(pos_);
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Literal(std::string_view expected, std::string* error) {
    SkipWs();
    if (text_.substr(pos_, expected.size()) != expected) {
      return Fail("expected '" + std::string(expected) + "'", error);
    }
    pos_ += expected.size();
    return true;
  }

  bool String(std::string* out, std::string* error) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string", error);
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape", error);
          }
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned int>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned int>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned int>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape", error);
            }
          }
          // The writer only escapes control bytes, so the code point always
          // fits one byte.
          if (code > 0xff) {
            return Fail("unsupported \\u escape", error);
          }
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Fail("bad escape", error);
      }
    }
    return Fail("unterminated string", error);
  }

  // A decimal integer within [min, max]. Magnitudes are accumulated in
  // uint64_t and checked before every step, so no input can overflow; a
  // rejected value names `field` and the offset it starts at.
  bool Int(std::string_view field, int64_t min, int64_t max, int64_t* out,
           std::string* error) {
    SkipWs();
    const size_t start = pos_;
    const bool negative = pos_ < text_.size() && text_[pos_] == '-';
    if (negative) {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Fail("expected integer", error);
    }
    // |INT64_MIN| is one more than INT64_MAX.
    const uint64_t limit = static_cast<uint64_t>(INT64_MAX) + (negative ? 1 : 0);
    uint64_t magnitude = 0;
    bool overflow = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      const uint64_t digit = static_cast<uint64_t>(text_[pos_] - '0');
      overflow = overflow || magnitude > (limit - digit) / 10;
      if (!overflow) {
        magnitude = magnitude * 10 + digit;
      }
      ++pos_;
    }
    // Negating in uint64_t wraps 2^63 to INT64_MIN instead of overflowing.
    const int64_t value = static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
    if (overflow || value < min || value > max) {
      pos_ = start;
      return Fail("'" + std::string(field) + "' out of range", error);
    }
    *out = value;
    return true;
  }

  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

bool ParseEvent(Scanner& scan, JournalEvent* event, std::string* error) {
  std::string text;
  int64_t number = 0;
  if (!scan.Literal("{", error)) return false;
  if (!scan.Literal("\"stream\"", error) || !scan.Literal(":", error) ||
      !scan.String(&text, error)) {
    return false;
  }
  if (!StreamFromName(text, &event->stream)) {
    return scan.Fail("unknown stream '" + text + "'", error);
  }
  if (!scan.Literal(",", error) || !scan.Literal("\"run\"", error) ||
      !scan.Literal(":", error) || !scan.Int("run", 0, INT64_MAX, &number, error)) {
    return false;
  }
  event->run_id = static_cast<uint64_t>(number);
  if (!scan.Literal(",", error) || !scan.Literal("\"seq\"", error) ||
      !scan.Literal(":", error) || !scan.Int("seq", 0, UINT32_MAX, &number, error)) {
    return false;
  }
  event->seq = static_cast<uint32_t>(number);
  if (!scan.Literal(",", error) || !scan.Literal("\"kind\"", error) ||
      !scan.Literal(":", error) || !scan.String(&text, error)) {
    return false;
  }
  if (!KindFromName(text, &event->kind)) {
    return scan.Fail("unknown kind '" + text + "'", error);
  }
  if (!scan.Literal(",", error) || !scan.Literal("\"test\"", error) ||
      !scan.Literal(":", error) || !scan.String(&event->test, error)) {
    return false;
  }
  if (!scan.Literal(",", error) || !scan.Literal("\"location\"", error) ||
      !scan.Literal(":", error) || !scan.String(&event->location, error)) {
    return false;
  }
  if (!scan.Literal(",", error) || !scan.Literal("\"k\"", error) || !scan.Literal(":", error) ||
      !scan.Int("k", INT_MIN, INT_MAX, &number, error)) {
    return false;
  }
  event->k = static_cast<int>(number);
  if (!scan.Literal(",", error) || !scan.Literal("\"attempt\"", error) ||
      !scan.Literal(":", error) || !scan.Int("attempt", INT_MIN, INT_MAX, &number, error)) {
    return false;
  }
  event->attempt = static_cast<int>(number);
  if (!scan.Literal(",", error) || !scan.Literal("\"t_ms\"", error) ||
      !scan.Literal(":", error) ||
      !scan.Int("t_ms", INT64_MIN, INT64_MAX, &event->t_ms, error)) {
    return false;
  }
  if (!scan.Literal(",", error) || !scan.Literal("\"value\"", error) ||
      !scan.Literal(":", error) ||
      !scan.Int("value", INT64_MIN, INT64_MAX, &event->value, error)) {
    return false;
  }
  if (!scan.Literal(",", error) || !scan.Literal("\"detail\"", error) ||
      !scan.Literal(":", error) || !scan.String(&event->detail, error)) {
    return false;
  }
  return scan.Literal("}", error);
}

}  // namespace

std::string EncodeJournalEvent(const JournalEvent& event) {
  std::ostringstream out;
  out << "{\"stream\":\"" << JournalStreamName(event.stream) << "\",\"run\":" << event.run_id
      << ",\"seq\":" << event.seq << ",\"kind\":\"" << JournalEventKindName(event.kind)
      << "\",\"test\":\"" << EscapeJson(event.test) << "\",\"location\":\""
      << EscapeJson(event.location) << "\",\"k\":" << event.k << ",\"attempt\":" << event.attempt
      << ",\"t_ms\":" << event.t_ms << ",\"value\":" << event.value << ",\"detail\":\""
      << EscapeJson(event.detail) << "\"}";
  return out.str();
}

bool DecodeJournalEvent(std::string_view text, JournalEvent* event, std::string* error) {
  Scanner scan(text);
  if (!ParseEvent(scan, event, error)) {
    return false;
  }
  return scan.AtEnd() || scan.Fail("trailing content", error);
}

const char* JournalStreamName(JournalStream stream) {
  switch (stream) {
    case JournalStream::kCoverage:
      return "coverage";
    case JournalStream::kCampaign:
      return "campaign";
    case JournalStream::kProbe:
      return "probe";
    case JournalStream::kCache:
      return "cache";
    case JournalStream::kStorm:
      return "storm";
  }
  return "unknown";
}

const char* JournalEventKindName(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kRunBegin:
      return "run_begin";
    case JournalEventKind::kAttemptBegin:
      return "attempt_begin";
    case JournalEventKind::kAttemptEnd:
      return "attempt_end";
    case JournalEventKind::kWork:
      return "work";
    case JournalEventKind::kLoopIterations:
      return "loop_iterations";
    case JournalEventKind::kInjectFire:
      return "inject_fire";
    case JournalEventKind::kInjectSkip:
      return "inject_skip";
    case JournalEventKind::kSleep:
      return "sleep";
    case JournalEventKind::kBackoffWait:
      return "backoff_wait";
    case JournalEventKind::kHostFailure:
      return "host_failure";
    case JournalEventKind::kBreakerOpen:
      return "breaker_open";
    case JournalEventKind::kQuarantine:
      return "quarantine";
    case JournalEventKind::kCacheHit:
      return "cache_hit";
    case JournalEventKind::kCacheMiss:
      return "cache_miss";
    case JournalEventKind::kProbeRepetition:
      return "probe_rep";
    case JournalEventKind::kProbeVerdict:
      return "probe_verdict";
    case JournalEventKind::kQueueDepth:
      return "queue_depth";
    case JournalEventKind::kInflightRetries:
      return "inflight_retries";
    case JournalEventKind::kFaultBegin:
      return "fault_begin";
    case JournalEventKind::kFaultEnd:
      return "fault_end";
    case JournalEventKind::kBreakerHalfOpen:
      return "breaker_half_open";
    case JournalEventKind::kBreakerClose:
      return "breaker_close";
  }
  return "unknown";
}

RetryJournal::RetryJournal()
    : journal_id_(g_next_journal_id.fetch_add(1, std::memory_order_relaxed)) {}

RetryJournal::Buffer& RetryJournal::ThisThreadBuffer() {
  for (const CachedBuffer& cached : t_buffer_cache) {
    if (cached.journal_id == journal_id_) {
      return *static_cast<Buffer*>(cached.buffer);
    }
  }
  std::lock_guard<std::mutex> lock(register_mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer& buffer = *buffers_.back();
  t_buffer_cache.push_back(CachedBuffer{journal_id_, &buffer});
  return buffer;
}

void RetryJournal::Append(JournalEvent event) {
  ThisThreadBuffer().events.push_back(std::move(event));
}

void RetryJournal::CacheLookup(std::string_view ns, bool hit, int64_t count) {
  if (count <= 0) {
    return;
  }
  JournalEvent event;
  event.stream = JournalStream::kCache;
  event.run_id = 0;
  event.seq = cache_seq_.fetch_add(1, std::memory_order_relaxed);
  event.kind = hit ? JournalEventKind::kCacheHit : JournalEventKind::kCacheMiss;
  event.detail.assign(ns);
  event.value = count;
  Append(std::move(event));
}

std::vector<JournalEvent> RetryJournal::Collect() const {
  std::vector<JournalEvent> merged;
  {
    std::lock_guard<std::mutex> lock(register_mutex_);
    size_t total = 0;
    for (const auto& buffer : buffers_) {
      total += buffer->events.size();
    }
    merged.reserve(total);
    for (const auto& buffer : buffers_) {
      merged.insert(merged.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::stable_sort(merged.begin(), merged.end(), [](const JournalEvent& a, const JournalEvent& b) {
    if (a.stream != b.stream) {
      return static_cast<uint8_t>(a.stream) < static_cast<uint8_t>(b.stream);
    }
    if (a.run_id != b.run_id) {
      return a.run_id < b.run_id;
    }
    return a.seq < b.seq;
  });
  return merged;
}

size_t RetryJournal::event_count() const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->events.size();
  }
  return total;
}

std::string RetryJournal::ToJson(std::string_view app) const {
  std::vector<JournalEvent> events = Collect();
  std::ostringstream out;
  out << "{\n\"version\": \"" << kJournalVersion << "\",\n\"app\": \"" << EscapeJson(app)
      << "\",\n\"event_count\": " << events.size() << ",\n\"events\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    out << (i > 0 ? ",\n" : "\n") << EncodeJournalEvent(events[i]);
  }
  out << "\n]\n}\n";
  return out.str();
}

bool RetryJournal::ParseJson(std::string_view text, std::vector<JournalEvent>* events,
                             std::string* app, std::string* error) {
  events->clear();
  app->clear();
  error->clear();
  Scanner scan(text);
  std::string version;
  if (!scan.Literal("{", error) || !scan.Literal("\"version\"", error) ||
      !scan.Literal(":", error) || !scan.String(&version, error)) {
    return false;
  }
  if (version != kJournalVersion) {
    return scan.Fail("unsupported journal version '" + version + "'", error);
  }
  if (!scan.Literal(",", error) || !scan.Literal("\"app\"", error) || !scan.Literal(":", error) ||
      !scan.String(app, error)) {
    return false;
  }
  int64_t declared_count = 0;
  if (!scan.Literal(",", error) || !scan.Literal("\"event_count\"", error) ||
      !scan.Literal(":", error) ||
      !scan.Int("event_count", 0, INT64_MAX, &declared_count, error)) {
    return false;
  }
  if (!scan.Literal(",", error) || !scan.Literal("\"events\"", error) ||
      !scan.Literal(":", error) || !scan.Literal("[", error)) {
    return false;
  }
  if (scan.Peek() == ']') {
    scan.Literal("]", error);
  } else {
    while (true) {
      JournalEvent event;
      if (!ParseEvent(scan, &event, error)) {
        return false;
      }
      events->push_back(std::move(event));
      if (scan.Peek() == ',') {
        scan.Literal(",", error);
        continue;
      }
      if (!scan.Literal("]", error)) {
        return false;
      }
      break;
    }
  }
  if (!scan.Literal("}", error)) {
    return false;
  }
  if (!scan.AtEnd()) {
    return scan.Fail("trailing content", error);
  }
  if (declared_count != static_cast<int64_t>(events->size())) {
    return scan.Fail("event_count mismatch", error);
  }
  return true;
}

void JournalRun::Begin(RetryJournal* journal, JournalStream stream, uint64_t run_id,
                       std::string_view test, std::string_view location, int k) {
  journal_ = journal;
  stream_ = stream;
  run_id_ = run_id;
  test_.assign(test);
  location_.assign(location);
  k_ = k;
  next_seq_ = 0;
  Emit(JournalEventKind::kRunBegin, 0, 0, k, {});
}

void JournalRun::Emit(JournalEventKind kind, int attempt, int64_t t_ms, int64_t value,
                      std::string_view detail) {
  if (journal_ == nullptr) {
    return;
  }
  JournalEvent event;
  event.stream = stream_;
  event.run_id = run_id_;
  event.seq = next_seq_++;
  event.kind = kind;
  event.test = test_;
  event.location = location_;
  event.k = k_;
  event.attempt = attempt;
  event.t_ms = t_ms;
  event.value = value;
  event.detail.assign(detail);
  journal_->Append(std::move(event));
}

void JournalRun::AttemptBegin(int attempt) {
  Emit(JournalEventKind::kAttemptBegin, attempt, 0, 0, {});
}

void JournalRun::AttemptEnd(int attempt, std::string_view status, int64_t virtual_ms) {
  Emit(JournalEventKind::kAttemptEnd, attempt, 0, virtual_ms, status);
}

void JournalRun::Work(int attempt, int64_t steps) {
  Emit(JournalEventKind::kWork, attempt, 0, steps, {});
}

void JournalRun::LoopIterations(int attempt, int64_t iterations, int64_t last_ms) {
  Emit(JournalEventKind::kLoopIterations, attempt, last_ms, iterations, {});
}

void JournalRun::InjectFire(int attempt, int64_t t_ms, int64_t fire_index) {
  Emit(JournalEventKind::kInjectFire, attempt, t_ms, fire_index, {});
}

void JournalRun::InjectSkip(int attempt, int64_t skips) {
  Emit(JournalEventKind::kInjectSkip, attempt, 0, skips, {});
}

void JournalRun::Sleep(int attempt, int64_t t_ms, int64_t slept_ms) {
  Emit(JournalEventKind::kSleep, attempt, t_ms, slept_ms, {});
}

void JournalRun::BackoffWait(int next_attempt, int64_t virtual_ms) {
  Emit(JournalEventKind::kBackoffWait, next_attempt, 0, virtual_ms, {});
}

void JournalRun::HostFailure(int attempt, std::string_view kind, bool chaos) {
  Emit(JournalEventKind::kHostFailure, attempt, 0, chaos ? 1 : 0, kind);
}

void JournalRun::BreakerOpen(int attempt) {
  Emit(JournalEventKind::kBreakerOpen, attempt, 0, 1, {});
}

void JournalRun::Quarantine(std::string_view kind, std::string_view detail) {
  std::string text(kind);
  if (!detail.empty()) {
    text += ": ";
    text += detail;
  }
  Emit(JournalEventKind::kQuarantine, 0, 0, 0, text);
}

void JournalRun::ProbeRepetition(int repetition, bool diverged, bool counterfactual) {
  Emit(JournalEventKind::kProbeRepetition, repetition, 0, diverged ? 1 : 0,
       counterfactual ? "counterfactual" : std::string_view{});
}

void JournalRun::ProbeVerdict(std::string_view stability, bool probe_failed) {
  Emit(JournalEventKind::kProbeVerdict, 0, 0, probe_failed ? 1 : 0, stability);
}

void JournalRun::QueueDepth(int64_t t_ms, int64_t depth) {
  Emit(JournalEventKind::kQueueDepth, 0, t_ms, depth, {});
}

void JournalRun::InflightRetries(int64_t t_ms, int64_t count) {
  Emit(JournalEventKind::kInflightRetries, 0, t_ms, count, {});
}

void JournalRun::FaultBegin(int64_t t_ms) {
  Emit(JournalEventKind::kFaultBegin, 0, t_ms, 0, {});
}

void JournalRun::FaultEnd(int64_t t_ms) {
  Emit(JournalEventKind::kFaultEnd, 0, t_ms, 0, {});
}

void JournalRun::BreakerTransition(JournalEventKind kind, int64_t t_ms) {
  if (kind != JournalEventKind::kBreakerOpen && kind != JournalEventKind::kBreakerHalfOpen &&
      kind != JournalEventKind::kBreakerClose) {
    return;
  }
  Emit(kind, 0, t_ms, 1, {});
}

}  // namespace wasabi
