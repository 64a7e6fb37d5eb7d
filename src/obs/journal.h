// Retry-behavior journal for the WASABI pipeline.
//
// A RetryJournal is a default-off, structured event stream recording what the
// retry machinery actually *did* during a campaign: attempt begin/end,
// retry-loop iterations inside the coordinator, injected-fault fires and
// budget skips, application sleeps and host backoff waits (virtual ms),
// circuit-breaker transitions, quarantines, cache hits/misses, and flakiness
// prober repetitions. Every event is tagged {stream, run_id, test, location,
// k, attempt} so it joins against Chrome-trace spans by run id. It is the
// pipeline's single per-run event stream: a src/record file is one campaign
// run's slice of it, written with the event codec below.
//
// Recording follows the same lock-free discipline as Tracer: every thread
// appends to its own buffer (registered once under a mutex on first use) and
// buffers are merged only at collect time, after the executors have joined.
//
// Determinism: events carry NO wall-clock timestamps — only virtual
// milliseconds and logical indices (attempt number, per-run sequence number).
// Each run's events get their sequence numbers from a JournalRun handle; a
// run is touched by exactly one worker per campaign wave and the reduce step
// is serial, so sequences never race and the collected journal — sorted by
// (stream, run_id, seq) — is byte-identical at any worker count.
//
// A null RetryJournal* means "off" everywhere, and a default-constructed
// JournalRun is inert, so unjournaled runs pay one pointer test and nothing
// else.

#ifndef WASABI_SRC_OBS_JOURNAL_H_
#define WASABI_SRC_OBS_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wasabi {

// Which pipeline phase emitted the event. The enum order is the export sort
// order, so keep it stable.
enum class JournalStream : uint8_t {
  kCoverage = 0,  // Per-test coverage runs (aggregated at reduce time).
  kCampaign = 1,  // Injection-campaign runs (one run id per planned run).
  kProbe = 2,     // Flakiness-prober repetitions of failing runs.
  kCache = 3,     // Content-addressed cache lookups (no run identity).
  kStorm = 4,     // Storm-simulation timelines (run 0 = backend, 1.. = edges).
};

const char* JournalStreamName(JournalStream stream);

enum class JournalEventKind : uint8_t {
  kRunBegin,        // Run admitted to its stream. value = k.
  kAttemptBegin,    // Host attempt started (after the chaos seam).
  kAttemptEnd,      // Host attempt finished. value = virtual ms, detail = status.
  kWork,            // Interpreter work of the attempt. value = steps.
  kLoopIterations,  // Coordinator retry-loop iterations. value = count,
                    // t_ms = virtual time of the last iteration.
  kInjectFire,      // Fault injected. t_ms = virtual time, value = fire index.
  kInjectSkip,      // Budget-exhausted skips, coalesced. value = skip count.
  kSleep,           // Application sleep. t_ms = virtual time, value = ms.
  kBackoffWait,     // Host retry backoff. value = virtual ms charged.
  kHostFailure,     // Attempt failed at host level. detail = failure kind,
                    // value = 1 when chaos-injected.
  kBreakerOpen,     // Circuit breaker opened for this run's location.
  kQuarantine,      // Run quarantined. detail = "kind: detail".
  kCacheHit,        // detail = cache namespace, value = lookup count.
  kCacheMiss,       // detail = cache namespace, value = lookup count.
  kProbeRepetition, // One prober rerun. attempt = repetition index,
                    // value = 1 when the signature diverged,
                    // detail = "counterfactual" for the degraded-off rerun.
  kProbeVerdict,    // detail = stability class, value = 1 when probe failed.
  // --- Storm-simulation kinds (stream kStorm, src/storm) -------------------
  // All t_ms values are simulated milliseconds from the storm's virtual
  // clock; sampling and breaker transitions happen in the serial event loop,
  // so the storm sub-journal is deterministic by construction.
  kQueueDepth,       // Backend queue depth sample. value = depth (incl. in service).
  kInflightRetries,  // Edge in-flight retrying requests sample. value = count.
  kFaultBegin,       // Transient backend fault window opens. t_ms = start.
  kFaultEnd,         // Fault window closes. t_ms = end.
  kBreakerHalfOpen,  // Edge breaker admitted its probe after cooldown.
  kBreakerClose,     // Probe succeeded; edge breaker closed.
};

const char* JournalEventKindName(JournalEventKind kind);

// One journal event. Fields not meaningful for a kind are zero/empty; the
// JSON export still writes every field so the format is trivially parseable.
struct JournalEvent {
  JournalStream stream = JournalStream::kCampaign;
  uint64_t run_id = 0;
  uint32_t seq = 0;  // Dense per-(stream, run) order, assigned by JournalRun.
  JournalEventKind kind = JournalEventKind::kRunBegin;
  std::string test;
  std::string location;
  int k = 0;
  int attempt = 0;
  int64_t t_ms = 0;   // Virtual milliseconds where meaningful; never wall time.
  int64_t value = 0;  // Kind-specific payload (see JournalEventKind).
  std::string detail;

  bool operator==(const JournalEvent&) const = default;
};

// The event codec ToJson and src/record share: one event as one JSON object
// with the full fixed field set in fixed key order, on one line (escaping
// leaves no raw newline or tab). DecodeJournalEvent accepts exactly that
// shape and rejects anything else, out-of-range integers included, with a
// diagnostic naming the offset.
std::string EncodeJournalEvent(const JournalEvent& event);
bool DecodeJournalEvent(std::string_view text, JournalEvent* event, std::string* error);

class RetryJournal {
 public:
  RetryJournal();
  RetryJournal(const RetryJournal&) = delete;
  RetryJournal& operator=(const RetryJournal&) = delete;

  // Appends to the calling thread's buffer. Safe from any number of threads.
  void Append(JournalEvent event);

  // Cache-stream convenience: one event per lookup batch, sequenced by an
  // internal counter. All cache-lookup sites run serially on the coordinating
  // thread, so the sequence order is deterministic. Zero counts are dropped.
  void CacheLookup(std::string_view ns, bool hit, int64_t count = 1);

  // Merge of every thread's buffer, sorted by (stream, run_id, seq). Must not
  // run concurrently with Append; callers collect after parallel phases join.
  std::vector<JournalEvent> Collect() const;

  // Versioned JSON export ("wasabi-journal-v1"): one EncodeJournalEvent
  // object per event, so the output is byte-stable and ParseJson below can
  // stay strict and small.
  std::string ToJson(std::string_view app) const;

  // Strict parser for the exact format ToJson writes (used by the `wasabi
  // report` subcommand). Returns false and sets *error on any malformation;
  // on success fills *events (already in export order) and *app.
  static bool ParseJson(std::string_view text, std::vector<JournalEvent>* events,
                        std::string* app, std::string* error);

  size_t event_count() const;

 private:
  struct Buffer {
    std::vector<JournalEvent> events;
  };

  Buffer& ThisThreadBuffer();

  const uint64_t journal_id_;  // Process-unique; keys the thread-local cache.
  std::atomic<uint32_t> cache_seq_{0};
  mutable std::mutex register_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Per-run event emitter: stamps the run identity {stream, run_id, test,
// location, k} on every event and assigns the dense per-run sequence. One
// handle per planned run, owned by the (serial) executor driver; the worker
// that executes an attempt borrows the handle for that wave, and the serial
// reduce step continues the same sequence after the wave joins.
//
// Default-constructed handles are inert: every emitter is a no-op until
// Begin() attaches a journal.
class JournalRun {
 public:
  JournalRun() = default;

  // Attaches the handle and emits the kRunBegin event (seq 0).
  void Begin(RetryJournal* journal, JournalStream stream, uint64_t run_id,
             std::string_view test, std::string_view location, int k);

  bool active() const { return journal_ != nullptr; }

  void AttemptBegin(int attempt);
  void AttemptEnd(int attempt, std::string_view status, int64_t virtual_ms);
  void Work(int attempt, int64_t steps);
  void LoopIterations(int attempt, int64_t iterations, int64_t last_ms);
  void InjectFire(int attempt, int64_t t_ms, int64_t fire_index);
  void InjectSkip(int attempt, int64_t skips);
  void Sleep(int attempt, int64_t t_ms, int64_t slept_ms);
  void BackoffWait(int next_attempt, int64_t virtual_ms);
  void HostFailure(int attempt, std::string_view kind, bool chaos);
  void BreakerOpen(int attempt);
  void Quarantine(std::string_view kind, std::string_view detail);
  void ProbeRepetition(int repetition, bool diverged, bool counterfactual);
  void ProbeVerdict(std::string_view stability, bool probe_failed);

  // --- Storm-simulation emitters (stream kStorm, src/storm) ----------------
  void QueueDepth(int64_t t_ms, int64_t depth);
  void InflightRetries(int64_t t_ms, int64_t count);
  void FaultBegin(int64_t t_ms);
  void FaultEnd(int64_t t_ms);
  // kind must be kBreakerOpen, kBreakerHalfOpen, or kBreakerClose; the storm
  // engine stamps transitions with simulated time (the campaign's
  // BreakerOpen(attempt) carries no clock — its reduce step is untimed).
  void BreakerTransition(JournalEventKind kind, int64_t t_ms);

 private:
  void Emit(JournalEventKind kind, int attempt, int64_t t_ms, int64_t value,
            std::string_view detail);

  RetryJournal* journal_ = nullptr;
  JournalStream stream_ = JournalStream::kCampaign;
  uint64_t run_id_ = 0;
  std::string test_;
  std::string location_;
  int k_ = 0;
  uint32_t next_seq_ = 0;
};

}  // namespace wasabi

#endif  // WASABI_SRC_OBS_JOURNAL_H_
