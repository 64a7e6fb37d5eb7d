#include "src/storm/storm.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <utility>

#include "src/core/report_json.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/robust/circuit_breaker.h"
#include "src/storm/sim.h"

namespace wasabi {
namespace {

enum class EvKind : uint8_t {
  kArrival,        // Burst of new requests for an edge.
  kDispatch,       // A request's (re)try fires after backoff.
  kBackendArrive,  // One copy reaches the backend.
  kBackendDone,    // The copy in service finished.
  kResponse,       // Primary copy's outcome reaches the edge.
  kTimeout,        // Client abandons the request if still live.
  kSample,         // Gauge sampling tick.
};

struct Ev {
  EvKind kind = EvKind::kArrival;
  int edge = -1;
  uint64_t req = 0;
  int attempt = 0;
  bool primary = false;
  bool ok = false;
  bool overload = false;
};

struct EdgeRt {
  StormEdgeStats stats;
  bool has_breaker = false;  // Overload-shedding edges get admission control.
  CircuitBreaker breaker{1};
  SimRng rng{0};
  JournalRun run;
  // Current attempt of every request from `live_base` on (ids are dense per
  // edge); 0 marks a completed one. Completed requests are trimmed from the
  // front, so the window spans only the requests still in flight.
  std::deque<int> live;
  uint64_t live_base = 0;
  // Retry dispatches in the simulated ms `wave_ms`, for wave_peak; dispatch
  // times never decrease, so one running pair suffices.
  int64_t wave_ms = -1;
  int64_t wave_count = 0;
  int64_t inflight_retries = 0;
  int64_t queued = 0;  // Copies currently in the backend queue / in service.

  // The live request's current attempt, or nullptr once it completed.
  int* Live(uint64_t req) {
    if (req < live_base || req - live_base >= live.size()) {
      return nullptr;
    }
    int& attempt = live[req - live_base];
    return attempt == 0 ? nullptr : &attempt;
  }
};

struct BackendCopy {
  int edge = 0;
  uint64_t req = 0;
  int attempt = 0;
  bool primary = false;
};

// Clamps user-supplied options into a well-formed timeline so degenerate
// values (zero latency, inverted fault window) cannot hang the event loop.
StormOptions Normalize(StormOptions o) {
  o.duration_ms = std::max<int64_t>(1, o.duration_ms);
  o.arrival_interval_ms = std::max<int64_t>(1, o.arrival_interval_ms);
  o.burst = std::max(1, o.burst);
  o.service_ms = std::max<int64_t>(1, o.service_ms);
  o.latency_ms = std::max<int64_t>(1, o.latency_ms);
  o.queue_limit = std::max(1, o.queue_limit);
  o.reject_cost_ms = std::max<int64_t>(0, o.reject_cost_ms);
  o.request_timeout_ms = std::max<int64_t>(1, o.request_timeout_ms);
  o.breaker_threshold = std::max(1, o.breaker_threshold);
  o.breaker_cooldown = std::max(0, o.breaker_cooldown);
  o.sample_interval_ms = std::max<int64_t>(1, o.sample_interval_ms);
  o.fault_start_ms = std::clamp<int64_t>(o.fault_start_ms, 0, o.duration_ms);
  o.fault_end_ms = std::clamp<int64_t>(o.fault_end_ms, o.fault_start_ms, o.duration_ms);
  o.recovery_window_ms = std::clamp<int64_t>(o.recovery_window_ms, 1, o.duration_ms);
  return o;
}

class StormSim {
 public:
  StormSim(std::string_view app, const std::vector<EdgeRetryProfile>& profiles,
           const StormOptions& options, RetryJournal* journal)
      : opt_(Normalize(options)), journal_(journal) {
    report_.app.assign(app);
    report_.options = opt_;
    SimRng root(opt_.seed);
    edges_.resize(profiles.size());
    for (size_t i = 0; i < profiles.size(); ++i) {
      EdgeRt& edge = edges_[i];
      edge.stats.profile = profiles[i];
      edge.has_breaker = !profiles[i].retries_on_overload;
      edge.breaker = CircuitBreaker(opt_.breaker_threshold, opt_.breaker_cooldown);
      edge.rng = root.Split(static_cast<uint64_t>(i) + 1);
    }
  }

  StormReport Run() {
    SetupJournal();
    for (size_t i = 0; i < edges_.size(); ++i) {
      // Staggered first bursts spread steady-state load across the interval.
      int64_t first = opt_.arrival_interval_ms * static_cast<int64_t>(i) /
                      static_cast<int64_t>(std::max<size_t>(1, edges_.size()));
      queue_.Push(first, Ev{EvKind::kArrival, static_cast<int>(i)});
    }
    queue_.Push(0, Ev{EvKind::kSample});
    while (!queue_.empty()) {
      auto entry = queue_.PopMin();
      if (entry.at_ms > opt_.duration_ms) {
        break;  // Pops come in time order: everything left is past the end.
      }
      Handle(entry.at_ms, entry.payload);
    }
    Finalize();
    return std::move(report_);
  }

 private:
  void SetupJournal() {
    backend_run_.Begin(journal_, JournalStream::kStorm, 0, "backend", "backend", 0);
    backend_run_.FaultBegin(opt_.fault_start_ms);
    backend_run_.FaultEnd(opt_.fault_end_ms);
    for (size_t i = 0; i < edges_.size(); ++i) {
      const EdgeRetryProfile& p = edges_[i].stats.profile;
      edges_[i].run.Begin(journal_, JournalStream::kStorm, i + 1, p.service, p.coordinator, 0);
    }
  }

  bool InFault(int64_t t) const { return t >= opt_.fault_start_ms && t < opt_.fault_end_ms; }
  int64_t WindowStart() const { return opt_.duration_ms - opt_.recovery_window_ms; }

  void Handle(int64_t t, const Ev& ev) {
    switch (ev.kind) {
      case EvKind::kArrival:
        Arrival(t, ev.edge);
        break;
      case EvKind::kDispatch:
        if (edges_[ev.edge].Live(ev.req) != nullptr) {
          Dispatch(t, ev.edge, ev.req, ev.attempt);
        }
        break;
      case EvKind::kBackendArrive:
        BackendArrive(t, ev);
        break;
      case EvKind::kBackendDone:
        BackendDone(t);
        break;
      case EvKind::kResponse:
        Response(t, ev);
        break;
      case EvKind::kTimeout:
        Timeout(t, ev);
        break;
      case EvKind::kSample:
        Sample(t);
        break;
    }
  }

  void Arrival(int64_t t, int e) {
    EdgeRt& edge = edges_[e];
    for (int b = 0; b < opt_.burst; ++b) {
      edge.stats.requests++;
      if (edge.has_breaker) {
        BreakerDecision decision = edge.breaker.Admit(edge.stats.profile.coordinator);
        if (decision == BreakerDecision::kShed) {
          edge.stats.shed_by_breaker++;
          continue;
        }
        if (decision == BreakerDecision::kProbe) {
          edge.run.BreakerTransition(JournalEventKind::kBreakerHalfOpen, t);
        }
      }
      uint64_t id = edge.live_base + edge.live.size();
      edge.live.push_back(1);
      queue_.Push(t + opt_.request_timeout_ms, Ev{EvKind::kTimeout, e, id});
      Dispatch(t, e, id, 1);
    }
    if (t + opt_.arrival_interval_ms < opt_.duration_ms) {
      queue_.Push(t + opt_.arrival_interval_ms, Ev{EvKind::kArrival, e});
    }
  }

  void Dispatch(int64_t t, int e, uint64_t req, int attempt) {
    EdgeRt& edge = edges_[e];
    edge.stats.attempts++;
    if (attempt >= 2) {
      if (edge.wave_ms != t) {
        edge.wave_ms = t;
        edge.wave_count = 0;
      }
      edge.stats.wave_peak = std::max(edge.stats.wave_peak, ++edge.wave_count);
    }
    if (t >= WindowStart()) {
      edge.stats.post_window_attempts++;
    }
    for (int c = 0; c < edge.stats.profile.fanout; ++c) {
      edge.stats.copies_sent++;
      queue_.Push(t + opt_.latency_ms,
                  Ev{EvKind::kBackendArrive, e, req, attempt, /*primary=*/c == 0});
    }
  }

  void BackendArrive(int64_t t, const Ev& ev) {
    EdgeRt& edge = edges_[ev.edge];
    if (t >= WindowStart()) {
      report_.post_window_copies++;
    }
    if (InFault(t)) {
      edge.stats.unavailable_responses++;
      report_.backend_unavailable++;
      if (ev.primary) {
        queue_.Push(t + opt_.latency_ms,
                    Ev{EvKind::kResponse, ev.edge, ev.req, ev.attempt, true, false, false});
      }
      return;
    }
    int64_t depth = static_cast<int64_t>(backlog_.size()) + (busy_ ? 1 : 0);
    if (depth >= opt_.queue_limit) {
      edge.stats.overload_responses++;
      report_.backend_overload_rejections++;
      // Saying "no" costs the server real time (accept + reject path). The
      // debt is charged to the next service slot, which is what lets a
      // retry-on-overload client hold the backend underwater indefinitely.
      reject_debt_ms_ += opt_.reject_cost_ms;
      report_.backend_reject_work_ms += opt_.reject_cost_ms;
      if (ev.primary) {
        queue_.Push(t + opt_.latency_ms,
                    Ev{EvKind::kResponse, ev.edge, ev.req, ev.attempt, true, false, true});
      }
      return;
    }
    backlog_.push_back(BackendCopy{ev.edge, ev.req, ev.attempt, ev.primary});
    edge.queued++;
    edge.stats.queue_depth_max = std::max(edge.stats.queue_depth_max, edge.queued);
    report_.backend_queue_peak = std::max(report_.backend_queue_peak, depth + 1);
    if (!busy_) {
      StartNext(t);
    }
  }

  void StartNext(int64_t t) {
    busy_ = true;
    in_service_ = backlog_.front();
    backlog_.pop_front();
    // Rejection debt accrued while the server was saying "no" extends the
    // next service slot; the debt is server overhead, not edge work.
    queue_.Push(t + opt_.service_ms + reject_debt_ms_, Ev{EvKind::kBackendDone});
    reject_debt_ms_ = 0;
  }

  void BackendDone(int64_t t) {
    BackendCopy copy = in_service_;
    busy_ = false;
    EdgeRt& edge = edges_[copy.edge];
    edge.queued--;
    edge.stats.work_ms += opt_.service_ms;
    if (copy.primary) {
      queue_.Push(t + opt_.latency_ms,
                  Ev{EvKind::kResponse, copy.edge, copy.req, copy.attempt,
                     /*primary=*/true, /*ok=*/true, false});
    }
    if (!backlog_.empty()) {
      StartNext(t);
    }
  }

  void Response(int64_t t, const Ev& ev) {
    EdgeRt& edge = edges_[ev.edge];
    int* attempt = edge.Live(ev.req);
    if (attempt == nullptr || *attempt != ev.attempt) {
      return;  // Request already completed (e.g. client timeout) — stale.
    }
    const EdgeRetryProfile& p = edge.stats.profile;
    if (ev.ok) {
      edge.stats.succeeded++;
      edge.stats.goodput_ms += opt_.service_ms;
      if (edge.stats.time_to_recover_ms < 0 && t >= opt_.fault_end_ms) {
        edge.stats.time_to_recover_ms = t - opt_.fault_end_ms;
      }
      RecordBreaker(t, ev.edge, /*success=*/true);
      Complete(ev.edge, attempt);
      return;
    }
    if (ev.overload && !p.retries_on_overload) {
      edge.stats.shed_on_overload++;  // Honors push-back: shed, don't retry.
      RecordBreaker(t, ev.edge, /*success=*/false);
      Complete(ev.edge, attempt);
      return;
    }
    if (!ev.overload && p.bounded && ev.attempt >= p.attempts) {
      edge.stats.gave_up++;
      RecordBreaker(t, ev.edge, /*success=*/false);
      Complete(ev.edge, attempt);
      return;
    }
    Retry(t, ev.edge, ev.req, attempt, ev.overload);
  }

  // `current` is the request's live attempt slot.
  void Retry(int64_t t, int e, uint64_t req, int* current, bool overload) {
    EdgeRt& edge = edges_[e];
    const EdgeRetryProfile& p = edge.stats.profile;
    const int attempt = *current;
    int next = attempt + 1;
    *current = next;
    if (next == 2) {
      edge.inflight_retries++;
      edge.stats.inflight_retries_max =
          std::max(edge.stats.inflight_retries_max, edge.inflight_retries);
    }
    int64_t delay;
    if (overload) {
      // Overload retries use the (fixed) overload backoff the probe measured.
      delay = std::max<int64_t>(1, p.overload_backoff_ms);
    } else {
      int64_t base = 1;
      if (!p.backoff_ms.empty()) {
        size_t idx = std::min<size_t>(attempt - 1, p.backoff_ms.size() - 1);
        base = std::max<int64_t>(1, p.backoff_ms[idx]);
      }
      delay = base;
      if (p.jittered) {
        delay = std::max<int64_t>(1, base / 2 + edge.rng.NextInt(0, base - base / 2));
      }
    }
    queue_.Push(t + delay, Ev{EvKind::kDispatch, e, req, next});
  }

  void Timeout(int64_t t, const Ev& ev) {
    EdgeRt& edge = edges_[ev.edge];
    int* attempt = edge.Live(ev.req);
    if (attempt == nullptr) {
      return;
    }
    edge.stats.timed_out++;
    RecordBreaker(t, ev.edge, /*success=*/false);
    Complete(ev.edge, attempt);
  }

  // Request-level breaker accounting; transitions go to the edge journal.
  void RecordBreaker(int64_t t, int e, bool success) {
    EdgeRt& edge = edges_[e];
    if (!edge.has_breaker) {
      return;
    }
    const std::string& key = edge.stats.profile.coordinator;
    BreakerState before = edge.breaker.StateOf(key);
    if (success) {
      edge.breaker.RecordSuccess(key);
    } else {
      edge.breaker.RecordFailure(key);
    }
    BreakerState after = edge.breaker.StateOf(key);
    if (after == before) {
      return;
    }
    if (after == BreakerState::kOpen) {
      edge.run.BreakerTransition(JournalEventKind::kBreakerOpen, t);
    } else if (after == BreakerState::kClosed) {
      edge.run.BreakerTransition(JournalEventKind::kBreakerClose, t);
    }
  }

  // `attempt` is the request's live attempt slot; zeroing it completes it.
  void Complete(int e, int* attempt) {
    EdgeRt& edge = edges_[e];
    if (*attempt >= 2) {
      edge.inflight_retries--;
    }
    edge.stats.needed_attempts += std::min<int64_t>(*attempt, 4);
    *attempt = 0;
    while (!edge.live.empty() && edge.live.front() == 0) {
      edge.live.pop_front();
      edge.live_base++;
    }
  }

  void Sample(int64_t t) {
    StormSample sample;
    sample.t_ms = t;
    sample.backend_depth = static_cast<int64_t>(backlog_.size()) + (busy_ ? 1 : 0);
    backend_run_.QueueDepth(t, sample.backend_depth);
    sample.edge_inflight.reserve(edges_.size());
    for (EdgeRt& edge : edges_) {
      sample.edge_inflight.push_back(edge.inflight_retries);
      edge.run.InflightRetries(t, edge.inflight_retries);
    }
    if (report_.time_to_recover_ms < 0 && t >= opt_.fault_end_ms && sample.backend_depth == 0) {
      report_.time_to_recover_ms = t - opt_.fault_end_ms;
    }
    report_.samples.push_back(std::move(sample));
    if (t + opt_.sample_interval_ms <= opt_.duration_ms) {
      queue_.Push(t + opt_.sample_interval_ms, Ev{EvKind::kSample});
    }
  }

  void Finalize() {
    // A correct policy would retry a burst-window request at most a few
    // times; twice the expected arrivals marks an edge still storming.
    const int64_t expected_window_arrivals =
        (opt_.recovery_window_ms / opt_.arrival_interval_ms) * opt_.burst;
    for (EdgeRt& edge : edges_) {
      StormEdgeStats& s = edge.stats;
      for (int attempt : edge.live) {
        if (attempt != 0) {
          s.unfinished++;
          s.needed_attempts += std::min<int64_t>(attempt, 4);
        }
      }
      s.amplification_x1000 = s.copies_sent * 1000 / std::max<int64_t>(1, s.needed_attempts);
      s.metastable = s.post_window_attempts > 2 * expected_window_arrivals;

      report_.total_requests += s.requests;
      report_.total_attempts += s.attempts;
      report_.total_copies += s.copies_sent;
      report_.total_succeeded += s.succeeded;
      report_.total_work_ms += s.work_ms;
      report_.total_goodput_ms += s.goodput_ms;
      report_.total_needed_attempts += s.needed_attempts;
    }
    report_.amplification_x1000 =
        report_.total_copies * 1000 / std::max<int64_t>(1, report_.total_needed_attempts);
    report_.goodput_x1000 =
        report_.total_goodput_ms * 1000 / std::max<int64_t>(1, report_.total_work_ms);
    report_.metastable =
        report_.post_window_copies * opt_.service_ms > opt_.recovery_window_ms;
    for (EdgeRt& edge : edges_) {
      EmitOracles(edge.stats);
      report_.edges.push_back(std::move(edge.stats));
    }
  }

  void EmitOracles(const StormEdgeStats& s) {
    const EdgeRetryProfile& p = s.profile;
    // Missing jitter: a fixed backoff schedule turned synchronized failures
    // into a synchronized retry wave (>= 3 dispatches in one simulated ms).
    if (!p.jittered && !p.backoff_ms.empty() && s.unavailable_responses > 0 &&
        s.wave_peak >= 3) {
      std::ostringstream detail;
      detail << "fixed backoff, retry wave peak of " << s.wave_peak
             << " dispatches in one simulated ms";
      PushBug(BugType::kStormMissingJitter, p, detail.str());
    }
    // Unbounded fan-out retry: every retry multiplies load by fanout and the
    // loop never gives up, so offered copies dwarf what a capped policy needs.
    if (p.fanout >= 2 && !p.bounded && s.amplification_x1000 >= 3000) {
      std::ostringstream detail;
      detail << "unbounded retry x fanout " << p.fanout << " amplified load to "
             << s.amplification_x1000 / 1000 << "." << (s.amplification_x1000 % 1000) / 100
             << "x offered copies per needed attempt";
      PushBug(BugType::kStormUnboundedFanout, p, detail.str());
    }
    // Retry-on-overload: treating push-back as transient keeps the backend
    // saturated after the fault clears — the metastable failure mode.
    if (p.retries_on_overload && s.metastable) {
      std::ostringstream detail;
      detail << "retries rejected work under overload; still storming "
             << s.post_window_attempts << " attempts in the final "
             << opt_.recovery_window_ms << "ms window";
      PushBug(BugType::kStormRetryOnOverload, p, detail.str());
    }
  }

  void PushBug(BugType type, const EdgeRetryProfile& p, std::string detail) {
    BugReport bug;
    bug.type = type;
    bug.technique = DetectionTechnique::kStormSim;
    bug.app = report_.app;
    bug.file = p.file;
    bug.coordinator = p.coordinator;
    bug.detail = std::move(detail);
    bug.group_key = p.coordinator;
    bug.location = p.location;
    report_.bugs.push_back(std::move(bug));
  }

  StormOptions opt_;
  RetryJournal* journal_;
  StormReport report_;
  EventQueue<Ev> queue_;
  std::vector<EdgeRt> edges_;
  JournalRun backend_run_;
  std::deque<BackendCopy> backlog_;
  bool busy_ = false;
  BackendCopy in_service_;
  int64_t reject_debt_ms_ = 0;
};

}  // namespace

StormReport RunStormSim(std::string_view app, const std::vector<EdgeRetryProfile>& profiles,
                        const StormOptions& options, RetryJournal* journal, Tracer* tracer) {
  ScopedSpan span(tracer, "storm.sim");
  StormSim sim(app, profiles, options, journal);
  StormReport report = sim.Run();
  span.AddArg("edges", static_cast<int64_t>(profiles.size()));
  span.AddArg("attempts", report.total_attempts);
  return report;
}

std::string StormReportToJson(const StormReport& report) {
  const StormOptions& o = report.options;
  std::ostringstream out;
  out << "{\n";
  out << "  \"version\": \"wasabi-storm-v1\",\n";
  out << "  \"app\": \"" << JsonEscape(report.app) << "\",\n";
  out << "  \"options\": {\"seed\": " << o.seed << ", \"duration_ms\": " << o.duration_ms
      << ", \"fault_start_ms\": " << o.fault_start_ms
      << ", \"fault_end_ms\": " << o.fault_end_ms
      << ", \"arrival_interval_ms\": " << o.arrival_interval_ms
      << ", \"burst\": " << o.burst << ", \"service_ms\": " << o.service_ms
      << ", \"latency_ms\": " << o.latency_ms << ", \"queue_limit\": " << o.queue_limit
      << ", \"reject_cost_ms\": " << o.reject_cost_ms
      << ", \"request_timeout_ms\": " << o.request_timeout_ms
      << ", \"breaker_threshold\": " << o.breaker_threshold
      << ", \"breaker_cooldown\": " << o.breaker_cooldown
      << ", \"sample_interval_ms\": " << o.sample_interval_ms
      << ", \"recovery_window_ms\": " << o.recovery_window_ms << "},\n";
  out << "  \"totals\": {\"requests\": " << report.total_requests
      << ", \"attempts\": " << report.total_attempts
      << ", \"copies\": " << report.total_copies
      << ", \"succeeded\": " << report.total_succeeded
      << ", \"work_ms\": " << report.total_work_ms
      << ", \"goodput_ms\": " << report.total_goodput_ms
      << ", \"needed_attempts\": " << report.total_needed_attempts
      << ", \"amplification_x1000\": " << report.amplification_x1000
      << ", \"goodput_x1000\": " << report.goodput_x1000
      << ", \"backend_queue_peak\": " << report.backend_queue_peak
      << ", \"backend_unavailable\": " << report.backend_unavailable
      << ", \"backend_overload_rejections\": " << report.backend_overload_rejections
      << ", \"backend_reject_work_ms\": " << report.backend_reject_work_ms
      << ", \"post_window_copies\": " << report.post_window_copies
      << ", \"time_to_recover_ms\": " << report.time_to_recover_ms
      << ", \"metastable\": " << (report.metastable ? "true" : "false") << "},\n";
  out << "  \"edges\": [";
  for (size_t i = 0; i < report.edges.size(); ++i) {
    const StormEdgeStats& s = report.edges[i];
    const EdgeRetryProfile& p = s.profile;
    if (i > 0) {
      out << ",";
    }
    out << "\n    {\"service\": \"" << JsonEscape(p.service) << "\", \"coordinator\": \""
        << JsonEscape(p.coordinator) << "\", \"file\": \"" << JsonEscape(p.file)
        << "\", \"bounded\": " << (p.bounded ? "true" : "false")
        << ", \"attempts_cap\": " << p.attempts << ", \"jittered\": "
        << (p.jittered ? "true" : "false") << ", \"retries_on_overload\": "
        << (p.retries_on_overload ? "true" : "false") << ", \"fanout\": " << p.fanout
        << ", \"requests\": " << s.requests << ", \"shed_by_breaker\": " << s.shed_by_breaker
        << ", \"attempts\": " << s.attempts << ", \"copies_sent\": " << s.copies_sent
        << ", \"succeeded\": " << s.succeeded << ", \"gave_up\": " << s.gave_up
        << ", \"shed_on_overload\": " << s.shed_on_overload
        << ", \"timed_out\": " << s.timed_out << ", \"unfinished\": " << s.unfinished
        << ", \"unavailable_responses\": " << s.unavailable_responses
        << ", \"overload_responses\": " << s.overload_responses
        << ", \"work_ms\": " << s.work_ms << ", \"goodput_ms\": " << s.goodput_ms
        << ", \"amplification_x1000\": " << s.amplification_x1000
        << ", \"wave_peak\": " << s.wave_peak
        << ", \"inflight_retries_max\": " << s.inflight_retries_max
        << ", \"queue_depth_max\": " << s.queue_depth_max
        << ", \"post_window_attempts\": " << s.post_window_attempts
        << ", \"time_to_recover_ms\": " << s.time_to_recover_ms
        << ", \"metastable\": " << (s.metastable ? "true" : "false") << "}";
  }
  out << "\n  ],\n";
  out << "  \"bugs\": " << BugReportsToJson(report.bugs);
  // BugReportsToJson ends with "]\n"; close the object on its own line.
  out << "}\n";
  return out.str();
}

std::string StormReportToText(const StormReport& report) {
  std::ostringstream out;
  out << "storm: app=" << report.app << " edges=" << report.edges.size()
      << " seed=" << report.options.seed << " duration=" << report.options.duration_ms
      << "ms fault=[" << report.options.fault_start_ms << ","
      << report.options.fault_end_ms << ")\n";
  out << "  totals: requests=" << report.total_requests
      << " attempts=" << report.total_attempts << " copies=" << report.total_copies
      << " succeeded=" << report.total_succeeded << " amplification="
      << report.amplification_x1000 / 1000 << "." << (report.amplification_x1000 % 1000) / 100
      << "x goodput=" << report.goodput_x1000 / 10 << "% queue_peak="
      << report.backend_queue_peak << " ttr="
      << report.time_to_recover_ms << "ms metastable="
      << (report.metastable ? "yes" : "no") << "\n";
  for (const StormEdgeStats& s : report.edges) {
    out << "  edge " << s.profile.coordinator << ": requests=" << s.requests
        << " attempts=" << s.attempts << " succeeded=" << s.succeeded
        << " shed=" << s.shed_by_breaker + s.shed_on_overload
        << " timed_out=" << s.timed_out << " amplification="
        << s.amplification_x1000 / 1000 << "." << (s.amplification_x1000 % 1000) / 100
        << "x wave_peak=" << s.wave_peak << " ttr=" << s.time_to_recover_ms
        << "ms" << (s.metastable ? " METASTABLE" : "") << "\n";
  }
  for (const BugReport& bug : report.bugs) {
    out << "  bug " << BugTypeName(bug.type) << " @ " << bug.coordinator << ": "
        << bug.detail << "\n";
  }
  return out.str();
}

void ExportStormStats(const StormReport& report, MetricsRegistry* metrics, Tracer* tracer) {
  if (metrics != nullptr) {
    metrics->SetGauge("storm.requests", static_cast<double>(report.total_requests));
    metrics->SetGauge("storm.attempts", static_cast<double>(report.total_attempts));
    metrics->SetGauge("storm.copies", static_cast<double>(report.total_copies));
    metrics->SetGauge("storm.succeeded", static_cast<double>(report.total_succeeded));
    metrics->SetGauge("storm.amplification", report.amplification_x1000 / 1000.0);
    metrics->SetGauge("storm.goodput_ratio", report.goodput_x1000 / 1000.0);
    metrics->SetGauge("storm.backend_queue_peak",
                      static_cast<double>(report.backend_queue_peak));
    metrics->SetGauge("storm.time_to_recover_ms",
                      static_cast<double>(report.time_to_recover_ms));
    metrics->SetGauge("storm.metastable", report.metastable ? 1.0 : 0.0);
    metrics->SetGauge("storm.bugs", static_cast<double>(report.bugs.size()));
    for (const StormEdgeStats& s : report.edges) {
      metrics->SetGauge("storm." + s.profile.service + ".queue_depth_max",
                        static_cast<double>(s.queue_depth_max));
      metrics->SetGauge("storm." + s.profile.service + ".inflight_retries_max",
                        static_cast<double>(s.inflight_retries_max));
    }
  }
  if (tracer != nullptr) {
    // Counter tracks: one Chrome counter series for the backend queue and one
    // per-edge in-flight-retry series, replayed sample by sample so `wasabi
    // report` dashboards render the storm timeline.
    for (const StormSample& sample : report.samples) {
      tracer->Counter("storm.queue_depth", "backend", sample.backend_depth);
      for (size_t e = 0; e < sample.edge_inflight.size() && e < report.edges.size(); ++e) {
        tracer->Counter("storm.inflight_retries", report.edges[e].profile.service,
                        sample.edge_inflight[e]);
      }
    }
    for (const StormEdgeStats& s : report.edges) {
      tracer->Counter("storm.amplification_x1000", s.profile.coordinator,
                      s.amplification_x1000);
    }
  }
}

}  // namespace wasabi
