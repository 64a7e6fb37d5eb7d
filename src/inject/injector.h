// Fault injection for the repurposed-unit-testing workflow (§3.1.2).
//
// The FaultInjector is the Listing-5 handler: registered as a pointcut on the
// interpreter, it raises the configured trigger exception the first K times
// the retried method (callee) is invoked from the coordinator method (caller),
// and writes one log entry per injection so the oracles can count attempts and
// check inter-attempt delays. K = 1 exercises post-retry code (HOW bugs);
// K = 100 exercises cap/delay logic (WHEN bugs).

#ifndef WASABI_SRC_INJECT_INJECTOR_H_
#define WASABI_SRC_INJECT_INJECTOR_H_

#include <map>
#include <string>
#include <vector>

#include "src/interp/interpreter.h"
#include "src/obs/metrics.h"

namespace wasabi {

// The two K settings the paper runs every planned test with (§3.1.2).
inline constexpr int kInjectOnce = 1;
inline constexpr int kInjectRepeatedly = 100;

struct InjectionPoint {
  std::string callee;     // Qualified retried-method name.
  std::string caller;     // Qualified coordinator name; "" matches any caller.
  std::string exception;  // Trigger exception class to raise.
  int max_injections = kInjectOnce;  // K.

  std::string Key() const { return callee + "<-" + caller + ":" + exception; }
};

class FaultInjector : public CallInterceptor {
 public:
  // `metrics`, when non-null, receives one `injector.injections_total`
  // increment per fired injection plus per-site and per-trigger-exception
  // breakdowns (metric taxonomy in docs/OBSERVABILITY.md). The registry is
  // thread-safe and the counters commutative, so campaign workers can all
  // feed one registry without affecting the deterministic outputs.
  explicit FaultInjector(std::vector<InjectionPoint> points,
                         MetricsRegistry* metrics = nullptr);

  // Listing 5: if this (callee, caller, exception) point has fired fewer than
  // K times, count and log the injection and return the exception to raise.
  ObjectRef OnCall(const CallEvent& event, Interpreter& interp) override;

  const std::vector<InjectionPoint>& points() const { return points_; }

  // How many times the i-th point has fired.
  int InjectionCount(size_t point_index) const;
  int TotalInjections() const;

  // How many calls matched the i-th point after its budget was exhausted —
  // the application-level attempts a fault did NOT stop, which is what the
  // retry journal's amplification accounting needs.
  int SkipCount(size_t point_index) const;
  int TotalSkips() const;

  void Reset();

 private:
  std::vector<InjectionPoint> points_;
  std::vector<int> counts_;
  std::vector<int> skip_counts_;
  MetricsRegistry* metrics_;  // Non-owning; null = no metric export.
};

}  // namespace wasabi

#endif  // WASABI_SRC_INJECT_INJECTOR_H_
