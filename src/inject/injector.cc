#include "src/inject/injector.h"

namespace wasabi {

FaultInjector::FaultInjector(std::vector<InjectionPoint> points, MetricsRegistry* metrics)
    : points_(std::move(points)),
      counts_(points_.size(), 0),
      skip_counts_(points_.size(), 0),
      metrics_(metrics) {}

ObjectRef FaultInjector::OnCall(const CallEvent& event, Interpreter& interp) {
  for (size_t i = 0; i < points_.size(); ++i) {
    const InjectionPoint& point = points_[i];
    if (event.callee != point.callee) {
      continue;
    }
    if (!point.caller.empty() && event.caller != point.caller) {
      continue;
    }
    if (counts_[i] >= point.max_injections) {
      // Budget exhausted: the call proceeds un-faulted. The retry journal
      // counts these (it is what ends a retry storm).
      ++skip_counts_[i];
      continue;
    }
    ++counts_[i];
    if (metrics_ != nullptr) {
      metrics_->Increment("injector.injections_total");
      metrics_->Increment("injector.injections.site." + point.callee);
      metrics_->Increment("injector.injections.exception." + point.exception);
    }

    LogEntry entry;
    entry.kind = LogEntryKind::kInjection;
    entry.virtual_time_ms = interp.now_ms();
    entry.amount = counts_[i];
    entry.injection_callee = point.callee;
    entry.injection_caller = point.caller.empty() ? std::string(event.caller) : point.caller;
    entry.injection_exception = point.exception;
    entry.caller_activation = event.caller_activation;
    entry.call_stack = interp.CaptureStack();
    entry.text = "injected " + point.exception + " #" + std::to_string(counts_[i]) + " at " +
                 point.callee + " from " + entry.injection_caller;
    interp.log().Append(std::move(entry));

    return interp.MakeException(point.exception, "injected by WASABI at " + point.callee);
  }
  return nullptr;
}

int FaultInjector::InjectionCount(size_t point_index) const {
  return point_index < counts_.size() ? counts_[point_index] : 0;
}

int FaultInjector::TotalInjections() const {
  int total = 0;
  for (int count : counts_) {
    total += count;
  }
  return total;
}

int FaultInjector::SkipCount(size_t point_index) const {
  return point_index < skip_counts_.size() ? skip_counts_[point_index] : 0;
}

int FaultInjector::TotalSkips() const {
  int total = 0;
  for (int count : skip_counts_) {
    total += count;
  }
  return total;
}

void FaultInjector::Reset() {
  counts_.assign(points_.size(), 0);
  skip_counts_.assign(points_.size(), 0);
}

}  // namespace wasabi
