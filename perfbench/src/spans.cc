#include "perfbench/src/spans.h"

#include <algorithm>
#include <map>
#include <utility>

#include "perfbench/src/json.h"

namespace perfbench {

namespace {

using Interval = std::pair<int64_t, int64_t>;

// Total length of the union of `intervals`.
int64_t UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t open_start = 0;
  int64_t open_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= open_end) {
      open_end = std::max(open_end, end);
      continue;
    }
    if (open) {
      total += open_end - open_start;
    }
    open_start = start;
    open_end = end;
    open = true;
  }
  if (open) {
    total += open_end - open_start;
  }
  return total;
}

}  // namespace

std::vector<int64_t> SelfTimesUs(const std::vector<wasabi::TraceEvent>& events) {
  std::vector<int64_t> self(events.size(), 0);
  std::map<int, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == 'X') {
      by_thread[events[i].tid].push_back(i);
    }
  }
  std::vector<std::vector<Interval>> children(events.size());
  for (auto& [tid, order] : by_thread) {
    // Parents before the children they contain: earlier start first, and the
    // longer span first on a tie.
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (events[a].start_us != events[b].start_us) {
        return events[a].start_us < events[b].start_us;
      }
      return events[a].duration_us > events[b].duration_us;
    });
    std::vector<size_t> open;
    for (size_t index : order) {
      const wasabi::TraceEvent& event = events[index];
      while (!open.empty() && event.start_us >=
                                  events[open.back()].start_us + events[open.back()].duration_us) {
        open.pop_back();
      }
      if (!open.empty()) {
        const wasabi::TraceEvent& parent = events[open.back()];
        int64_t end = std::min(event.start_us + event.duration_us,
                               parent.start_us + parent.duration_us);
        children[open.back()].emplace_back(event.start_us, end);
      }
      open.push_back(index);
    }
  }
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == 'X') {
      self[i] = events[i].duration_us - UnionLength(std::move(children[i]));
    }
  }
  return self;
}

int64_t CoveredUs(const std::vector<wasabi::TraceEvent>& events) {
  std::vector<Interval> intervals;
  for (const wasabi::TraceEvent& event : events) {
    if (event.phase == 'X') {
      intervals.emplace_back(event.start_us, event.start_us + event.duration_us);
    }
  }
  return UnionLength(std::move(intervals));
}

bool ParseChromeTrace(std::string_view json, std::vector<wasabi::TraceEvent>* events,
                      std::string* error) {
  Json root;
  if (!ParseJson(json, &root, error)) {
    return false;
  }
  const Json* list = root.Find("traceEvents");
  if (list == nullptr || list->kind != Json::Kind::kArray) {
    *error = "no traceEvents array";
    return false;
  }
  events->clear();
  for (const Json& item : list->items) {
    if (item.StringOr("ph") != "X") {
      continue;
    }
    wasabi::TraceEvent event;
    event.name = item.StringOr("name");
    event.phase = 'X';
    event.start_us = static_cast<int64_t>(item.NumberOr("ts"));
    event.duration_us = static_cast<int64_t>(item.NumberOr("dur"));
    event.tid = static_cast<int>(item.NumberOr("tid"));
    events->push_back(std::move(event));
  }
  return true;
}

}  // namespace perfbench
