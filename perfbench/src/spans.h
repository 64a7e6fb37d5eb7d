// Span arithmetic over wasabi::Tracer events: self times for the traced run
// and trace coverage of a CLI invocation's --trace-out file.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

// Self time of each event, parallel to `events`: a complete ('X') event's
// duration minus the part of it covered by its direct children, the 'X'
// events of the same thread that start inside it (clipped to it). Instant and
// counter events get 0.
std::vector<int64_t> SelfTimesUs(const std::vector<wasabi::TraceEvent>& events);

// Length of the union of the 'X' events' intervals across all threads.
int64_t CoveredUs(const std::vector<wasabi::TraceEvent>& events);

// Reads the 'X' events of a Chrome trace-event JSON ("traceEvents" object
// form, as Tracer::ToChromeJson writes it).
bool ParseChromeTrace(std::string_view json, std::vector<wasabi::TraceEvent>* events,
                      std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
