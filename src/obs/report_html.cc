#include "src/obs/report_html.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace wasabi {

namespace {

// Charts cap their per-location strip count so a huge campaign stays a
// readable page; the cap is always announced next to the chart (never a
// silent truncation) and the run table carries every run regardless.
constexpr size_t kMaxTimelineRuns = 8;

std::string EscapeHtml(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

// Thousands-grouped integer: the report is full of step counts in the
// millions, and ungrouped digits are unreadable at a glance.
std::string FmtInt(int64_t value) {
  char raw[32];
  std::snprintf(raw, sizeof(raw), "%" PRId64, value < 0 ? -value : value);
  std::string digits(raw);
  std::string out = value < 0 ? "-" : "";
  const size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) {
      out.push_back(',');
    }
    out.push_back(digits[i]);
  }
  return out;
}

std::string FmtF(double value, int precision) {
  char raw[64];
  std::snprintf(raw, sizeof(raw), "%.*f", precision, value);
  return std::string(raw);
}

std::string FmtCoord(double value) { return FmtF(value, 1); }

// --- SVG builders -----------------------------------------------------------
//
// All charts share the mark specs from the dashboard stylesheet: bars <= 24px
// with 4px rounded data-ends (square at the baseline), >= 8px markers with a
// 2px surface ring, hairline axes in the muted ink, text in text tokens only.

void SvgOpen(std::string* out, int width, int height) {
  *out += "<svg viewBox=\"0 0 " + std::to_string(width) + " " + std::to_string(height) +
          "\" width=\"" + std::to_string(width) + "\" height=\"" + std::to_string(height) +
          "\" role=\"img\">";
}

void SvgRect(std::string* out, double x, double y, double w, double h, const char* fill,
             double rx, const std::string& tip) {
  *out += "<rect x=\"" + FmtCoord(x) + "\" y=\"" + FmtCoord(y) + "\" width=\"" + FmtCoord(w) +
          "\" height=\"" + FmtCoord(h) + "\" fill=\"" + fill + "\"";
  if (rx > 0) {
    *out += " rx=\"" + FmtCoord(rx) + "\"";
  }
  if (!tip.empty()) {
    *out += " data-tip=\"" + tip + "\"";
  }
  *out += "/>";
}

void SvgCircle(std::string* out, double cx, double cy, double r, const char* fill,
               const std::string& tip) {
  *out += "<circle cx=\"" + FmtCoord(cx) + "\" cy=\"" + FmtCoord(cy) + "\" r=\"" + FmtCoord(r) +
          "\" fill=\"" + fill + "\" stroke=\"var(--surface-1)\" stroke-width=\"2\"";
  if (!tip.empty()) {
    *out += " data-tip=\"" + tip + "\"";
  }
  *out += "/>";
}

void SvgText(std::string* out, double x, double y, const char* cls, const std::string& text,
             const char* anchor = "start") {
  *out += "<text x=\"" + FmtCoord(x) + "\" y=\"" + FmtCoord(y) + "\" class=\"" + cls +
          "\" text-anchor=\"" + std::string(anchor) + "\">" + text + "</text>";
}

void SvgLine(std::string* out, double x1, double y1, double x2, double y2) {
  *out += "<line x1=\"" + FmtCoord(x1) + "\" y1=\"" + FmtCoord(y1) + "\" x2=\"" + FmtCoord(x2) +
          "\" y2=\"" + FmtCoord(y2) + "\" stroke=\"var(--axis)\" stroke-width=\"1\"/>";
}

void StatTile(std::string* out, const std::string& label, const std::string& value,
              const std::string& note) {
  *out += "<div class=\"tile\"><div class=\"tile-label\">" + label +
          "</div><div class=\"tile-value\">" + value + "</div>";
  if (!note.empty()) {
    *out += "<div class=\"tile-note\">" + note + "</div>";
  }
  *out += "</div>";
}

// One run's strip on the per-location retry timeline: a recessive track the
// length of the run's final-attempt virtual duration, aqua sleep segments,
// and orange fire markers, all on one shared virtual-ms x scale.
void TimelineStrip(std::string* out, const RunRetryTimeline& run, double x0, double y,
                   double width, int64_t max_ms) {
  const double scale = width / static_cast<double>(std::max<int64_t>(max_ms, 1));
  const double track_ms = static_cast<double>(std::max<int64_t>(run.virtual_ms, 1));
  SvgRect(out, x0, y + 7, track_ms * scale, 8, "var(--track)", 4,
          "run " + std::to_string(run.run_id) + " \xc2\xb7 " + EscapeHtml(run.final_status) +
              " \xc2\xb7 " + FmtInt(run.virtual_ms) + " virtual ms \xc2\xb7 " +
              FmtInt(run.steps) + " steps");
  for (const RetryTimelinePoint& point : run.points) {
    if (point.kind == JournalEventKind::kSleep) {
      SvgRect(out, x0 + static_cast<double>(point.t_ms) * scale, y + 7,
              std::max(2.0, static_cast<double>(point.value) * scale), 8, "var(--series-3)", 2,
              "sleep " + FmtInt(point.value) + " ms at t=" + FmtInt(point.t_ms) +
                  " ms (attempt " + std::to_string(point.attempt) + ")");
    }
  }
  for (const RetryTimelinePoint& point : run.points) {
    if (point.kind == JournalEventKind::kInjectFire) {
      SvgCircle(out, x0 + static_cast<double>(point.t_ms) * scale, y + 11, 4, "var(--series-2)",
                "fault #" + FmtInt(point.value) + " fired at t=" + FmtInt(point.t_ms) +
                    " ms (attempt " + std::to_string(point.attempt) + ")");
    }
  }
}

// Column chart shared by the backoff schedule and the latency histogram:
// single blue series, <= 24px columns with 4px rounded caps growing from one
// baseline, 2px surface gaps, selective cap labels when the count is small.
void ColumnChart(std::string* out, const std::vector<std::pair<std::string, int64_t>>& columns,
                 const std::string& value_unit) {
  const int width = 720;
  const int height = 150;
  const double plot_h = 110;
  const double base_y = 126;
  int64_t max_value = 1;
  for (const auto& [label, value] : columns) {
    max_value = std::max(max_value, value);
  }
  const double slot = static_cast<double>(width) / static_cast<double>(columns.size());
  const double bar_w = std::min(24.0, std::max(4.0, slot - 2.0));
  const bool label_caps = columns.size() <= 16;
  SvgOpen(out, width, height);
  SvgLine(out, 0, base_y, width, base_y);
  for (size_t i = 0; i < columns.size(); ++i) {
    const double h =
        std::max(2.0, static_cast<double>(columns[i].second) / static_cast<double>(max_value) *
                          plot_h);
    const double x = slot * static_cast<double>(i) + (slot - bar_w) / 2;
    // Rounded data-end, square baseline: draw the rounded bar, then square
    // off its bottom corners with a small patch.
    SvgRect(out, x, base_y - h, bar_w, h, "var(--series-1)", 4,
            columns[i].first + ": " + FmtInt(columns[i].second) + " " + value_unit);
    if (h > 6) {
      SvgRect(out, x, base_y - std::min(h, 4.0), bar_w, std::min(h, 4.0), "var(--series-1)", 0,
              "");
    }
    if (label_caps) {
      SvgText(out, x + bar_w / 2, base_y - h - 5, "svg-value", FmtInt(columns[i].second),
              "middle");
      SvgText(out, x + bar_w / 2, base_y + 14, "svg-axis", columns[i].first, "middle");
    }
  }
  if (!label_caps) {
    SvgText(out, 0, base_y + 14, "svg-axis", columns.front().first);
    SvgText(out, width, base_y + 14, "svg-axis", columns.back().first, "end");
  }
  *out += "</svg>";
}

std::string OutcomeClass(const RunRetryTimeline& run) {
  if (run.quarantined) {
    return "cell-quarantined";
  }
  if (run.breaker_opened) {
    return "cell-breaker";
  }
  return run.passed ? "cell-passed" : "cell-failed";
}

std::string OutcomeName(const RunRetryTimeline& run) {
  if (run.quarantined) {
    return "quarantined";
  }
  if (run.breaker_opened) {
    return "breaker opened";
  }
  return run.passed ? "passed" : "failed (" + EscapeHtml(run.final_status) + ")";
}

const char kStyle[] = R"css(
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --track: #e1e0d9;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --status-good: #0ca30c; --status-serious: #ec835a; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --track: #2c2c2a;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--page); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 860px; margin: 0 auto; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 8px; }
h3 { font-size: 13px; font-weight: 600; color: var(--text-secondary); margin: 16px 0 4px;
  overflow-wrap: anywhere; }
.subtitle { color: var(--text-secondary); margin-bottom: 24px; }
.card { background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px;
  padding: 16px; margin-bottom: 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px;
  padding: 12px 16px; min-width: 130px; flex: 1; }
.tile-label { font-size: 12px; color: var(--text-secondary); }
.tile-value { font-size: 22px; font-weight: 600; }
.tile-note { font-size: 11px; color: var(--muted); }
.hero { font-size: 48px; font-weight: 600; line-height: 1.1; }
.hero-label { font-size: 13px; color: var(--text-secondary); }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: left; color: var(--text-secondary); font-weight: 500;
  border-bottom: 1px solid var(--axis); padding: 4px 8px; }
td { border-bottom: 1px solid var(--grid); padding: 4px 8px;
  font-variant-numeric: tabular-nums; overflow-wrap: anywhere; }
td.num, th.num { text-align: right; }
.legend { display: flex; gap: 16px; font-size: 12px; color: var(--text-secondary);
  margin: 4px 0 8px; flex-wrap: wrap; }
.key { display: inline-block; width: 10px; height: 10px; border-radius: 5px;
  margin-right: 4px; vertical-align: -1px; }
.key-bar { display: inline-block; width: 14px; height: 8px; border-radius: 2px;
  margin-right: 4px; }
.cells { display: flex; flex-wrap: wrap; gap: 2px; }
.cell { width: 14px; height: 14px; border-radius: 3px; }
.cell-passed { background: var(--status-good); }
.cell-failed { background: var(--muted); }
.cell-breaker { background: var(--status-serious); }
.cell-quarantined { background: var(--status-critical); }
.svg-axis { font: 11px system-ui, sans-serif; fill: var(--muted); }
.svg-value { font: 11px system-ui, sans-serif; fill: var(--text-secondary); }
.svg-label { font: 12px system-ui, sans-serif; fill: var(--text-secondary); }
.note { font-size: 12px; color: var(--muted); }
details { margin-top: 8px; }
summary { cursor: pointer; color: var(--text-secondary); font-size: 13px; }
pre { background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px;
  padding: 12px; overflow-x: auto; font-size: 12px; max-height: 360px; }
#tip { display: none; position: absolute; background: var(--text-primary);
  color: var(--page); padding: 4px 8px; border-radius: 4px; font-size: 12px;
  pointer-events: none; max-width: 320px; z-index: 10; }
)css";

const char kScript[] = R"js(
var tip = document.getElementById('tip');
document.addEventListener('mousemove', function (e) {
  var t = e.target.closest ? e.target.closest('[data-tip]') : null;
  if (t) {
    tip.textContent = t.getAttribute('data-tip');
    tip.style.display = 'block';
    tip.style.left = (e.pageX + 12) + 'px';
    tip.style.top = (e.pageY + 12) + 'px';
  } else {
    tip.style.display = 'none';
  }
});
)js";

// Minimal field extractor for the fixed-format "wasabi-repair-v1" JSON this
// toolkit itself emits (flat rows, known keys, no nested objects). Returns ""
// when the key is absent. Handles string values (with escape folding) and
// bare scalars.
std::string RepairJsonField(std::string_view row, const std::string& key) {
  const std::string pattern = "\"" + key + "\": ";
  size_t pos = row.find(pattern);
  if (pos == std::string_view::npos) {
    return std::string();
  }
  pos += pattern.size();
  if (pos >= row.size()) {
    return std::string();
  }
  if (row[pos] == '"') {
    std::string out;
    for (size_t i = pos + 1; i < row.size(); ++i) {
      char c = row[i];
      if (c == '\\' && i + 1 < row.size()) {
        out += row[++i];
        continue;
      }
      if (c == '"') {
        break;
      }
      out += c;
    }
    return out;
  }
  size_t end = row.find_first_of(",}", pos);
  if (end == std::string_view::npos) {
    end = row.size();
  }
  return std::string(row.substr(pos, end - pos));
}

}  // namespace

std::string RenderHtmlReport(std::string_view app, const std::vector<JournalEvent>& events,
                             const RetryStatsReport& stats, std::string_view metrics_json,
                             std::string_view trace_json, std::string_view repair_json) {
  std::string out;
  out.reserve(1 << 16);
  const std::string app_html = EscapeHtml(app);
  out += "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">";
  out += "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">";
  out += "<title>Retry report \xc2\xb7 " + app_html + "</title>";
  out += "<style>";
  out += kStyle;
  out += "</style></head><body><div id=\"tip\"></div><main>";

  out += "<h1>Retry report \xc2\xb7 " + app_html + "</h1>";
  out += "<div class=\"subtitle\">" + FmtInt(static_cast<int64_t>(events.size())) +
         " journal events \xc2\xb7 " + FmtInt(static_cast<int64_t>(stats.campaign_runs)) +
         " campaign runs \xc2\xb7 " + FmtInt(static_cast<int64_t>(stats.locations.size())) +
         " retry locations</div>";

  // --- Headline: amplification hero + stat tiles ----------------------------
  out += "<div class=\"card\"><div class=\"hero-label\">Retry amplification "
         "(attempts executed \xc3\xb7 attempts a correct policy needs)</div>";
  out += "<div class=\"hero\">" + FmtF(stats.amplification, 2) + "&times;</div></div>";
  out += "<div class=\"tiles\">";
  StatTile(&out, "Goodput ratio", FmtF(stats.goodput_ratio * 100.0, 1) + "%",
           FmtInt(stats.goodput_steps) + " of " + FmtInt(stats.total_steps) + " steps");
  StatTile(&out, "Wasted work", FmtInt(stats.wasted_steps),
           "interpreter steps beyond a correct policy");
  StatTile(&out, "Attempts", FmtInt(stats.attempts_observed),
           "observed \xc2\xb7 " + FmtInt(stats.attempts_needed) + " needed");
  StatTile(&out, "Time to recover", FmtInt(stats.time_to_recover_ms_max) + " ms",
           "max \xc2\xb7 " + FmtInt(stats.time_to_recover_ms_total) + " ms total");
  StatTile(&out, "Run latency p50", FmtF(stats.latency_p50_ms, 1) + " ms",
           "p90 " + FmtF(stats.latency_p90_ms, 1) + " \xc2\xb7 p99 " +
               FmtF(stats.latency_p99_ms, 1));
  out += "</div>";

  // --- Per-location amplification / goodput table ---------------------------
  out += "<h2>Amplification &amp; goodput by retry location</h2><div class=\"card\">";
  if (stats.locations.empty()) {
    out += "<div class=\"note\">No campaign runs were journaled.</div>";
  } else {
    out += "<table><thead><tr><th>Location</th><th class=\"num\">Runs</th>"
           "<th class=\"num\">Passed</th><th class=\"num\">Quarantined</th>"
           "<th class=\"num\">Amplification</th><th class=\"num\">Goodput</th>"
           "<th class=\"num\">Wasted steps</th><th class=\"num\">TTR max (ms)</th>"
           "<th class=\"num\">p50 (ms)</th><th class=\"num\">p99 (ms)</th></tr></thead><tbody>";
    for (const LocationRetryStats& loc : stats.locations) {
      out += "<tr><td>" + EscapeHtml(loc.location) + "</td><td class=\"num\">" +
             FmtInt(static_cast<int64_t>(loc.runs)) + "</td><td class=\"num\">" +
             FmtInt(static_cast<int64_t>(loc.passed_runs)) + "</td><td class=\"num\">" +
             FmtInt(static_cast<int64_t>(loc.quarantined_runs)) + "</td><td class=\"num\">" +
             FmtF(loc.amplification, 2) + "&times;</td><td class=\"num\">" +
             FmtF(loc.goodput_ratio * 100.0, 1) + "%</td><td class=\"num\">" +
             FmtInt(loc.wasted_steps) + "</td><td class=\"num\">" +
             FmtInt(loc.time_to_recover_ms_max) + "</td><td class=\"num\">" +
             FmtF(loc.latency_p50_ms, 1) + "</td><td class=\"num\">" +
             FmtF(loc.latency_p99_ms, 1) + "</td></tr>";
    }
    out += "</tbody></table>";
  }
  out += "</div>";

  // --- Per-location retry timelines -----------------------------------------
  // Index runs by location once; every chart below walks the same groups.
  std::map<std::string, std::vector<const RunRetryTimeline*>> runs_by_location;
  for (const RunRetryTimeline& run : stats.runs) {
    runs_by_location[run.location].push_back(&run);
  }

  out += "<h2>Retry timelines</h2>";
  out += "<div class=\"legend\"><span><span class=\"key\" "
         "style=\"background:var(--series-2)\"></span>fault fired</span>"
         "<span><span class=\"key-bar\" style=\"background:var(--series-3)\"></span>"
         "application sleep</span><span><span class=\"key-bar\" "
         "style=\"background:var(--track)\"></span>run duration (virtual ms)</span></div>";
  if (runs_by_location.empty()) {
    out += "<div class=\"card\"><div class=\"note\">No campaign runs were journaled.</div></div>";
  }
  for (const auto& [location, runs] : runs_by_location) {
    const size_t shown = std::min(runs.size(), kMaxTimelineRuns);
    int64_t max_ms = 1;
    for (size_t i = 0; i < shown; ++i) {
      max_ms = std::max(max_ms, runs[i]->virtual_ms);
      for (const RetryTimelinePoint& point : runs[i]->points) {
        if (point.kind != JournalEventKind::kBackoffWait) {
          max_ms = std::max(max_ms, point.t_ms + point.value);
        }
      }
    }
    out += "<div class=\"card\"><h3>" + EscapeHtml(location) + "</h3>";
    const double label_w = 120;
    const double plot_w = 600;
    const int height = static_cast<int>(shown) * 22 + 20;
    SvgOpen(&out, 740, height);
    for (size_t i = 0; i < shown; ++i) {
      const double y = static_cast<double>(i) * 22;
      SvgText(&out, 0, y + 15, "svg-label",
              "run " + std::to_string(runs[i]->run_id) + " \xc2\xb7 k=" +
                  std::to_string(runs[i]->k));
      TimelineStrip(&out, *runs[i], label_w, y, plot_w, max_ms);
    }
    SvgLine(&out, label_w, static_cast<double>(shown) * 22 + 2, label_w + plot_w,
            static_cast<double>(shown) * 22 + 2);
    SvgText(&out, label_w, height - 2, "svg-axis", "0 ms");
    SvgText(&out, label_w + plot_w, height - 2, "svg-axis", FmtInt(max_ms) + " ms", "end");
    out += "</svg>";
    if (shown < runs.size()) {
      out += "<div class=\"note\">Showing the first " + FmtInt(static_cast<int64_t>(shown)) +
             " of " + FmtInt(static_cast<int64_t>(runs.size())) +
             " runs; the run table and journal carry all of them.</div>";
    }
    out += "</div>";
  }

  // --- Backoff schedules ----------------------------------------------------
  out += "<h2>Host backoff schedule</h2>";
  bool any_backoff = false;
  for (const auto& [location, runs] : runs_by_location) {
    std::vector<std::pair<std::string, int64_t>> columns;
    for (const RunRetryTimeline* run : runs) {
      for (const RetryTimelinePoint& point : run->points) {
        if (point.kind == JournalEventKind::kBackoffWait) {
          columns.emplace_back("r" + std::to_string(run->run_id) + "\xc2\xb7" +
                                   std::to_string(point.attempt),
                               point.value);
        }
      }
    }
    if (columns.empty()) {
      continue;
    }
    any_backoff = true;
    out += "<div class=\"card\"><h3>" + EscapeHtml(location) + "</h3>";
    ColumnChart(&out, columns, "ms backoff before attempt");
    out += "<div class=\"note\">One column per host retry, labeled run\xc2\xb7"
           "attempt; height is the virtual backoff wait.</div></div>";
  }
  if (!any_backoff) {
    out += "<div class=\"card\"><div class=\"note\">No host-level backoff waits were "
           "journaled \xe2\x80\x94 no run failed at the host level.</div></div>";
  }

  // --- Run outcome / breaker strips -----------------------------------------
  out += "<h2>Run outcomes &amp; circuit breaker</h2>";
  out += "<div class=\"legend\"><span><span class=\"key\" "
         "style=\"background:var(--status-good)\"></span>\xe2\x9c\x93 passed</span>"
         "<span><span class=\"key\" style=\"background:var(--muted)\"></span>"
         "\xe2\x9c\x95 failed</span><span><span class=\"key\" "
         "style=\"background:var(--status-serious)\"></span>\xe2\x9a\xa0 breaker opened</span>"
         "<span><span class=\"key\" style=\"background:var(--status-critical)\"></span>"
         "\xe2\x9b\x94 quarantined</span></div>";
  if (runs_by_location.empty()) {
    out += "<div class=\"card\"><div class=\"note\">No campaign runs were journaled.</div></div>";
  } else {
    out += "<div class=\"card\">";
    for (const auto& [location, runs] : runs_by_location) {
      out += "<h3>" + EscapeHtml(location) + "</h3><div class=\"cells\">";
      for (const RunRetryTimeline* run : runs) {
        out += "<div class=\"cell " + OutcomeClass(*run) + "\" data-tip=\"run " +
               std::to_string(run->run_id) + " \xc2\xb7 k=" + std::to_string(run->k) +
               " \xc2\xb7 " + OutcomeName(*run) + " \xc2\xb7 " +
               std::to_string(run->host_attempts) + " host attempt(s)\"></div>";
      }
      out += "</div>";
    }
    out += "</div>";
  }

  // --- Latency histogram ----------------------------------------------------
  out += "<h2>Run latency (virtual ms, completed runs)</h2><div class=\"card\">";
  {
    std::map<int, int64_t> buckets;  // Key: log2 bucket index (0 = value 0).
    for (const RunRetryTimeline& run : stats.runs) {
      if (!run.completed) {
        continue;
      }
      const uint64_t v = static_cast<uint64_t>(std::max<int64_t>(run.virtual_ms, 0));
      buckets[v == 0 ? 0 : std::bit_width(v)] += 1;
    }
    if (buckets.empty()) {
      out += "<div class=\"note\">No completed campaign runs were journaled.</div>";
    } else {
      std::vector<std::pair<std::string, int64_t>> columns;
      const int lo_bucket = buckets.begin()->first;
      const int hi_bucket = buckets.rbegin()->first;
      for (int b = lo_bucket; b <= hi_bucket; ++b) {
        std::string label;
        if (b == 0) {
          label = "0";
        } else {
          const int64_t lo = int64_t{1} << (b - 1);
          const int64_t hi = (int64_t{1} << b) - 1;
          label = lo == hi ? FmtInt(lo) : FmtInt(lo) + "\xe2\x80\x93" + FmtInt(hi);
        }
        const auto it = buckets.find(b);
        columns.emplace_back(label, it == buckets.end() ? 0 : it->second);
      }
      ColumnChart(&out, columns, "runs");
      out += "<div class=\"note\">Power-of-two latency buckets (ms); exact quantiles: p50 " +
             FmtF(stats.latency_p50_ms, 1) + " \xc2\xb7 p90 " + FmtF(stats.latency_p90_ms, 1) +
             " \xc2\xb7 p99 " + FmtF(stats.latency_p99_ms, 1) + " ms.</div>";
    }
  }
  out += "</div>";

  // --- Prober + cache streams (from the raw journal) ------------------------
  {
    std::map<uint64_t, std::pair<int64_t, std::string>> probes;  // run -> (reps, verdict).
    std::map<std::string, std::pair<int64_t, int64_t>> cache;    // ns -> (hits, misses).
    for (const JournalEvent& event : events) {
      if (event.stream == JournalStream::kProbe) {
        auto& entry = probes[event.run_id];
        if (event.kind == JournalEventKind::kProbeRepetition) {
          ++entry.first;
        } else if (event.kind == JournalEventKind::kProbeVerdict) {
          entry.second = event.detail + (event.value != 0 ? " (probe failed)" : "");
        }
      } else if (event.kind == JournalEventKind::kCacheHit) {
        cache[event.detail].first += event.value;
      } else if (event.kind == JournalEventKind::kCacheMiss) {
        cache[event.detail].second += event.value;
      }
    }
    if (!probes.empty()) {
      out += "<h2>Flakiness prober</h2><div class=\"card\"><table><thead><tr>"
             "<th class=\"num\">Run</th><th class=\"num\">Repetitions</th>"
             "<th>Verdict stability</th></tr></thead><tbody>";
      for (const auto& [run_id, entry] : probes) {
        out += "<tr><td class=\"num\">" + std::to_string(run_id) + "</td><td class=\"num\">" +
               FmtInt(entry.first) + "</td><td>" + EscapeHtml(entry.second) + "</td></tr>";
      }
      out += "</tbody></table></div>";
    }
    if (!cache.empty()) {
      out += "<h2>Result cache</h2><div class=\"card\"><table><thead><tr>"
             "<th>Namespace</th><th class=\"num\">Hits</th><th class=\"num\">Misses</th>"
             "</tr></thead><tbody>";
      for (const auto& [ns, counts] : cache) {
        out += "<tr><td>" + EscapeHtml(ns) + "</td><td class=\"num\">" + FmtInt(counts.first) +
               "</td><td class=\"num\">" + FmtInt(counts.second) + "</td></tr>";
      }
      out += "</tbody></table></div>";
    }
  }

  // --- Storm simulation timelines (stream kStorm) ---------------------------
  // Rendered only when a `wasabi storm` run journaled the kStorm stream: the
  // backend queue-depth timeline with the fault window shaded, then one
  // in-flight-retries track per edge with its breaker transitions marked.
  {
    struct StormEdgeTrack {
      std::string location;
      std::vector<std::pair<int64_t, int64_t>> inflight;  // (t_ms, count).
      std::vector<std::pair<int64_t, JournalEventKind>> transitions;
    };
    std::vector<std::pair<int64_t, int64_t>> depth;  // Backend (t_ms, depth).
    int64_t fault_begin = -1;
    int64_t fault_end = -1;
    std::map<uint64_t, StormEdgeTrack> storm_edges;
    for (const JournalEvent& event : events) {
      if (event.stream != JournalStream::kStorm) {
        continue;
      }
      if (event.run_id == 0) {
        if (event.kind == JournalEventKind::kQueueDepth) {
          depth.emplace_back(event.t_ms, event.value);
        } else if (event.kind == JournalEventKind::kFaultBegin) {
          fault_begin = event.t_ms;
        } else if (event.kind == JournalEventKind::kFaultEnd) {
          fault_end = event.t_ms;
        }
        continue;
      }
      StormEdgeTrack& track = storm_edges[event.run_id];
      if (track.location.empty()) {
        track.location = event.location;
      }
      if (event.kind == JournalEventKind::kInflightRetries) {
        track.inflight.emplace_back(event.t_ms, event.value);
      } else if (event.kind == JournalEventKind::kBreakerOpen ||
                 event.kind == JournalEventKind::kBreakerHalfOpen ||
                 event.kind == JournalEventKind::kBreakerClose) {
        track.transitions.emplace_back(event.t_ms, event.kind);
      }
    }
    // One gauge track: shaded fault window, a column per sample (rendered as
    // thin bars so the x axis is honest about sampling), peak in the note.
    auto storm_track = [&](const std::vector<std::pair<int64_t, int64_t>>& samples,
                           const std::vector<std::pair<int64_t, JournalEventKind>>& transitions,
                           const std::string& unit) {
      const double width = 720;
      const double plot_h = 96;
      const double base_y = 110;
      int64_t max_t = 1;
      int64_t max_v = 1;
      for (const auto& [t, v] : samples) {
        max_t = std::max(max_t, t);
        max_v = std::max(max_v, v);
      }
      SvgOpen(&out, 740, 130);
      if (fault_begin >= 0 && fault_end > fault_begin) {
        const double x0 = static_cast<double>(fault_begin) / static_cast<double>(max_t) * width;
        const double x1 = static_cast<double>(fault_end) / static_cast<double>(max_t) * width;
        out += "<rect x=\"" + FmtCoord(x0) + "\" y=\"" + FmtCoord(base_y - plot_h) +
               "\" width=\"" + FmtCoord(x1 - x0) + "\" height=\"" + FmtCoord(plot_h) +
               "\" fill=\"var(--status-serious)\" fill-opacity=\"0.15\" data-tip=\"backend "
               "fault window " +
               FmtInt(fault_begin) + "\xe2\x80\x93" + FmtInt(fault_end) + " ms\"/>";
      }
      SvgLine(&out, 0, base_y, width, base_y);
      const double bar_w = std::max(1.0, width / static_cast<double>(samples.size() + 1) - 1.0);
      for (const auto& [t, v] : samples) {
        const double x = static_cast<double>(t) / static_cast<double>(max_t) * width;
        const double h =
            std::max(v > 0 ? 2.0 : 0.0,
                     static_cast<double>(v) / static_cast<double>(max_v) * plot_h);
        if (h > 0) {
          SvgRect(&out, x, base_y - h, bar_w, h, "var(--series-1)", 0,
                  FmtInt(v) + " " + unit + " at t=" + FmtInt(t) + " ms");
        }
      }
      for (const auto& [t, kind] : transitions) {
        const double x = static_cast<double>(t) / static_cast<double>(max_t) * width;
        const char* fill = kind == JournalEventKind::kBreakerOpen    ? "var(--status-critical)"
                           : kind == JournalEventKind::kBreakerClose ? "var(--status-good)"
                                                                     : "var(--series-3)";
        SvgCircle(&out, x, base_y - plot_h - 6, 4, fill,
                  std::string(JournalEventKindName(kind)) + " at t=" + FmtInt(t) + " ms");
      }
      SvgText(&out, 0, 128, "svg-axis", "0 ms");
      SvgText(&out, width, 128, "svg-axis", FmtInt(max_t) + " ms", "end");
      SvgText(&out, width, base_y - plot_h - 2, "svg-value", "peak " + FmtInt(max_v), "end");
    };
    if (!depth.empty()) {
      out += "<h2>Retry storm simulation</h2>";
      out += "<div class=\"legend\"><span><span class=\"key-bar\" "
             "style=\"background:var(--status-serious);opacity:.4\"></span>fault window</span>"
             "<span><span class=\"key\" style=\"background:var(--status-critical)\"></span>"
             "breaker opened</span><span><span class=\"key\" "
             "style=\"background:var(--series-3)\"></span>half-open probe</span>"
             "<span><span class=\"key\" style=\"background:var(--status-good)\"></span>"
             "breaker closed</span></div>";
      out += "<div class=\"card\"><h3>Backend queue depth</h3>";
      storm_track(depth, {}, "queued copies");
      out += "</svg><div class=\"note\">Queued + in-service copies per sample; a queue that "
             "never drains after the shaded fault clears is the metastable signature.</div>"
             "</div>";
      for (const auto& [run_id, track] : storm_edges) {
        if (track.inflight.empty()) {
          continue;
        }
        out += "<div class=\"card\"><h3>" + EscapeHtml(track.location) +
               " \xc2\xb7 in-flight retries</h3>";
        storm_track(track.inflight, track.transitions, "retrying requests");
        out += "</svg><div class=\"note\">Requests mid-retry for this edge; markers are "
               "admission-breaker transitions.</div></div>";
      }
    }
  }

  // --- Repair loop (docs/REPAIR.md) -----------------------------------------
  if (!repair_json.empty()) {
    out += "<h2>Repair loop</h2><div class=\"card\">";
    size_t array_pos = repair_json.find("\"repairs\": [");
    bool any_row = false;
    if (array_pos != std::string_view::npos) {
      std::string body;
      size_t cursor = array_pos;
      while (true) {
        size_t open = repair_json.find('{', cursor);
        if (open == std::string_view::npos) {
          break;
        }
        size_t close = repair_json.find('}', open);
        if (close == std::string_view::npos) {
          break;
        }
        std::string_view row = repair_json.substr(open, close - open + 1);
        cursor = close + 1;
        std::string type = RepairJsonField(row, "type");
        if (type.empty()) {
          continue;
        }
        any_row = true;
        std::string outcome = RepairJsonField(row, "outcome");
        std::string note = RepairJsonField(row, "note");
        body += "<tr><td>" + EscapeHtml(type) + "</td><td>" +
                EscapeHtml(RepairJsonField(row, "file")) + "</td><td>" +
                EscapeHtml(RepairJsonField(row, "coordinator")) + "</td><td>" +
                EscapeHtml(RepairJsonField(row, "template")) + "</td><td>" +
                EscapeHtml(RepairJsonField(row, "error_mode")) + "</td><td>" +
                EscapeHtml(outcome) + (note.empty() ? "" : " \xc2\xb7 " + EscapeHtml(note)) +
                "</td></tr>";
      }
      if (any_row) {
        out += "<table><thead><tr><th>Verdict</th><th>File</th><th>Coordinator</th>"
               "<th>Template</th><th>Error mode</th><th>Outcome</th></tr></thead><tbody>" +
               body + "</tbody></table>";
      }
    }
    if (!any_row) {
      out += "<div class=\"note\">No confirmed verdicts entered the repair loop.</div>";
    }
    out += "<div class=\"note\">fixed = target verdict gone, nothing new, clean suite and "
           "single-fault replay intact \xc2\xb7 not-fixed = verdict persists or no patch "
           "applied \xc2\xb7 regressed = the patch made something worse (docs/REPAIR.md)."
           "</div></div>";
  }

  // --- Embedded sibling artifacts -------------------------------------------
  if (!metrics_json.empty() || !trace_json.empty() || !repair_json.empty()) {
    out += "<h2>Raw artifacts</h2>";
    if (!metrics_json.empty()) {
      out += "<details><summary>Metrics snapshot (" +
             FmtInt(static_cast<int64_t>(metrics_json.size())) + " bytes)</summary><pre>" +
             EscapeHtml(metrics_json) + "</pre></details>";
    }
    if (!trace_json.empty()) {
      out += "<details><summary>Chrome trace (" +
             FmtInt(static_cast<int64_t>(trace_json.size())) + " bytes \xc2\xb7 load in "
             "chrome://tracing or Perfetto)</summary><pre>" +
             EscapeHtml(trace_json) + "</pre></details>";
    }
    if (!repair_json.empty()) {
      out += "<details><summary>Repair report (" +
             FmtInt(static_cast<int64_t>(repair_json.size())) +
             " bytes)</summary><pre>" + EscapeHtml(repair_json) + "</pre></details>";
    }
  }

  out += "</main><script>";
  out += kScript;
  out += "</script></body></html>";
  return out;
}

}  // namespace wasabi
