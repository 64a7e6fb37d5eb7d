// A small JSON reader for what the CLI prints: bug-report arrays, the
// degraded-report object, the storm and repair reports, and Chrome traces.

#ifndef PERFBENCH_SRC_JSON_H_
#define PERFBENCH_SRC_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> items;                            // kArray.
  std::vector<std::pair<std::string, Json>> members;  // kObject, in input order.

  // The member named `key`, or null when absent or not an object.
  const Json* Find(std::string_view key) const;
  // Member accessors with defaults for absent or mistyped members.
  std::string StringOr(std::string_view key, std::string fallback = "") const;
  double NumberOr(std::string_view key, double fallback = 0.0) const;
};

// Parses one JSON value followed only by whitespace. On failure returns false
// and describes the first error in `error`.
bool ParseJson(std::string_view text, Json* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_JSON_H_
