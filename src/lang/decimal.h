// Whole-field decimal integer parsing, shared by the command-line flags and
// the on-disk formats (cache entries, record files, the --chaos seed).

#ifndef WASABI_SRC_LANG_DECIMAL_H_
#define WASABI_SRC_LANG_DECIMAL_H_

#include <charconv>
#include <string_view>
#include <system_error>

namespace mj {

// Parses all of `text` as a decimal integer within [min, max]. Only digits
// and, for signed types, one leading '-' are accepted: no '+', no whitespace,
// no trailing bytes, and a value outside the type or the range fails instead
// of saturating or wrapping.
template <typename T>
bool ParseDecimal(std::string_view text, T min, T max, T* out) {
  T value{};
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace mj

#endif  // WASABI_SRC_LANG_DECIMAL_H_
