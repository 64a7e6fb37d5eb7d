// Source text management for MiniJava (mj) compilation units.
//
// MiniJava is the Java-like substrate language this repository uses in place of
// the Java subject systems studied by the WASABI paper (SOSP'24). A SourceFile
// owns the raw text of one compilation unit; SourceLocation values index into
// it and can be rendered as "file:line:col" for diagnostics and bug reports.

#ifndef WASABI_SRC_LANG_SOURCE_H_
#define WASABI_SRC_LANG_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mj {

// A position inside a source file. Offsets are byte offsets; line and column
// are 1-based and derived lazily by SourceFile.
struct SourceLocation {
  uint32_t offset = 0;
  uint32_t line = 0;    // 1-based; 0 means "unknown".
  uint32_t column = 0;  // 1-based; 0 means "unknown".

  bool IsValid() const { return line != 0; }
};

// One mj source file: a name (used in reports, e.g. "hbase/UnassignProcedure.mj")
// and its full text. Line offsets are precomputed so location lookups are
// O(log #lines).
class SourceFile {
 public:
  SourceFile(std::string name, std::string text);

  const std::string& name() const { return name_; }
  std::string_view text() const { return text_; }

  // Total number of lines (a trailing newline does not start a new line).
  uint32_t line_count() const;

  // Builds a full SourceLocation (line/column) for a byte offset. Offsets past
  // the end of the file are clamped to the last position.
  SourceLocation LocationFor(uint32_t offset) const;

  // Returns the text of a 1-based line without its trailing newline.
  std::string_view LineText(uint32_t line) const;

  // Byte offset of the start of each line, ascending; never empty.
  const std::vector<uint32_t>& line_offsets() const { return line_offsets_; }

 private:
  std::string name_;
  std::string text_;
  std::vector<uint32_t> line_offsets_;  // Byte offset of the start of each line.
};

// Renders "name:line:col" for report output.
std::string FormatLocation(const SourceFile& file, const SourceLocation& loc);

}  // namespace mj

#endif  // WASABI_SRC_LANG_SOURCE_H_
