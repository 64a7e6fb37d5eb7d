#include "src/lang/source.h"

#include <algorithm>
#include <cassert>

namespace mj {

SourceFile::SourceFile(std::string name, std::string text)
    : name_(std::move(name)), text_(std::move(text)) {
  line_offsets_.push_back(0);
  // find() is memchr, which scans many bytes per step.
  for (size_t i = text_.find('\n'); i != std::string::npos; i = text_.find('\n', i + 1)) {
    if (i + 1 < text_.size()) {
      line_offsets_.push_back(static_cast<uint32_t>(i + 1));
    }
  }
}

uint32_t SourceFile::line_count() const {
  return static_cast<uint32_t>(line_offsets_.size());
}

SourceLocation SourceFile::LocationFor(uint32_t offset) const {
  offset = std::min<uint32_t>(offset, static_cast<uint32_t>(text_.size()));
  auto it = std::upper_bound(line_offsets_.begin(), line_offsets_.end(), offset);
  assert(it != line_offsets_.begin());
  uint32_t line_index = static_cast<uint32_t>(it - line_offsets_.begin() - 1);
  SourceLocation loc;
  loc.offset = offset;
  loc.line = line_index + 1;
  loc.column = offset - line_offsets_[line_index] + 1;
  return loc;
}

std::string_view SourceFile::LineText(uint32_t line) const {
  if (line == 0 || line > line_count()) {
    return {};
  }
  uint32_t start = line_offsets_[line - 1];
  uint32_t end = line < line_count() ? line_offsets_[line] : static_cast<uint32_t>(text_.size());
  std::string_view view(text_);
  view = view.substr(start, end - start);
  while (!view.empty() && (view.back() == '\n' || view.back() == '\r')) {
    view.remove_suffix(1);
  }
  return view;
}

std::string FormatLocation(const SourceFile& file, const SourceLocation& loc) {
  return file.name() + ":" + std::to_string(loc.line) + ":" + std::to_string(loc.column);
}

}  // namespace mj
