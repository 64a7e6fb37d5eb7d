#include "perfbench/src/json.h"

#include <cstdlib>

namespace perfbench {

const Json* Json::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

std::string Json::StringOr(std::string_view key, std::string fallback) const {
  const Json* value = Find(key);
  return value != nullptr && value->kind == Kind::kString ? value->string : fallback;
}

double Json::NumberOr(std::string_view key, double fallback) const {
  const Json* value = Find(key);
  return value != nullptr && value->kind == Kind::kNumber ? value->number : fallback;
}

namespace {

// Recursive descent over the input; `depth` bounds nesting so a hostile input
// cannot exhaust the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool ParseDocument(Json* out, std::string* error) {
    bool ok = ParseValue(out, 0);
    SkipSpace();
    if (ok && pos_ != text_.size()) {
      ok = Fail("trailing characters");
    }
    if (!ok) {
      *error = error_ + " at offset " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message;
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("bad literal");
    }
    pos_ += word.size();
    return true;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out, depth);
    }
    if (c == '[') {
      return ParseArray(out, depth);
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return ParseString(&out->string);
    }
    if (c == 't' || c == 'f') {
      out->kind = Json::Kind::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->kind = Json::Kind::kNull;
      return Literal("null");
    }
    return ParseNumber(out);
  }

  bool ParseObject(Json* out, int depth) {
    out->kind = Json::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected an object key");
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      Json value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      out->members.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(Json* out, int depth) {
    out->kind = Json::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json item;
      if (!ParseValue(&item, depth + 1)) {
        return false;
      }
      out->items.push_back(std::move(item));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  static int HexDigit(char c) {
    if (c >= '0' && c <= '9') {
      return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
      return c - 'a' + 10;
    }
    if (c >= 'A' && c <= 'F') {
      return c - 'A' + 10;
    }
    return -1;
  }

  // Appends code point `cp` as UTF-8 (surrogate pairs are not combined; the
  // CLI escapes only control characters).
  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // Opening quote.
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out->push_back(escape);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            int digit = HexDigit(text_[pos_++]);
            if (digit < 0) {
              return Fail("bad \\u escape");
            }
            cp = cp * 16 + static_cast<unsigned>(digit);
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(Json* out) {
    size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (start == pos_) {
      return Fail("unexpected character");
    }
    std::string digits(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->kind = Json::Kind::kNumber;
    out->number = std::strtod(digits.c_str(), &end);
    if (end != digits.c_str() + digits.size()) {
      return Fail("bad number");
    }
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(std::string_view text, Json* out, std::string* error) {
  *out = Json{};
  return Parser(text).ParseDocument(out, error);
}

}  // namespace perfbench
