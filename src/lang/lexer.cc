#include "src/lang/lexer.h"

#include <cstdlib>
#include <string>

namespace mj {

namespace {

// ASCII character classes. Nothing sets a locale, so these are exactly the
// "C" locale's std::isdigit/isalpha/isalnum/isspace without the calls.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsAlpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }

bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsIdentStart(char c) { return IsAlpha(c) || c == '_'; }

bool IsIdentCont(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }

std::string TrimCopy(std::string_view view) {
  size_t begin = 0;
  size_t end = view.size();
  while (begin < end && IsSpace(view[begin])) {
    ++begin;
  }
  while (end > begin && IsSpace(view[end - 1])) {
    --end;
  }
  return std::string(view.substr(begin, end - begin));
}

}  // namespace

Lexer::Lexer(const SourceFile& file, DiagnosticEngine& diag)
    : file_(file), diag_(diag), text_(file.text()) {}

std::vector<Token> Lexer::LexAll() {
  std::vector<Token> tokens;
  // The corpus averages about five bytes per token; one guess saves most of
  // the regrowth copies.
  tokens.reserve(text_.size() / 4 + 1);
  // Each token is lexed in place: a copy of a just-written Token stalls on
  // store forwarding.
  do {
    Next(tokens.emplace_back());
  } while (!tokens.back().is(TokenKind::kEndOfFile));
  return tokens;
}

char Lexer::Peek(uint32_t lookahead) const {
  uint64_t index = static_cast<uint64_t>(pos_) + lookahead;
  return index < text_.size() ? text_[index] : '\0';
}

char Lexer::Advance() {
  return text_[pos_++];
}

bool Lexer::Match(char expected) {
  if (AtEnd() || text_[pos_] != expected) {
    return false;
  }
  ++pos_;
  return true;
}

void Lexer::SkipWhitespaceAndComments() {
  while (!AtEnd()) {
    char c = Peek();
    if (IsSpace(c)) {
      ++pos_;
      continue;
    }
    if (c == '/' && Peek(1) == '/') {
      uint32_t start = pos_;
      pos_ += 2;
      uint32_t text_start = pos_;
      while (!AtEnd() && Peek() != '\n') {
        ++pos_;
      }
      Comment comment;
      comment.location = LocationAt(start);
      comment.text = TrimCopy(text_.substr(text_start, pos_ - text_start));
      comment.is_block = false;
      comments_.push_back(std::move(comment));
      continue;
    }
    if (c == '/' && Peek(1) == '*') {
      uint32_t start = pos_;
      pos_ += 2;
      uint32_t text_start = pos_;
      while (!AtEnd() && !(Peek() == '*' && Peek(1) == '/')) {
        ++pos_;
      }
      uint32_t text_end = pos_;
      if (AtEnd()) {
        diag_.Error(LocationAt(start), "unterminated block comment");
      } else {
        pos_ += 2;
      }
      Comment comment;
      comment.location = LocationAt(start);
      comment.text = TrimCopy(text_.substr(text_start, text_end - text_start));
      comment.is_block = true;
      comments_.push_back(std::move(comment));
      continue;
    }
    break;
  }
}

// Same result as SourceFile::LocationFor, including its rule that a trailing
// newline does not start a line. Inline, so the location is built in place:
// returned out of line, GCC packs it through the stack and stalls the load.
inline SourceLocation Lexer::LocationAt(uint32_t offset) {
  const std::vector<uint32_t>& lines = file_.line_offsets();
  if (offset < lines[line_index_]) {
    return file_.LocationFor(offset);
  }
  while (line_index_ + 1 < lines.size() && lines[line_index_ + 1] <= offset) {
    ++line_index_;
  }
  SourceLocation loc;
  loc.offset = offset;
  loc.line = line_index_ + 1;
  loc.column = offset - lines[line_index_] + 1;
  return loc;
}

void Lexer::MakeToken(Token& token, TokenKind kind, uint32_t start) {
  token.kind = kind;
  token.location = LocationAt(start);
  token.text = text_.substr(start, pos_ - start);
}

void Lexer::LexIdentifierOrKeyword(Token& token) {
  uint32_t start = pos_;
  while (!AtEnd() && IsIdentCont(Peek())) {
    ++pos_;
  }
  MakeToken(token, KeywordKind(text_.substr(start, pos_ - start)), start);
}

void Lexer::LexNumber(Token& token) {
  uint32_t start = pos_;
  while (!AtEnd() && IsDigit(Peek())) {
    ++pos_;
  }
  // Optional suffix 'L' for long literals, accepted and ignored.
  if (!AtEnd() && (Peek() == 'L' || Peek() == 'l')) {
    ++pos_;
  }
  MakeToken(token, TokenKind::kIntLiteral, start);
  std::string digits(token.text);
  if (!digits.empty() && (digits.back() == 'L' || digits.back() == 'l')) {
    digits.pop_back();
  }
  token.int_value = std::strtoll(digits.c_str(), nullptr, 10);
}

void Lexer::LexString(Token& token) {
  uint32_t start = pos_;
  ++pos_;  // Opening quote.
  std::string value;
  while (!AtEnd() && Peek() != '"') {
    char c = Advance();
    if (c == '\\' && !AtEnd()) {
      char escaped = Advance();
      switch (escaped) {
        case 'n':
          value.push_back('\n');
          break;
        case 't':
          value.push_back('\t');
          break;
        case '\\':
          value.push_back('\\');
          break;
        case '"':
          value.push_back('"');
          break;
        default:
          value.push_back(escaped);
          break;
      }
      continue;
    }
    if (c == '\n') {
      diag_.Error(LocationAt(start), "unterminated string literal");
      MakeToken(token, TokenKind::kStringLiteral, start);
      token.string_value = string_storage_.emplace_back(std::move(value));
      return;
    }
    value.push_back(c);
  }
  if (AtEnd()) {
    diag_.Error(LocationAt(start), "unterminated string literal");
  } else {
    ++pos_;  // Closing quote.
  }
  MakeToken(token, TokenKind::kStringLiteral, start);
  token.string_value = string_storage_.emplace_back(std::move(value));
}

void Lexer::Next(Token& token) {
  SkipWhitespaceAndComments();
  if (AtEnd()) {
    return MakeToken(token, TokenKind::kEndOfFile, pos_);
  }
  uint32_t start = pos_;
  char c = Peek();
  if (IsIdentStart(c)) {
    return LexIdentifierOrKeyword(token);
  }
  if (IsDigit(c)) {
    return LexNumber(token);
  }
  if (c == '"') {
    return LexString(token);
  }
  ++pos_;
  switch (c) {
    case '(':
      return MakeToken(token, TokenKind::kLParen, start);
    case ')':
      return MakeToken(token, TokenKind::kRParen, start);
    case '{':
      return MakeToken(token, TokenKind::kLBrace, start);
    case '}':
      return MakeToken(token, TokenKind::kRBrace, start);
    case '[':
      return MakeToken(token, TokenKind::kLBracket, start);
    case ']':
      return MakeToken(token, TokenKind::kRBracket, start);
    case ',':
      return MakeToken(token, TokenKind::kComma, start);
    case ';':
      return MakeToken(token, TokenKind::kSemicolon, start);
    case ':':
      return MakeToken(token, TokenKind::kColon, start);
    case '.':
      return MakeToken(token, TokenKind::kDot, start);
    case '+':
      if (Match('+')) {
        return MakeToken(token, TokenKind::kPlusPlus, start);
      }
      if (Match('=')) {
        return MakeToken(token, TokenKind::kPlusAssign, start);
      }
      return MakeToken(token, TokenKind::kPlus, start);
    case '-':
      if (Match('-')) {
        return MakeToken(token, TokenKind::kMinusMinus, start);
      }
      if (Match('=')) {
        return MakeToken(token, TokenKind::kMinusAssign, start);
      }
      return MakeToken(token, TokenKind::kMinus, start);
    case '*':
      return MakeToken(token, TokenKind::kStar, start);
    case '/':
      return MakeToken(token, TokenKind::kSlash, start);
    case '%':
      return MakeToken(token, TokenKind::kPercent, start);
    case '=':
      return MakeToken(token, Match('=') ? TokenKind::kEq : TokenKind::kAssign, start);
    case '!':
      return MakeToken(token, Match('=') ? TokenKind::kNe : TokenKind::kNot, start);
    case '<':
      return MakeToken(token, Match('=') ? TokenKind::kLe : TokenKind::kLt, start);
    case '>':
      return MakeToken(token, Match('=') ? TokenKind::kGe : TokenKind::kGt, start);
    case '&':
      if (Match('&')) {
        return MakeToken(token, TokenKind::kAndAnd, start);
      }
      diag_.Error(LocationAt(start), "unexpected character '&'");
      return Next(token);
    case '|':
      if (Match('|')) {
        return MakeToken(token, TokenKind::kOrOr, start);
      }
      diag_.Error(LocationAt(start), "unexpected character '|'");
      return Next(token);
    default:
      diag_.Error(LocationAt(start),
                  std::string("unexpected character '") + c + "'");
      return Next(token);
  }
}

}  // namespace mj
