// Token definitions for the mj lexer.

#ifndef WASABI_SRC_LANG_TOKEN_H_
#define WASABI_SRC_LANG_TOKEN_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/lang/source.h"

namespace mj {

enum class TokenKind : uint8_t {
  kEndOfFile,

  // Literals and names.
  kIdentifier,
  kIntLiteral,
  kStringLiteral,

  // Keywords.
  kKwClass,
  kKwExtends,
  kKwVar,
  kKwIf,
  kKwElse,
  kKwWhile,
  kKwFor,
  kKwSwitch,
  kKwCase,
  kKwDefault,
  kKwTry,
  kKwCatch,
  kKwFinally,
  kKwThrow,
  kKwThrows,
  kKwReturn,
  kKwBreak,
  kKwContinue,
  kKwNew,
  kKwThis,
  kKwNull,
  kKwTrue,
  kKwFalse,
  kKwInstanceof,
  kKwStatic,

  // Punctuation and operators.
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kComma,
  kSemicolon,
  kColon,
  kDot,
  kAssign,        // =
  kPlus,          // +
  kMinus,         // -
  kStar,          // *
  kSlash,         // /
  kPercent,       // %
  kEq,            // ==
  kNe,            // !=
  kLt,            // <
  kLe,            // <=
  kGt,            // >
  kGe,            // >=
  kAndAnd,        // &&
  kOrOr,          // ||
  kNot,           // !
  kPlusPlus,      // ++
  kMinusMinus,    // --
  kPlusAssign,    // +=
  kMinusAssign,   // -=
};

// Human-readable token kind name, e.g. "identifier" or "'=='".
std::string_view TokenKindName(TokenKind kind);

// Maps identifier text to a keyword kind, or kIdentifier if not a keyword.
TokenKind KeywordKind(std::string_view text);

struct Token {
  TokenKind kind = TokenKind::kEndOfFile;
  SourceLocation location;
  std::string_view text;   // Lexeme as it appears in the source.
  int64_t int_value = 0;   // Valid when kind == kIntLiteral.
  // Decoded value when kind == kStringLiteral. A view into the lexer's decoded
  // string storage (Lexer::TakeStringStorage transfers ownership), so tokens
  // stay trivially copyable and carry no per-token allocation.
  std::string_view string_value;

  bool is(TokenKind k) const { return kind == k; }
};

// A comment retained from the source. The WASABI paper's static techniques use
// comments as evidence of retry intent, so the lexer keeps them instead of
// discarding them.
struct Comment {
  SourceLocation location;
  std::string text;   // Without the // or /* */ markers, trimmed.
  bool is_block = false;
};

}  // namespace mj

#endif  // WASABI_SRC_LANG_TOKEN_H_
