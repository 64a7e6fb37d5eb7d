// Lexer for mj source text.

#ifndef WASABI_SRC_LANG_LEXER_H_
#define WASABI_SRC_LANG_LEXER_H_

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/lang/diagnostics.h"
#include "src/lang/source.h"
#include "src/lang/token.h"

namespace mj {

// Tokenizes one SourceFile. Comments are preserved in a side list (they are
// analysis input — the paper's keyword filter and LLM both read them). The
// lexer never throws; malformed input produces diagnostics and the lexer
// resynchronizes at the next character.
//
// Lifetime: Token::text views into the SourceFile's text, so the file must
// outlive the returned tokens (the Parser guarantees this by holding the file
// through a shared_ptr for the CompilationUnit's lifetime).
// Token::string_value views into this lexer's decoded-string storage; a caller
// that outlives the lexer must TakeStringStorage() (deque moves preserve
// element addresses, so the views stay valid across the transfer).
//
// Locations: the lexer asks for offsets in increasing order, so it keeps a
// line cursor over the file's line starts and walks it forward instead of
// binary-searching per token. The cursor lives here, not in the SourceFile,
// which is shared and read from worker threads.
class Lexer {
 public:
  Lexer(const SourceFile& file, DiagnosticEngine& diag);

  // Lexes the whole file. The returned vector always ends with kEndOfFile.
  std::vector<Token> LexAll();

  const std::vector<Comment>& comments() const { return comments_; }
  std::vector<Comment> TakeComments() { return std::move(comments_); }

  // Transfers ownership of the decoded string-literal storage backing
  // Token::string_value views.
  std::deque<std::string> TakeStringStorage() { return std::move(string_storage_); }

 private:
  // Each lexes one token into `token`, a default-constructed Token.
  void Next(Token& token);
  void LexIdentifierOrKeyword(Token& token);
  void LexNumber(Token& token);
  void LexString(Token& token);
  void MakeToken(Token& token, TokenKind kind, uint32_t start);
  SourceLocation LocationAt(uint32_t offset);
  void SkipWhitespaceAndComments();

  char Peek(uint32_t lookahead = 0) const;
  char Advance();
  bool Match(char expected);
  bool AtEnd() const { return pos_ >= text_.size(); }

  const SourceFile& file_;
  DiagnosticEngine& diag_;
  std::string_view text_;
  uint32_t pos_ = 0;
  uint32_t line_index_ = 0;  // 0-based line of the last location handed out.
  std::vector<Comment> comments_;
  std::deque<std::string> string_storage_;  // Stable addresses for the views.
};

}  // namespace mj

#endif  // WASABI_SRC_LANG_LEXER_H_
