// Recursive-descent parser for mj.

#ifndef WASABI_SRC_LANG_PARSER_H_
#define WASABI_SRC_LANG_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/diagnostics.h"
#include "src/lang/lexer.h"
#include "src/lang/token.h"

namespace mj {

// Parses one mj source file into a CompilationUnit. On syntax errors the
// parser reports a diagnostic and synchronizes at the next statement/member
// boundary, so a single pass reports multiple errors. Callers should treat the
// returned unit as unusable when `diag.has_errors()`.
class Parser {
 public:
  Parser(std::shared_ptr<const SourceFile> file, DiagnosticEngine& diag);

  std::unique_ptr<CompilationUnit> ParseUnit();

 private:
  // Token cursor helpers. The cursor never moves past the final kEndOfFile
  // token, so it always indexes a token.
  const Token& Current() const { return tokens_[pos_]; }
  // Returns the consumed token; it stays valid for the parser's lifetime.
  const Token& Advance();
  bool Check(TokenKind kind) const { return Current().kind == kind; }
  bool Match(TokenKind kind);
  // Consumes a `kind` token, or reports a diagnostic and returns a
  // synthesized one, which the next mismatch overwrites.
  const Token& Expect(TokenKind kind, const char* context);
  bool AtEnd() const { return Current().kind == TokenKind::kEndOfFile; }
  void SynchronizeStmt();
  void SynchronizeMember();

  // Declarations.
  ClassDecl* ParseClass();
  void ParseMember(ClassDecl* cls);

  // Statements.
  Stmt* ParseStmt();
  Stmt* ParseStmtImpl();
  BlockStmt* ParseBlock();
  Stmt* ParseVarDecl();
  Stmt* ParseIf();
  Stmt* ParseWhile();
  Stmt* ParseFor();
  Stmt* ParseSwitch();
  Stmt* ParseTry();
  Stmt* ParseThrow();
  Stmt* ParseReturn();
  // An assignment, increment, or expression statement; used both as a normal
  // statement (with trailing ';') and as a for-clause (without).
  Stmt* ParseSimpleStmt(bool consume_semicolon);

  // Expressions. ParseBinary climbs the six binary precedence levels.
  Expr* ParseExpr();
  Expr* ParseBinary(int min_precedence);
  Expr* ParseUnary();
  Expr* ParsePostfix();
  Expr* ParsePrimary();
  std::vector<Expr*> ParseArgs();

  // Recursion-depth containment: analyzed input is untrusted, so
  // pathologically nested expressions/statements must produce a diagnostic
  // instead of overflowing the host stack (docs/ROBUSTNESS.md). The limits
  // leave generous headroom over anything the corpus or a human writes.
  static constexpr int kMaxExprDepth = 500;
  static constexpr int kMaxStmtDepth = 400;
  bool ExprDepthExceeded();
  void ReportDepthExceeded();

  std::shared_ptr<const SourceFile> file_;
  DiagnosticEngine& diag_;
  std::unique_ptr<CompilationUnit> unit_;
  // Owns the decoded-string storage that Token::string_value views into, so
  // it lives as long as tokens_.
  Lexer lexer_;
  std::vector<Token> tokens_;
  Token synthesized_;  // What a failed Expect returns.
  size_t pos_ = 0;
  int expr_depth_ = 0;
  int stmt_depth_ = 0;
  bool depth_error_reported_ = false;
};

// Convenience: lex + parse `text` as file `name`, reporting into `diag`.
std::unique_ptr<CompilationUnit> ParseSource(std::string name, std::string text,
                                             DiagnosticEngine& diag);

}  // namespace mj

#endif  // WASABI_SRC_LANG_PARSER_H_
