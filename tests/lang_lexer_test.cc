// Unit tests for the mj lexer.

#include "src/lang/lexer.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/diagnostics.h"
#include "src/lang/source.h"
#include "src/lang/token.h"

namespace mj {
namespace {

// Token::text views into the SourceFile and Token::string_value into the
// lexer's decoded-string storage, so the fixture keeps both alive for the
// duration of each test (the storage the way Parser does).
class LexFixture {
 public:
  std::vector<Token> Lex(const std::string& text, DiagnosticEngine& diag,
                         std::vector<Comment>* comments = nullptr) {
    file_ = std::make_unique<SourceFile>("test.mj", text);
    Lexer lexer(*file_, diag);
    std::vector<Token> tokens = lexer.LexAll();
    if (comments != nullptr) {
      *comments = lexer.comments();
    }
    strings_ = lexer.TakeStringStorage();
    return tokens;
  }

 private:
  std::unique_ptr<SourceFile> file_;
  std::deque<std::string> strings_;
};

std::vector<Token> Lex(const std::string& text, DiagnosticEngine& diag,
                       std::vector<Comment>* comments = nullptr) {
  static LexFixture* fixture = new LexFixture();
  return fixture->Lex(text, diag, comments);
}

std::vector<TokenKind> Kinds(const std::vector<Token>& tokens) {
  std::vector<TokenKind> kinds;
  for (const Token& token : tokens) {
    kinds.push_back(token.kind);
  }
  return kinds;
}

TEST(LexerTest, EmptyInputYieldsEof) {
  DiagnosticEngine diag;
  auto tokens = Lex("", diag);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEndOfFile);
  EXPECT_FALSE(diag.has_errors());
}

TEST(LexerTest, Keywords) {
  DiagnosticEngine diag;
  auto tokens = Lex("class extends var if else while for try catch finally throw throws", diag);
  std::vector<TokenKind> expected = {
      TokenKind::kKwClass,   TokenKind::kKwExtends, TokenKind::kKwVar,
      TokenKind::kKwIf,      TokenKind::kKwElse,    TokenKind::kKwWhile,
      TokenKind::kKwFor,     TokenKind::kKwTry,     TokenKind::kKwCatch,
      TokenKind::kKwFinally, TokenKind::kKwThrow,   TokenKind::kKwThrows,
      TokenKind::kEndOfFile,
  };
  EXPECT_EQ(Kinds(tokens), expected);
}

TEST(LexerTest, IdentifiersAreNotKeywords) {
  DiagnosticEngine diag;
  auto tokens = Lex("retry retries classify whileTrue", diag);
  ASSERT_EQ(tokens.size(), 5u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tokens[i].kind, TokenKind::kIdentifier) << "token " << i;
  }
  EXPECT_EQ(tokens[0].text, "retry");
  EXPECT_EQ(tokens[3].text, "whileTrue");
}

TEST(LexerTest, IntLiterals) {
  DiagnosticEngine diag;
  auto tokens = Lex("0 42 1000L", diag);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].int_value, 0);
  EXPECT_EQ(tokens[1].int_value, 42);
  EXPECT_EQ(tokens[2].int_value, 1000);
  EXPECT_FALSE(diag.has_errors());
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  DiagnosticEngine diag;
  auto tokens = Lex(R"("hello" "a\nb" "q\"q" "tab\there")", diag);
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].string_value, "hello");
  EXPECT_EQ(tokens[1].string_value, "a\nb");
  EXPECT_EQ(tokens[2].string_value, "q\"q");
  EXPECT_EQ(tokens[3].string_value, "tab\there");
  EXPECT_FALSE(diag.has_errors());
}

TEST(LexerTest, UnterminatedStringReportsError) {
  DiagnosticEngine diag;
  Lex("\"oops", diag);
  EXPECT_TRUE(diag.has_errors());
}

TEST(LexerTest, OperatorsSingleAndDouble) {
  DiagnosticEngine diag;
  auto tokens = Lex("= == != < <= > >= && || ! + ++ += - -- -=", diag);
  std::vector<TokenKind> expected = {
      TokenKind::kAssign, TokenKind::kEq,        TokenKind::kNe,
      TokenKind::kLt,     TokenKind::kLe,        TokenKind::kGt,
      TokenKind::kGe,     TokenKind::kAndAnd,    TokenKind::kOrOr,
      TokenKind::kNot,    TokenKind::kPlus,      TokenKind::kPlusPlus,
      TokenKind::kPlusAssign, TokenKind::kMinus, TokenKind::kMinusMinus,
      TokenKind::kMinusAssign, TokenKind::kEndOfFile,
  };
  EXPECT_EQ(Kinds(tokens), expected);
}

TEST(LexerTest, LineCommentsAreRetained) {
  DiagnosticEngine diag;
  std::vector<Comment> comments;
  Lex("var x = 1; // retry until the broker responds\nvar y = 2;", diag, &comments);
  ASSERT_EQ(comments.size(), 1u);
  EXPECT_EQ(comments[0].text, "retry until the broker responds");
  EXPECT_FALSE(comments[0].is_block);
  EXPECT_EQ(comments[0].location.line, 1u);
}

TEST(LexerTest, BlockCommentsAreRetained) {
  DiagnosticEngine diag;
  std::vector<Comment> comments;
  Lex("/* resubmit the task\n   on transient failure */ var x = 1;", diag, &comments);
  ASSERT_EQ(comments.size(), 1u);
  EXPECT_TRUE(comments[0].is_block);
  EXPECT_NE(comments[0].text.find("resubmit"), std::string::npos);
}

TEST(LexerTest, UnterminatedBlockCommentReportsError) {
  DiagnosticEngine diag;
  Lex("/* never closed", diag);
  EXPECT_TRUE(diag.has_errors());
}

TEST(LexerTest, UnexpectedCharacterRecovers) {
  DiagnosticEngine diag;
  auto tokens = Lex("a @ b", diag);
  EXPECT_TRUE(diag.has_errors());
  // '@' is skipped; both identifiers still lexed.
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, LocationsAreOneBased) {
  DiagnosticEngine diag;
  auto tokens = Lex("a\n  b", diag);
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].location.line, 1u);
  EXPECT_EQ(tokens[0].location.column, 1u);
  EXPECT_EQ(tokens[1].location.line, 2u);
  EXPECT_EQ(tokens[1].location.column, 3u);
}

TEST(SourceFileTest, LineTextAndLineCount) {
  SourceFile file("f.mj", "line one\nline two\nline three");
  EXPECT_EQ(file.line_count(), 3u);
  EXPECT_EQ(file.LineText(2), "line two");
  EXPECT_EQ(file.LineText(3), "line three");
  EXPECT_EQ(file.LineText(0), "");
  EXPECT_EQ(file.LineText(4), "");
}

TEST(SourceFileTest, LocationForClampsPastEnd) {
  SourceFile file("f.mj", "ab\ncd");
  SourceLocation loc = file.LocationFor(100);
  EXPECT_EQ(loc.line, 2u);
}

}  // namespace
}  // namespace mj
