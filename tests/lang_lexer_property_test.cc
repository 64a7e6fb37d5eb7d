// Property tests for the lexer's fast paths: the forward line cursor that
// gives every token, comment and diagnostic its location, the switch-based
// keyword table, and the ASCII character classes. Locations are checked
// against SourceFile::LocationFor on every unit of the corpus apps and the
// labs, with and without the trailing newline and with CRLF line endings;
// the seeded fuzz programs get the same check in lang_fuzz_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/lang/diagnostics.h"
#include "src/lang/lexer.h"
#include "src/lang/source.h"
#include "src/lang/token.h"
#include "tests/lexer_locations.h"

namespace mj {
namespace {

TEST(LexerPropertyTest, LocationsMatchSourceFileOnEveryCorpusAndLabUnit) {
  std::vector<std::string> apps = wasabi::CorpusAppNames();
  apps.insert(apps.end(), {"flakylab", "stormlab", "repairlab"});
  size_t units = 0;
  size_t comments = 0;
  for (const std::string& name : apps) {
    wasabi::CorpusApp app = wasabi::BuildCorpusApp(name);
    for (const auto& unit : app.program.units()) {
      ++units;
      comments += unit->comments().size();
      const std::string text(unit->file().text());
      const std::string flipped = FlipTrailingNewline(text);
      for (const std::string& variant : {text, flipped, WithCrlf(text), WithCrlf(flipped)}) {
        SourceFile file(unit->file().name(), variant);
        LocationMismatch mismatch = LexedLocationMismatches(file);
        ASSERT_EQ(mismatch.count, 0u) << name << ": " << mismatch.first;
      }
    }
  }
  // Non-vacuous: the corpus has many units, and comments among them.
  EXPECT_GT(units, 300u);
  EXPECT_GT(comments, 0u);
}

TEST(LexerPropertyTest, LocationsMatchSourceFileOnEdgeCases) {
  const std::vector<std::string> texts = {
      "",
      "\n",
      "\n\n",
      "a",
      "a\n",
      "a\n\n",
      "\r\n",
      "a\r\nb\r\n",
      "// only a comment",
      "// only a comment\n",
      "x /* spans\n two lines */ y\n",
      "/* never closed\n",
      "\"never closed",
      "\"broken\nline\" z",
      "a @ b\n# c\n",
      "class A {\n  void f() {\n    return;\n  }\n}\n",
  };
  for (const std::string& text : texts) {
    SourceFile file("edge.mj", text);
    LocationMismatch mismatch = LexedLocationMismatches(file);
    EXPECT_EQ(mismatch.count, 0u) << mismatch.first;
  }
}

TEST(LexerPropertyTest, KeywordKindMapsEveryKeywordAndNoNearMiss) {
  const std::vector<std::pair<std::string_view, TokenKind>> keywords = {
      {"class", TokenKind::kKwClass},       {"extends", TokenKind::kKwExtends},
      {"var", TokenKind::kKwVar},           {"if", TokenKind::kKwIf},
      {"else", TokenKind::kKwElse},         {"while", TokenKind::kKwWhile},
      {"for", TokenKind::kKwFor},           {"switch", TokenKind::kKwSwitch},
      {"case", TokenKind::kKwCase},         {"default", TokenKind::kKwDefault},
      {"try", TokenKind::kKwTry},           {"catch", TokenKind::kKwCatch},
      {"finally", TokenKind::kKwFinally},   {"throw", TokenKind::kKwThrow},
      {"throws", TokenKind::kKwThrows},     {"return", TokenKind::kKwReturn},
      {"break", TokenKind::kKwBreak},       {"continue", TokenKind::kKwContinue},
      {"new", TokenKind::kKwNew},           {"this", TokenKind::kKwThis},
      {"null", TokenKind::kKwNull},         {"true", TokenKind::kKwTrue},
      {"false", TokenKind::kKwFalse},       {"instanceof", TokenKind::kKwInstanceof},
      {"static", TokenKind::kKwStatic},
  };
  ASSERT_EQ(keywords.size(), 25u);
  for (const auto& [text, kind] : keywords) {
    EXPECT_EQ(KeywordKind(text), kind) << text;
  }
  // Every keyword kind in the enum is reachable from its own spelling.
  for (int k = static_cast<int>(TokenKind::kKwClass); k <= static_cast<int>(TokenKind::kKwStatic);
       ++k) {
    const TokenKind kind = static_cast<TokenKind>(k);
    std::string_view quoted = TokenKindName(kind);  // e.g. "'class'"
    EXPECT_EQ(KeywordKind(quoted.substr(1, quoted.size() - 2)), kind) << quoted;
  }
  for (std::string_view near_miss : {"Class", "classes", "in", "instanceOf", "_if", "", "i",
                                     "clas", "iff", "STATIC", "continues", "instanceof_"}) {
    EXPECT_EQ(KeywordKind(near_miss), TokenKind::kIdentifier) << near_miss;
  }
}

// Lexes `text` and returns its token kinds; `diag` collects the diagnostics.
std::vector<TokenKind> KindsOf(const std::string& text, DiagnosticEngine& diag) {
  SourceFile file("classes.mj", text);
  Lexer lexer(file, diag);
  std::vector<TokenKind> kinds;
  for (const Token& token : lexer.LexAll()) {
    kinds.push_back(token.kind);
  }
  return kinds;
}

TEST(LexerPropertyTest, CharacterClassesAreTheCLocalesAscii) {
  // Whitespace is space plus \t through \r, as std::isspace in the "C" locale.
  DiagnosticEngine spaces;
  EXPECT_EQ(KindsOf("a\t\n\v\f\r b", spaces),
            (std::vector<TokenKind>{TokenKind::kIdentifier, TokenKind::kIdentifier,
                                    TokenKind::kEndOfFile}));
  EXPECT_FALSE(spaces.has_errors());

  // Letters and digits are ASCII only: a UTF-8 letter is two unexpected
  // characters between two identifiers.
  DiagnosticEngine utf8;
  EXPECT_EQ(KindsOf("a\xC3\xA9z", utf8),
            (std::vector<TokenKind>{TokenKind::kIdentifier, TokenKind::kIdentifier,
                                    TokenKind::kEndOfFile}));
  EXPECT_EQ(utf8.error_count(), 2u);

  // Digits end a number and continue an identifier; '_' starts one.
  DiagnosticEngine mixed;
  EXPECT_EQ(KindsOf("12ab _x9 Z_", mixed),
            (std::vector<TokenKind>{TokenKind::kIntLiteral, TokenKind::kIdentifier,
                                    TokenKind::kIdentifier, TokenKind::kIdentifier,
                                    TokenKind::kEndOfFile}));
  EXPECT_FALSE(mixed.has_errors());
}

}  // namespace
}  // namespace mj
