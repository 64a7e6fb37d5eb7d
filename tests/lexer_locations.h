// Location check shared by the lexer property tests. The lexer hands out
// locations from a line cursor it walks forward over the file's line starts;
// SourceFile::LocationFor binary-searches the same table and is the reference.

#ifndef WASABI_TESTS_LEXER_LOCATIONS_H_
#define WASABI_TESTS_LEXER_LOCATIONS_H_

#include <string>
#include <vector>

#include "src/lang/diagnostics.h"
#include "src/lang/lexer.h"
#include "src/lang/source.h"

namespace mj {

// One location that differs from the reference, described for a failure
// message; empty when every location matches.
struct LocationMismatch {
  size_t count = 0;
  std::string first;
};

// Lexes `file` and compares the location of every token, every comment and
// every diagnostic with SourceFile::LocationFor of the same offset.
inline LocationMismatch LexedLocationMismatches(const SourceFile& file) {
  DiagnosticEngine diag;
  Lexer lexer(file, diag);
  std::vector<Token> tokens = lexer.LexAll();
  LocationMismatch mismatch;
  auto check = [&](const SourceLocation& got, const char* what) {
    SourceLocation want = file.LocationFor(got.offset);
    if (got.offset == want.offset && got.line == want.line && got.column == want.column) {
      return;
    }
    if (mismatch.count++ == 0) {
      mismatch.first = file.name() + ": " + what + " at offset " +
                       std::to_string(got.offset) + " is " + std::to_string(got.line) + ":" +
                       std::to_string(got.column) + ", LocationFor says " +
                       std::to_string(want.line) + ":" + std::to_string(want.column);
    }
  };
  for (const Token& token : tokens) {
    check(token.location, "token");
  }
  for (const Comment& comment : lexer.comments()) {
    check(comment.location, "comment");
  }
  for (const Diagnostic& diagnostic : diag.diagnostics()) {
    check(diagnostic.location, "diagnostic");
  }
  return mismatch;
}

// `text` with its trailing newline removed, or one added when it has none, so
// a check covers both endings.
inline std::string FlipTrailingNewline(const std::string& text) {
  if (!text.empty() && text.back() == '\n') {
    return text.substr(0, text.size() - 1);
  }
  return text + "\n";
}

// `text` with CRLF line endings.
inline std::string WithCrlf(const std::string& text) {
  std::string crlf;
  crlf.reserve(text.size() + text.size() / 16);
  for (char c : text) {
    if (c == '\n') {
      crlf.push_back('\r');
    }
    crlf.push_back(c);
  }
  return crlf;
}

}  // namespace mj

#endif  // WASABI_TESTS_LEXER_LOCATIONS_H_
