#include "src/lang/token.h"

namespace mj {

std::string_view TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEndOfFile:
      return "end of file";
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kIntLiteral:
      return "integer literal";
    case TokenKind::kStringLiteral:
      return "string literal";
    case TokenKind::kKwClass:
      return "'class'";
    case TokenKind::kKwExtends:
      return "'extends'";
    case TokenKind::kKwVar:
      return "'var'";
    case TokenKind::kKwIf:
      return "'if'";
    case TokenKind::kKwElse:
      return "'else'";
    case TokenKind::kKwWhile:
      return "'while'";
    case TokenKind::kKwFor:
      return "'for'";
    case TokenKind::kKwSwitch:
      return "'switch'";
    case TokenKind::kKwCase:
      return "'case'";
    case TokenKind::kKwDefault:
      return "'default'";
    case TokenKind::kKwTry:
      return "'try'";
    case TokenKind::kKwCatch:
      return "'catch'";
    case TokenKind::kKwFinally:
      return "'finally'";
    case TokenKind::kKwThrow:
      return "'throw'";
    case TokenKind::kKwThrows:
      return "'throws'";
    case TokenKind::kKwReturn:
      return "'return'";
    case TokenKind::kKwBreak:
      return "'break'";
    case TokenKind::kKwContinue:
      return "'continue'";
    case TokenKind::kKwNew:
      return "'new'";
    case TokenKind::kKwThis:
      return "'this'";
    case TokenKind::kKwNull:
      return "'null'";
    case TokenKind::kKwTrue:
      return "'true'";
    case TokenKind::kKwFalse:
      return "'false'";
    case TokenKind::kKwInstanceof:
      return "'instanceof'";
    case TokenKind::kKwStatic:
      return "'static'";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kLBrace:
      return "'{'";
    case TokenKind::kRBrace:
      return "'}'";
    case TokenKind::kLBracket:
      return "'['";
    case TokenKind::kRBracket:
      return "']'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kSemicolon:
      return "';'";
    case TokenKind::kColon:
      return "':'";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kAssign:
      return "'='";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kMinus:
      return "'-'";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kSlash:
      return "'/'";
    case TokenKind::kPercent:
      return "'%'";
    case TokenKind::kEq:
      return "'=='";
    case TokenKind::kNe:
      return "'!='";
    case TokenKind::kLt:
      return "'<'";
    case TokenKind::kLe:
      return "'<='";
    case TokenKind::kGt:
      return "'>'";
    case TokenKind::kGe:
      return "'>='";
    case TokenKind::kAndAnd:
      return "'&&'";
    case TokenKind::kOrOr:
      return "'||'";
    case TokenKind::kNot:
      return "'!'";
    case TokenKind::kPlusPlus:
      return "'++'";
    case TokenKind::kMinusMinus:
      return "'--'";
    case TokenKind::kPlusAssign:
      return "'+='";
    case TokenKind::kMinusAssign:
      return "'-='";
  }
  return "unknown";
}

TokenKind KeywordKind(std::string_view text) {
  // A switch on the length leaves at most six compares, each of a known
  // length, and hashes nothing.
  constexpr TokenKind kNone = TokenKind::kIdentifier;
  switch (text.size()) {
    case 2:
      return text == "if" ? TokenKind::kKwIf : kNone;
    case 3:
      return text == "var"   ? TokenKind::kKwVar
             : text == "for" ? TokenKind::kKwFor
             : text == "try" ? TokenKind::kKwTry
             : text == "new" ? TokenKind::kKwNew
                             : kNone;
    case 4:
      return text == "else"   ? TokenKind::kKwElse
             : text == "case" ? TokenKind::kKwCase
             : text == "this" ? TokenKind::kKwThis
             : text == "null" ? TokenKind::kKwNull
             : text == "true" ? TokenKind::kKwTrue
                              : kNone;
    case 5:
      return text == "class"   ? TokenKind::kKwClass
             : text == "while" ? TokenKind::kKwWhile
             : text == "catch" ? TokenKind::kKwCatch
             : text == "throw" ? TokenKind::kKwThrow
             : text == "break" ? TokenKind::kKwBreak
             : text == "false" ? TokenKind::kKwFalse
                               : kNone;
    case 6:
      return text == "switch"   ? TokenKind::kKwSwitch
             : text == "throws" ? TokenKind::kKwThrows
             : text == "return" ? TokenKind::kKwReturn
             : text == "static" ? TokenKind::kKwStatic
                                : kNone;
    case 7:
      return text == "extends"   ? TokenKind::kKwExtends
             : text == "default" ? TokenKind::kKwDefault
             : text == "finally" ? TokenKind::kKwFinally
                                 : kNone;
    case 8:
      return text == "continue" ? TokenKind::kKwContinue : kNone;
    case 10:
      return text == "instanceof" ? TokenKind::kKwInstanceof : kNone;
    default:
      return kNone;
  }
}

}  // namespace mj
