#include "src/lang/parser.h"

#include <sstream>

namespace mj {

namespace {

// How tightly a binary operator token binds (`instanceof` sits with the
// relational operators); 0 for a token that ends a binary expression.
int BinaryPrecedence(TokenKind kind) {
  switch (kind) {
    case TokenKind::kOrOr:
      return 1;
    case TokenKind::kAndAnd:
      return 2;
    case TokenKind::kEq:
    case TokenKind::kNe:
      return 3;
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:
    case TokenKind::kKwInstanceof:
      return 4;
    case TokenKind::kPlus:
    case TokenKind::kMinus:
      return 5;
    case TokenKind::kStar:
    case TokenKind::kSlash:
    case TokenKind::kPercent:
      return 6;
    default:
      return 0;
  }
}

// The operator of a token BinaryPrecedence ranks, other than `instanceof`.
BinaryOp BinaryOpFor(TokenKind kind) {
  switch (kind) {
    case TokenKind::kOrOr:
      return BinaryOp::kOr;
    case TokenKind::kAndAnd:
      return BinaryOp::kAnd;
    case TokenKind::kEq:
      return BinaryOp::kEq;
    case TokenKind::kNe:
      return BinaryOp::kNe;
    case TokenKind::kLt:
      return BinaryOp::kLt;
    case TokenKind::kLe:
      return BinaryOp::kLe;
    case TokenKind::kGt:
      return BinaryOp::kGt;
    case TokenKind::kGe:
      return BinaryOp::kGe;
    case TokenKind::kPlus:
      return BinaryOp::kAdd;
    case TokenKind::kMinus:
      return BinaryOp::kSub;
    case TokenKind::kStar:
      return BinaryOp::kMul;
    case TokenKind::kSlash:
      return BinaryOp::kDiv;
    case TokenKind::kPercent:
    default:
      return BinaryOp::kMod;
  }
}

}  // namespace

Parser::Parser(std::shared_ptr<const SourceFile> file, DiagnosticEngine& diag)
    : file_(std::move(file)), diag_(diag), lexer_(*file_, diag_) {}

std::unique_ptr<CompilationUnit> Parser::ParseUnit() {
  unit_ = std::make_unique<CompilationUnit>(file_);
  tokens_ = lexer_.LexAll();
  // The corpus has about one node per two tokens.
  unit_->ReserveNodes(tokens_.size() / 2 + 1);
  unit_->comments() = lexer_.TakeComments();
  pos_ = 0;

  while (!AtEnd()) {
    if (Check(TokenKind::kKwClass)) {
      ClassDecl* cls = ParseClass();
      if (cls != nullptr) {
        unit_->classes().push_back(cls);
      }
    } else {
      diag_.Error(Current().location, "expected 'class' at top level, got " +
                                          std::string(TokenKindName(Current().kind)));
      Advance();
    }
  }
  return std::move(unit_);
}

// --------------------------------------------------------------------------
// Token helpers
// --------------------------------------------------------------------------

const Token& Parser::Advance() {
  const Token& token = Current();
  if (!token.is(TokenKind::kEndOfFile)) {
    ++pos_;
  }
  return token;
}

bool Parser::Match(TokenKind kind) {
  if (Check(kind)) {
    Advance();
    return true;
  }
  return false;
}

const Token& Parser::Expect(TokenKind kind, const char* context) {
  if (Check(kind)) {
    return Advance();
  }
  std::ostringstream msg;
  msg << "expected " << TokenKindName(kind) << " " << context << ", got "
      << TokenKindName(Current().kind);
  diag_.Error(Current().location, msg.str());
  // Return a synthesized token so callers can continue.
  synthesized_ = Token();
  synthesized_.kind = kind;
  synthesized_.location = Current().location;
  return synthesized_;
}

void Parser::SynchronizeStmt() {
  while (!AtEnd()) {
    if (Match(TokenKind::kSemicolon)) {
      return;
    }
    if (Check(TokenKind::kRBrace)) {
      return;
    }
    Advance();
  }
}

void Parser::SynchronizeMember() {
  int depth = 0;
  while (!AtEnd()) {
    if (Check(TokenKind::kLBrace)) {
      ++depth;
    } else if (Check(TokenKind::kRBrace)) {
      if (depth == 0) {
        return;
      }
      --depth;
    } else if (depth == 0 && Check(TokenKind::kSemicolon)) {
      Advance();
      return;
    }
    Advance();
  }
}

// --------------------------------------------------------------------------
// Declarations
// --------------------------------------------------------------------------

ClassDecl* Parser::ParseClass() {
  const Token& class_kw = Expect(TokenKind::kKwClass, "to start a class");
  const Token& name = Expect(TokenKind::kIdentifier, "after 'class'");
  ClassDecl* cls = unit_->Create<ClassDecl>(class_kw.location);
  cls->name = std::string(name.text);
  if (Match(TokenKind::kKwExtends)) {
    const Token& base = Expect(TokenKind::kIdentifier, "after 'extends'");
    cls->base_name = std::string(base.text);
  }
  Expect(TokenKind::kLBrace, "to open the class body");
  while (!Check(TokenKind::kRBrace) && !AtEnd()) {
    ParseMember(cls);
  }
  Expect(TokenKind::kRBrace, "to close the class body");
  return cls;
}

void Parser::ParseMember(ClassDecl* cls) {
  bool is_static = Match(TokenKind::kKwStatic);

  // Members start with a type name (an identifier such as `void`, `int`,
  // `HttpResponse`, ...) or `var`, then the member name.
  std::string type_name;
  SourceLocation start = Current().location;
  if (Match(TokenKind::kKwVar)) {
    type_name = "var";
  } else if (Check(TokenKind::kIdentifier)) {
    type_name = std::string(Advance().text);
  } else {
    diag_.Error(Current().location, "expected a member declaration, got " +
                                        std::string(TokenKindName(Current().kind)));
    SynchronizeMember();
    return;
  }

  const Token& name = Expect(TokenKind::kIdentifier, "as the member name");

  if (Check(TokenKind::kLParen)) {
    // Method.
    MethodDecl* method = unit_->Create<MethodDecl>(start);
    method->return_type = type_name;
    method->name = std::string(name.text);
    method->is_static = is_static;
    method->owner = cls;
    Expect(TokenKind::kLParen, "to open the parameter list");
    if (!Check(TokenKind::kRParen)) {
      do {
        SourceLocation param_loc = Current().location;
        std::string param_type;
        if (Match(TokenKind::kKwVar)) {
          param_type = "var";
        } else {
          param_type = std::string(Expect(TokenKind::kIdentifier, "as a parameter type").text);
        }
        // Single-identifier parameters are allowed: `m(x)` means `m(var x)`.
        std::string param_name;
        if (Check(TokenKind::kIdentifier)) {
          param_name = std::string(Advance().text);
        } else {
          param_name = param_type;
          param_type = "var";
        }
        ParamDecl* param = unit_->Create<ParamDecl>(param_loc);
        param->type_name = std::move(param_type);
        param->name = std::move(param_name);
        method->params.push_back(param);
      } while (Match(TokenKind::kComma));
    }
    Expect(TokenKind::kRParen, "to close the parameter list");
    if (Match(TokenKind::kKwThrows)) {
      do {
        const Token& exc = Expect(TokenKind::kIdentifier, "in the throws clause");
        method->throws.push_back(std::string(exc.text));
      } while (Match(TokenKind::kComma));
    }
    if (Check(TokenKind::kLBrace)) {
      method->body = ParseBlock();
    } else {
      Expect(TokenKind::kSemicolon, "after an abstract method declaration");
    }
    cls->methods.push_back(method);
    return;
  }

  // Field.
  FieldDecl* field = unit_->Create<FieldDecl>(start);
  field->type_name = type_name;
  field->name = std::string(name.text);
  if (Match(TokenKind::kAssign)) {
    field->init = ParseExpr();
  }
  Expect(TokenKind::kSemicolon, "after a field declaration");
  cls->fields.push_back(field);
}

// --------------------------------------------------------------------------
// Statements
// --------------------------------------------------------------------------

Stmt* Parser::ParseStmt() {
  if (stmt_depth_ >= kMaxStmtDepth) {
    ReportDepthExceeded();
    // Skip to a statement boundary (guaranteeing progress) and hand the
    // caller an empty block: parents like ParseIf attach the child without a
    // null check, so the placeholder must be a real statement.
    SynchronizeStmt();
    return unit_->Create<BlockStmt>(Current().location);
  }
  ++stmt_depth_;
  Stmt* stmt = ParseStmtImpl();
  --stmt_depth_;
  return stmt;
}

Stmt* Parser::ParseStmtImpl() {
  switch (Current().kind) {
    case TokenKind::kLBrace:
      return ParseBlock();
    case TokenKind::kKwVar:
      return ParseVarDecl();
    case TokenKind::kKwIf:
      return ParseIf();
    case TokenKind::kKwWhile:
      return ParseWhile();
    case TokenKind::kKwFor:
      return ParseFor();
    case TokenKind::kKwSwitch:
      return ParseSwitch();
    case TokenKind::kKwTry:
      return ParseTry();
    case TokenKind::kKwThrow:
      return ParseThrow();
    case TokenKind::kKwReturn:
      return ParseReturn();
    case TokenKind::kKwBreak: {
      const Token& token = Advance();
      Expect(TokenKind::kSemicolon, "after 'break'");
      return unit_->Create<BreakStmt>(token.location);
    }
    case TokenKind::kKwContinue: {
      const Token& token = Advance();
      Expect(TokenKind::kSemicolon, "after 'continue'");
      return unit_->Create<ContinueStmt>(token.location);
    }
    default:
      return ParseSimpleStmt(/*consume_semicolon=*/true);
  }
}

BlockStmt* Parser::ParseBlock() {
  const Token& open = Expect(TokenKind::kLBrace, "to open a block");
  BlockStmt* block = unit_->Create<BlockStmt>(open.location);
  while (!Check(TokenKind::kRBrace) && !AtEnd()) {
    size_t before = pos_;
    Stmt* stmt = ParseStmt();
    if (stmt != nullptr) {
      block->statements.push_back(stmt);
    }
    if (pos_ == before) {
      // Defensive: guarantee progress even on malformed input.
      SynchronizeStmt();
    }
  }
  Expect(TokenKind::kRBrace, "to close a block");
  return block;
}

Stmt* Parser::ParseVarDecl() {
  const Token& var_kw = Expect(TokenKind::kKwVar, "to start a variable declaration");
  const Token& name = Expect(TokenKind::kIdentifier, "as the variable name");
  VarDeclStmt* decl = unit_->Create<VarDeclStmt>(var_kw.location);
  decl->name = std::string(name.text);
  Expect(TokenKind::kAssign, "in a variable declaration (mj requires an initializer)");
  decl->init = ParseExpr();
  Expect(TokenKind::kSemicolon, "after a variable declaration");
  return decl;
}

Stmt* Parser::ParseIf() {
  const Token& if_kw = Expect(TokenKind::kKwIf, "");
  Expect(TokenKind::kLParen, "after 'if'");
  IfStmt* stmt = unit_->Create<IfStmt>(if_kw.location);
  stmt->condition = ParseExpr();
  Expect(TokenKind::kRParen, "after the if condition");
  stmt->then_branch = ParseStmt();
  if (Match(TokenKind::kKwElse)) {
    stmt->else_branch = ParseStmt();
  }
  return stmt;
}

Stmt* Parser::ParseWhile() {
  const Token& while_kw = Expect(TokenKind::kKwWhile, "");
  Expect(TokenKind::kLParen, "after 'while'");
  WhileStmt* stmt = unit_->Create<WhileStmt>(while_kw.location);
  stmt->condition = ParseExpr();
  Expect(TokenKind::kRParen, "after the while condition");
  stmt->body = ParseStmt();
  return stmt;
}

Stmt* Parser::ParseFor() {
  const Token& for_kw = Expect(TokenKind::kKwFor, "");
  Expect(TokenKind::kLParen, "after 'for'");
  ForStmt* stmt = unit_->Create<ForStmt>(for_kw.location);
  if (!Check(TokenKind::kSemicolon)) {
    if (Check(TokenKind::kKwVar)) {
      // `var i = 0;` — ParseVarDecl consumes the ';'.
      stmt->init = ParseVarDecl();
    } else {
      stmt->init = ParseSimpleStmt(/*consume_semicolon=*/true);
    }
  } else {
    Advance();  // Empty init.
  }
  if (!Check(TokenKind::kSemicolon)) {
    stmt->condition = ParseExpr();
  }
  Expect(TokenKind::kSemicolon, "after the for condition");
  if (!Check(TokenKind::kRParen)) {
    stmt->update = ParseSimpleStmt(/*consume_semicolon=*/false);
  }
  Expect(TokenKind::kRParen, "after the for clauses");
  stmt->body = ParseStmt();
  return stmt;
}

Stmt* Parser::ParseSwitch() {
  const Token& switch_kw = Expect(TokenKind::kKwSwitch, "");
  Expect(TokenKind::kLParen, "after 'switch'");
  SwitchStmt* stmt = unit_->Create<SwitchStmt>(switch_kw.location);
  stmt->subject = ParseExpr();
  Expect(TokenKind::kRParen, "after the switch subject");
  Expect(TokenKind::kLBrace, "to open the switch body");
  while (!Check(TokenKind::kRBrace) && !AtEnd()) {
    SwitchCase switch_case;
    switch_case.location = Current().location;
    bool saw_label = false;
    while (true) {
      if (Match(TokenKind::kKwCase)) {
        switch_case.labels.push_back(ParseExpr());
        Expect(TokenKind::kColon, "after a case label");
        saw_label = true;
        continue;
      }
      if (Check(TokenKind::kKwDefault)) {
        Advance();
        Expect(TokenKind::kColon, "after 'default'");
        saw_label = true;  // Empty label list == default.
        continue;
      }
      break;
    }
    if (!saw_label) {
      diag_.Error(Current().location, "expected 'case' or 'default' in switch body");
      SynchronizeStmt();
      continue;
    }
    while (!Check(TokenKind::kKwCase) && !Check(TokenKind::kKwDefault) &&
           !Check(TokenKind::kRBrace) && !AtEnd()) {
      switch_case.body.push_back(ParseStmt());
    }
    stmt->cases.push_back(std::move(switch_case));
  }
  Expect(TokenKind::kRBrace, "to close the switch body");
  return stmt;
}

Stmt* Parser::ParseTry() {
  const Token& try_kw = Expect(TokenKind::kKwTry, "");
  TryStmt* stmt = unit_->Create<TryStmt>(try_kw.location);
  stmt->body = ParseBlock();
  while (Check(TokenKind::kKwCatch)) {
    const Token& catch_kw = Advance();
    CatchClause clause;
    clause.location = catch_kw.location;
    Expect(TokenKind::kLParen, "after 'catch'");
    const Token& type = Expect(TokenKind::kIdentifier, "as the caught exception type");
    clause.exception_type = std::string(type.text);
    const Token& var = Expect(TokenKind::kIdentifier, "as the caught exception variable");
    clause.variable = std::string(var.text);
    Expect(TokenKind::kRParen, "after the catch clause");
    clause.body = ParseBlock();
    stmt->catches.push_back(std::move(clause));
  }
  if (Match(TokenKind::kKwFinally)) {
    stmt->finally = ParseBlock();
  }
  if (stmt->catches.empty() && stmt->finally == nullptr) {
    diag_.Error(try_kw.location, "try statement requires at least one catch or a finally");
  }
  return stmt;
}

Stmt* Parser::ParseThrow() {
  const Token& throw_kw = Expect(TokenKind::kKwThrow, "");
  ThrowStmt* stmt = unit_->Create<ThrowStmt>(throw_kw.location);
  stmt->value = ParseExpr();
  Expect(TokenKind::kSemicolon, "after a throw statement");
  return stmt;
}

Stmt* Parser::ParseReturn() {
  const Token& return_kw = Expect(TokenKind::kKwReturn, "");
  ReturnStmt* stmt = unit_->Create<ReturnStmt>(return_kw.location);
  if (!Check(TokenKind::kSemicolon)) {
    stmt->value = ParseExpr();
  }
  Expect(TokenKind::kSemicolon, "after a return statement");
  return stmt;
}

Stmt* Parser::ParseSimpleStmt(bool consume_semicolon) {
  SourceLocation start = Current().location;
  Expr* expr = ParseExpr();

  Stmt* result = nullptr;
  if (Check(TokenKind::kAssign) || Check(TokenKind::kPlusAssign) ||
      Check(TokenKind::kMinusAssign)) {
    const Token& op = Advance();
    AssignStmt* assign = unit_->Create<AssignStmt>(start);
    assign->target = expr;
    assign->op = op.kind == TokenKind::kAssign      ? AssignOp::kAssign
                 : op.kind == TokenKind::kPlusAssign ? AssignOp::kAddAssign
                                                     : AssignOp::kSubAssign;
    assign->value = ParseExpr();
    if (expr->kind != AstKind::kName && expr->kind != AstKind::kFieldAccess) {
      diag_.Error(start, "assignment target must be a variable or field");
    }
    result = assign;
  } else if (Check(TokenKind::kPlusPlus) || Check(TokenKind::kMinusMinus)) {
    const Token& op = Advance();
    AssignStmt* assign = unit_->Create<AssignStmt>(start);
    assign->target = expr;
    assign->op =
        op.kind == TokenKind::kPlusPlus ? AssignOp::kAddAssign : AssignOp::kSubAssign;
    auto* one = unit_->Create<IntLiteralExpr>(op.location);
    one->value = 1;
    assign->value = one;
    if (expr->kind != AstKind::kName && expr->kind != AstKind::kFieldAccess) {
      diag_.Error(start, "increment target must be a variable or field");
    }
    result = assign;
  } else {
    ExprStmt* expr_stmt = unit_->Create<ExprStmt>(start);
    expr_stmt->expr = expr;
    result = expr_stmt;
  }

  if (consume_semicolon) {
    Expect(TokenKind::kSemicolon, "after a statement");
  }
  return result;
}

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

bool Parser::ExprDepthExceeded() {
  if (expr_depth_ < kMaxExprDepth) {
    return false;
  }
  ReportDepthExceeded();
  return true;
}

void Parser::ReportDepthExceeded() {
  // One diagnostic per unit: a 50k-deep input would otherwise drown every
  // real diagnostic in repeats of this one.
  if (!depth_error_reported_) {
    depth_error_reported_ = true;
    diag_.Error(Current().location,
                "expression or statement nesting is too deep; giving up on this subtree");
  }
}

Expr* Parser::ParseExpr() {
  if (ExprDepthExceeded()) {
    // Consume nothing; the enclosing construct's Expect calls recover. Every
    // path into this guard consumed at least one token ('(', an operator,
    // ...), so parsing still makes progress.
    return unit_->Create<NullLiteralExpr>(Current().location);
  }
  ++expr_depth_;
  Expr* expr = ParseBinary(1);
  --expr_depth_;
  return expr;
}

// Precedence climbing over the six left-associative binary levels. Each
// operator node is created before its right operand is parsed, so node ids
// come out in the order a one-function-per-level descent gives them.
Expr* Parser::ParseBinary(int min_precedence) {
  Expr* lhs = ParseUnary();
  while (true) {
    int precedence = BinaryPrecedence(Current().kind);
    if (precedence < min_precedence) {
      return lhs;
    }
    const Token& op = Advance();
    if (op.kind == TokenKind::kKwInstanceof) {
      const Token& type = Expect(TokenKind::kIdentifier, "after 'instanceof'");
      InstanceOfExpr* expr = unit_->Create<InstanceOfExpr>(op.location);
      expr->operand = lhs;
      expr->type_name = std::string(type.text);
      lhs = expr;
      continue;
    }
    BinaryExpr* expr = unit_->Create<BinaryExpr>(op.location);
    expr->op = BinaryOpFor(op.kind);
    expr->lhs = lhs;
    expr->rhs = ParseBinary(precedence + 1);
    lhs = expr;
  }
}

Expr* Parser::ParseUnary() {
  if (Check(TokenKind::kNot) || Check(TokenKind::kMinus)) {
    // Self-recursive, so it needs its own depth guard: `!!!!...x` never goes
    // back through ParseExpr.
    if (ExprDepthExceeded()) {
      const Token& op = Advance();  // Consume the operator: progress even here.
      return unit_->Create<NullLiteralExpr>(op.location);
    }
    const Token& op = Advance();
    UnaryExpr* expr = unit_->Create<UnaryExpr>(op.location);
    expr->op = op.kind == TokenKind::kNot ? UnaryOp::kNot : UnaryOp::kNegate;
    ++expr_depth_;
    expr->operand = ParseUnary();
    --expr_depth_;
    return expr;
  }
  return ParsePostfix();
}

Expr* Parser::ParsePostfix() {
  Expr* expr = ParsePrimary();
  while (Check(TokenKind::kDot)) {
    const Token& dot = Advance();
    const Token& member = Expect(TokenKind::kIdentifier, "after '.'");
    if (Check(TokenKind::kLParen)) {
      CallExpr* call = unit_->Create<CallExpr>(dot.location);
      call->base = expr;
      call->callee = std::string(member.text);
      call->args = ParseArgs();
      expr = call;
    } else {
      FieldAccessExpr* access = unit_->Create<FieldAccessExpr>(dot.location);
      access->base = expr;
      access->field = std::string(member.text);
      expr = access;
    }
  }
  return expr;
}

std::vector<Expr*> Parser::ParseArgs() {
  Expect(TokenKind::kLParen, "to open the argument list");
  std::vector<Expr*> args;
  if (!Check(TokenKind::kRParen)) {
    do {
      args.push_back(ParseExpr());
    } while (Match(TokenKind::kComma));
  }
  Expect(TokenKind::kRParen, "to close the argument list");
  return args;
}

Expr* Parser::ParsePrimary() {
  const Token& token = Current();
  switch (token.kind) {
    case TokenKind::kIntLiteral: {
      Advance();
      auto* expr = unit_->Create<IntLiteralExpr>(token.location);
      expr->value = token.int_value;
      return expr;
    }
    case TokenKind::kStringLiteral: {
      Advance();
      auto* expr = unit_->Create<StringLiteralExpr>(token.location);
      expr->value = token.string_value;
      return expr;
    }
    case TokenKind::kKwTrue:
    case TokenKind::kKwFalse: {
      Advance();
      auto* expr = unit_->Create<BoolLiteralExpr>(token.location);
      expr->value = token.kind == TokenKind::kKwTrue;
      return expr;
    }
    case TokenKind::kKwNull:
      Advance();
      return unit_->Create<NullLiteralExpr>(token.location);
    case TokenKind::kKwThis:
      Advance();
      return unit_->Create<ThisExpr>(token.location);
    case TokenKind::kKwNew: {
      Advance();
      const Token& name = Expect(TokenKind::kIdentifier, "after 'new'");
      NewExpr* expr = unit_->Create<NewExpr>(token.location);
      expr->class_name = std::string(name.text);
      expr->args = ParseArgs();
      return expr;
    }
    case TokenKind::kLParen: {
      Advance();
      Expr* expr = ParseExpr();
      Expect(TokenKind::kRParen, "to close the parenthesized expression");
      return expr;
    }
    case TokenKind::kIdentifier: {
      Advance();
      if (Check(TokenKind::kLParen)) {
        CallExpr* call = unit_->Create<CallExpr>(token.location);
        call->base = nullptr;
        call->callee = std::string(token.text);
        call->args = ParseArgs();
        return call;
      }
      NameExpr* expr = unit_->Create<NameExpr>(token.location);
      expr->name = std::string(token.text);
      return expr;
    }
    default: {
      diag_.Error(token.location, "expected an expression, got " +
                                      std::string(TokenKindName(token.kind)));
      Advance();
      return unit_->Create<NullLiteralExpr>(token.location);
    }
  }
}

std::unique_ptr<CompilationUnit> ParseSource(std::string name, std::string text,
                                             DiagnosticEngine& diag) {
  auto file = std::make_shared<SourceFile>(std::move(name), std::move(text));
  Parser parser(file, diag);
  return parser.ParseUnit();
}

}  // namespace mj
