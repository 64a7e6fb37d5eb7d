// Abstract syntax tree for mj, the Java-like substrate language.
//
// Ownership: every node is allocated in and owned by its CompilationUnit's
// arena (CppCoreGuidelines R.1/R.5: RAII, no naked new for callers). All
// cross-node references are non-owning raw pointers into the same arena, and
// every node has a unit-unique NodeId so analyses can attach side tables.

#ifndef WASABI_SRC_LANG_AST_H_
#define WASABI_SRC_LANG_AST_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/source.h"
#include "src/lang/symtab.h"
#include "src/lang/token.h"

namespace mj {

struct ClassDecl;
struct MethodDecl;

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNodeId = 0xFFFFFFFF;

// ---------------------------------------------------------------------------
// Resolution annotations
// ---------------------------------------------------------------------------
// Filled in place by the one-time resolution pass (src/lang/resolve.h) that
// ProgramIndex runs at construction. Default values mean "unresolved" and
// route the interpreter to its dynamic slow path; resolved values let it use
// flat slot-indexed frames and cached dispatch (docs/PERFORMANCE.md).

// Index of a local variable in its method's flat frame. Slots are unique per
// method (no reuse across sibling scopes): reuse would let a stale
// defined-flag from a dead sibling declaration resurrect a variable that the
// scope-map semantics would report as undefined.
using SlotIndex = int32_t;
inline constexpr SlotIndex kNoSlot = -1;

// Index into the resolution result's fallback name chains (outer same-named
// declarations a NameExpr may legally see when the innermost one has not
// executed yet).
inline constexpr uint32_t kNoNameChain = 0xFFFFFFFF;

// Dense per-program call-site index; keys the interpreter's dispatch cache.
inline constexpr uint32_t kNoCallSite = 0xFFFFFFFF;

// What `new ClassName(...)` will produce, decided once at resolution time.
enum class NewKind : uint8_t {
  kUnresolved,
  kQueue,
  kList,
  kMap,
  kUserClass,
  kBuiltinException,
  kUnknownClass,
};

enum class AstKind : uint8_t {
  // Expressions.
  kIntLiteral,
  kBoolLiteral,
  kStringLiteral,
  kNullLiteral,
  kName,
  kThis,
  kFieldAccess,
  kCall,
  kNew,
  kUnary,
  kBinary,
  kInstanceOf,
  // Statements.
  kBlock,
  kVarDecl,
  kAssign,
  kExprStmt,
  kIf,
  kWhile,
  kFor,
  kSwitch,
  kTry,
  kThrow,
  kReturn,
  kBreak,
  kContinue,
  // Declarations.
  kParam,
  kFieldDecl,
  kMethodDecl,
  kClassDecl,
};

struct AstNode {
  explicit AstNode(AstKind k) : kind(k) {}
  virtual ~AstNode() = default;

  AstKind kind;
  NodeId id = kInvalidNodeId;
  SourceLocation location;
};

struct Expr : AstNode {
  using AstNode::AstNode;
};

struct Stmt : AstNode {
  using AstNode::AstNode;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct IntLiteralExpr : Expr {
  IntLiteralExpr() : Expr(AstKind::kIntLiteral) {}
  int64_t value = 0;
};

struct BoolLiteralExpr : Expr {
  BoolLiteralExpr() : Expr(AstKind::kBoolLiteral) {}
  bool value = false;
};

struct StringLiteralExpr : Expr {
  StringLiteralExpr() : Expr(AstKind::kStringLiteral) {}
  std::string value;
};

struct NullLiteralExpr : Expr {
  NullLiteralExpr() : Expr(AstKind::kNullLiteral) {}
};

struct NameExpr : Expr {
  NameExpr() : Expr(AstKind::kName) {}
  std::string name;

  // Frame slot of the innermost declaration lexically visible here; kNoSlot
  // when no declaration is in scope (the dynamic semantics then error, or
  // fall through to builtin/class receivers in call position).
  SlotIndex slot = kNoSlot;
  // Outer same-named candidates (innermost first, primary excluded) consulted
  // when the primary slot's declaration has not executed; see resolve.h.
  uint32_t fallback_chain = kNoNameChain;
  // FindClass(name), cached for call-receiver position (`Helper.run()`).
  const ClassDecl* class_ref = nullptr;
};

struct ThisExpr : Expr {
  ThisExpr() : Expr(AstKind::kThis) {}
};

struct FieldAccessExpr : Expr {
  FieldAccessExpr() : Expr(AstKind::kFieldAccess) {}
  Expr* base = nullptr;
  std::string field;

  // Interned `field`; keys FieldLayout slot lookups.
  SymbolId field_symbol = kInvalidSymbol;
};

// A call `base.callee(args)` or `callee(args)` (base == nullptr; implicit
// this-call or free builtin). Calls like `Thread.sleep(...)` parse as base ==
// NameExpr("Thread"); whether that is an object or a builtin receiver is
// decided at evaluation/resolution time.
struct CallExpr : Expr {
  CallExpr() : Expr(AstKind::kCall) {}
  Expr* base = nullptr;
  std::string callee;
  std::vector<Expr*> args;

  // Dense per-program index of this call site (dispatch-cache key).
  uint32_t site_index = kNoCallSite;
};

struct NewExpr : Expr {
  NewExpr() : Expr(AstKind::kNew) {}
  std::string class_name;
  std::vector<Expr*> args;

  // Resolution of `class_name`: container/user-class/builtin-exception, plus
  // the class and its `init` method when it names a user class.
  NewKind new_kind = NewKind::kUnresolved;
  const ClassDecl* class_ref = nullptr;
  const MethodDecl* init_method = nullptr;
};

enum class UnaryOp : uint8_t {
  kNot,
  kNegate,
};

struct UnaryExpr : Expr {
  UnaryExpr() : Expr(AstKind::kUnary) {}
  UnaryOp op = UnaryOp::kNot;
  Expr* operand = nullptr;
};

enum class BinaryOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

struct BinaryExpr : Expr {
  BinaryExpr() : Expr(AstKind::kBinary) {}
  BinaryOp op = BinaryOp::kAdd;
  Expr* lhs = nullptr;
  Expr* rhs = nullptr;
};

struct InstanceOfExpr : Expr {
  InstanceOfExpr() : Expr(AstKind::kInstanceOf) {}
  Expr* operand = nullptr;
  std::string type_name;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct BlockStmt : Stmt {
  BlockStmt() : Stmt(AstKind::kBlock) {}
  std::vector<Stmt*> statements;

  // Slot range declared anywhere in this block's subtree. Entering the block
  // clears the `defined` flags of the range — the scope-map semantics rebuild
  // inner scopes from scratch on every (re-)entry.
  uint32_t slot_base = 0;
  uint32_t slot_count = 0;
};

struct VarDeclStmt : Stmt {
  VarDeclStmt() : Stmt(AstKind::kVarDecl) {}
  std::string name;
  Expr* init = nullptr;  // Never null: `var x = e;` requires an initializer.

  SlotIndex slot = kNoSlot;
};

enum class AssignOp : uint8_t {
  kAssign,      // =
  kAddAssign,   // += (also x++)
  kSubAssign,   // -= (also x--)
};

struct AssignStmt : Stmt {
  AssignStmt() : Stmt(AstKind::kAssign) {}
  Expr* target = nullptr;  // NameExpr or FieldAccessExpr.
  AssignOp op = AssignOp::kAssign;
  Expr* value = nullptr;
};

struct ExprStmt : Stmt {
  ExprStmt() : Stmt(AstKind::kExprStmt) {}
  Expr* expr = nullptr;
};

struct IfStmt : Stmt {
  IfStmt() : Stmt(AstKind::kIf) {}
  Expr* condition = nullptr;
  Stmt* then_branch = nullptr;
  Stmt* else_branch = nullptr;  // May be null.
};

struct WhileStmt : Stmt {
  WhileStmt() : Stmt(AstKind::kWhile) {}
  Expr* condition = nullptr;
  Stmt* body = nullptr;
};

struct ForStmt : Stmt {
  ForStmt() : Stmt(AstKind::kFor) {}
  Stmt* init = nullptr;       // VarDeclStmt, AssignStmt, or null.
  Expr* condition = nullptr;  // Null means "true".
  Stmt* update = nullptr;     // AssignStmt/ExprStmt or null.
  Stmt* body = nullptr;

  // Slot range of the for-statement's own scope (init + subtree); cleared at
  // for-entry. The init slot survives iterations, like its scope map did.
  uint32_t slot_base = 0;
  uint32_t slot_count = 0;
};

struct SwitchCase {
  // Empty labels == `default:`. Labels are constant expressions (literals or
  // names, compared by value at run time).
  std::vector<Expr*> labels;
  std::vector<Stmt*> body;
  SourceLocation location;
};

struct SwitchStmt : Stmt {
  SwitchStmt() : Stmt(AstKind::kSwitch) {}
  Expr* subject = nullptr;
  std::vector<SwitchCase> cases;
};

struct CatchClause {
  std::string exception_type;
  std::string variable;
  BlockStmt* body = nullptr;
  SourceLocation location;

  // The catch variable's slot plus the clause's whole subtree range (cleared
  // when the clause is entered, like its fresh scope map).
  SlotIndex var_slot = kNoSlot;
  uint32_t slot_base = 0;
  uint32_t slot_count = 0;
};

struct TryStmt : Stmt {
  TryStmt() : Stmt(AstKind::kTry) {}
  BlockStmt* body = nullptr;
  std::vector<CatchClause> catches;
  BlockStmt* finally = nullptr;  // May be null.
};

struct ThrowStmt : Stmt {
  ThrowStmt() : Stmt(AstKind::kThrow) {}
  Expr* value = nullptr;
};

struct ReturnStmt : Stmt {
  ReturnStmt() : Stmt(AstKind::kReturn) {}
  Expr* value = nullptr;  // May be null (void return).
};

struct BreakStmt : Stmt {
  BreakStmt() : Stmt(AstKind::kBreak) {}
};

struct ContinueStmt : Stmt {
  ContinueStmt() : Stmt(AstKind::kContinue) {}
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct ParamDecl : AstNode {
  ParamDecl() : AstNode(AstKind::kParam) {}
  std::string type_name;  // Recorded, not enforced (mj is dynamically checked).
  std::string name;

  SlotIndex slot = kNoSlot;  // Duplicate param names share one slot.
};

struct FieldDecl : AstNode {
  FieldDecl() : AstNode(AstKind::kFieldDecl) {}
  std::string type_name;
  std::string name;
  Expr* init = nullptr;  // May be null -> null value.

  SymbolId name_symbol = kInvalidSymbol;  // Interned `name`.
};

struct MethodDecl : AstNode {
  MethodDecl() : AstNode(AstKind::kMethodDecl) {}
  std::string return_type;
  std::string name;
  std::vector<ParamDecl*> params;
  std::vector<std::string> throws;  // Declared checked exceptions.
  BlockStmt* body = nullptr;        // Null for abstract/declared-only methods.
  bool is_static = false;
  ClassDecl* owner = nullptr;

  // Flat frame size: one slot per distinct local declaration (params
  // included). Filled by the resolution pass.
  uint32_t max_slots = 0;
  // Dense program-wide method index, assigned by the resolution pass in
  // declaration order. Indexes per-method side tables (the bytecode engine's
  // compiled chunks) without a pointer map on the hot call path.
  uint32_t method_index = 0;
  // Cached QualifiedName(); also the stable backing storage for the
  // string_view CallEvent::callee.
  std::string qualified_cache;

  // "Class.method" — the qualified name used throughout reports and plans.
  std::string QualifiedName() const;
};

struct ClassDecl : AstNode {
  ClassDecl() : AstNode(AstKind::kClassDecl) {}
  std::string name;
  std::string base_name;  // Empty if no `extends`.
  std::vector<FieldDecl*> fields;
  std::vector<MethodDecl*> methods;
};

// ---------------------------------------------------------------------------
// Compilation unit
// ---------------------------------------------------------------------------

// Owns the source file, all AST nodes, and the retained comments of one file.
class CompilationUnit {
 public:
  explicit CompilationUnit(std::shared_ptr<const SourceFile> file) : file_(std::move(file)) {}

  CompilationUnit(const CompilationUnit&) = delete;
  CompilationUnit& operator=(const CompilationUnit&) = delete;

  const SourceFile& file() const { return *file_; }
  std::shared_ptr<const SourceFile> file_ptr() const { return file_; }

  template <typename T, typename... Args>
  T* Create(SourceLocation location, Args&&... args) {
    auto node = std::make_unique<T>(std::forward<Args>(args)...);
    node->id = static_cast<NodeId>(nodes_.size());
    node->location = location;
    T* raw = node.get();
    nodes_.push_back(std::move(node));
    return raw;
  }

  void ReserveNodes(size_t count) { nodes_.reserve(count); }

  const AstNode* node(NodeId node_id) const {
    assert(node_id < nodes_.size());
    return nodes_[node_id].get();
  }
  size_t node_count() const { return nodes_.size(); }

  std::vector<ClassDecl*>& classes() { return classes_; }
  const std::vector<ClassDecl*>& classes() const { return classes_; }

  std::vector<Comment>& comments() { return comments_; }
  const std::vector<Comment>& comments() const { return comments_; }

 private:
  std::shared_ptr<const SourceFile> file_;
  std::vector<std::unique_ptr<AstNode>> nodes_;
  std::vector<ClassDecl*> classes_;
  std::vector<Comment> comments_;
};

// ---------------------------------------------------------------------------
// Generic walkers
// ---------------------------------------------------------------------------

// Pre-order traversal invoking `fn(const Expr&)` on every expression reachable
// from `expr` / `stmt`. Fn: void(const Expr&).
template <typename Fn>
void WalkExprs(const Expr* expr, Fn&& fn);

// Pre-order traversal invoking callbacks on statements and expressions inside
// `stmt`. StmtFn: void(const Stmt&); ExprFn: void(const Expr&).
template <typename StmtFn, typename ExprFn>
void WalkStmts(const Stmt* stmt, StmtFn&& stmt_fn, ExprFn&& expr_fn);

template <typename Fn>
void WalkExprs(const Expr* expr, Fn&& fn) {
  if (expr == nullptr) {
    return;
  }
  fn(*expr);
  switch (expr->kind) {
    case AstKind::kFieldAccess:
      WalkExprs(static_cast<const FieldAccessExpr*>(expr)->base, fn);
      break;
    case AstKind::kCall: {
      const auto* call = static_cast<const CallExpr*>(expr);
      WalkExprs(call->base, fn);
      for (const Expr* arg : call->args) {
        WalkExprs(arg, fn);
      }
      break;
    }
    case AstKind::kNew:
      for (const Expr* arg : static_cast<const NewExpr*>(expr)->args) {
        WalkExprs(arg, fn);
      }
      break;
    case AstKind::kUnary:
      WalkExprs(static_cast<const UnaryExpr*>(expr)->operand, fn);
      break;
    case AstKind::kBinary:
      WalkExprs(static_cast<const BinaryExpr*>(expr)->lhs, fn);
      WalkExprs(static_cast<const BinaryExpr*>(expr)->rhs, fn);
      break;
    case AstKind::kInstanceOf:
      WalkExprs(static_cast<const InstanceOfExpr*>(expr)->operand, fn);
      break;
    default:
      break;
  }
}

template <typename StmtFn, typename ExprFn>
void WalkStmts(const Stmt* stmt, StmtFn&& stmt_fn, ExprFn&& expr_fn) {
  if (stmt == nullptr) {
    return;
  }
  stmt_fn(*stmt);
  switch (stmt->kind) {
    case AstKind::kBlock:
      for (const Stmt* child : static_cast<const BlockStmt*>(stmt)->statements) {
        WalkStmts(child, stmt_fn, expr_fn);
      }
      break;
    case AstKind::kVarDecl:
      WalkExprs(static_cast<const VarDeclStmt*>(stmt)->init, expr_fn);
      break;
    case AstKind::kAssign:
      WalkExprs(static_cast<const AssignStmt*>(stmt)->target, expr_fn);
      WalkExprs(static_cast<const AssignStmt*>(stmt)->value, expr_fn);
      break;
    case AstKind::kExprStmt:
      WalkExprs(static_cast<const ExprStmt*>(stmt)->expr, expr_fn);
      break;
    case AstKind::kIf: {
      const auto* node = static_cast<const IfStmt*>(stmt);
      WalkExprs(node->condition, expr_fn);
      WalkStmts(node->then_branch, stmt_fn, expr_fn);
      WalkStmts(node->else_branch, stmt_fn, expr_fn);
      break;
    }
    case AstKind::kWhile: {
      const auto* node = static_cast<const WhileStmt*>(stmt);
      WalkExprs(node->condition, expr_fn);
      WalkStmts(node->body, stmt_fn, expr_fn);
      break;
    }
    case AstKind::kFor: {
      const auto* node = static_cast<const ForStmt*>(stmt);
      WalkStmts(node->init, stmt_fn, expr_fn);
      WalkExprs(node->condition, expr_fn);
      WalkStmts(node->update, stmt_fn, expr_fn);
      WalkStmts(node->body, stmt_fn, expr_fn);
      break;
    }
    case AstKind::kSwitch: {
      const auto* node = static_cast<const SwitchStmt*>(stmt);
      WalkExprs(node->subject, expr_fn);
      for (const SwitchCase& switch_case : node->cases) {
        for (const Expr* label : switch_case.labels) {
          WalkExprs(label, expr_fn);
        }
        for (const Stmt* child : switch_case.body) {
          WalkStmts(child, stmt_fn, expr_fn);
        }
      }
      break;
    }
    case AstKind::kTry: {
      const auto* node = static_cast<const TryStmt*>(stmt);
      WalkStmts(node->body, stmt_fn, expr_fn);
      for (const CatchClause& clause : node->catches) {
        WalkStmts(clause.body, stmt_fn, expr_fn);
      }
      WalkStmts(node->finally, stmt_fn, expr_fn);
      break;
    }
    case AstKind::kThrow:
      WalkExprs(static_cast<const ThrowStmt*>(stmt)->value, expr_fn);
      break;
    case AstKind::kReturn:
      WalkExprs(static_cast<const ReturnStmt*>(stmt)->value, expr_fn);
      break;
    default:
      break;
  }
}

}  // namespace mj

#endif  // WASABI_SRC_LANG_AST_H_
