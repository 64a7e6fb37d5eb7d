// One-time AST -> bytecode compiler. Pure and deterministic: the output is a
// function of the resolved Program only, so chunks are compiled once per
// interpreter and shared across every run (they survive ResetForRun).
//
// The compiler mirrors the tree-walker statement by statement, with one
// lowering per AST shape. Anything it lowers natively preserves the walker's
// evaluation order, step-accounting points, and error wording exactly, and
// computes through the walker's own kernels (ApplyBinary, CombineAssign);
// anything subtle (calls, news, switch, try-with-finally, fallback-chain
// names, field targets) is delegated back to the walker via the
// kCallTree/kNewTree/kEvalTree/kExecTree opcodes, which keeps every injection
// pointcut and observer hook on the shared path.

#include "src/vm/bytecode.h"

#include <utility>

namespace wasabi::vm {
namespace {

using mj::AstKind;

// A name the VM may address as a raw frame slot: resolved, no fallback chain
// (fallback lookups go through the walker's LookupName via delegation).
bool IsSimpleName(const mj::Expr& expr) {
  if (expr.kind != AstKind::kName) {
    return false;
  }
  const auto& name = static_cast<const mj::NameExpr&>(expr);
  return name.slot != mj::kNoSlot && name.fallback_chain == mj::kNoNameChain;
}

int32_t SlotOf(const mj::Expr& expr) {
  return static_cast<const mj::NameExpr&>(expr).slot;
}

bool IsComparison(mj::BinaryOp op) {
  return op == mj::BinaryOp::kLt || op == mj::BinaryOp::kLe || op == mj::BinaryOp::kGt ||
         op == mj::BinaryOp::kGe;
}

class MethodCompiler {
 public:
  explicit MethodCompiler(Chunk& chunk) : chunk_(chunk) {}

  void Compile(const mj::MethodDecl& method) {
    CompileBlockInner(*method.body);
    // Falling off the end returns null — and so do top-level break/continue,
    // which the walker lets propagate out of the body unanswered.
    const int32_t end = Here();
    Emit(Op::kReturnNull);
    for (auto [insn, operand] : end_patches_) {
      Patch(insn, operand, end);
    }
    chunk_.max_stack = static_cast<uint32_t>(max_depth_);
    chunk_.compiled = true;
  }

 private:
  // Patch-operand selectors (which int32 of the instruction to fill).
  enum : int { kOperandA = 0, kOperandB = 1 };

  struct LoopCtx {
    std::vector<std::pair<size_t, int>> break_patches;
    std::vector<std::pair<size_t, int>> continue_patches;
    size_t handler_depth = 0;
  };

  int32_t Here() const { return static_cast<int32_t>(chunk_.code.size()); }

  size_t Emit(Op op, uint8_t flags = 0, int32_t a = 0, int32_t b = 0, int32_t d = 0) {
    chunk_.code.push_back(Insn{op, flags, a, b, d});
    return chunk_.code.size() - 1;
  }

  void Patch(size_t insn, int operand, int32_t target) {
    Insn& code = chunk_.code[insn];
    (operand == kOperandA ? code.a : code.b) = target;
  }

  int32_t NodeIdx(const mj::AstNode& node) {
    chunk_.nodes.push_back(&node);
    return static_cast<int32_t>(chunk_.nodes.size() - 1);
  }

  int32_t ConstIdx(const Value& value) {
    chunk_.consts.push_back(value);
    return static_cast<int32_t>(chunk_.consts.size() - 1);
  }

  // Operand-stack accounting; only the high-water mark matters (reserve hint).
  void Push(int n = 1) {
    depth_ += n;
    if (depth_ > max_depth_) {
      max_depth_ = depth_;
    }
  }
  void Pop(int n = 1) { depth_ -= n; }

  // --- Statements -----------------------------------------------------------

  // ExecBlock: clear the subtree's slots, then run the statements. No kStep —
  // the caller accounts for the block's own statement entry when there is one.
  void CompileBlockInner(const mj::BlockStmt& block) {
    if (block.slot_count > 0) {
      Emit(Op::kClearSlots, 0, static_cast<int32_t>(block.slot_base),
           static_cast<int32_t>(block.slot_count));
    }
    for (const mj::Stmt* stmt : block.statements) {
      CompileStmt(*stmt);
    }
  }

  // Delegate one statement to the tree-walker. ExecStmt runs its own Step(),
  // so no kStep precedes it. Break/continue flows escaping the subtree jump
  // to the enclosing loop's targets (or fall out of the method, like the
  // walker's unanswered Flow propagation).
  void CompileExecTree(const mj::Stmt& stmt) {
    size_t insn;
    if (!loops_.empty()) {
      LoopCtx& loop = loops_.back();
      insn = Emit(Op::kExecTree, static_cast<uint8_t>(handler_depth_ - loop.handler_depth), 0,
                  0, NodeIdx(stmt));
      loop.break_patches.emplace_back(insn, kOperandA);
      loop.continue_patches.emplace_back(insn, kOperandB);
    } else {
      insn = Emit(Op::kExecTree, static_cast<uint8_t>(handler_depth_), 0, 0, NodeIdx(stmt));
      end_patches_.emplace_back(insn, kOperandA);
      end_patches_.emplace_back(insn, kOperandB);
    }
  }

  void CompileStmt(const mj::Stmt& stmt) {
    switch (stmt.kind) {
      case AstKind::kBlock:
        Emit(Op::kStep);
        CompileBlockInner(static_cast<const mj::BlockStmt&>(stmt));
        return;

      case AstKind::kVarDecl: {
        const auto& decl = static_cast<const mj::VarDeclStmt&>(stmt);
        Emit(Op::kStep);
        CompileExpr(*decl.init);
        Emit(Op::kStoreSlot, 0, decl.slot);
        Pop();
        return;
      }

      case AstKind::kAssign:
        CompileAssign(static_cast<const mj::AssignStmt&>(stmt));
        return;

      case AstKind::kExprStmt: {
        Emit(Op::kStep);
        CompileExpr(*static_cast<const mj::ExprStmt&>(stmt).expr);
        Emit(Op::kPop);
        Pop();
        return;
      }

      case AstKind::kIf: {
        const auto& node = static_cast<const mj::IfStmt&>(stmt);
        Emit(Op::kStep);
        const size_t false_jump = CompileCondJumpFalse(*node.condition, stmt);
        CompileStmt(*node.then_branch);
        if (node.else_branch != nullptr) {
          size_t skip = Emit(Op::kJump);
          Patch(false_jump, kOperandA, Here());
          CompileStmt(*node.else_branch);
          Patch(skip, kOperandA, Here());
        } else {
          Patch(false_jump, kOperandA, Here());
        }
        return;
      }

      case AstKind::kWhile: {
        const auto& node = static_cast<const mj::WhileStmt&>(stmt);
        Emit(Op::kStep);
        const int32_t cond_ip = Here();
        loops_.push_back(LoopCtx{{}, {}, handler_depth_});
        // A false condition leaves the loop exactly like a break.
        loops_.back().break_patches.emplace_back(CompileCondJumpFalse(*node.condition, stmt),
                                                 kOperandA);
        Emit(Op::kLoopIter);
        CompileStmt(*node.body);
        Emit(Op::kJump, 0, cond_ip);
        FinishLoop(cond_ip);
        return;
      }

      case AstKind::kFor: {
        const auto& node = static_cast<const mj::ForStmt&>(stmt);
        Emit(Op::kStep);
        if (node.slot_count > 0) {
          Emit(Op::kClearSlots, 0, static_cast<int32_t>(node.slot_base),
               static_cast<int32_t>(node.slot_count));
        }
        if (node.init != nullptr) {
          CompileStmt(*node.init);
        }
        const int32_t cond_ip = Here();
        loops_.push_back(LoopCtx{{}, {}, handler_depth_});
        if (node.condition != nullptr) {
          loops_.back().break_patches.emplace_back(CompileCondJumpFalse(*node.condition, stmt),
                                                   kOperandA);
        }
        Emit(Op::kLoopIter);
        CompileStmt(*node.body);
        const int32_t update_ip = Here();
        if (node.update != nullptr) {
          CompileStmt(*node.update);
        }
        Emit(Op::kJump, 0, cond_ip);
        FinishLoop(update_ip);
        return;
      }

      case AstKind::kTry: {
        const auto& node = static_cast<const mj::TryStmt&>(stmt);
        if (node.finally != nullptr) {
          // Finally interleaves with every flow kind; the walker owns it.
          CompileExecTree(stmt);
          return;
        }
        Emit(Op::kStep);
        size_t push = Emit(Op::kPushHandler);
        ++handler_depth_;
        CompileBlockInner(*node.body);
        --handler_depth_;
        Emit(Op::kPopHandlers, 0, 1);
        std::vector<size_t> end_jumps;
        end_jumps.push_back(Emit(Op::kJump));
        // Catch dispatch: the executor lands here with the pending exception.
        Patch(push, kOperandA, Here());
        std::vector<size_t> catch_insns;
        for (const mj::CatchClause& clause : node.catches) {
          chunk_.catches.push_back(CatchSite{&clause.exception_type, clause.var_slot,
                                             clause.slot_base, clause.slot_count, 0});
          catch_insns.push_back(
              Emit(Op::kCatch, 0, static_cast<int32_t>(chunk_.catches.size() - 1)));
        }
        Emit(Op::kRethrow);
        for (size_t idx = 0; idx < node.catches.size(); ++idx) {
          chunk_.catches[chunk_.code[catch_insns[idx]].a].target = Here();
          CompileBlockInner(*node.catches[idx].body);
          end_jumps.push_back(Emit(Op::kJump));
        }
        const int32_t end = Here();
        for (size_t jump : end_jumps) {
          Patch(jump, kOperandA, end);
        }
        return;
      }

      case AstKind::kReturn: {
        const auto& node = static_cast<const mj::ReturnStmt&>(stmt);
        Emit(Op::kStep);
        if (node.value != nullptr) {
          CompileExpr(*node.value);
          Emit(Op::kReturn);
          Pop();
        } else {
          Emit(Op::kReturnNull);
        }
        return;
      }

      case AstKind::kBreak:
      case AstKind::kContinue: {
        Emit(Op::kStep);
        const bool is_break = stmt.kind == AstKind::kBreak;
        if (!loops_.empty()) {
          LoopCtx& loop = loops_.back();
          const size_t pops = handler_depth_ - loop.handler_depth;
          if (pops > 0) {
            Emit(Op::kPopHandlers, 0, static_cast<int32_t>(pops));
          }
          size_t jump = Emit(Op::kJump);
          (is_break ? loop.break_patches : loop.continue_patches)
              .emplace_back(jump, kOperandA);
        } else {
          // No enclosing loop: the walker's Flow propagates out of the method
          // body and CallMethod returns null.
          if (handler_depth_ > 0) {
            Emit(Op::kPopHandlers, 0, static_cast<int32_t>(handler_depth_));
          }
          end_patches_.emplace_back(Emit(Op::kJump), kOperandA);
        }
        return;
      }

      case AstKind::kThrow:
        Emit(Op::kStep);
        CompileExpr(*static_cast<const mj::ThrowStmt&>(stmt).value);
        Emit(Op::kThrow, 0, 0, 0, NodeIdx(stmt));
        Pop();
        return;

      // Switch (subject/label scan + fallthrough) stays on the walker; it is
      // cold next to the retry loops this engine targets.
      case AstKind::kSwitch:
      default:
        CompileExecTree(stmt);
        return;
    }
  }

  void FinishLoop(int32_t continue_ip) {
    LoopCtx loop = std::move(loops_.back());
    loops_.pop_back();
    const int32_t end = Here();
    for (auto [insn, operand] : loop.break_patches) {
      Patch(insn, operand, end);
    }
    for (auto [insn, operand] : loop.continue_patches) {
      Patch(insn, operand, continue_ip);
    }
  }

  // --- Assignments ----------------------------------------------------------

  void CompileAssign(const mj::AssignStmt& stmt) {
    // Field targets and fallback-chain names keep the walker's exact
    // base-eval / null-check / rhs-eval order and error wording.
    if (!IsSimpleName(*stmt.target)) {
      CompileExecTree(stmt);
      return;
    }
    const int32_t slot = SlotOf(*stmt.target);

    // Step + assert the target is live BEFORE the rhs runs (same order as the
    // walker), then evaluate and store/combine.
    Emit(Op::kStepAssertSlot, 0, slot, 0, NodeIdx(stmt));
    CompileExpr(*stmt.value);
    if (stmt.op == mj::AssignOp::kAssign) {
      Emit(Op::kStoreSlot, 0, slot);
    } else {
      Emit(Op::kStoreCombine, static_cast<uint8_t>(stmt.op), slot, 0, NodeIdx(stmt));
    }
    Pop();
  }

  // --- Conditions -----------------------------------------------------------

  // Emits code that falls through when `cond` is true and returns the
  // kJumpIfFalse to patch with the false target. Mirrors the walker's
  // AsBool(Eval(cond), stmt.location): comparisons error at their own
  // location, everything else coerces at the statement's location.
  size_t CompileCondJumpFalse(const mj::Expr& cond, const mj::Stmt& stmt) {
    CompileBoolValue(cond, stmt);
    const size_t jump = Emit(Op::kJumpIfFalse);
    Pop();
    return jump;
  }

  // Leaves a guaranteed bool on the stack; non-bool results raise the
  // walker's "expected bool" type error at `location_node`'s location.
  void CompileBoolValue(const mj::Expr& expr, const mj::AstNode& location_node) {
    CompileExpr(expr);
    if (expr.kind == AstKind::kBinary &&
        IsComparison(static_cast<const mj::BinaryExpr&>(expr).op)) {
      return;  // Comparisons already produce a raw bool.
    }
    Emit(Op::kAsBool, 0, 0, 0, NodeIdx(location_node));
  }

  // --- Expressions ----------------------------------------------------------

  void CompileExpr(const mj::Expr& expr) {
    switch (expr.kind) {
      case AstKind::kIntLiteral:
        Emit(Op::kConst, 0, ConstIdx(Value{static_cast<const mj::IntLiteralExpr&>(expr).value}));
        Push();
        return;
      case AstKind::kBoolLiteral:
        Emit(Op::kConst, 0,
             ConstIdx(Value{static_cast<const mj::BoolLiteralExpr&>(expr).value}));
        Push();
        return;
      case AstKind::kStringLiteral:
        Emit(Op::kConst, 0,
             ConstIdx(Value{static_cast<const mj::StringLiteralExpr&>(expr).value}));
        Push();
        return;
      case AstKind::kNullLiteral:
        Emit(Op::kConst, 0, ConstIdx(Value{}));
        Push();
        return;

      case AstKind::kName:
        if (IsSimpleName(expr)) {
          Emit(Op::kLoadSlot, 0, SlotOf(expr), 0, NodeIdx(expr));
          Push();
        } else {
          // Fallback-chain lookup stays on the walker's LookupName.
          Emit(Op::kEvalTree, 0, 0, 0, NodeIdx(expr));
          Push();
        }
        return;

      case AstKind::kUnary: {
        const auto& unary = static_cast<const mj::UnaryExpr&>(expr);
        CompileExpr(*unary.operand);
        Emit(unary.op == mj::UnaryOp::kNot ? Op::kNotBool : Op::kNegInt, 0, 0, 0, NodeIdx(expr));
        return;
      }

      case AstKind::kBinary:
        CompileBinary(static_cast<const mj::BinaryExpr&>(expr));
        return;

      case AstKind::kCall:
        Emit(Op::kCallTree, 0, 0, 0, NodeIdx(expr));
        Push();
        return;
      case AstKind::kNew:
        Emit(Op::kNewTree, 0, 0, 0, NodeIdx(expr));
        Push();
        return;

      // Field access, `this`, instanceof, and anything new: full tree eval.
      case AstKind::kFieldAccess:
      case AstKind::kThis:
      case AstKind::kInstanceOf:
      default:
        Emit(Op::kEvalTree, 0, 0, 0, NodeIdx(expr));
        Push();
        return;
    }
  }

  void CompileBinary(const mj::BinaryExpr& bin) {
    // Short-circuit operators become jump chains producing a raw bool; the
    // operand coercions error at the binary's own location (EvalBinary).
    if (bin.op == mj::BinaryOp::kAnd || bin.op == mj::BinaryOp::kOr) {
      CompileBoolValue(*bin.lhs, bin);
      size_t split = Emit(bin.op == mj::BinaryOp::kAnd ? Op::kJumpIfFalse : Op::kJumpIfTrue);
      Pop();
      CompileBoolValue(*bin.rhs, bin);
      size_t done = Emit(Op::kJump);
      Pop();  // Merge point: exactly one of the two pushes survives.
      Patch(split, kOperandA, Here());
      Emit(Op::kConst, 0, ConstIdx(Value{bin.op == mj::BinaryOp::kOr}));
      Push();
      Patch(done, kOperandA, Here());
      return;
    }

    CompileExpr(*bin.lhs);
    CompileExpr(*bin.rhs);
    Emit(Op::kBinary, static_cast<uint8_t>(bin.op), 0, 0, NodeIdx(bin));
    Pop();
  }

  Chunk& chunk_;
  std::vector<LoopCtx> loops_;
  std::vector<std::pair<size_t, int>> end_patches_;
  size_t handler_depth_ = 0;
  int depth_ = 0;
  int max_depth_ = 0;
};

}  // namespace

std::shared_ptr<const CompiledProgram> Compile(const mj::Program& program,
                                               const mj::ProgramIndex& index) {
  auto compiled = std::make_shared<CompiledProgram>();
  compiled->methods.resize(index.method_count());
  for (const auto& unit : program.units()) {
    for (const mj::ClassDecl* cls : unit->classes()) {
      for (const mj::MethodDecl* method : cls->methods) {
        if (method->body == nullptr) {
          continue;
        }
        MethodCompiler(compiled->methods[method->method_index]).Compile(*method);
      }
    }
  }
  return compiled;
}

}  // namespace wasabi::vm
