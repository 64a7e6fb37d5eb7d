// Flat bytecode for the mj substrate (docs/PERFORMANCE.md "Bytecode VM").
//
// A one-time compiler lowers every resolved method body into a Chunk of
// fixed-width instructions. The compiled form is a pure function of the
// immutable Program — it carries no run state, so one CompiledProgram is
// shared by every run of an interpreter (and survives ResetForRun exactly
// like the dispatch cache does).
//
// Design rule: the VM must be byte-identical to the tree-walker — same error
// wording, same evaluation order, same step counts, same abort points. The
// instruction set therefore splits into two tiers:
//   1. native opcodes for the statement/expression shapes retry loops are
//      made of, which call the walker's own kernels (ApplyBinary,
//      CombineAssign, ThrowTypeError) for their results and errors;
//   2. delegation opcodes (kCallTree/kNewTree/kEvalTree/kExecTree) that hand
//      a subtree to the tree-walker — calls, news, switch, try-with-finally,
//      field-target assignments. Every observation point (CallInterceptor
//      pointcuts, injector fire/skip sites, the per-site monomorphic dispatch
//      cache, LoopObserver back-edges, ExecLog writes, step/virtual-time
//      budgets) lives on those shared paths, so src/inject, src/exec and
//      src/obs see the exact same hooks under either engine.
// `throw` and try/catch without finally are native (tier 1): an mj exception
// reaches a handler through the interpreter's raised-exception slot, with no
// C++ unwinding (src/interp/interpreter.h, docs/PERFORMANCE.md "Raising
// without unwinding").

#ifndef WASABI_SRC_VM_BYTECODE_H_
#define WASABI_SRC_VM_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/interp/value.h"
#include "src/lang/ast.h"
#include "src/lang/sema.h"

namespace wasabi::vm {

// Operand conventions: `a`, `b` and `d` are int32 payloads, `flags` carries a
// small enum (BinaryOp / AssignOp / handler-pop counts). `d` is almost always
// an index into Chunk::nodes — the original AST node, used for source
// locations in error messages and for the subtrees the tree-walker runs.
enum class Op : uint8_t {
  // --- Values ---------------------------------------------------------------
  kConst,          // push consts[a]
  kLoadSlot,       // a=slot, d=NameExpr: push slot or "undefined variable"
  kStoreSlot,      // a=slot: slots[a] = pop (definedness asserted earlier)
  kPop,            // drop top
  // --- Accounting / scopes --------------------------------------------------
  kStep,           // statement-entry Step() (budget check)
  kLoopIter,       // back-edge: Step() + ++loop_iterations_ + LoopObserver
  kClearSlots,     // a=base, b=count: clear `defined` on scope (re-)entry
  // --- Control flow ---------------------------------------------------------
  kJump,           // ip = a
  kJumpIfFalse,    // pop bool (guaranteed by construction); ip = a when false
  kJumpIfTrue,     // pop bool; ip = a when true
  kReturn,         // return pop
  kReturnNull,     // return Value{}
  // --- Coercions (tree-walker error wording at nodes[d]->location) ----------
  kAsBool,         // top must be bool, else "expected bool, got ..."
  kNotBool,        // top = !AsBool(top)
  kNegInt,         // top = WrapNeg(AsInt(top))
  // --- Binary operators -----------------------------------------------------
  kBinary,         // flags=BinaryOp, d=BinaryExpr: pop rhs, lhs; push
                   //   Interpreter::ApplyBinary(lhs, rhs)
  // --- Assignment helpers ---------------------------------------------------
  kStepAssertSlot, // Step() + assert slot a defined, else "assignment to
                   //   undefined variable" (d=AssignStmt)
  kStoreCombine,   // compound assign tail: flags=AssignOp, a=slot,
                   //   d=AssignStmt: slots[a] = Interpreter::CombineAssign(
                   //   slots[a], pop)
  // --- Exception handling ---------------------------------------------------
  kPushHandler,    // a=dispatch target: arm a catch handler at current depth
  kPopHandlers,    // a=count: disarm the innermost `count` handlers
  kCatch,          // a=catches[] index: subtype-match the pending exception
  kRethrow,        // re-raise the pending exception (no clause matched)
  kThrow,          // d=ThrowStmt: raise pop; a non-object raises the walker's
                   //   "throw of non-object value" IllegalStateException
  // --- Delegation to the tree-walker (tier 2) -------------------------------
  kCallTree,       // d=CallExpr: push Interpreter::EvalCall (pointcuts, IC),
                   //   or take the raise it returned with
  kNewTree,        // d=NewExpr: push Interpreter::EvalNew, or take its raise
  kEvalTree,       // d=Expr: push Interpreter::Eval (field access, this, ...)
  kExecTree,       // d=Stmt, a=break target, b=continue target,
                   //   flags=handlers to pop before a break/continue jump:
                   //   run Interpreter::ExecStmt and map the returned Flow
};

struct Insn {
  Op op = Op::kReturnNull;
  uint8_t flags = 0;
  int32_t a = 0;
  int32_t b = 0;
  int32_t d = 0;
};

// One kCatch site: the data the tree-walker's catch-clause path consumes.
struct CatchSite {
  const std::string* exception_type = nullptr;  // AST-owned.
  int32_t var_slot = 0;
  uint32_t slot_base = 0;
  uint32_t slot_count = 0;
  int32_t target = 0;  // Clause body entry point.
};

// Flat code for one method body.
struct Chunk {
  std::vector<Insn> code;
  std::vector<Value> consts;
  std::vector<const mj::AstNode*> nodes;  // Error locations + delegated subtrees.
  std::vector<CatchSite> catches;
  uint32_t max_stack = 0;
  bool compiled = false;  // False => the tree-walker runs this method.
};

// Chunks indexed by MethodDecl::method_index.
struct CompiledProgram {
  std::vector<Chunk> methods;
};

// Compiles every method body of `program`. Deterministic, side-effect free,
// and safe to share across threads afterwards (the result is immutable).
std::shared_ptr<const CompiledProgram> Compile(const mj::Program& program,
                                               const mj::ProgramIndex& index);

// "computed-goto" when the executor was built with labels-as-values threaded
// dispatch (GCC/Clang), "switch" on the portable fallback. Recorded in bench
// context and docs/PERFORMANCE.md.
const char* DispatchKindName();

}  // namespace wasabi::vm

#endif  // WASABI_SRC_VM_BYTECODE_H_
