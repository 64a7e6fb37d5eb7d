// The bytecode dispatch loop (docs/PERFORMANCE.md "Bytecode VM").
//
// Two dispatch strategies share one set of opcode bodies via the VM_CASE /
// VM_NEXT / VM_JUMP macros:
//   * threaded dispatch with GNU labels-as-values (computed goto), where every
//     opcode body jumps straight to the next handler — the indirect branch per
//     opcode gets its own predictor slot instead of funnelling through one
//     shared switch branch;
//   * a portable switch fallback for compilers without the extension (or with
//     WASABI_VM_FORCE_SWITCH defined, which the vm tests use to prove both
//     strategies execute identically).
//
// Byte-identity with the tree-walker is the invariant every opcode body keeps:
// same Step() accounting, same evaluation order, same error wording. Native
// opcodes call the walker's own kernels (ApplyBinary, CombineAssign,
// ThrowTypeError); the walker itself runs only behind the four delegation
// opcodes kCallTree/kNewTree/kEvalTree/kExecTree.
//
// An mj exception reaches a chunk in the interpreter's raised-exception slot
// (after kCallTree/kNewTree, at kRethrow and kThrow) or, from a ThrowMj error
// site or a subtree the walker executes, as a ThrownException that Run
// catches and puts in the slot. Either way one routine, Unwind, sends it to
// the innermost handler armed in this chunk; with none armed, Run returns
// and the slot carries the exception out of the frame.

#include "src/vm/vm.h"

#include <cassert>
#include <string>
#include <utility>

#include "src/interp/interpreter.h"

#if !defined(WASABI_VM_FORCE_SWITCH) && (defined(__GNUC__) || defined(__clang__))
#define WASABI_VM_COMPUTED_GOTO 1
#else
#define WASABI_VM_COMPUTED_GOTO 0
#endif

namespace wasabi::vm {

const char* DispatchKindName() {
#if WASABI_VM_COMPUTED_GOTO
  return "computed-goto";
#else
  return "switch";
#endif
}

Value VmExecutor::Run(Interpreter& in, const Chunk& chunk) {
  // Pooled operand stack, indexed by VM invocation depth (same discipline as
  // the interpreter's arg buffers): capacity stays warm across calls and runs.
  if (in.vm_stack_depth_ == in.vm_stacks_.size()) {
    in.vm_stacks_.emplace_back();
  }
  std::vector<Value>& stack = in.vm_stacks_[in.vm_stack_depth_++];
  struct StackReleaser {
    Interpreter* interp;
    std::vector<Value>* stack;
    ~StackReleaser() {
      stack->clear();  // Keeps capacity, releases object references.
      --interp->vm_stack_depth_;
    }
  } release{&in, &stack};
  if (stack.capacity() < chunk.max_stack) {
    stack.reserve(chunk.max_stack);
  }

  std::vector<Handler> handlers;
  ObjectRef pending;
  int32_t ip = 0;
  for (;;) {
    try {
      return Execute(in, chunk, stack, handlers, pending, ip);
    } catch (ThrownException& thrown) {
      // ExecutionAborted is deliberately not caught anywhere in the VM.
      in.raised_ = std::move(thrown.exception);
    }
    if (!Unwind(in, stack, handlers, pending, ip)) {
      return Value{};
    }
  }
}

bool VmExecutor::Unwind(Interpreter& in, std::vector<Value>& stack,
                        std::vector<Handler>& handlers, ObjectRef& pending, int32_t& ip) {
  if (handlers.empty()) {
    return false;
  }
  // Unwind the operand stack to the handler's depth and resume at its
  // dispatch sequence. The handler is disarmed first, so an exception raised
  // by a catch clause body propagates outward — exactly the tree-walker's
  // nested-try behavior.
  const Handler handler = handlers.back();
  handlers.pop_back();
  stack.resize(handler.depth);
  pending = std::exchange(in.raised_, nullptr);
  ip = handler.ip;
  return true;
}

Value VmExecutor::Execute(Interpreter& in, const Chunk& chunk, std::vector<Value>& stack,
                          std::vector<Handler>& handlers, ObjectRef& pending, int32_t& ip) {
  const Insn* const code = chunk.code.data();
  // The frame is stable for the whole invocation: nested calls push and pop
  // DEEPER frames, and the frame deque never moves existing elements.
  Interpreter::Frame& frame = in.CurrentFrame();

#if WASABI_VM_COMPUTED_GOTO
  // Label table — MUST stay in exact Op enum order.
  static const void* const kDispatch[] = {
      &&case_kConst,
      &&case_kLoadSlot,
      &&case_kStoreSlot,
      &&case_kPop,
      &&case_kStep,
      &&case_kLoopIter,
      &&case_kClearSlots,
      &&case_kJump,
      &&case_kJumpIfFalse,
      &&case_kJumpIfTrue,
      &&case_kReturn,
      &&case_kReturnNull,
      &&case_kAsBool,
      &&case_kNotBool,
      &&case_kNegInt,
      &&case_kBinary,
      &&case_kStepAssertSlot,
      &&case_kStoreCombine,
      &&case_kPushHandler,
      &&case_kPopHandlers,
      &&case_kCatch,
      &&case_kRethrow,
      &&case_kThrow,
      &&case_kCallTree,
      &&case_kNewTree,
      &&case_kEvalTree,
      &&case_kExecTree,
  };
// GCC does not run destructors when `goto *` leaves a scope, so no opcode
// body may hold a local with a destructor (a Value, an ObjectRef) across
// VM_NEXT, VM_JUMP or VM_RAISE: operands are used in place on the stack and
// popped, which destroys them.
#define VM_CASE(name) case_##name
#define VM_DISPATCH() goto* kDispatch[static_cast<uint8_t>(code[ip].op)]
  VM_DISPATCH();
#else
#define VM_CASE(name) case Op::name
#define VM_DISPATCH() goto dispatch
dispatch:
  switch (code[ip].op) {
#endif
#define VM_NEXT()  \
  do {             \
    ++ip;          \
    VM_DISPATCH(); \
  } while (0)
#define VM_JUMP(target)                   \
  do {                                    \
    ip = static_cast<int32_t>((target)); \
    VM_DISPATCH();                        \
  } while (0)
// The slot holds a raise: continue at this chunk's innermost handler, or
// leave the frame with the slot still set.
#define VM_RAISE()                                   \
  do {                                               \
    if (!Unwind(in, stack, handlers, pending, ip)) { \
      return Value{};                                \
    }                                                \
    VM_DISPATCH();                                   \
  } while (0)

    VM_CASE(kConst) : {
      stack.push_back(chunk.consts[code[ip].a]);
      VM_NEXT();
    }

    VM_CASE(kLoadSlot) : {
      const Insn& insn = code[ip];
      const auto slot = static_cast<size_t>(insn.a);
      if (frame.defined[slot]) [[likely]] {
        stack.push_back(frame.slots[slot]);
        VM_NEXT();
      }
      // Simple names have no fallback chain, so undefined means undefined.
      const auto& name = static_cast<const mj::NameExpr&>(*chunk.nodes[insn.d]);
      in.ThrowMj("IllegalStateException", "undefined variable '" + name.name + "' at line " +
                                              std::to_string(name.location.line));
    }

    VM_CASE(kStoreSlot) : {
      const auto slot = static_cast<size_t>(code[ip].a);
      frame.slots[slot] = std::move(stack.back());
      stack.pop_back();
      frame.defined[slot] = 1;  // VarDecl defines; for assignments it already is.
      VM_NEXT();
    }

    VM_CASE(kPop) : {
      stack.pop_back();
      VM_NEXT();
    }

    VM_CASE(kStep) : {
      in.Step();
      VM_NEXT();
    }

    VM_CASE(kLoopIter) : {
      // The tree-walker's back-edge sequence, verbatim.
      in.Step();
      ++in.loop_iterations_;
      if (in.loop_observer_ != nullptr) {
        in.NotifyLoopIteration();
      }
      VM_NEXT();
    }

    VM_CASE(kClearSlots) : {
      const Insn& insn = code[ip];
      in.ClearSlotRange(frame, static_cast<uint32_t>(insn.a), static_cast<uint32_t>(insn.b));
      VM_NEXT();
    }

    VM_CASE(kJump) : { VM_JUMP(code[ip].a); }

    VM_CASE(kJumpIfFalse) : {
      // Producers guarantee a bool on top (kAsBool, or a comparison's kBinary).
      const bool* value = std::get_if<bool>(&stack.back());
      assert(value != nullptr);
      const bool taken = !*value;
      stack.pop_back();
      if (taken) {
        VM_JUMP(code[ip].a);
      }
      VM_NEXT();
    }

    VM_CASE(kJumpIfTrue) : {
      const bool* value = std::get_if<bool>(&stack.back());
      assert(value != nullptr);
      const bool taken = *value;
      stack.pop_back();
      if (taken) {
        VM_JUMP(code[ip].a);
      }
      VM_NEXT();
    }

    VM_CASE(kReturn) : {
      Value result = std::move(stack.back());
      stack.pop_back();
      return result;
    }

    VM_CASE(kReturnNull) : { return Value{}; }

    VM_CASE(kAsBool) : {
      if (!std::holds_alternative<bool>(stack.back())) {
        in.ThrowTypeError("bool", stack.back(), chunk.nodes[code[ip].d]->location);
      }
      VM_NEXT();
    }

    VM_CASE(kNotBool) : {
      Value& top = stack.back();
      if (const bool* value = std::get_if<bool>(&top)) [[likely]] {
        top = Value{!*value};
        VM_NEXT();
      }
      in.ThrowTypeError("bool", top, chunk.nodes[code[ip].d]->location);
    }

    VM_CASE(kNegInt) : {
      Value& top = stack.back();
      if (const int64_t* value = std::get_if<int64_t>(&top)) [[likely]] {
        top = Value{WrapNeg(*value)};
        VM_NEXT();
      }
      in.ThrowTypeError("int", top, chunk.nodes[code[ip].d]->location);
    }

    VM_CASE(kBinary) : {
      const Insn& insn = code[ip];
      Value& lhs = stack[stack.size() - 2];
      lhs = in.ApplyBinary(static_cast<mj::BinaryOp>(insn.flags), lhs, stack.back(),
                           chunk.nodes[insn.d]->location);
      stack.pop_back();
      VM_NEXT();
    }

    VM_CASE(kStepAssertSlot) : {
      const Insn& insn = code[ip];
      in.Step();
      if (!frame.defined[insn.a]) [[unlikely]] {
        const auto& assign = static_cast<const mj::AssignStmt&>(*chunk.nodes[insn.d]);
        const auto& name = static_cast<const mj::NameExpr&>(*assign.target);
        in.ThrowMj("IllegalStateException",
                   "assignment to undefined variable '" + name.name + "' at line " +
                       std::to_string(assign.location.line));
      }
      VM_NEXT();
    }

    VM_CASE(kStoreCombine) : {
      const Insn& insn = code[ip];
      Value& slot = frame.slots[insn.a];
      slot = in.CombineAssign(static_cast<mj::AssignOp>(insn.flags), slot, stack.back(),
                              chunk.nodes[insn.d]->location);
      stack.pop_back();
      VM_NEXT();
    }

    VM_CASE(kPushHandler) : {
      handlers.push_back(Handler{code[ip].a, stack.size()});
      VM_NEXT();
    }

    VM_CASE(kPopHandlers) : {
      handlers.resize(handlers.size() - static_cast<size_t>(code[ip].a));
      VM_NEXT();
    }

    VM_CASE(kCatch) : {
      const CatchSite& site = chunk.catches[code[ip].a];
      if (in.index_.IsSubtype(pending->class_name(), *site.exception_type)) {
        // The tree-walker's clause entry: clear the clause subtree, bind the
        // catch variable, run the body (whose own kClearSlots follows).
        in.ClearSlotRange(frame, site.slot_base, site.slot_count);
        const auto var_slot = static_cast<size_t>(site.var_slot);
        frame.slots[var_slot] = Value{std::move(pending)};
        frame.defined[var_slot] = 1;
        VM_JUMP(site.target);
      }
      VM_NEXT();
    }

    VM_CASE(kRethrow) : {
      in.raised_ = std::move(pending);
      VM_RAISE();
    }

    VM_CASE(kThrow) : {
      // The walker's `throw` after its Step and operand evaluation, including
      // the error for a non-object operand.
      if (ObjectRef* exception = std::get_if<ObjectRef>(&stack.back())) [[likely]] {
        in.raised_ = std::move(*exception);
      } else {
        in.raised_ = in.MakeException(
            "IllegalStateException", "throw of non-object value at line " +
                                         std::to_string(chunk.nodes[code[ip].d]->location.line));
      }
      stack.pop_back();
      VM_RAISE();
    }

    // A raise leaves the pushed (meaningless) result for Unwind's stack cut
    // or Run's stack release to destroy.
    VM_CASE(kCallTree) : {
      stack.push_back(in.EvalCall(static_cast<const mj::CallExpr&>(*chunk.nodes[code[ip].d])));
      if (in.raised_ != nullptr) [[unlikely]] {
        VM_RAISE();
      }
      VM_NEXT();
    }

    VM_CASE(kNewTree) : {
      stack.push_back(in.EvalNew(static_cast<const mj::NewExpr&>(*chunk.nodes[code[ip].d])));
      if (in.raised_ != nullptr) [[unlikely]] {
        VM_RAISE();
      }
      VM_NEXT();
    }

    VM_CASE(kEvalTree) : {
      stack.push_back(in.Eval(static_cast<const mj::Expr&>(*chunk.nodes[code[ip].d])));
      VM_NEXT();
    }

    VM_CASE(kExecTree) : {
      const Insn& insn = code[ip];
      Interpreter::Flow flow = in.ExecStmt(static_cast<const mj::Stmt&>(*chunk.nodes[insn.d]));
      switch (flow.kind) {
        case Interpreter::FlowKind::kNormal:
          VM_NEXT();
        case Interpreter::FlowKind::kReturn:
          return std::move(flow.value);
        case Interpreter::FlowKind::kBreak:
          if (insn.flags != 0) {
            handlers.resize(handlers.size() - insn.flags);
          }
          VM_JUMP(insn.a);
        case Interpreter::FlowKind::kContinue:
          if (insn.flags != 0) {
            handlers.resize(handlers.size() - insn.flags);
          }
          VM_JUMP(insn.b);
      }
      VM_NEXT();  // Unreachable; keeps the case body well-formed.
    }

#if !WASABI_VM_COMPUTED_GOTO
  }
  return Value{};  // Unreachable: every opcode jumps, returns, raises, or throws.
#endif

#undef VM_CASE
#undef VM_DISPATCH
#undef VM_NEXT
#undef VM_JUMP
#undef VM_RAISE
}

}  // namespace wasabi::vm
