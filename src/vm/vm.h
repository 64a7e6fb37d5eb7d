// Bytecode executor for compiled mj method bodies (src/vm/bytecode.h).
//
// VmExecutor::Run executes one Chunk inside a live Interpreter activation:
// CallMethod pushes the frame, binds parameters, and fires interceptors as
// always, then hands the body to Run instead of ExecBlock. Everything
// observable — budgets, the virtual clock, the execution log, the dispatch
// cache and its observer, loop back-edges — lives on the Interpreter and is
// shared with the tree-walking engine.

#ifndef WASABI_SRC_VM_VM_H_
#define WASABI_SRC_VM_VM_H_

#include <cstdint>
#include <vector>

#include "src/interp/value.h"
#include "src/vm/bytecode.h"

namespace wasabi {
class Interpreter;
}  // namespace wasabi

namespace wasabi::vm {

// Stateless: all run state lives on the Interpreter (shared with the tree
// engine) or on Execute's C++ stack. Befriended by Interpreter.
class VmExecutor {
 public:
  // Executes `chunk` in the interpreter's current frame. Returns the method's
  // return value (null for fall-off / unanswered break/continue), or returns
  // with the interpreter's raised-exception slot set when an mj exception
  // leaves the frame uncaught. Throws ExecutionAborted for budget/depth
  // aborts, exactly like the tree-walker's ExecBlock path.
  static Value Run(Interpreter& interp, const Chunk& chunk);

 private:
  // An armed catch handler: where to dispatch and the operand-stack depth to
  // unwind to. Mirrors the C++ try nesting the tree-walker gets for free.
  struct Handler {
    int32_t ip = 0;
    size_t depth = 0;
  };

  static Value Execute(Interpreter& interp, const Chunk& chunk, std::vector<Value>& stack,
                       std::vector<Handler>& handlers, ObjectRef& pending, int32_t& ip);

  // Sends the exception in the raised-exception slot to the innermost armed
  // handler: disarms it, unwinds `stack` to its depth, moves the exception
  // into `pending` and sets `ip` to its dispatch sequence. Returns false,
  // leaving the slot set, when no handler is armed.
  static bool Unwind(Interpreter& interp, std::vector<Value>& stack,
                     std::vector<Handler>& handlers, ObjectRef& pending, int32_t& ip);
};

}  // namespace wasabi::vm

#endif  // WASABI_SRC_VM_VM_H_
