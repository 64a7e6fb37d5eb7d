// Tree-walking interpreter for mj programs.
//
// This is the substrate that replaces "run the Java application under Maven +
// AspectJ" in the original WASABI: corpus applications and their unit tests
// execute in-process, with
//   * a virtual clock (Thread.sleep costs no wall time but advances virtual
//     time, so the paper's 15-minute test timeout is a virtual-time budget);
//   * AspectJ-style pointcuts: registered CallInterceptors run before every
//     user-method call and may raise an mj exception there — exactly the
//     Listing-5 fault-injection handler;
//   * an execution log capturing sleeps (with call stacks), injections, and
//     application log lines for the log-based test oracles;
//   * a step budget so buggy infinite retry loops terminate deterministically.
//
// How an mj exception travels (docs/PERFORMANCE.md "Raising without
// unwinding"). Across interceptors, method calls and VM frames it is a value:
// the interpreter's one raised-exception slot. An interceptor raises by
// returning the exception; CallMethod, EvalCall and EvalNew then return with
// the slot set (the Value returned beside it means nothing), and the VM sends
// it to the innermost handler armed in its chunk, or returns with the slot
// still set. Only inside a body the tree-walker executes is it the C++
// exception ThrownException: ThrowMj error sites, the walker's `throw`, and
// the walker's `try`, which catches it. The walker turns the slot into a
// ThrownException where it evaluates a call or a `new`, and Invoke and
// Instantiate do the same, so an uncaught mj exception escapes Invoke() to
// the caller as ThrownException.

#ifndef WASABI_SRC_INTERP_INTERPRETER_H_
#define WASABI_SRC_INTERP_INTERPRETER_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/interp/exec_log.h"
#include "src/interp/value.h"
#include "src/lang/ast.h"
#include "src/lang/sema.h"

namespace wasabi {

namespace vm {
struct Chunk;
struct CompiledProgram;
class VmExecutor;
}  // namespace vm

// An mj exception crossing C++ frames inside tree-walker-executed code.
struct ThrownException {
  ObjectRef exception;
};

// Abnormal termination of the whole execution (not catchable by mj code).
enum class AbortReason : uint8_t {
  kStepBudget,         // Too many interpreter steps (runaway loop without sleeps).
  kVirtualTimeBudget,  // Virtual clock passed the per-test budget ("timeout").
  kStackOverflow,      // Call depth exceeded.
};

struct ExecutionAborted {
  AbortReason reason;
};

const char* AbortReasonName(AbortReason reason);

// Event passed to interceptors before a user-method call executes. The name
// views are backed by resolver-owned storage (MethodDecl::qualified_cache /
// FieldLayout::init_frame_name), which outlives every run of the program.
struct CallEvent {
  std::string_view caller;  // Qualified name of the invoking method ("" at top level).
  std::string_view callee;  // Qualified name of the resolved target.
  const mj::MethodDecl* method = nullptr;  // The resolved target itself.
  const mj::CallExpr* site = nullptr;
  // Unique id of the caller's activation (frame). Two calls share it iff they
  // happen within the SAME invocation of the caller — the context signal the
  // §4.5 context-aware cap oracle needs to tell "100 retries of one task"
  // apart from "2 retries each of 50 tasks".
  int64_t caller_activation = 0;
};

class Interpreter;

// AspectJ-pointcut analog (§3.1.2): runs right before a callee executes.
// Returning an exception object raises it at the call, simulating a fault:
// the callee's body does not run, no frame is pushed, and interceptors
// registered after this one do not see the call. Returning null lets the call
// proceed. A host exception an interceptor throws (std::runtime_error, ...)
// is not an mj exception and propagates as C++.
class CallInterceptor {
 public:
  virtual ~CallInterceptor() = default;
  virtual ObjectRef OnCall(const CallEvent& event, Interpreter& interp) = 0;
  // Observes every instantiation of a user class, right before its field
  // initializers (its own and its bases') run: code that runs without a
  // call, so OnCall never sees it. Cannot raise.
  virtual void OnInstantiate(const mj::ClassDecl& /*cls*/) {}
};

// Observes while/for back-edges with the enclosing method's qualified name
// and the virtual clock. The retry journal uses it to count coordinator
// retry-loop iterations per attempt; null (the default) keeps the loop hot
// path down to one pointer test.
class LoopObserver {
 public:
  virtual ~LoopObserver() = default;
  virtual void OnLoopIteration(std::string_view method, int64_t virtual_ms) = 0;
};

// mj's integer `+`, `-`, `*` and negation, with Java `long` wrap-around: the
// result is taken modulo 2^64 (computed in uint64_t, where C++ defines
// overflow) instead of being the signed overflow C++ leaves undefined. Both
// engines and the Math builtins route every such operation through these.
inline int64_t WrapAdd(int64_t lhs, int64_t rhs) {
  return static_cast<int64_t>(static_cast<uint64_t>(lhs) + static_cast<uint64_t>(rhs));
}
inline int64_t WrapSub(int64_t lhs, int64_t rhs) {
  return static_cast<int64_t>(static_cast<uint64_t>(lhs) - static_cast<uint64_t>(rhs));
}
inline int64_t WrapMul(int64_t lhs, int64_t rhs) {
  return static_cast<int64_t>(static_cast<uint64_t>(lhs) * static_cast<uint64_t>(rhs));
}
inline int64_t WrapNeg(int64_t value) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(value));
}

// mj's integer `/` (and `%` when `modulo`), with Java `long` semantics:
// truncation toward zero, and the one quotient C++ leaves undefined wraps
// instead of trapping (MIN / -1 == MIN, MIN % -1 == 0). Returns false on a
// zero divisor, which Interpreter::DivideInt reports as ArithmeticException.
inline bool IntDivide(int64_t lhs, int64_t rhs, bool modulo, int64_t* out) {
  if (rhs == 0) {
    return false;
  }
  if (rhs == -1) {
    *out = modulo ? 0 : WrapNeg(lhs);
    return true;
  }
  *out = modulo ? lhs % rhs : lhs / rhs;
  return true;
}

// Which engine executes method bodies (docs/PERFORMANCE.md "Bytecode VM").
// Both are byte-identical in every observable: verdicts, logs, step counts,
// error wording, abort kinds. The VM exists purely for throughput; the tests
// run the walker as the reference it is compared against.
enum class EngineKind : uint8_t {
  kVm,    // Flat bytecode, threaded dispatch (src/vm).
  kTree,  // The original AST-walking evaluator; the reference semantics.
};

struct InterpOptions {
  int64_t step_budget = 2'000'000;
  int64_t virtual_time_budget_ms = 15LL * 60 * 1000;  // The paper's 15 minutes.
  int max_call_depth = 200;
  EngineKind engine = EngineKind::kVm;
};

class Interpreter {
 public:
  Interpreter(const mj::Program& program, const mj::ProgramIndex& index,
              InterpOptions options = {});

  // --- Configuration (the application's Config.* builtin) -----------------
  void SetConfig(const std::string& key, Value value);
  // Makes mj-level `Config.set(key, ...)` a no-op for this key; used by the
  // test-preparation pass that restores default retry configurations (§3.1.4).
  void FreezeConfig(const std::string& key);

  // --- Instrumentation ------------------------------------------------------
  void AddInterceptor(CallInterceptor* interceptor);  // Non-owning.
  // Non-owning; cleared by ResetForRun.
  void set_loop_observer(LoopObserver* observer) { loop_observer_ = observer; }

  // --- Run perturbation ------------------------------------------------------
  // Starts the virtual clock at `epoch_ms` instead of 0. The time BUDGET stays
  // epoch-relative (a skewed run gets the full 15 virtual minutes), but
  // Clock.nowMillis() observes the absolute skewed clock — which is exactly how
  // the flakiness prober perturbs timing-dependent applications
  // (docs/FLAKINESS.md). Call after ResetForRun, before Invoke.
  void set_run_epoch_ms(int64_t epoch_ms) {
    run_epoch_ms_ = epoch_ms;
    virtual_time_ms_ = epoch_ms;
  }
  int64_t run_epoch_ms() const { return run_epoch_ms_; }

  // --- Execution -----------------------------------------------------------
  // Invokes "Class.method" on the class's singleton instance. Throws
  // ThrownException (uncaught mj exception) or ExecutionAborted.
  Value Invoke(const std::string& qualified_name, std::vector<Value> args = {});

  // Creates an instance of `class_name` (user class, builtin exception, or
  // container), running field initializers / the `init` convention method.
  // Throws ThrownException when one of them raises.
  Value Instantiate(const std::string& class_name, std::vector<Value> args = {});

  // Builds an exception object by type name; used by the fault injector.
  ObjectRef MakeException(const std::string& class_name, const std::string& message);

  // --- Observation -----------------------------------------------------------
  ExecutionLog& log() { return log_; }
  const ExecutionLog& log() const { return log_; }
  int64_t now_ms() const { return virtual_time_ms_; }
  int64_t steps() const { return steps_; }
  // while/for iterations executed; retry loops dominate this in injected
  // runs, so per-run telemetry exposes it (docs/OBSERVABILITY.md).
  int64_t loop_iterations() const { return loop_iterations_; }
  std::vector<std::string> CaptureStack() const;
  const mj::ProgramIndex& index() const { return index_; }

  // --- Run reuse -------------------------------------------------------------
  // Restores the observable state of a freshly-constructed interpreter while
  // keeping warm storage: pooled frames retain their slot-vector capacity and
  // the dispatch cache survives (it is a pure function of the immutable
  // program). TestRunner calls it each time it hands a worker's warm
  // interpreter to a run (docs/PERFORMANCE.md).
  void ResetForRun();

 private:
  // The bytecode executor is an alternative body-execution strategy, not a
  // separate machine: it runs against this class's frames, budgets, caches,
  // the raised-exception slot and the log, so it needs the same access
  // ExecBlock has.
  friend class vm::VmExecutor;
  // Tests only: puts an interpreter into states no mj run reaches (a raise
  // left in the slot by a host exception) to prove ResetForRun clears them.
  friend struct InterpreterTestPeer;

  // A flat activation record: one slot per local declaration of the method
  // (the resolution pass assigned the indices), plus parallel defined-flags
  // that replicate "is this name in a scope map right now".
  struct Frame {
    const mj::MethodDecl* method = nullptr;
    const std::string* qualified_name = nullptr;  // Resolver-owned storage.
    ObjectRef self;
    std::vector<Value> slots;
    std::vector<uint8_t> defined;
    int64_t activation = 0;  // Unique per frame push.
  };

  // Per-call-site monomorphic dispatch cache entry. `method == nullptr` with
  // a non-null `cls` is a negative entry: this receiver class resolves no
  // user method here, fall through to builtins.
  struct DispatchEntry {
    const mj::ClassDecl* cls = nullptr;
    const mj::MethodDecl* method = nullptr;
  };

  // Statement execution outcome.
  enum class FlowKind : uint8_t { kNormal, kReturn, kBreak, kContinue };
  struct Flow {
    FlowKind kind = FlowKind::kNormal;
    Value value;  // Return value for kReturn.
  };

  // --- Statement/expression evaluation ---------------------------------------
  Flow ExecBlock(const mj::BlockStmt& block);
  Flow ExecStmt(const mj::Stmt& stmt);
  Value Eval(const mj::Expr& expr);

  Value EvalCall(const mj::CallExpr& call);
  // `&&`/`||` short-circuit; every other operator evaluates both operands,
  // then applies ApplyBinary.
  Value EvalBinary(const mj::BinaryExpr& expr);
  Value EvalNew(const mj::NewExpr& expr);
  // The one binary-operator kernel of both engines, on operands already
  // evaluated: int-int arithmetic and comparisons first, then string `+`,
  // ValueEquals for ==/!=, and int coercions with their type errors at
  // `location`. kAnd/kOr never reach it (the walker short-circuits them in
  // EvalBinary, the VM compiles them to jump chains).
  Value ApplyBinary(mj::BinaryOp op, const Value& lhs, const Value& rhs,
                    mj::SourceLocation location);
  // The one compound-assignment kernel of both engines: `old op= rhs` for op
  // kAddAssign (string concatenation when either side is a string) or
  // kSubAssign, with type errors at the statement's `location`.
  Value CombineAssign(mj::AssignOp op, const Value& old_value, const Value& rhs,
                      mj::SourceLocation location);
  // `args` is consumed (elements moved into the callee frame). By-reference so
  // EvalCall/EvalNew can pass pooled buffers instead of a fresh heap
  // allocation per call. Returns with raised_ set when an interceptor or the
  // callee raised; EvalCall and EvalNew pass that on the same way.
  Value CallMethod(const mj::MethodDecl& method, ObjectRef self, std::vector<Value>& args,
                   const mj::CallExpr* site);

  // Builtin dispatch. Returns true when handled.
  bool TryBuiltinStatic(const std::string& receiver, const mj::CallExpr& call, Value* result);
  bool TryBuiltinMethod(const ObjectRef& object, const mj::CallExpr& call,
                        std::vector<Value>& args, Value* result);
  bool TryStringMethod(const std::string& text, const mj::CallExpr& call,
                       std::vector<Value>& args, Value* result);

  // --- Variables and fields ---------------------------------------------------
  Frame& CurrentFrame() { return frames_[frame_depth_ - 1]; }
  // Frame management with high-water pooling: frames_[0, frame_depth_) are
  // live; popped frames keep their vector capacity for the next push.
  Frame& PushFrame(const mj::MethodDecl* method, const std::string* qualified_name,
                   ObjectRef self, uint32_t slot_count);
  void PopFrame();
  // Resolver-annotated name lookup: primary slot if its declaration executed,
  // else the outer fallback candidates, else null (== "undefined variable").
  // Inline: this sits on every name read/write in the interpreter loop.
  Value* LookupName(const mj::NameExpr& name) {
    if (frame_depth_ == 0 || name.slot == mj::kNoSlot) {
      return nullptr;
    }
    Frame& frame = frames_[frame_depth_ - 1];
    const auto slot = static_cast<size_t>(name.slot);
    if (slot >= frame.defined.size()) {
      return nullptr;  // Foreign frame (e.g. a field-init <init> frame).
    }
    if (frame.defined[slot]) {
      return &frame.slots[slot];
    }
    if (name.fallback_chain != mj::kNoNameChain) {
      for (mj::SlotIndex candidate : index_.name_chain(name.fallback_chain)) {
        const auto candidate_slot = static_cast<size_t>(candidate);
        if (frame.defined[candidate_slot]) {
          return &frame.slots[candidate_slot];
        }
      }
    }
    return nullptr;
  }
  // Invalidates a subtree's declarations on scope (re-)entry. Inline: runs on
  // every block entry, and most blocks declare nothing (count == 0).
  void ClearSlotRange(Frame& frame, uint32_t base, uint32_t count) {
    if (count > 0) {
      std::memset(frame.defined.data() + base, 0, count);
    }
  }
  Value ReadField(const ObjectRef& object, const std::string& field, mj::SymbolId symbol,
                  mj::SourceLocation location);
  void WriteField(const ObjectRef& object, const std::string& field, mj::SymbolId symbol,
                  Value value);

  // --- Helpers -----------------------------------------------------------------
  ObjectRef SingletonOf(const mj::ClassDecl& cls);
  ObjectRef NewInstance(const mj::ClassDecl& cls);
  void Sleep(int64_t millis);
  // Hot per-statement/per-iteration accounting — kept inline (with the throw
  // marked unlikely) so the check is a single increment-and-compare at every
  // call site instead of an out-of-line call.
  void Step() {
    if (++steps_ > options_.step_budget) [[unlikely]] {
      throw ExecutionAborted{AbortReason::kStepBudget};
    }
  }
  [[noreturn]] void ThrowMj(const std::string& class_name, const std::string& message);
  // Where the walker evaluates a call or a `new`: a raise waiting in the slot
  // becomes a ThrownException (and the slot empties).
  void ThrowIfRaised() {
    if (raised_ != nullptr) [[unlikely]] {
      ThrowRaised();
    }
  }
  [[noreturn]] void ThrowRaised();
  // IntDivide for op kDiv/kMod; a zero divisor throws mj ArithmeticException
  // ("division by zero" / "modulo by zero").
  int64_t DivideInt(mj::BinaryOp op, int64_t lhs, int64_t rhs);
  // AsBool/AsInt succeed on the expected alternative and otherwise delegate to
  // the out-of-line ThrowTypeError; splitting off the cold string-building
  // keeps the checks small enough to inline into Eval/EvalBinary.
  bool AsBool(const Value& value, mj::SourceLocation location);
  int64_t AsInt(const Value& value, mj::SourceLocation location);
  [[noreturn]] void ThrowTypeError(const char* expected, const Value& value,
                                   mj::SourceLocation location);

  const mj::Program& program_;
  const mj::ProgramIndex& index_;
  InterpOptions options_;

  // A deque so references to a frame stay valid while nested calls push and
  // pop frames. Frames above frame_depth_ are pooled storage kept warm for
  // reuse, not live activations.
  std::deque<Frame> frames_;
  size_t frame_depth_ = 0;
  // Pooled argument buffers, indexed by call-expression nesting depth (an
  // argument expression may itself contain calls). Saves the heap allocation
  // a fresh vector per call would cost; capacity stays warm across calls and
  // runs. A deque so held references survive deeper acquisitions.
  std::deque<std::vector<Value>> arg_buffers_;
  size_t arg_buffer_depth_ = 0;
  std::vector<DispatchEntry> dispatch_cache_;  // Indexed by CallExpr::site_index.
  // Bytecode for every method body (null when engine == kTree). Compiled once
  // at construction — a pure function of the immutable shared program, like
  // the dispatch cache — so it survives ResetForRun and runner reuse.
  std::shared_ptr<const vm::CompiledProgram> compiled_;
  // Pooled VM operand stacks, indexed by VM invocation depth (a callee's VM
  // run nests inside its caller's). Same warm-capacity discipline as
  // arg_buffers_; a deque so held references survive deeper acquisitions.
  std::deque<std::vector<Value>> vm_stacks_;
  size_t vm_stack_depth_ = 0;
  std::unordered_map<const mj::ClassDecl*, ObjectRef> singletons_;
  std::unordered_map<std::string, Value> config_;
  std::unordered_set<std::string> frozen_config_keys_;
  std::vector<CallInterceptor*> interceptors_;
  // Out-of-line cold path: called only when loop_observer_ is set.
  void NotifyLoopIteration();

  LoopObserver* loop_observer_ = nullptr;
  // The raised-exception slot (see the header comment): non-null while an mj
  // exception travels from a raise to the handler that takes it.
  ObjectRef raised_;
  ExecutionLog log_;
  int64_t virtual_time_ms_ = 0;
  int64_t run_epoch_ms_ = 0;
  int64_t steps_ = 0;
  int64_t loop_iterations_ = 0;
  int64_t next_activation_ = 1;
};

}  // namespace wasabi

#endif  // WASABI_SRC_INTERP_INTERPRETER_H_
