#include "src/interp/interpreter.h"

#include <cstring>
#include <utility>

#include "src/vm/bytecode.h"
#include "src/vm/vm.h"

namespace wasabi {

using mj::AstKind;

const char* AbortReasonName(AbortReason reason) {
  switch (reason) {
    case AbortReason::kStepBudget:
      return "step budget exceeded";
    case AbortReason::kVirtualTimeBudget:
      return "virtual time budget exceeded";
    case AbortReason::kStackOverflow:
      return "stack overflow";
  }
  return "unknown";
}

Interpreter::Interpreter(const mj::Program& program, const mj::ProgramIndex& index,
                         InterpOptions options)
    : program_(program), index_(index), options_(options) {
  dispatch_cache_.resize(index.call_site_count());
  if (options_.engine == EngineKind::kVm) {
    compiled_ = vm::Compile(program, index);
  }
}

void Interpreter::ResetForRun() {
  singletons_.clear();
  config_.clear();
  frozen_config_keys_.clear();
  interceptors_.clear();
  loop_observer_ = nullptr;
  raised_ = nullptr;
  log_.Clear();
  virtual_time_ms_ = 0;
  run_epoch_ms_ = 0;
  steps_ = 0;
  loop_iterations_ = 0;
  next_activation_ = 1;
  frame_depth_ = 0;
  for (Frame& frame : frames_) {
    frame.method = nullptr;
    frame.qualified_name = nullptr;
    frame.self = nullptr;
    frame.slots.clear();  // Keeps capacity, releases object references.
    frame.defined.clear();
  }
  for (std::vector<Value>& buffer : arg_buffers_) {
    buffer.clear();  // Keeps capacity, releases object references.
  }
  arg_buffer_depth_ = 0;
  for (std::vector<Value>& stack : vm_stacks_) {
    stack.clear();  // Keeps capacity, releases object references.
  }
  vm_stack_depth_ = 0;
  // dispatch_cache_ and compiled_ deliberately survive: both are pure
  // functions of the immutable shared program, so warm entries and compiled
  // chunks stay valid across runs.
}

void Interpreter::NotifyLoopIteration() {
  const std::string* name = frame_depth_ > 0 ? CurrentFrame().qualified_name : nullptr;
  loop_observer_->OnLoopIteration(name != nullptr ? std::string_view(*name) : std::string_view(),
                                  virtual_time_ms_);
}

void Interpreter::SetConfig(const std::string& key, Value value) {
  config_[key] = std::move(value);
}

void Interpreter::FreezeConfig(const std::string& key) {
  frozen_config_keys_.insert(key);
}

void Interpreter::AddInterceptor(CallInterceptor* interceptor) {
  interceptors_.push_back(interceptor);
}

std::vector<std::string> Interpreter::CaptureStack() const {
  std::vector<std::string> stack;
  stack.reserve(frame_depth_);
  for (size_t i = 0; i < frame_depth_; ++i) {
    stack.push_back(*frames_[i].qualified_name);
  }
  return stack;
}

Interpreter::Frame& Interpreter::PushFrame(const mj::MethodDecl* method,
                                           const std::string* qualified_name, ObjectRef self,
                                           uint32_t slot_count) {
  if (frame_depth_ == frames_.size()) {
    frames_.emplace_back();  // Deque: existing Frame references stay valid.
  }
  Frame& frame = frames_[frame_depth_++];
  frame.method = method;
  frame.qualified_name = qualified_name;
  frame.self = std::move(self);
  frame.activation = next_activation_++;
  // `defined` gates every slot read, so stale values left by earlier
  // activations are unreachable: grow the value vector as needed but never
  // refill it. `defined` itself must be EXACTLY slot_count long — LookupName
  // uses its size to recognize foreign frames — and assign() on a byte vector
  // with warm capacity is a memset.
  if (frame.slots.size() < slot_count) {
    frame.slots.resize(slot_count);
  }
  frame.defined.assign(slot_count, 0);
  return frame;
}

void Interpreter::PopFrame() {
  Frame& frame = frames_[--frame_depth_];
  frame.self = nullptr;
  // Slot values stay behind, unreachable (the next push zeroes `defined`);
  // ResetForRun or destruction releases pooled object references.
}

void Interpreter::Sleep(int64_t millis) {
  if (millis < 0) {
    millis = 0;
  }
  virtual_time_ms_ += millis;
  LogEntry entry;
  entry.kind = LogEntryKind::kSleep;
  entry.virtual_time_ms = virtual_time_ms_;
  entry.amount = millis;
  entry.call_stack = CaptureStack();
  log_.Append(std::move(entry));
  // Budget is epoch-relative: a run whose clock starts skewed (flakiness
  // probing) still gets the full virtual-time allowance.
  if (virtual_time_ms_ - run_epoch_ms_ > options_.virtual_time_budget_ms) {
    throw ExecutionAborted{AbortReason::kVirtualTimeBudget};
  }
}

ObjectRef Interpreter::MakeException(const std::string& class_name, const std::string& message) {
  const mj::ClassDecl* cls = index_.FindClass(class_name);
  ObjectRef exception;
  if (cls != nullptr) {
    exception = NewInstance(*cls);
  } else {
    exception = std::make_shared<Object>(ObjectKind::kException, class_name);
  }
  exception->set_message(message);
  exception->set_origin_stack(CaptureStack());
  return exception;
}

void Interpreter::ThrowMj(const std::string& class_name, const std::string& message) {
  throw ThrownException{MakeException(class_name, message)};
}

void Interpreter::ThrowRaised() {
  throw ThrownException{std::exchange(raised_, nullptr)};
}

bool Interpreter::AsBool(const Value& value, mj::SourceLocation location) {
  if (const bool* b = std::get_if<bool>(&value)) {
    return *b;
  }
  ThrowTypeError("bool", value, location);
}

int64_t Interpreter::AsInt(const Value& value, mj::SourceLocation location) {
  if (const int64_t* i = std::get_if<int64_t>(&value)) {
    return *i;
  }
  ThrowTypeError("int", value, location);
}

void Interpreter::ThrowTypeError(const char* expected, const Value& value,
                                 mj::SourceLocation location) {
  ThrowMj("IllegalStateException", "type error at line " + std::to_string(location.line) +
                                       ": expected " + expected + ", got " +
                                       ValueToString(value));
}

// ---------------------------------------------------------------------------
// Objects, fields, variables
// ---------------------------------------------------------------------------

ObjectRef Interpreter::NewInstance(const mj::ClassDecl& cls) {
  for (CallInterceptor* interceptor : interceptors_) {
    interceptor->OnInstantiate(cls);
  }
  const mj::FieldLayout& layout = index_.field_layout(cls);
  auto object = std::make_shared<Object>(ObjectKind::kInstance, cls.name);
  object->set_decl(&cls);
  object->BindLayout(&layout);

  // Run field initializers, base classes first, with `this` bound. The layout
  // pre-computed the base-first order and the slot of every declaration.
  PushFrame(nullptr, &layout.init_frame_name, object, 0);
  struct FramePopper {
    Interpreter* interp;
    ~FramePopper() { interp->PopFrame(); }
  } pop{this};
  for (const mj::FieldInitStep& step : layout.init_order) {
    Value value;  // null by default.
    if (step.field->init != nullptr) {
      value = Eval(*step.field->init);
    }
    object->field_slot(step.slot) = std::move(value);
  }
  return object;
}

ObjectRef Interpreter::SingletonOf(const mj::ClassDecl& cls) {
  auto it = singletons_.find(&cls);
  if (it != singletons_.end()) {
    return it->second;
  }
  ObjectRef instance = NewInstance(cls);
  singletons_.emplace(&cls, instance);
  return instance;
}

Value Interpreter::ReadField(const ObjectRef& object, const std::string& field,
                             mj::SymbolId symbol, mj::SourceLocation location) {
  const mj::FieldLayout* layout = object->layout();
  if (layout != nullptr && symbol != mj::kInvalidSymbol) {
    if (const uint32_t* slot = layout->SlotOf(symbol)) {
      return object->field_slot(*slot);
    }
  }
  auto& extra = object->extra_fields();
  auto it = extra.find(field);
  if (it != extra.end()) {
    return it->second;
  }
  // Declared but never assigned (no initializer ran because the declaration
  // lives on an unknown base class, etc.): null. Unknown fields are an error.
  const mj::ClassDecl* cls = object->decl();
  int depth = 0;
  while (cls != nullptr && depth++ < 64) {
    for (const mj::FieldDecl* decl : cls->fields) {
      if (decl->name == field) {
        return Value{};
      }
    }
    cls = cls->base_name.empty() ? nullptr : index_.FindClass(cls->base_name);
  }
  ThrowMj("IllegalStateException", "no such field '" + field + "' on " + object->class_name() +
                                       " at line " + std::to_string(location.line));
}

void Interpreter::WriteField(const ObjectRef& object, const std::string& field,
                             mj::SymbolId symbol, Value value) {
  const mj::FieldLayout* layout = object->layout();
  if (layout != nullptr && symbol != mj::kInvalidSymbol) {
    if (const uint32_t* slot = layout->SlotOf(symbol)) {
      object->field_slot(*slot) = std::move(value);
      return;
    }
  }
  object->extra_fields()[field] = std::move(value);
}

// ---------------------------------------------------------------------------
// Builtins
// ---------------------------------------------------------------------------

namespace {

// Exception-style constructor convention: (message), (cause), or both.
void ApplyExceptionCtorArgs(Object& object, const std::vector<Value>& args) {
  for (const Value& arg : args) {
    if (IsString(arg)) {
      object.set_message(std::get<std::string>(arg));
    } else if (IsObject(arg)) {
      object.set_cause(std::get<ObjectRef>(arg));
    }
  }
}

int64_t IntPow(int64_t base, int64_t exponent) {
  if (exponent < 0) {
    return 0;
  }
  int64_t result = 1;
  for (int64_t i = 0; i < exponent && i < 62; ++i) {
    result = WrapMul(result, base);
    if (result > (int64_t{1} << 52)) {
      return result;  // Clamp-ish: stop growing pathological backoffs.
    }
  }
  return result;
}

}  // namespace

bool Interpreter::TryBuiltinStatic(const std::string& receiver, const mj::CallExpr& call,
                                   Value* result) {
  auto eval_args = [&]() {
    std::vector<Value> args;
    args.reserve(call.args.size());
    for (const mj::Expr* arg : call.args) {
      args.push_back(Eval(*arg));
    }
    return args;
  };
  auto arg_count_error = [&]() {
    ThrowMj("IllegalArgumentException",
            "wrong argument count for " + receiver + "." + call.callee);
  };

  if (receiver == "Thread" || receiver == "TimeUnit" || receiver == "Timer" ||
      receiver == "Object") {
    // The sleep APIs the paper's delay oracle instruments (§3.1.3).
    bool is_sleep =
        (receiver == "Thread" && call.callee == "sleep") ||
        (receiver == "TimeUnit" &&
         (call.callee == "sleep" || call.callee == "timedWait" ||
          call.callee == "scheduledExecutionTime")) ||
        (receiver == "Timer" && (call.callee == "wait" || call.callee == "schedule")) ||
        (receiver == "Object" && call.callee == "wait");
    if (is_sleep) {
      std::vector<Value> args = eval_args();
      if (args.empty()) {
        arg_count_error();
      }
      // Timer.schedule(delay) and friends: the delay is the last int argument.
      Sleep(AsInt(args.back(), call.location));
      *result = Value{};
      return true;
    }
    return false;
  }

  if (receiver == "Clock") {
    if (call.callee == "nowMillis" || call.callee == "now") {
      *result = Value{virtual_time_ms_};
      return true;
    }
    return false;
  }

  if (receiver == "Log") {
    if (call.callee == "info" || call.callee == "warn" || call.callee == "error" ||
        call.callee == "debug") {
      std::vector<Value> args = eval_args();
      std::string text;
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) {
          text += " ";
        }
        text += ValueToString(args[i]);
      }
      LogEntry entry;
      entry.kind = LogEntryKind::kAppLog;
      entry.virtual_time_ms = virtual_time_ms_;
      entry.text = std::move(text);
      log_.Append(std::move(entry));
      *result = Value{};
      return true;
    }
    return false;
  }

  if (receiver == "Config") {
    std::vector<Value> args = eval_args();
    if (call.callee == "set") {
      if (args.size() != 2 || !IsString(args[0])) {
        arg_count_error();
      }
      const std::string& key = std::get<std::string>(args[0]);
      if (frozen_config_keys_.count(key) == 0) {
        config_[key] = args[1];
      }
      *result = Value{};
      return true;
    }
    if (call.callee == "getInt" || call.callee == "getBool" || call.callee == "getString" ||
        call.callee == "get") {
      if (args.empty() || !IsString(args[0])) {
        arg_count_error();
      }
      auto it = config_.find(std::get<std::string>(args[0]));
      if (it != config_.end()) {
        *result = it->second;
      } else if (args.size() >= 2) {
        *result = args[1];  // Caller-provided default.
      } else {
        *result = Value{};
      }
      return true;
    }
    return false;
  }

  if (receiver == "Math") {
    std::vector<Value> args = eval_args();
    if (call.callee == "pow" && args.size() == 2) {
      *result = Value{IntPow(AsInt(args[0], call.location), AsInt(args[1], call.location))};
      return true;
    }
    if (call.callee == "min" && args.size() == 2) {
      *result = Value{std::min(AsInt(args[0], call.location), AsInt(args[1], call.location))};
      return true;
    }
    if (call.callee == "max" && args.size() == 2) {
      *result = Value{std::max(AsInt(args[0], call.location), AsInt(args[1], call.location))};
      return true;
    }
    if (call.callee == "abs" && args.size() == 1) {
      int64_t v = AsInt(args[0], call.location);
      *result = Value{v < 0 ? WrapNeg(v) : v};
      return true;
    }
    return false;
  }

  if (receiver == "Assert") {
    std::vector<Value> args = eval_args();
    auto message_from = [&](size_t index) {
      return args.size() > index && IsString(args[index]) ? std::get<std::string>(args[index])
                                                          : std::string();
    };
    if (call.callee == "assertTrue" || call.callee == "assertFalse") {
      if (args.empty()) {
        arg_count_error();
      }
      bool condition = AsBool(args[0], call.location);
      bool expected = call.callee == "assertTrue";
      if (condition != expected) {
        std::string msg = message_from(1);
        ThrowMj("AssertionError", msg.empty() ? call.callee + " failed" : msg);
      }
      *result = Value{};
      return true;
    }
    if (call.callee == "assertEquals") {
      if (args.size() < 2) {
        arg_count_error();
      }
      if (!ValueEquals(args[0], args[1])) {
        std::string msg = message_from(2);
        ThrowMj("AssertionError", msg.empty() ? "assertEquals failed: expected " +
                                                    ValueToString(args[0]) + ", got " +
                                                    ValueToString(args[1])
                                              : msg);
      }
      *result = Value{};
      return true;
    }
    if (call.callee == "assertNull" || call.callee == "assertNotNull") {
      if (args.empty()) {
        arg_count_error();
      }
      bool is_null = IsNull(args[0]);
      bool expected = call.callee == "assertNull";
      if (is_null != expected) {
        std::string msg = message_from(1);
        ThrowMj("AssertionError", msg.empty() ? call.callee + " failed" : msg);
      }
      *result = Value{};
      return true;
    }
    if (call.callee == "fail") {
      std::string msg = message_from(0);
      ThrowMj("AssertionError", msg.empty() ? "fail() called" : msg);
    }
    return false;
  }

  return false;
}

bool Interpreter::TryStringMethod(const std::string& text, const mj::CallExpr& call,
                                  std::vector<Value>& args, Value* result) {
  if (call.callee == "length" && args.empty()) {
    *result = Value{static_cast<int64_t>(text.size())};
    return true;
  }
  if (call.callee == "isEmpty" && args.empty()) {
    *result = Value{text.empty()};
    return true;
  }
  if ((call.callee == "contains" || call.callee == "startsWith" || call.callee == "endsWith" ||
       call.callee == "equals") &&
      args.size() == 1 && IsString(args[0])) {
    const std::string& needle = std::get<std::string>(args[0]);
    if (call.callee == "contains") {
      *result = Value{text.find(needle) != std::string::npos};
    } else if (call.callee == "startsWith") {
      *result = Value{text.rfind(needle, 0) == 0};
    } else if (call.callee == "endsWith") {
      *result = Value{needle.size() <= text.size() &&
                      text.compare(text.size() - needle.size(), needle.size(), needle) == 0};
    } else {
      *result = Value{text == needle};
    }
    return true;
  }
  return false;
}

bool Interpreter::TryBuiltinMethod(const ObjectRef& object, const mj::CallExpr& call,
                                   std::vector<Value>& args, Value* result) {
  const std::string& name = call.callee;
  switch (object->kind()) {
    case ObjectKind::kQueue: {
      auto& queue = object->elements();
      if ((name == "put" || name == "add" || name == "offer" || name == "enqueue" ||
           name == "reenqueue" || name == "push") &&
          args.size() == 1) {
        queue.push_back(args[0]);
        *result = Value{};
        return true;
      }
      if ((name == "take" || name == "remove") && args.empty()) {
        if (queue.empty()) {
          ThrowMj("IllegalStateException", "take() on empty Queue");
        }
        *result = queue.front();
        queue.pop_front();
        return true;
      }
      if (name == "poll" && args.empty()) {
        if (queue.empty()) {
          *result = Value{};
        } else {
          *result = queue.front();
          queue.pop_front();
        }
        return true;
      }
      if (name == "peek" && args.empty()) {
        *result = queue.empty() ? Value{} : queue.front();
        return true;
      }
      if (name == "size" && args.empty()) {
        *result = Value{static_cast<int64_t>(queue.size())};
        return true;
      }
      if (name == "isEmpty" && args.empty()) {
        *result = Value{queue.empty()};
        return true;
      }
      if (name == "clear" && args.empty()) {
        queue.clear();
        *result = Value{};
        return true;
      }
      return false;
    }
    case ObjectKind::kList: {
      auto& list = object->elements();
      if (name == "add" && args.size() == 1) {
        list.push_back(args[0]);
        *result = Value{};
        return true;
      }
      if ((name == "get" || name == "set") && !args.empty() && IsInt(args[0])) {
        int64_t i = std::get<int64_t>(args[0]);
        if (i < 0 || i >= static_cast<int64_t>(list.size())) {
          ThrowMj("IllegalArgumentException",
                  "index " + std::to_string(i) + " out of bounds for List of size " +
                      std::to_string(list.size()));
        }
        if (name == "get" && args.size() == 1) {
          *result = list[static_cast<size_t>(i)];
          return true;
        }
        if (name == "set" && args.size() == 2) {
          list[static_cast<size_t>(i)] = args[1];
          *result = Value{};
          return true;
        }
        return false;
      }
      if (name == "contains" && args.size() == 1) {
        bool found = false;
        for (const Value& element : list) {
          if (ValueEquals(element, args[0])) {
            found = true;
          }
        }
        *result = Value{found};
        return true;
      }
      if (name == "size" && args.empty()) {
        *result = Value{static_cast<int64_t>(list.size())};
        return true;
      }
      if (name == "isEmpty" && args.empty()) {
        *result = Value{list.empty()};
        return true;
      }
      if (name == "clear" && args.empty()) {
        list.clear();
        *result = Value{};
        return true;
      }
      return false;
    }
    case ObjectKind::kMap: {
      auto& map = object->entries();
      bool key_ok = false;
      if (name == "put" && args.size() == 2) {
        std::string key = MapKeyFor(args[0], &key_ok);
        if (!key_ok) {
          ThrowMj("IllegalArgumentException", "unsupported Map key type");
        }
        map[key] = args[1];
        *result = Value{};
        return true;
      }
      if ((name == "get" || name == "containsKey" || name == "remove") && args.size() == 1) {
        std::string key = MapKeyFor(args[0], &key_ok);
        if (!key_ok) {
          ThrowMj("IllegalArgumentException", "unsupported Map key type");
        }
        auto it = map.find(key);
        if (name == "get") {
          *result = it == map.end() ? Value{} : it->second;
        } else if (name == "containsKey") {
          *result = Value{it != map.end()};
        } else {
          if (it != map.end()) {
            map.erase(it);
          }
          *result = Value{};
        }
        return true;
      }
      if (name == "size" && args.empty()) {
        *result = Value{static_cast<int64_t>(map.size())};
        return true;
      }
      if (name == "isEmpty" && args.empty()) {
        *result = Value{map.empty()};
        return true;
      }
      if (name == "clear" && args.empty()) {
        map.clear();
        *result = Value{};
        return true;
      }
      return false;
    }
    case ObjectKind::kException:
    case ObjectKind::kInstance: {
      // Exception accessors available on any throwable-ish object whose user
      // class does not override them.
      if (name == "getMessage" && args.empty()) {
        *result = object->message().empty() ? Value{} : Value{object->message()};
        return true;
      }
      if (name == "getCause" && args.empty()) {
        *result = object->cause() == nullptr ? Value{} : Value{object->cause()};
        return true;
      }
      if (name == "toString" && args.empty()) {
        *result = Value{object->class_name() +
                        (object->message().empty() ? "" : ": " + object->message())};
        return true;
      }
      return false;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

Value Interpreter::CallMethod(const mj::MethodDecl& method, ObjectRef self,
                              std::vector<Value>& args, const mj::CallExpr* site) {
  if (static_cast<int>(frame_depth_) >= options_.max_call_depth) {
    throw ExecutionAborted{AbortReason::kStackOverflow};
  }

  CallEvent event;
  if (frame_depth_ > 0) {
    const Frame& caller = frames_[frame_depth_ - 1];
    event.caller = *caller.qualified_name;
    event.caller_activation = caller.activation;
  }
  event.callee = method.qualified_cache;
  event.method = &method;
  event.site = site;
  for (CallInterceptor* interceptor : interceptors_) {
    if (ObjectRef exception = interceptor->OnCall(event, *this); exception != nullptr) {
      raised_ = std::move(exception);
      return Value{};
    }
  }

  if (method.body == nullptr) {
    raised_ = MakeException("UnsupportedOperationException",
                            "call to method without a body: " + method.QualifiedName());
    return Value{};
  }

  Frame& frame = PushFrame(&method, &method.qualified_cache, std::move(self), method.max_slots);
  struct FramePopper {
    Interpreter* interp;
    ~FramePopper() { interp->PopFrame(); }
  } pop{this};

  // Bind parameters by their resolved slots, in order: duplicate names share
  // a slot, so the later argument wins like the old scope-map insert did.
  for (size_t i = 0; i < method.params.size(); ++i) {
    Value value = i < args.size() ? std::move(args[i]) : Value{};
    const auto slot = static_cast<size_t>(method.params[i]->slot);
    frame.slots[slot] = std::move(value);
    frame.defined[slot] = 1;
  }

  if (compiled_ != nullptr) {
    const vm::Chunk& chunk = compiled_->methods[method.method_index];
    if (chunk.compiled) {
      return vm::VmExecutor::Run(*this, chunk);
    }
  }
  Flow flow = ExecBlock(*method.body);
  if (flow.kind == FlowKind::kReturn) {
    return flow.value;
  }
  return Value{};
}

Value Interpreter::EvalCall(const mj::CallExpr& call) {
  Step();

  // --- Determine the receiver ------------------------------------------------
  Value receiver_value;
  bool have_receiver_value = false;

  if (call.base == nullptr || call.base->kind == AstKind::kThis) {
    // this-call.
    ObjectRef self = frame_depth_ == 0 ? nullptr : CurrentFrame().self;
    if (self == nullptr) {
      ThrowMj("IllegalStateException", "implicit this-call outside an instance: " + call.callee);
    }
    receiver_value = Value{self};
    have_receiver_value = true;
  } else if (call.base->kind == AstKind::kName) {
    const auto* receiver = static_cast<const mj::NameExpr*>(call.base);
    if (Value* local = LookupName(*receiver); local != nullptr) {
      receiver_value = *local;
      have_receiver_value = true;
    } else {
      // Not a live variable: builtin receiver, then class singleton (the
      // resolver cached the FindClass result), then error — same order the
      // dynamic lookup used.
      Value result;
      if (TryBuiltinStatic(receiver->name, call, &result)) {
        return result;
      }
      if (receiver->class_ref != nullptr) {
        receiver_value = Value{SingletonOf(*receiver->class_ref)};
        have_receiver_value = true;
      } else {
        ThrowMj("IllegalStateException", "undefined receiver '" + receiver->name + "' at line " +
                                             std::to_string(call.location.line));
      }
    }
  }

  if (!have_receiver_value) {
    receiver_value = Eval(*call.base);
  }

  // --- Evaluate arguments ------------------------------------------------------
  if (arg_buffer_depth_ == arg_buffers_.size()) {
    arg_buffers_.emplace_back();
  }
  std::vector<Value>& args = arg_buffers_[arg_buffer_depth_++];
  struct BufferReleaser {
    Interpreter* interp;
    std::vector<Value>* buffer;
    ~BufferReleaser() {
      buffer->clear();
      --interp->arg_buffer_depth_;
    }
  } release{this, &args};
  args.reserve(call.args.size());
  for (const mj::Expr* arg : call.args) {
    args.push_back(Eval(*arg));
  }

  // --- Dispatch ---------------------------------------------------------------
  if (IsNull(receiver_value)) {
    ThrowMj("NullPointerException", "call of '" + call.callee + "' on null at line " +
                                        std::to_string(call.location.line));
  }
  if (IsString(receiver_value)) {
    Value result;
    if (TryStringMethod(std::get<std::string>(receiver_value), call, args, &result)) {
      return result;
    }
    ThrowMj("IllegalStateException", "no String method '" + call.callee + "'");
  }
  if (!IsObject(receiver_value)) {
    ThrowMj("IllegalStateException", "call of '" + call.callee + "' on non-object " +
                                         ValueToString(receiver_value));
  }

  ObjectRef object = std::get<ObjectRef>(receiver_value);
  if (object->decl() != nullptr) {
    // Monomorphic per-site dispatch cache (with negative caching: a null
    // method for a matching class means "no user method, use builtins").
    const mj::MethodDecl* method = nullptr;
    if (call.site_index != mj::kNoCallSite) {
      DispatchEntry& entry = dispatch_cache_[call.site_index];
      if (entry.cls != object->decl()) {
        entry.cls = object->decl();
        entry.method = index_.ResolveMethod(*object->decl(), call.callee);
      }
      method = entry.method;
    } else {
      method = index_.ResolveMethod(*object->decl(), call.callee);
    }
    if (method != nullptr) {
      return CallMethod(*method, object, args, &call);
    }
  }
  Value result;
  if (TryBuiltinMethod(object, call, args, &result)) {
    return result;
  }
  ThrowMj("IllegalStateException", "no method '" + call.callee + "' on " +
                                       object->class_name() + " at line " +
                                       std::to_string(call.location.line));
}

Value Interpreter::EvalNew(const mj::NewExpr& expr) {
  Step();
  if (arg_buffer_depth_ == arg_buffers_.size()) {
    arg_buffers_.emplace_back();
  }
  std::vector<Value>& args = arg_buffers_[arg_buffer_depth_++];
  struct BufferReleaser {
    Interpreter* interp;
    std::vector<Value>* buffer;
    ~BufferReleaser() {
      buffer->clear();
      --interp->arg_buffer_depth_;
    }
  } release{this, &args};
  args.reserve(expr.args.size());
  for (const mj::Expr* arg : expr.args) {
    args.push_back(Eval(*arg));
  }

  // Resolution already classified the class name; skip the string dispatch.
  switch (expr.new_kind) {
    case mj::NewKind::kQueue:
      return Value{std::make_shared<Object>(ObjectKind::kQueue, "Queue")};
    case mj::NewKind::kList:
      return Value{std::make_shared<Object>(ObjectKind::kList, "List")};
    case mj::NewKind::kMap:
      return Value{std::make_shared<Object>(ObjectKind::kMap, "Map")};
    case mj::NewKind::kUserClass: {
      ObjectRef object = NewInstance(*expr.class_ref);
      object->set_origin_stack(CaptureStack());
      if (expr.init_method != nullptr) {
        CallMethod(*expr.init_method, object, args, nullptr);  // A raise passes on.
        return Value{object};
      }
      ApplyExceptionCtorArgs(*object, args);
      return Value{object};
    }
    case mj::NewKind::kBuiltinException: {
      auto object = std::make_shared<Object>(ObjectKind::kException, expr.class_name);
      object->set_origin_stack(CaptureStack());
      ApplyExceptionCtorArgs(*object, args);
      return Value{object};
    }
    case mj::NewKind::kUnknownClass:
      ThrowMj("IllegalStateException", "unknown class '" + expr.class_name + "'");
    case mj::NewKind::kUnresolved:
      break;
  }
  return Instantiate(expr.class_name, std::move(args));
}

Value Interpreter::Instantiate(const std::string& class_name, std::vector<Value> args) {
  if (class_name == "Queue") {
    return Value{std::make_shared<Object>(ObjectKind::kQueue, "Queue")};
  }
  if (class_name == "List") {
    return Value{std::make_shared<Object>(ObjectKind::kList, "List")};
  }
  if (class_name == "Map") {
    return Value{std::make_shared<Object>(ObjectKind::kMap, "Map")};
  }

  ObjectRef object;
  const mj::ClassDecl* cls = index_.FindClass(class_name);
  if (cls != nullptr) {
    object = NewInstance(*cls);
  } else if (mj::IsBuiltinException(class_name)) {
    object = std::make_shared<Object>(ObjectKind::kException, class_name);
  } else {
    ThrowMj("IllegalStateException", "unknown class '" + class_name + "'");
  }
  object->set_origin_stack(CaptureStack());

  // Constructor conventions: an explicit `init` method wins; otherwise
  // (message), (cause), or (message, cause) in exception style.
  if (cls != nullptr) {
    const mj::MethodDecl* init = index_.ResolveMethod(*cls, "init");
    if (init != nullptr) {
      CallMethod(*init, object, args, nullptr);
      ThrowIfRaised();
      return Value{object};
    }
  }
  ApplyExceptionCtorArgs(*object, args);
  return Value{object};
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

int64_t Interpreter::DivideInt(mj::BinaryOp op, int64_t lhs, int64_t rhs) {
  const bool modulo = op == mj::BinaryOp::kMod;
  int64_t result = 0;
  if (!IntDivide(lhs, rhs, modulo, &result)) {
    ThrowMj("ArithmeticException", modulo ? "modulo by zero" : "division by zero");
  }
  return result;
}

Value Interpreter::ApplyBinary(mj::BinaryOp op, const Value& lhs, const Value& rhs,
                               mj::SourceLocation location) {
  using mj::BinaryOp;
  // Int-int, the common case, first; then the boxed arm, which yields the
  // same result for two ints and owns string `+`, ValueEquals and the type
  // errors.
  const int64_t* li = std::get_if<int64_t>(&lhs);
  const int64_t* ri = std::get_if<int64_t>(&rhs);
  if (li != nullptr && ri != nullptr) {
    switch (op) {
      case BinaryOp::kAdd:
        return Value{WrapAdd(*li, *ri)};
      case BinaryOp::kSub:
        return Value{WrapSub(*li, *ri)};
      case BinaryOp::kMul:
        return Value{WrapMul(*li, *ri)};
      case BinaryOp::kDiv:
      case BinaryOp::kMod:
        return Value{DivideInt(op, *li, *ri)};
      case BinaryOp::kEq:
        return Value{*li == *ri};
      case BinaryOp::kNe:
        return Value{*li != *ri};
      case BinaryOp::kLt:
        return Value{*li < *ri};
      case BinaryOp::kLe:
        return Value{*li <= *ri};
      case BinaryOp::kGt:
        return Value{*li > *ri};
      case BinaryOp::kGe:
        return Value{*li >= *ri};
      default:
        ThrowMj("IllegalStateException", "unsupported binary operator");
    }
  }
  switch (op) {
    case BinaryOp::kAdd:
      if (IsString(lhs) || IsString(rhs)) {
        return Value{ValueToString(lhs) + ValueToString(rhs)};
      }
      return Value{WrapAdd(AsInt(lhs, location), AsInt(rhs, location))};
    case BinaryOp::kSub:
      return Value{WrapSub(AsInt(lhs, location), AsInt(rhs, location))};
    case BinaryOp::kMul:
      return Value{WrapMul(AsInt(lhs, location), AsInt(rhs, location))};
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      // The divisor is coerced and zero-checked before the dividend.
      const int64_t divisor = AsInt(rhs, location);
      return Value{DivideInt(op, divisor == 0 ? 0 : AsInt(lhs, location), divisor)};
    }
    case BinaryOp::kEq:
      return Value{ValueEquals(lhs, rhs)};
    case BinaryOp::kNe:
      return Value{!ValueEquals(lhs, rhs)};
    case BinaryOp::kLt:
      return Value{AsInt(lhs, location) < AsInt(rhs, location)};
    case BinaryOp::kLe:
      return Value{AsInt(lhs, location) <= AsInt(rhs, location)};
    case BinaryOp::kGt:
      return Value{AsInt(lhs, location) > AsInt(rhs, location)};
    case BinaryOp::kGe:
      return Value{AsInt(lhs, location) >= AsInt(rhs, location)};
    default:
      ThrowMj("IllegalStateException", "unsupported binary operator");
  }
}

Value Interpreter::CombineAssign(mj::AssignOp op, const Value& old_value, const Value& rhs,
                                 mj::SourceLocation location) {
  if (op == mj::AssignOp::kAddAssign) {
    if (IsString(old_value) || IsString(rhs)) {
      return Value{ValueToString(old_value) + ValueToString(rhs)};
    }
    return Value{WrapAdd(AsInt(old_value, location), AsInt(rhs, location))};
  }
  return Value{WrapSub(AsInt(old_value, location), AsInt(rhs, location))};
}

Value Interpreter::EvalBinary(const mj::BinaryExpr& expr) {
  // Short-circuit operators coerce their operands at the binary's own
  // location and evaluate the rhs only when the lhs does not decide.
  if (expr.op == mj::BinaryOp::kAnd || expr.op == mj::BinaryOp::kOr) {
    const bool lhs = AsBool(Eval(*expr.lhs), expr.location);
    if (lhs == (expr.op == mj::BinaryOp::kOr)) {
      return Value{lhs};
    }
    return Value{AsBool(Eval(*expr.rhs), expr.location)};
  }
  // Both operands evaluate before any type check.
  Value lhs = Eval(*expr.lhs);
  Value rhs = Eval(*expr.rhs);
  return ApplyBinary(expr.op, lhs, rhs, expr.location);
}

Value Interpreter::Eval(const mj::Expr& expr) {
  switch (expr.kind) {
    case AstKind::kIntLiteral:
      return Value{static_cast<const mj::IntLiteralExpr&>(expr).value};
    case AstKind::kBoolLiteral:
      return Value{static_cast<const mj::BoolLiteralExpr&>(expr).value};
    case AstKind::kStringLiteral:
      return Value{static_cast<const mj::StringLiteralExpr&>(expr).value};
    case AstKind::kNullLiteral:
      return Value{};
    case AstKind::kThis: {
      ObjectRef self = frame_depth_ == 0 ? nullptr : CurrentFrame().self;
      if (self == nullptr) {
        ThrowMj("IllegalStateException", "'this' outside an instance method");
      }
      return Value{self};
    }
    case AstKind::kName: {
      const auto& name = static_cast<const mj::NameExpr&>(expr);
      if (Value* local = LookupName(name); local != nullptr) {
        return *local;
      }
      ThrowMj("IllegalStateException", "undefined variable '" + name.name + "' at line " +
                                           std::to_string(expr.location.line));
    }
    case AstKind::kFieldAccess: {
      const auto& access = static_cast<const mj::FieldAccessExpr&>(expr);
      Value base = Eval(*access.base);
      if (IsNull(base)) {
        ThrowMj("NullPointerException", "field access '" + access.field + "' on null at line " +
                                            std::to_string(expr.location.line));
      }
      if (!IsObject(base)) {
        ThrowMj("IllegalStateException",
                "field access on non-object " + ValueToString(base));
      }
      return ReadField(std::get<ObjectRef>(base), access.field, access.field_symbol,
                       expr.location);
    }
    case AstKind::kCall: {
      Value result = EvalCall(static_cast<const mj::CallExpr&>(expr));
      ThrowIfRaised();
      return result;
    }
    case AstKind::kNew: {
      Value result = EvalNew(static_cast<const mj::NewExpr&>(expr));
      ThrowIfRaised();
      return result;
    }
    case AstKind::kUnary: {
      const auto& unary = static_cast<const mj::UnaryExpr&>(expr);
      Value operand = Eval(*unary.operand);
      if (unary.op == mj::UnaryOp::kNot) {
        return Value{!AsBool(operand, expr.location)};
      }
      return Value{WrapNeg(AsInt(operand, expr.location))};
    }
    case AstKind::kBinary:
      return EvalBinary(static_cast<const mj::BinaryExpr&>(expr));
    case AstKind::kInstanceOf: {
      const auto& iof = static_cast<const mj::InstanceOfExpr&>(expr);
      Value operand = Eval(*iof.operand);
      if (!IsObject(operand)) {
        return Value{false};
      }
      return Value{
          index_.IsSubtype(std::get<ObjectRef>(operand)->class_name(), iof.type_name)};
    }
    default:
      ThrowMj("IllegalStateException", "unsupported expression");
  }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Interpreter::Flow Interpreter::ExecBlock(const mj::BlockStmt& block) {
  // Entering the block invalidates its subtree's declarations — the dynamic
  // semantics rebuilt inner scope maps from scratch on every (re-)entry. No
  // scope-exit work is needed (exception unwinding included): dead slots are
  // unreachable until the next entry clears them.
  ClearSlotRange(CurrentFrame(), block.slot_base, block.slot_count);
  for (const mj::Stmt* stmt : block.statements) {
    Flow flow = ExecStmt(*stmt);
    if (flow.kind != FlowKind::kNormal) {
      return flow;
    }
  }
  return Flow{};
}

Interpreter::Flow Interpreter::ExecStmt(const mj::Stmt& stmt) {
  Step();
  switch (stmt.kind) {
    case AstKind::kBlock:
      return ExecBlock(static_cast<const mj::BlockStmt&>(stmt));

    case AstKind::kVarDecl: {
      const auto& decl = static_cast<const mj::VarDeclStmt&>(stmt);
      Value value = Eval(*decl.init);  // The initializer runs before the name binds.
      Frame& frame = CurrentFrame();
      const auto slot = static_cast<size_t>(decl.slot);
      frame.slots[slot] = std::move(value);
      frame.defined[slot] = 1;
      return Flow{};
    }

    case AstKind::kAssign: {
      const auto& assign = static_cast<const mj::AssignStmt&>(stmt);
      if (assign.target->kind == AstKind::kName) {
        const auto* name = static_cast<const mj::NameExpr*>(assign.target);
        // The slot pointer stays valid across Eval: live frames are fixed-size
        // and the deque never moves them.
        Value* slot = LookupName(*name);
        if (slot == nullptr) {
          ThrowMj("IllegalStateException", "assignment to undefined variable '" + name->name +
                                               "' at line " + std::to_string(stmt.location.line));
        }
        Value rhs = Eval(*assign.value);
        if (assign.op == mj::AssignOp::kAssign) {
          *slot = std::move(rhs);
        } else {
          *slot = CombineAssign(assign.op, *slot, rhs, stmt.location);
        }
        return Flow{};
      }
      const auto* access = static_cast<const mj::FieldAccessExpr*>(assign.target);
      Value base = Eval(*access->base);
      if (IsNull(base)) {
        ThrowMj("NullPointerException", "field assignment on null at line " +
                                            std::to_string(stmt.location.line));
      }
      if (!IsObject(base)) {
        ThrowMj("IllegalStateException", "field assignment on non-object");
      }
      ObjectRef object = std::get<ObjectRef>(base);
      Value rhs = Eval(*assign.value);
      if (assign.op == mj::AssignOp::kAssign) {
        WriteField(object, access->field, access->field_symbol, std::move(rhs));
      } else {
        Value old_value = ReadField(object, access->field, access->field_symbol, stmt.location);
        WriteField(object, access->field, access->field_symbol,
                   CombineAssign(assign.op, old_value, rhs, stmt.location));
      }
      return Flow{};
    }

    case AstKind::kExprStmt:
      Eval(*static_cast<const mj::ExprStmt&>(stmt).expr);
      return Flow{};

    case AstKind::kIf: {
      const auto& node = static_cast<const mj::IfStmt&>(stmt);
      if (AsBool(Eval(*node.condition), stmt.location)) {
        return ExecStmt(*node.then_branch);
      }
      if (node.else_branch != nullptr) {
        return ExecStmt(*node.else_branch);
      }
      return Flow{};
    }

    case AstKind::kWhile: {
      const auto& node = static_cast<const mj::WhileStmt&>(stmt);
      while (AsBool(Eval(*node.condition), stmt.location)) {
        Step();
        ++loop_iterations_;
        if (loop_observer_ != nullptr) {
          NotifyLoopIteration();
        }
        Flow flow = ExecStmt(*node.body);
        if (flow.kind == FlowKind::kBreak) {
          break;
        }
        if (flow.kind == FlowKind::kReturn) {
          return flow;
        }
        // kContinue and kNormal both loop.
      }
      return Flow{};
    }

    case AstKind::kFor: {
      const auto& node = static_cast<const mj::ForStmt&>(stmt);
      // The for-statement's own scope: cleared at entry; the init declaration
      // then persists across iterations, like its scope map did.
      ClearSlotRange(CurrentFrame(), node.slot_base, node.slot_count);
      if (node.init != nullptr) {
        Flow flow = ExecStmt(*node.init);
        if (flow.kind != FlowKind::kNormal) {
          return flow;
        }
      }
      while (node.condition == nullptr || AsBool(Eval(*node.condition), stmt.location)) {
        Step();
        ++loop_iterations_;
        if (loop_observer_ != nullptr) {
          NotifyLoopIteration();
        }
        Flow flow = ExecStmt(*node.body);
        if (flow.kind == FlowKind::kBreak) {
          break;
        }
        if (flow.kind == FlowKind::kReturn) {
          return flow;
        }
        if (node.update != nullptr) {
          Flow update_flow = ExecStmt(*node.update);
          if (update_flow.kind != FlowKind::kNormal) {
            return update_flow;
          }
        }
      }
      return Flow{};
    }

    case AstKind::kSwitch: {
      const auto& node = static_cast<const mj::SwitchStmt&>(stmt);
      Value subject = Eval(*node.subject);
      // Find the matching case (or default), then execute with fallthrough.
      size_t start = node.cases.size();
      size_t default_index = node.cases.size();
      for (size_t i = 0; i < node.cases.size() && start == node.cases.size(); ++i) {
        if (node.cases[i].labels.empty()) {
          default_index = i;
          continue;
        }
        for (const mj::Expr* label : node.cases[i].labels) {
          if (ValueEquals(subject, Eval(*label))) {
            start = i;
            break;
          }
        }
      }
      if (start == node.cases.size()) {
        start = default_index;
      }
      for (size_t i = start; i < node.cases.size(); ++i) {
        for (const mj::Stmt* child : node.cases[i].body) {
          Flow flow = ExecStmt(*child);
          if (flow.kind == FlowKind::kBreak) {
            return Flow{};  // Break exits the switch.
          }
          if (flow.kind != FlowKind::kNormal) {
            return flow;  // Return/continue propagate.
          }
        }
      }
      return Flow{};
    }

    case AstKind::kTry: {
      const auto& node = static_cast<const mj::TryStmt&>(stmt);
      Flow flow;
      bool pending_throw = false;
      ObjectRef exception;
      try {
        flow = ExecBlock(*node.body);
      } catch (ThrownException& thrown) {
        pending_throw = true;
        exception = thrown.exception;
      }
      if (pending_throw) {
        for (const mj::CatchClause& clause : node.catches) {
          if (!index_.IsSubtype(exception->class_name(), clause.exception_type)) {
            continue;
          }
          pending_throw = false;
          Frame& frame = CurrentFrame();
          ClearSlotRange(frame, clause.slot_base, clause.slot_count);
          const auto var_slot = static_cast<size_t>(clause.var_slot);
          frame.slots[var_slot] = Value{exception};
          frame.defined[var_slot] = 1;
          try {
            flow = ExecBlock(*clause.body);
          } catch (ThrownException& rethrown) {
            pending_throw = true;
            exception = rethrown.exception;
          }
          break;
        }
      }
      if (node.finally != nullptr) {
        Flow finally_flow = ExecBlock(*node.finally);  // May itself throw.
        if (finally_flow.kind != FlowKind::kNormal) {
          return finally_flow;  // Finally control flow wins (Java semantics).
        }
      }
      if (pending_throw) {
        throw ThrownException{exception};
      }
      return flow;
    }

    case AstKind::kThrow: {
      const auto& node = static_cast<const mj::ThrowStmt&>(stmt);
      Value value = Eval(*node.value);
      if (!IsObject(value)) {
        ThrowMj("IllegalStateException", "throw of non-object value at line " +
                                             std::to_string(stmt.location.line));
      }
      throw ThrownException{std::get<ObjectRef>(value)};
    }

    case AstKind::kReturn: {
      const auto& node = static_cast<const mj::ReturnStmt&>(stmt);
      Flow flow;
      flow.kind = FlowKind::kReturn;
      if (node.value != nullptr) {
        flow.value = Eval(*node.value);
      }
      return flow;
    }

    case AstKind::kBreak:
      return Flow{FlowKind::kBreak, {}};
    case AstKind::kContinue:
      return Flow{FlowKind::kContinue, {}};

    default:
      ThrowMj("IllegalStateException", "unsupported statement");
  }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

Value Interpreter::Invoke(const std::string& qualified_name, std::vector<Value> args) {
  const mj::MethodDecl* method = index_.FindQualified(qualified_name);
  if (method == nullptr) {
    ThrowMj("IllegalStateException", "no such method: " + qualified_name);
  }
  ObjectRef self = method->owner != nullptr ? SingletonOf(*method->owner) : nullptr;
  Value result = CallMethod(*method, std::move(self), args, nullptr);
  ThrowIfRaised();
  return result;
}

}  // namespace wasabi
