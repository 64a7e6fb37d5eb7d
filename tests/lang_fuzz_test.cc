// Seeded grammar fuzzer for the mj front end and the slot-frame interpreter
// (ctest label "fuzz"). Each seed generates one random program from a
// restricted integer-only grammar — nested blocks, shadowing declarations,
// if/else, bounded while loops, compound assignment, and occasional reads of
// names that have gone out of scope — and checks two properties:
//
//   1. Printer fixpoint: Print(Parse(text)) == Print(Parse(Print(Parse(text)))).
//      One reprint reaches the canonical form; a second must not move it.
//   2. Interpreter equivalence: the resolver-driven slot-frame interpreter
//      agrees with an in-test reference walker that executes the same AST with
//      literal dynamic scope maps (the semantics the resolution pass must
//      reproduce with slots and defined-flags; see interp_resolver_test.cc).
//      Agreement covers both the returned value and, for programs that read an
//      undefined name, the exact IllegalStateException variable name.
//
// The generator tracks a conservative magnitude bound per variable so no
// expression can overflow int64 (loops run <= 3 iterations, leaf operands are
// capped, products always have one small-literal side).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/interp/interpreter.h"
#include "src/lang/ast.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/lang/rewrite.h"
#include "src/lang/sema.h"
#include "src/repair/templates.h"
#include "tests/lexer_locations.h"

namespace wasabi {
namespace {

// --- Program generator -------------------------------------------------------

constexpr long long kLeafBound = 1 << 20;  // Vars above this stop being leaves.
constexpr int kMaxDepth = 3;               // Block/if/while nesting depth.
constexpr int kMaxExprDepth = 3;

class Fuzzer {
 public:
  explicit Fuzzer(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    out_.str("");
    scopes_.clear();
    retired_.clear();
    loop_counter_ = 0;
    // Budget keeps the worst-case program (deep nesting, three-way loops)
    // small enough that 500 seeds stay well under a second.
    stmt_budget_ = 24 + Rand(32);
    plant_undefined_ = Rand(4) == 0;  // ~25% of programs carry one bad read.

    out_ << "class F {\n  int f() {\n";
    scopes_.push_back({});
    Emit(2, "var sink = 0;");
    scopes_.back()["sink"] = 0;
    while (stmt_budget_ > 0) {
      EmitStmt(/*depth=*/0, /*indent=*/2);
    }
    Emit(2, "return sink;");
    scopes_.pop_back();
    out_ << "  }\n}\n";
    return out_.str();
  }

 private:
  struct GenExpr {
    std::string text;
    long long bound = 0;
  };

  int Rand(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  void Emit(int indent, const std::string& line) {
    out_ << std::string(static_cast<size_t>(indent), ' ') << line << "\n";
  }

  // In-scope variables usable as expression leaves (bound small enough that
  // any depth-limited expression over them stays far from int64 overflow).
  std::vector<std::string> LeafVars() const {
    std::vector<std::string> names;
    for (const auto& scope : scopes_) {
      for (const auto& [name, bound] : scope) {
        if (name != "sink" && bound <= kLeafBound) {
          names.push_back(name);
        }
      }
    }
    return names;
  }

  // Assignment targets: leaf variables minus loop counters — writing to an
  // enclosing loop's counter could reset it every iteration and hang both
  // interpreters identically, which proves nothing.
  std::vector<std::string> AssignableVars() const {
    std::vector<std::string> names;
    for (const std::string& name : LeafVars()) {
      if (name[0] != 'l') {
        names.push_back(name);
      }
    }
    return names;
  }

  bool InScope(const std::string& name) const {
    for (const auto& scope : scopes_) {
      if (scope.count(name) != 0) {
        return true;
      }
    }
    return false;
  }

  // A name guaranteed to be undefined at this point: preferably one retired
  // with a closed block (and not shadow-resurrected by an outer declaration),
  // otherwise a name no program ever declares.
  std::string UndefinedName() {
    std::vector<std::string> dead;
    for (const std::string& name : retired_) {
      if (!InScope(name)) {
        dead.push_back(name);
      }
    }
    if (!dead.empty()) {
      return dead[static_cast<size_t>(Rand(static_cast<int>(dead.size())))];
    }
    return "zz" + std::to_string(Rand(3));
  }

  GenExpr Expr(int depth) {
    const std::vector<std::string> leaves = LeafVars();
    // Leaf: literal, variable, or (rarely, once per flagged program) a read of
    // an out-of-scope name — the divergence-hunting case.
    if (depth >= kMaxExprDepth || Rand(3) == 0 || leaves.empty()) {
      if (plant_undefined_ && Rand(12) == 0) {
        plant_undefined_ = false;
        return {UndefinedName(), 0};
      }
      if (leaves.empty() || Rand(2) == 0) {
        int literal = Rand(10);
        return {std::to_string(literal), literal};
      }
      const std::string& name = leaves[static_cast<size_t>(Rand(static_cast<int>(leaves.size())))];
      long long bound = 0;
      for (const auto& scope : scopes_) {
        auto found = scope.find(name);
        if (found != scope.end()) {
          bound = found->second;  // Innermost wins, like the interpreter.
        }
      }
      return {name, bound};
    }
    GenExpr lhs = Expr(depth + 1);
    switch (Rand(4)) {
      case 0: {
        GenExpr rhs = Expr(depth + 1);
        return {"(" + lhs.text + " + " + rhs.text + ")", lhs.bound + rhs.bound};
      }
      case 1: {
        GenExpr rhs = Expr(depth + 1);
        return {"(" + lhs.text + " - " + rhs.text + ")", lhs.bound + rhs.bound};
      }
      default: {
        // Products keep one side a tiny literal so bounds grow geometrically
        // at worst by 3x per level.
        int literal = Rand(4);
        return {"(" + lhs.text + " * " + std::to_string(literal) + ")", lhs.bound * literal};
      }
    }
  }

  std::string Cond() {
    GenExpr lhs = Expr(kMaxExprDepth - 1);
    GenExpr rhs = Expr(kMaxExprDepth - 1);
    static const char* kOps[] = {"<", "<=", ">", ">=", "==", "!="};
    return lhs.text + " " + kOps[Rand(6)] + " " + rhs.text;
  }

  std::string FreshVarName() {
    static const char* kPool[] = {"a", "b", "c", "d", "p", "q", "r", "s"};
    return kPool[Rand(8)];
  }

  void EmitBlockBody(int depth, int indent) {
    scopes_.push_back({});
    int statements = 1 + Rand(3);
    for (int i = 0; i < statements && stmt_budget_ > 0; ++i) {
      EmitStmt(depth, indent);
    }
    for (const auto& [name, bound] : scopes_.back()) {
      (void)bound;
      retired_.push_back(name);
    }
    scopes_.pop_back();
  }

  void EmitStmt(int depth, int indent) {
    --stmt_budget_;
    int choice = Rand(12);
    if (depth >= kMaxDepth && choice >= 6) {
      choice = Rand(6);  // At max depth only flat statements remain.
    }
    switch (choice) {
      case 0:
      case 1: {  // Declaration, possibly shadowing an outer (or same-scope) name.
        std::string name = FreshVarName();
        GenExpr init = Expr(0);
        Emit(indent, "var " + name + " = " + init.text + ";");
        scopes_.back()[name] = init.bound;
        break;
      }
      case 2:
      case 3: {  // Plain assignment to an in-scope variable.
        std::vector<std::string> leaves = AssignableVars();
        if (leaves.empty()) {
          Emit(indent, "sink = sink + 1;");
          break;
        }
        std::string name = leaves[static_cast<size_t>(Rand(static_cast<int>(leaves.size())))];
        GenExpr value = Expr(0);
        Emit(indent, name + " = " + value.text + ";");
        for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
          auto found = scope->find(name);
          if (found != scope->end()) {
            found->second = value.bound;
            break;
          }
        }
        break;
      }
      case 4: {  // Compound assignment (+= / -=) to an in-scope variable.
        std::vector<std::string> leaves = AssignableVars();
        if (leaves.empty()) {
          Emit(indent, "sink = sink + 1;");
          break;
        }
        std::string name = leaves[static_cast<size_t>(Rand(static_cast<int>(leaves.size())))];
        GenExpr value = Expr(1);
        Emit(indent, name + (Rand(2) == 0 ? " += " : " -= ") + value.text + ";");
        for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
          auto found = scope->find(name);
          if (found != scope->end()) {
            found->second += value.bound;
            break;
          }
        }
        break;
      }
      case 5: {  // Fold an expression into the accumulator.
        GenExpr value = Expr(0);
        Emit(indent, "sink = sink + " + value.text + ";");
        break;
      }
      case 6:
      case 7: {  // Bare block: shadowing playground, names die at '}'.
        Emit(indent, "{");
        EmitBlockBody(depth + 1, indent + 2);
        Emit(indent, "}");
        break;
      }
      case 8:
      case 9: {  // if (with optional else); both branches are blocks.
        Emit(indent, "if (" + Cond() + ") {");
        EmitBlockBody(depth + 1, indent + 2);
        if (Rand(2) == 0) {
          Emit(indent, "} else {");
          EmitBlockBody(depth + 1, indent + 2);
        }
        Emit(indent, "}");
        break;
      }
      default: {  // Bounded while over a dedicated counter (<= 3 iterations).
        std::string counter = "l" + std::to_string(loop_counter_++);
        int limit = 1 + Rand(3);
        Emit(indent, "var " + counter + " = 0;");
        scopes_.back()[counter] = limit;
        Emit(indent, "while (" + counter + " < " + std::to_string(limit) + ") {");
        EmitBlockBody(depth + 1, indent + 2);
        Emit(indent + 2, counter + " = " + counter + " + 1;");
        Emit(indent, "}");
        break;
      }
    }
  }

  std::mt19937_64 rng_;
  std::ostringstream out_;
  std::vector<std::map<std::string, long long>> scopes_;  // name -> |value| bound
  std::vector<std::string> retired_;
  int loop_counter_ = 0;
  int stmt_budget_ = 0;
  bool plant_undefined_ = false;
};

// --- Reference interpreter ---------------------------------------------------
// Executes the generated subset with literal dynamic scope maps: entering a
// block pushes a fresh map (so re-entered loop bodies forget their names),
// declarations evaluate their initializer BEFORE defining the name (shadowing
// initializers see the outer binding), and lookups walk innermost to
// outermost. This is exactly the semantics the resolver encodes into slots.

struct RefUndefined {
  std::string name;
};

class RefWalker {
 public:
  std::optional<int64_t> RunMethod(const mj::MethodDecl& method) {
    scopes_.clear();
    result_.reset();
    Exec(method.body);
    return result_;
  }

 private:
  int64_t Lookup(const std::string& name) {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      auto found = scope->find(name);
      if (found != scope->end()) {
        return found->second;
      }
    }
    throw RefUndefined{name};
  }

  void Store(const std::string& name, int64_t value) {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      auto found = scope->find(name);
      if (found != scope->end()) {
        found->second = value;
        return;
      }
    }
    throw RefUndefined{name};
  }

  int64_t Eval(const mj::Expr* expr) {
    switch (expr->kind) {
      case mj::AstKind::kIntLiteral:
        return static_cast<const mj::IntLiteralExpr*>(expr)->value;
      case mj::AstKind::kName:
        return Lookup(static_cast<const mj::NameExpr*>(expr)->name);
      case mj::AstKind::kBinary: {
        const auto* binary = static_cast<const mj::BinaryExpr*>(expr);
        int64_t lhs = Eval(binary->lhs);
        int64_t rhs = Eval(binary->rhs);
        switch (binary->op) {
          case mj::BinaryOp::kAdd:
            return lhs + rhs;
          case mj::BinaryOp::kSub:
            return lhs - rhs;
          case mj::BinaryOp::kMul:
            return lhs * rhs;
          default:
            ADD_FAILURE() << "unexpected arithmetic operator in fuzz subset";
            return 0;
        }
      }
      default:
        ADD_FAILURE() << "unexpected expression kind in fuzz subset";
        return 0;
    }
  }

  bool EvalCond(const mj::Expr* expr) {
    const auto* binary = static_cast<const mj::BinaryExpr*>(expr);
    if (expr->kind != mj::AstKind::kBinary) {
      ADD_FAILURE() << "fuzz conditions are single comparisons";
      return false;
    }
    int64_t lhs = Eval(binary->lhs);
    int64_t rhs = Eval(binary->rhs);
    switch (binary->op) {
      case mj::BinaryOp::kLt:
        return lhs < rhs;
      case mj::BinaryOp::kLe:
        return lhs <= rhs;
      case mj::BinaryOp::kGt:
        return lhs > rhs;
      case mj::BinaryOp::kGe:
        return lhs >= rhs;
      case mj::BinaryOp::kEq:
        return lhs == rhs;
      case mj::BinaryOp::kNe:
        return lhs != rhs;
      default:
        ADD_FAILURE() << "unexpected comparison operator in fuzz subset";
        return false;
    }
  }

  void Exec(const mj::Stmt* stmt) {
    if (stmt == nullptr || result_.has_value()) {
      return;
    }
    switch (stmt->kind) {
      case mj::AstKind::kBlock: {
        scopes_.push_back({});
        for (const mj::Stmt* child : static_cast<const mj::BlockStmt*>(stmt)->statements) {
          Exec(child);
          if (result_.has_value()) {
            break;
          }
        }
        scopes_.pop_back();
        break;
      }
      case mj::AstKind::kVarDecl: {
        const auto* decl = static_cast<const mj::VarDeclStmt*>(stmt);
        int64_t value = Eval(decl->init);
        scopes_.back()[decl->name] = value;
        break;
      }
      case mj::AstKind::kAssign: {
        const auto* assign = static_cast<const mj::AssignStmt*>(stmt);
        ASSERT_EQ(assign->target->kind, mj::AstKind::kName);
        const std::string& name = static_cast<const mj::NameExpr*>(assign->target)->name;
        int64_t value = Eval(assign->value);
        switch (assign->op) {
          case mj::AssignOp::kAssign:
            Store(name, value);
            break;
          case mj::AssignOp::kAddAssign:
            Store(name, Lookup(name) + value);
            break;
          case mj::AssignOp::kSubAssign:
            Store(name, Lookup(name) - value);
            break;
        }
        break;
      }
      case mj::AstKind::kIf: {
        const auto* branch = static_cast<const mj::IfStmt*>(stmt);
        if (EvalCond(branch->condition)) {
          Exec(branch->then_branch);
        } else {
          Exec(branch->else_branch);
        }
        break;
      }
      case mj::AstKind::kWhile: {
        const auto* loop = static_cast<const mj::WhileStmt*>(stmt);
        while (!result_.has_value() && EvalCond(loop->condition)) {
          Exec(loop->body);
        }
        break;
      }
      case mj::AstKind::kReturn:
        result_ = Eval(static_cast<const mj::ReturnStmt*>(stmt)->value);
        break;
      default:
        ADD_FAILURE() << "unexpected statement kind in fuzz subset";
        break;
    }
  }

  std::vector<std::map<std::string, int64_t>> scopes_;
  std::optional<int64_t> result_;
};

// --- The fuzz loop -----------------------------------------------------------

struct RefOutcome {
  bool undefined = false;
  std::string undefined_name;
  int64_t value = 0;
};

RefOutcome RunReference(const mj::MethodDecl& method) {
  RefOutcome outcome;
  try {
    RefWalker walker;
    std::optional<int64_t> value = walker.RunMethod(method);
    EXPECT_TRUE(value.has_value()) << "generated programs always return";
    outcome.value = value.value_or(0);
  } catch (const RefUndefined& undefined) {
    outcome.undefined = true;
    outcome.undefined_name = undefined.name;
  }
  return outcome;
}

TEST(LangFuzzTest, PrinterFixpointAndInterpreterEquivalence) {
  constexpr int kPrograms = 500;
  int undefined_programs = 0;
  for (uint64_t seed = 1; seed <= kPrograms; ++seed) {
    Fuzzer fuzzer(seed * 0x9E3779B97F4A7C15ull);
    const std::string source = fuzzer.Generate();
    SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + source);

    // Property 1: parse -> print reaches a fixpoint after one round trip.
    mj::Program program;
    mj::DiagnosticEngine diag;
    program.AddUnit(mj::ParseSource("fuzz.mj", source, diag));
    ASSERT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
    const std::string printed = mj::PrintUnit(*program.units()[0]);

    mj::Program reparsed;
    mj::DiagnosticEngine rediag;
    reparsed.AddUnit(mj::ParseSource("fuzz.mj", printed, rediag));
    ASSERT_FALSE(rediag.has_errors()) << rediag.FormatAll(nullptr);
    ASSERT_EQ(printed, mj::PrintUnit(*reparsed.units()[0]))
        << "printer canonical form is not a fixpoint";

    // Property 2: slot-frame interpretation == dynamic scope-map reference.
    mj::ProgramIndex index(program);
    const mj::MethodDecl* method = index.FindQualified("F.f");
    ASSERT_NE(method, nullptr);
    RefOutcome expected = RunReference(*method);
    undefined_programs += expected.undefined ? 1 : 0;

    Interpreter interp(program, index);
    if (expected.undefined) {
      try {
        interp.Invoke("F.f");
        ADD_FAILURE() << "reference walker read undefined '" << expected.undefined_name
                      << "' but the interpreter completed";
      } catch (ThrownException& thrown) {
        EXPECT_EQ(thrown.exception->class_name(), "IllegalStateException");
        EXPECT_NE(thrown.exception->message().find("undefined variable '" +
                                                   expected.undefined_name + "'"),
                  std::string::npos)
            << "interpreter message: " << thrown.exception->message();
      }
    } else {
      Value result = interp.Invoke("F.f");
      ASSERT_TRUE(IsInt(result));
      EXPECT_EQ(std::get<int64_t>(result), expected.value);
    }
  }
  // The planted-bad-read arm must actually fire across the corpus, or the
  // undefined-name agreement above tests nothing.
  EXPECT_GT(undefined_programs, 10);
  EXPECT_LT(undefined_programs, kPrograms / 2);
}

// The lexer's line cursor agrees with SourceFile::LocationFor on every
// generated program, with and without its trailing newline and with CRLF
// line endings (tests/lexer_locations.h).
TEST(LangFuzzTest, LexerLocationsMatchSourceFile) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    Fuzzer fuzzer(seed * 0x9E3779B97F4A7C15ull);
    const std::string source = fuzzer.Generate();
    for (const std::string& text :
         {source, mj::FlipTrailingNewline(source), mj::WithCrlf(source)}) {
      mj::SourceFile file("fuzz.mj", text);
      mj::LocationMismatch mismatch = mj::LexedLocationMismatches(file);
      ASSERT_EQ(mismatch.count, 0u) << "seed=" << seed << ": " << mismatch.first;
    }
  }
}

// --- VM-vs-tree differential -------------------------------------------------
// The bytecode VM (docs/PERFORMANCE.md) must be observationally identical to
// the tree-walker on every generated program: same returned value or same
// diagnostic (class and message, including the planted undefined-read name),
// same step/loop/virtual-clock accounting, the same LoopObserver call
// sequence, and the same execution log dump.

struct EngineOutcome {
  bool threw = false;
  std::string exception_class;
  std::string exception_message;
  int64_t value = 0;
  int64_t steps = 0;
  int64_t loop_iterations = 0;
  // (method, virtual ms) of every LoopObserver call, in order.
  std::vector<std::pair<std::string, int64_t>> loop_events;
  int64_t now_ms = 0;
  std::string log_dump;
};

struct RecordingLoopObserver : LoopObserver {
  std::vector<std::pair<std::string, int64_t>> events;
  void OnLoopIteration(std::string_view method, int64_t virtual_ms) override {
    events.emplace_back(std::string(method), virtual_ms);
  }
};

EngineOutcome RunEngine(const mj::Program& program, const mj::ProgramIndex& index,
                        EngineKind engine) {
  InterpOptions options;
  options.engine = engine;
  Interpreter interp(program, index, options);
  RecordingLoopObserver observer;
  interp.set_loop_observer(&observer);
  EngineOutcome outcome;
  try {
    Value result = interp.Invoke("F.f");
    EXPECT_TRUE(IsInt(result));
    outcome.value = IsInt(result) ? std::get<int64_t>(result) : 0;
  } catch (ThrownException& thrown) {
    outcome.threw = true;
    outcome.exception_class = thrown.exception->class_name();
    outcome.exception_message = thrown.exception->message();
  }
  outcome.steps = interp.steps();
  outcome.loop_iterations = interp.loop_iterations();
  outcome.loop_events = std::move(observer.events);
  outcome.now_ms = interp.now_ms();
  outcome.log_dump = interp.log().Dump();
  return outcome;
}

TEST(LangFuzzTest, VmAndTreeEnginesAreObservationallyIdentical) {
  constexpr int kPrograms = 500;
  int undefined_programs = 0;
  for (uint64_t seed = 1; seed <= kPrograms; ++seed) {
    Fuzzer fuzzer(seed * 0x9E3779B97F4A7C15ull);
    const std::string source = fuzzer.Generate();
    SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + source);

    mj::Program program;
    mj::DiagnosticEngine diag;
    program.AddUnit(mj::ParseSource("fuzz.mj", source, diag));
    ASSERT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
    mj::ProgramIndex index(program);

    EngineOutcome vm = RunEngine(program, index, EngineKind::kVm);
    EngineOutcome tree = RunEngine(program, index, EngineKind::kTree);

    ASSERT_EQ(vm.threw, tree.threw);
    if (vm.threw) {
      ++undefined_programs;
      EXPECT_EQ(vm.exception_class, tree.exception_class);
      EXPECT_EQ(vm.exception_message, tree.exception_message);
    } else {
      EXPECT_EQ(vm.value, tree.value);
    }
    // Step-for-step accounting parity: budgets, loop observers, and the
    // virtual clock fire at the same instants under either engine.
    EXPECT_EQ(vm.steps, tree.steps);
    EXPECT_EQ(vm.loop_iterations, tree.loop_iterations);
    EXPECT_EQ(vm.loop_events, tree.loop_events);
    EXPECT_EQ(vm.now_ms, tree.now_ms);
    EXPECT_EQ(vm.log_dump, tree.log_dump);
  }
  // The planted-undefined-read arm must exercise both engines' error paths.
  EXPECT_GT(undefined_programs, 10);
}

// --- Patch-idempotence differential (docs/REPAIR.md) -------------------------
//
// Every repair template, applied across 200 seeded programs, must (a) reject
// a method with no retry loop cleanly — no crash, no bogus patch — and (b)
// when a retry harness IS present, produce a patch that is a printer fixpoint
// and leaves every unpatched method byte-identical to its pristine print.
TEST(LangFuzzTest, RepairTemplatesRoundTripAndNeverLeakAcrossMethods) {
  struct NamedTemplate {
    const char* name;
    mj::MethodMutator mutator;
  };
  const std::vector<NamedTemplate> kTemplates = {
      {"bound-retry", MakeBoundRetryMutator(5)},
      {"add-backoff", MakeAddBackoffMutator()},
      {"add-jitter", MakeAddJitterMutator(false)},
      {"shed-on-overload", MakeShedOnOverloadMutator("SocketException")},
  };
  // A fuzzed method has integer arithmetic but no retry loop: every template
  // splices one around this.f() so all four shapes are exercised per seed.
  const char kRetryHarness[] =
      "  int retryWithHarness() {\n"
      "    while (true) {\n"
      "      try {\n"
      "        return this.f();\n"
      "      } catch (SocketException e) {\n"
      "        Log.warn(\"retrying\");\n"
      "        Thread.sleep(50);\n"
      "      }\n"
      "    }\n"
      "  }\n"
      "}\n";

  int patched_programs = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Fuzzer fuzzer(seed);
    const std::string bare = fuzzer.Generate();

    // (a) The bare fuzz program has no retry loop: every template must bail
    // out with a diagnostic instead of fabricating a patch.
    for (const NamedTemplate& tmpl : kTemplates) {
      mj::RewriteResult rejected =
          mj::RewriteMethod("Fuzz.mj", bare, "F", "f", tmpl.mutator);
      ASSERT_FALSE(rejected.ok) << tmpl.name;
      ASSERT_FALSE(rejected.error.empty()) << tmpl.name;
    }

    // (b) Composite program: the fuzzed method plus a canonical retry loop.
    ASSERT_EQ(bare.substr(bare.size() - 2), "}\n");
    const std::string composite = bare.substr(0, bare.size() - 2) + kRetryHarness;
    mj::DiagnosticEngine pristine_diag;
    auto pristine = mj::ParseSource("Fuzz.mj", composite, pristine_diag);
    ASSERT_FALSE(pristine_diag.has_errors()) << composite;
    ASSERT_EQ(pristine->classes().size(), 1u);
    const mj::MethodDecl* pristine_f = nullptr;
    for (mj::MethodDecl* method : pristine->classes()[0]->methods) {
      if (method->name == "f") {
        pristine_f = method;
      }
    }
    ASSERT_NE(pristine_f, nullptr);
    const std::string pristine_f_print = mj::PrintMethod(*pristine_f, 1);

    for (const NamedTemplate& tmpl : kTemplates) {
      SCOPED_TRACE(tmpl.name);
      mj::RewriteResult patch =
          mj::RewriteMethod("Fuzz.mj", composite, "F", "retryWithHarness", tmpl.mutator);
      ASSERT_TRUE(patch.ok) << patch.error;
      ++patched_programs;

      // Printer fixpoint: parse(print(parse)) reproduces the patch bytes.
      mj::DiagnosticEngine diag;
      auto reparse = mj::ParseSource("Fuzz.mj", patch.patched_source, diag);
      ASSERT_FALSE(diag.has_errors()) << patch.patched_source;
      ASSERT_EQ(mj::PrintUnit(*reparse), patch.patched_source);

      // The fuzzed method's print is byte-identical: the patch stayed inside
      // its declared target.
      const mj::MethodDecl* patched_f = nullptr;
      for (mj::MethodDecl* method : reparse->classes()[0]->methods) {
        if (method->name == "f") {
          patched_f = method;
        }
      }
      ASSERT_NE(patched_f, nullptr);
      ASSERT_EQ(mj::PrintMethod(*patched_f, 1), pristine_f_print);
    }
  }
  EXPECT_EQ(patched_programs, 200 * 4);
}

// The interpreter runs each generated program again through a second,
// independently seeded generation to guard the generator itself against
// accidental seed coupling: distinct seeds must produce distinct programs
// often enough to be a real corpus.
TEST(LangFuzzTest, SeedsProduceDistinctPrograms) {
  Fuzzer first(1);
  Fuzzer second(2);
  EXPECT_NE(first.Generate(), second.Generate());
  Fuzzer replay(1);
  Fuzzer replay_again(1);
  EXPECT_EQ(replay.Generate(), replay_again.Generate());
}

}  // namespace
}  // namespace wasabi
