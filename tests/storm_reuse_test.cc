// Soundness of storm-work reuse in repair validation (src/storm/profile.h,
// docs/REPAIR.md "What validation reuses"). On stormlab and repairlab, every
// repair mutator is applied to every method with a body; for each patch the
// rewriter accepts, the reuse path (ExtractProfiles with the baseline and
// the patched file) must equal a fresh extraction of the patched program,
// and whenever that profile list equals the baseline's, the baseline's storm
// verdicts must equal a fresh simulation's, field by field. A hand-built app
// pins the dependency sets themselves: a class a probe only instantiates
// (no call, no init method) puts its file, and its base's file, in the set.

#include <gtest/gtest.h>

#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "src/lang/rewrite.h"
#include "src/repair/templates.h"
#include "src/storm/profile.h"
#include "src/storm/storm.h"

namespace wasabi {
namespace {

// `base` with unit `patched_file`'s text replaced by `patched_source`.
std::unique_ptr<mj::Program> Rebuild(const mj::Program& base, const std::string& patched_file,
                                     const std::string& patched_source) {
  auto program = std::make_unique<mj::Program>();
  for (const std::unique_ptr<mj::CompilationUnit>& unit : base.units()) {
    const std::string& name = unit->file().name();
    std::string text = name == patched_file ? patched_source : std::string(unit->file().text());
    mj::DiagnosticEngine diag;
    std::unique_ptr<mj::CompilationUnit> parsed = mj::ParseSource(name, std::move(text), diag);
    if (parsed == nullptr || diag.has_errors()) {
      return nullptr;
    }
    program->AddUnit(std::move(parsed));
  }
  return program;
}

void ExpectSameBugs(const std::vector<BugReport>& expected, const std::vector<BugReport>& got,
                    const std::string& context) {
  ASSERT_EQ(got.size(), expected.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(context + " bug " + std::to_string(i));
    const BugReport& a = expected[i];
    const BugReport& b = got[i];
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.technique, b.technique);
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.file, b.file);
    EXPECT_EQ(a.coordinator, b.coordinator);
    EXPECT_EQ(a.exception, b.exception);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.group_key, b.group_key);
    EXPECT_EQ(a.location.offset, b.location.offset);
    EXPECT_EQ(a.location.line, b.location.line);
    EXPECT_EQ(a.location.column, b.location.column);
    EXPECT_EQ(a.probed, b.probed);
    EXPECT_EQ(a.stability, b.stability);
    EXPECT_EQ(a.flaky_cause, b.flaky_cause);
  }
}

class StormReuseTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StormReuseTest, ReuseEqualsAFreshExtractionForEveryMutatorOnEveryMethod) {
  const CorpusApp app = BuildCorpusApp(GetParam());
  const ProfileExtraction baseline = ExtractProfiles(app.program, *app.index);
  ASSERT_EQ(baseline.profiles.size(), 4u);
  ASSERT_EQ(baseline.probed, 4);
  const std::vector<BugReport> baseline_bugs =
      RunStormSim(app.name, baseline.profiles, StormOptions{}).bugs;

  const std::vector<std::pair<std::string, mj::MethodMutator>> mutators = {
      {"bound-retry", MakeBoundRetryMutator(5)},
      {"add-backoff", MakeAddBackoffMutator()},
      {"add-jitter", MakeAddJitterMutator(/*drop_jitter=*/false)},
      {"drop-jitter", MakeAddJitterMutator(/*drop_jitter=*/true)},
      {"shed-on-overload", MakeShedOnOverloadMutator("ResourceExhaustedException")},
      {"wrong-location", MakeWrongLocationMutator()},
  };
  int patches = 0;
  int partly_reused = 0;
  int sims_reusable = 0;
  for (const std::unique_ptr<mj::CompilationUnit>& unit : app.program.units()) {
    const std::string& file = unit->file().name();
    for (const mj::ClassDecl* cls : unit->classes()) {
      for (const mj::MethodDecl* method : cls->methods) {
        if (method->body == nullptr) {
          continue;
        }
        for (const auto& [name, mutator] : mutators) {
          const std::string context = file + " " + method->qualified_cache + " " + name;
          mj::RewriteResult rewrite = mj::RewriteMethod(
              file, std::string(unit->file().text()), cls->name, method->name, mutator);
          if (!rewrite.ok) {
            continue;
          }
          std::unique_ptr<mj::Program> patched = Rebuild(app.program, file, rewrite.patched_source);
          ASSERT_NE(patched, nullptr) << context;
          const mj::ProgramIndex index(*patched);
          ++patches;

          const ProfileExtraction reused =
              ExtractProfiles(*patched, index, 1, nullptr, &baseline, file);
          const std::vector<EdgeRetryProfile> fresh = ExtractRetryProfiles(*patched, index);
          ASSERT_EQ(reused.profiles, fresh) << context;
          if (reused.probed < static_cast<int>(fresh.size())) {
            ++partly_reused;
          }
          if (reused.profiles == baseline.profiles) {
            ++sims_reusable;
            ExpectSameBugs(baseline_bugs, RunStormSim(app.name, fresh, StormOptions{}).bugs,
                           context);
          }
        }
      }
    }
  }
  // Every method takes at least the wrong-location scaffolding; the retry
  // loops take the templates too.
  EXPECT_GT(patches, 40);
  EXPECT_EQ(partly_reused, patches) << "every patch is one file; no service spans them all";
  EXPECT_GT(sims_reusable, 0);
  std::cout << GetParam() << ": " << patches << " patches, " << sims_reusable
            << " with the baseline's profiles\n";
}

INSTANTIATE_TEST_SUITE_P(Labs, StormReuseTest, ::testing::Values("stormlab", "repairlab"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           return std::string(param_info.param);
                         });

// Svc's probe instantiates Helper (no init method, so no call), whose base
// Base lives in a third file; Unused is never touched.
constexpr const char* kSvcSource = R"(
class Svc {
  int sent = 0;
  void send() throws ServiceUnavailableException {
    this.sent = this.sent + 1;
  }
  void handle() {
    var helper = new Helper();
    for (var attempt = 1; attempt <= 3; attempt++) {
      try {
        this.send();
        return;
      } catch (ServiceUnavailableException e) {
        Thread.sleep(10);
      }
    }
  }
}
)";
constexpr const char* kHelperSource = R"(
class Helper extends Base {
  int value = 7;
}
)";
constexpr const char* kBaseSource = R"(
class Base {
  int seed = 3;
}
)";
constexpr const char* kUnusedSource = R"(
class Unused {
  int count = 0;
  void bump() {
    this.count = this.count + 1;
  }
}
)";

std::unique_ptr<mj::Program> HandBuiltApp(const std::string& unused_source) {
  auto program = std::make_unique<mj::Program>();
  for (const auto& [name, source] : std::vector<std::pair<std::string, std::string>>{
           {"svc.mj", kSvcSource},
           {"helper.mj", kHelperSource},
           {"base.mj", kBaseSource},
           {"unused.mj", unused_source}}) {
    mj::DiagnosticEngine diag;
    program->AddUnit(mj::ParseSource(name, source, diag));
    EXPECT_FALSE(diag.has_errors()) << name << ": " << diag.FormatAll(nullptr);
  }
  return program;
}

TEST(StormDependencyTest, AnInstantiatedClassPutsItsFileAndItsBasesInTheSet) {
  std::unique_ptr<mj::Program> program = HandBuiltApp(kUnusedSource);
  const mj::ProgramIndex index(*program);
  const ProfileExtraction extraction = ExtractProfiles(*program, index);
  ASSERT_EQ(extraction.profiles.size(), 1u);
  EXPECT_EQ(extraction.profiles[0].service, "Svc");
  EXPECT_EQ(extraction.profiles[0].attempts, 3);
  EXPECT_EQ(extraction.dependencies[0],
            (std::vector<std::string>{"svc.mj", "helper.mj", "base.mj"}));
}

TEST(StormDependencyTest, APatchOutsideEverySetReprobesNothing) {
  std::unique_ptr<mj::Program> program = HandBuiltApp(kUnusedSource);
  const mj::ProgramIndex index(*program);
  const ProfileExtraction baseline = ExtractProfiles(*program, index);

  // A rewritten unused.mj reaches no probe: the baseline is taken whole.
  std::unique_ptr<mj::Program> patched = HandBuiltApp(std::string(kUnusedSource) + "\n");
  const mj::ProgramIndex patched_index(*patched);
  const ProfileExtraction reused =
      ExtractProfiles(*patched, patched_index, 1, nullptr, &baseline, "unused.mj");
  EXPECT_EQ(reused.probed, 0);
  EXPECT_EQ(reused.profiles, baseline.profiles);
  EXPECT_EQ(reused.dependencies, baseline.dependencies);

  // base.mj is only instantiated through Helper, and still counts.
  const ProfileExtraction reprobed =
      ExtractProfiles(*patched, patched_index, 1, nullptr, &baseline, "base.mj");
  EXPECT_EQ(reprobed.probed, 1);
  EXPECT_EQ(reprobed.profiles, ExtractRetryProfiles(*patched, patched_index));
}

}  // namespace
}  // namespace wasabi
