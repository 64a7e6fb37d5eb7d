// Unit tests for the retry-ratio IF-bug outlier analysis (§3.2.2 / §4.1).

#include "src/analysis/if_outliers.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>

#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"

namespace wasabi {
namespace {

// Generates a class with `retried` retry loops that retry on `exception` and
// `not_retried` retry loops that catch it but bail out.
std::string MakeRatioProgram(const std::string& exception, int retried, int not_retried) {
  std::ostringstream out;
  out << "class Ratio {\n";
  int id = 0;
  for (int i = 0; i < retried; ++i, ++id) {
    out << "  void retryOp" << id << "() {\n"
        << "    for (var retry = 0; retry < 3; retry++) {\n"
        << "      try {\n"
        << "        this.op" << id << "();\n"
        << "        return;\n"
        << "      } catch (" << exception << " e) {\n"
        << "        Thread.sleep(10);\n"
        << "      }\n"
        << "    }\n"
        << "  }\n"
        << "  void op" << id << "() throws " << exception << ";\n";
  }
  for (int i = 0; i < not_retried; ++i, ++id) {
    out << "  void retryOp" << id << "() {\n"
        << "    for (var retry = 0; retry < 3; retry++) {\n"
        << "      try {\n"
        << "        this.op" << id << "();\n"
        << "        return;\n"
        << "      } catch (" << exception << " e) {\n"
        << "        break;\n"
        << "      } catch (IOException io) {\n"
        << "        Thread.sleep(10);\n"
        << "      }\n"
        << "    }\n"
        << "  }\n"
        << "  void op" << id << "() throws " << exception << ", IOException;\n";
  }
  out << "}\n";
  return out.str();
}

mj::Program ParseProgram(const std::string& source) {
  mj::Program program;
  mj::DiagnosticEngine diag;
  program.AddUnit(mj::ParseSource("ratio.mj", source, diag));
  EXPECT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
  return program;
}

TEST(IfOutliersTest, MostlyRetriedExceptionFlagsNonRetriedSites) {
  // KeeperException analog: retried 5/6 places -> the 1 non-retried site is
  // the outlier.
  mj::Program program = ParseProgram(MakeRatioProgram("KeeperException", 5, 1));
  mj::ProgramIndex index(program);
  IfOutlierAnalysis analysis(program, index);
  auto reports = analysis.FindOutliers();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].exception, "KeeperException");
  EXPECT_TRUE(reports[0].mostly_retried);
  EXPECT_EQ(reports[0].caught_in_retry_loops, 6);
  EXPECT_EQ(reports[0].retried, 5);
  ASSERT_EQ(reports[0].outlier_sites.size(), 1u);
  EXPECT_FALSE(reports[0].outlier_sites[0].retried);
}

TEST(IfOutliersTest, MostlyNotRetriedExceptionFlagsRetriedSites) {
  mj::Program program = ParseProgram(MakeRatioProgram("IllegalArgumentException", 1, 6));
  mj::ProgramIndex index(program);
  IfOutlierAnalysis analysis(program, index);
  auto reports = analysis.FindOutliers();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].mostly_retried);
  ASSERT_EQ(reports[0].outlier_sites.size(), 1u);
  EXPECT_TRUE(reports[0].outlier_sites[0].retried);
}

TEST(IfOutliersTest, UnanimousBehaviorIsNotAnOutlier) {
  mj::Program program = ParseProgram(MakeRatioProgram("SocketException", 6, 0));
  mj::ProgramIndex index(program);
  IfOutlierAnalysis analysis(program, index);
  EXPECT_TRUE(analysis.FindOutliers().empty());
}

TEST(IfOutliersTest, MixedBehaviorNearHalfIsNotAnOutlier) {
  mj::Program program = ParseProgram(MakeRatioProgram("TimeoutException", 3, 3));
  mj::ProgramIndex index(program);
  IfOutlierAnalysis analysis(program, index);
  EXPECT_TRUE(analysis.FindOutliers().empty());
}

TEST(IfOutliersTest, TooFewSitesAreIgnored) {
  mj::Program program = ParseProgram(MakeRatioProgram("EOFException", 1, 1));
  mj::ProgramIndex index(program);
  IfOutlierAnalysis analysis(program, index);
  EXPECT_TRUE(analysis.FindOutliers().empty());
}

TEST(IfOutliersTest, StatsCountBothKinds) {
  mj::Program program = ParseProgram(MakeRatioProgram("KeeperException", 2, 1));
  mj::ProgramIndex index(program);
  IfOutlierAnalysis analysis(program, index);
  auto stats = analysis.ComputeStats();
  // KeeperException + IOException (from the not-retried variant's 2nd catch).
  bool found = false;
  for (const ExceptionRetryStats& stat : stats) {
    if (stat.exception == "KeeperException") {
      found = true;
      EXPECT_EQ(stat.caught_in_retry_loops, 3);
      EXPECT_EQ(stat.retried, 2);
      EXPECT_NEAR(stat.ratio(), 2.0 / 3.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

// Parameterized threshold sweep: ratios at/below 1/3 or at/above 2/3 (but not
// 0 or 1) are outliers; everything else is not.
struct RatioCase {
  int retried;
  int not_retried;
  bool expect_outlier;
  // gtest names each case after a hex dump of the object's bytes. Implicit
  // padding would put stack garbage into that name and change it from build
  // to build, so the padding is a zeroed member instead.
  char padding[3] = {};
};
static_assert(std::has_unique_object_representations_v<RatioCase>,
              "RatioCase must have no implicit padding");

class RatioSweepTest : public ::testing::TestWithParam<RatioCase> {};

TEST_P(RatioSweepTest, ThresholdBoundary) {
  const RatioCase& param = GetParam();
  mj::Program program =
      ParseProgram(MakeRatioProgram("KeeperException", param.retried, param.not_retried));
  mj::ProgramIndex index(program);
  IfOutlierAnalysis analysis(program, index);
  bool has_keeper_outlier = false;
  for (const IfOutlierReport& report : analysis.FindOutliers()) {
    if (report.exception == "KeeperException") {
      has_keeper_outlier = true;
    }
  }
  EXPECT_EQ(has_keeper_outlier, param.expect_outlier)
      << "retried=" << param.retried << " not_retried=" << param.not_retried;
}

INSTANTIATE_TEST_SUITE_P(Boundaries, RatioSweepTest,
                         ::testing::Values(RatioCase{6, 0, false},   // ratio 1.0
                                           RatioCase{5, 1, true},    // 0.833
                                           RatioCase{4, 2, true},    // 0.667 == 2/3
                                           RatioCase{3, 3, false},   // 0.5
                                           RatioCase{2, 4, true},    // 0.333 == 1/3
                                           RatioCase{1, 5, true},    // 0.167
                                           RatioCase{0, 6, false},   // ratio 0.0
                                           RatioCase{17, 3, true},   // KeeperException 17/20
                                           RatioCase{2, 7, true}));  // IllegalArgument 2/9

}  // namespace
}  // namespace wasabi
