// Tests for retry-policy extraction (src/storm/profile.h): probing the
// stormlab corpus app must recover each seeded frontend's actual policy —
// bound, schedule, jitter, overload behavior, fan-out — and the result must
// be byte-identical at any worker count.

#include "src/storm/profile.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"

namespace wasabi {
namespace {

const EdgeRetryProfile* FindBySuffix(const std::vector<EdgeRetryProfile>& profiles,
                                     const std::string& suffix) {
  for (const EdgeRetryProfile& p : profiles) {
    if (p.service.size() >= suffix.size() &&
        p.service.compare(p.service.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return &p;
    }
  }
  return nullptr;
}

class StormProfileTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    app_ = new CorpusApp(BuildCorpusApp("stormlab"));
    profiles_ = new std::vector<EdgeRetryProfile>(
        ExtractRetryProfiles(app_->program, *app_->index, /*jobs=*/1));
  }
  static void TearDownTestSuite() {
    delete profiles_;
    profiles_ = nullptr;
    delete app_;
    app_ = nullptr;
  }

  static CorpusApp* app_;
  static std::vector<EdgeRetryProfile>* profiles_;
};

CorpusApp* StormProfileTest::app_ = nullptr;
std::vector<EdgeRetryProfile>* StormProfileTest::profiles_ = nullptr;

TEST_F(StormProfileTest, FindsExactlyTheFourServiceFrontends) {
  ASSERT_EQ(profiles_->size(), 4u);
  for (size_t i = 1; i < profiles_->size(); ++i) {
    EXPECT_LT((*profiles_)[i - 1].service, (*profiles_)[i].service)
        << "profiles must be sorted by class name";
  }
  for (const EdgeRetryProfile& p : *profiles_) {
    EXPECT_EQ(p.coordinator, p.service + ".handle");
    EXPECT_FALSE(p.file.empty());
    EXPECT_GE(p.fanout, 1);
  }
}

TEST_F(StormProfileTest, HealthyGatewayIsBoundedJitteredAndSheds) {
  const EdgeRetryProfile* p = FindBySuffix(*profiles_, "Gateway");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->bounded);
  EXPECT_EQ(p->attempts, 3);
  // The template sleeps in every catch arm, including the final attempt's.
  EXPECT_EQ(p->backoff_ms.size(), 3u);
  EXPECT_TRUE(p->jittered);
  EXPECT_FALSE(p->retries_on_overload);
  EXPECT_EQ(p->fanout, 1);
}

TEST_F(StormProfileTest, RelayHasAFixedUnjitteredSchedule) {
  const EdgeRetryProfile* p = FindBySuffix(*profiles_, "Relay");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->bounded);
  EXPECT_EQ(p->attempts, 5);
  ASSERT_EQ(p->backoff_ms.size(), 5u);
  for (int64_t sleep_ms : p->backoff_ms) {
    EXPECT_EQ(sleep_ms, 100) << "the seeded bug is a byte-identical fixed schedule";
  }
  EXPECT_FALSE(p->jittered);
  EXPECT_FALSE(p->retries_on_overload);
  EXPECT_EQ(p->fanout, 1);
}

TEST_F(StormProfileTest, MirrorIsUnboundedWithFanoutThree) {
  const EdgeRetryProfile* p = FindBySuffix(*profiles_, "Mirror");
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->bounded);
  EXPECT_TRUE(p->jittered);
  EXPECT_FALSE(p->retries_on_overload);
  EXPECT_EQ(p->fanout, 3) << "each attempt re-broadcasts to all three replicas";
}

TEST_F(StormProfileTest, PumpRetriesOnOverloadWithAShortFixedDelay) {
  const EdgeRetryProfile* p = FindBySuffix(*profiles_, "Pump");
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->bounded);
  EXPECT_TRUE(p->jittered);
  EXPECT_TRUE(p->retries_on_overload);
  EXPECT_EQ(p->overload_backoff_ms, 10);
  EXPECT_EQ(p->fanout, 1);
}

TEST_F(StormProfileTest, ExtractionIsIdenticalAtAnyWorkerCount) {
  for (int jobs : {2, 4}) {
    std::vector<EdgeRetryProfile> parallel =
        ExtractRetryProfiles(app_->program, *app_->index, jobs);
    EXPECT_EQ(parallel, *profiles_) << "jobs=" << jobs;
  }
}

// Services and send() across class hierarchies: InheritSvc retries a send()
// it inherits from BaseSender, OwnSvc is its twin with its own send(), and
// SubSvc only inherits OwnSvc's handle(), so it is no edge of its own.
constexpr const char* kHierarchySource = R"(
class BaseSender {
  int sent = 0;
  void send() throws ServiceUnavailableException {
    this.sent = this.sent + 1;
  }
}
class InheritSvc extends BaseSender {
  void handle() {
    for (var attempt = 1; attempt <= 5; attempt++) {
      try {
        this.send();
        return;
      } catch (ServiceUnavailableException e) {
        Thread.sleep(100);
      }
    }
  }
}
class OwnSvc {
  int sent = 0;
  void send() throws ServiceUnavailableException {
    this.sent = this.sent + 1;
  }
  void handle() {
    for (var attempt = 1; attempt <= 5; attempt++) {
      try {
        this.send();
        return;
      } catch (ServiceUnavailableException e) {
        Thread.sleep(100);
      }
    }
  }
}
class SubSvc extends OwnSvc {
}
)";

class StormHierarchyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mj::DiagnosticEngine diag;
    program_.AddUnit(mj::ParseSource("hierarchy.mj", kHierarchySource, diag));
    ASSERT_FALSE(diag.has_errors()) << diag.FormatAll(nullptr);
    index_ = std::make_unique<mj::ProgramIndex>(program_);
    profiles_ = ExtractRetryProfiles(program_, *index_, /*jobs=*/1);
  }

  const EdgeRetryProfile* Find(const std::string& service) const {
    for (const EdgeRetryProfile& p : profiles_) {
      if (p.service == service) {
        return &p;
      }
    }
    return nullptr;
  }

  mj::Program program_;
  std::unique_ptr<mj::ProgramIndex> index_;
  std::vector<EdgeRetryProfile> profiles_;
};

TEST_F(StormHierarchyTest, InheritedSendProfilesLikeItsOwnSendTwin) {
  const EdgeRetryProfile* inherited = Find("InheritSvc");
  const EdgeRetryProfile* own = Find("OwnSvc");
  ASSERT_NE(inherited, nullptr);
  ASSERT_NE(own, nullptr);
  for (const EdgeRetryProfile* p : {inherited, own}) {
    SCOPED_TRACE(p->service);
    EXPECT_TRUE(p->bounded);
    EXPECT_EQ(p->attempts, 5);
    EXPECT_EQ(p->backoff_ms, (std::vector<int64_t>{100, 100, 100, 100, 100}));
    EXPECT_FALSE(p->jittered);
    EXPECT_FALSE(p->retries_on_overload);
    EXPECT_EQ(p->fanout, 1);
  }
}

TEST_F(StormHierarchyTest, ASubclassInheritingHandleIsNoEdge) {
  ASSERT_EQ(profiles_.size(), 2u);
  EXPECT_EQ(profiles_[0].service, "InheritSvc");
  EXPECT_EQ(profiles_[1].service, "OwnSvc");
  EXPECT_EQ(Find("SubSvc"), nullptr);
}

}  // namespace
}  // namespace wasabi
