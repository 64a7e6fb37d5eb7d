// Unit tests for the robustness primitives (docs/ROBUSTNESS.md): the failure
// taxonomy and classifier, the reference retry policy, the per-location
// circuit breaker, and the deterministic chaos harness. Everything here must
// be a pure function of its inputs — no wall clock, no live RNG — because the
// campaign executor's worker-count-independence proof rests on it.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/interp/interpreter.h"
#include "src/robust/robust.h"
#include "src/storm/storm.h"

namespace wasabi {
namespace {

// --- Failure taxonomy --------------------------------------------------------

TEST(RunFailureTest, KindNamesAreStable) {
  EXPECT_STREQ(RunFailureKindName(RunFailureKind::kHostException), "host-exception");
  EXPECT_STREQ(RunFailureKindName(RunFailureKind::kStepBudget), "step-budget");
  EXPECT_STREQ(RunFailureKindName(RunFailureKind::kVirtualTime), "virtual-time");
  EXPECT_STREQ(RunFailureKindName(RunFailureKind::kStackOverflow), "stack-overflow");
  EXPECT_STREQ(RunFailureKindName(RunFailureKind::kChaos), "chaos");
}

std::exception_ptr Capture(const std::function<void()>& thrower) {
  try {
    thrower();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

TEST(ClassifyFailureTest, StandardExceptionKeepsItsMessage) {
  RunFailure failure =
      ClassifyFailure(Capture([] { throw std::runtime_error("disk on fire"); }));
  EXPECT_EQ(failure.kind, RunFailureKind::kHostException);
  EXPECT_EQ(failure.detail, "disk on fire");
  EXPECT_FALSE(failure.chaos);
}

TEST(ClassifyFailureTest, ChaosHostFaultIsTaggedChaos) {
  RunFailure failure = ClassifyFailure(Capture([] { throw ChaosHostFault{7, 2}; }));
  EXPECT_EQ(failure.kind, RunFailureKind::kChaos);
  EXPECT_TRUE(failure.chaos);
  EXPECT_NE(failure.detail.find("identity 7"), std::string::npos);
  EXPECT_NE(failure.detail.find("attempt 2"), std::string::npos);
}

TEST(ClassifyFailureTest, ChaosBudgetFaultMapsToAbortKindAndStaysChaos) {
  RunFailure step = ClassifyFailure(
      Capture([] { throw ChaosBudgetFault{AbortReason::kStepBudget, 1}; }));
  EXPECT_EQ(step.kind, RunFailureKind::kStepBudget);
  EXPECT_TRUE(step.chaos);

  RunFailure stack = ClassifyFailure(
      Capture([] { throw ChaosBudgetFault{AbortReason::kStackOverflow, 1}; }));
  EXPECT_EQ(stack.kind, RunFailureKind::kStackOverflow);
  EXPECT_TRUE(stack.chaos);
}

TEST(ClassifyFailureTest, LeakedExecutionAbortIsNotChaos) {
  RunFailure failure = ClassifyFailure(
      Capture([] { throw ExecutionAborted{AbortReason::kVirtualTimeBudget}; }));
  EXPECT_EQ(failure.kind, RunFailureKind::kVirtualTime);
  EXPECT_FALSE(failure.chaos);
  EXPECT_NE(failure.detail.find("execution aborted"), std::string::npos);
}

TEST(ClassifyFailureTest, ForeignExceptionTypesAreContained) {
  // Not derived from std::exception: only catch (...) sees it.
  RunFailure failure = ClassifyFailure(Capture([] { throw 42; }));
  EXPECT_EQ(failure.kind, RunFailureKind::kHostException);
  EXPECT_EQ(failure.detail, "unknown non-standard exception");
}

TEST(ClassifyFailureTest, NullPointerYieldsPlaceholderDetail) {
  RunFailure failure = ClassifyFailure(nullptr);
  EXPECT_EQ(failure.detail, "no exception captured");
}

// --- Retry policy ------------------------------------------------------------

TEST(RetryPolicyTest, ShouldRetryHonorsMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_TRUE(policy.ShouldRetry(2));
  EXPECT_TRUE(policy.ShouldRetry(3));
  EXPECT_FALSE(policy.ShouldRetry(4));

  policy.max_attempts = 1;  // No retry at all.
  EXPECT_FALSE(policy.ShouldRetry(2));
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithoutJitter) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 1000;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.BackoffMs(0, 1), 0);  // The first attempt never waits.
  EXPECT_EQ(policy.BackoffMs(0, 2), 10);
  EXPECT_EQ(policy.BackoffMs(0, 3), 20);
  EXPECT_EQ(policy.BackoffMs(0, 4), 40);
}

TEST(RetryPolicyTest, BackoffIsCapped) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.multiplier = 10.0;
  policy.max_backoff_ms = 50;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.BackoffMs(0, 2), 10);
  EXPECT_EQ(policy.BackoffMs(0, 3), 50);
  EXPECT_EQ(policy.BackoffMs(0, 4), 50);
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.base_backoff_ms = 100;
  policy.multiplier = 1.0;
  policy.max_backoff_ms = 1000;
  policy.jitter = 0.5;
  policy.jitter_seed = 99;
  for (uint64_t identity = 0; identity < 50; ++identity) {
    int64_t first = policy.BackoffMs(identity, 2);
    // Pure hash: replaying the same (seed, identity, attempt) is bit-exact.
    EXPECT_EQ(first, policy.BackoffMs(identity, 2)) << identity;
    // Equal-jitter bounds: [backoff * (1 - jitter), backoff].
    EXPECT_GE(first, 50) << identity;
    EXPECT_LE(first, 100) << identity;
  }
}

// --- Circuit breaker ---------------------------------------------------------

TEST(CircuitBreakerTest, OpensAtThresholdConsecutiveFailures) {
  CircuitBreaker breaker(3);
  breaker.RecordFailure("loc");
  breaker.RecordFailure("loc");
  EXPECT_FALSE(breaker.IsOpen("loc"));
  breaker.RecordFailure("loc");
  EXPECT_TRUE(breaker.IsOpen("loc"));
  EXPECT_FALSE(breaker.IsOpen("other"));
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker breaker(2);
  breaker.RecordFailure("loc");
  breaker.RecordSuccess("loc");
  breaker.RecordFailure("loc");
  EXPECT_FALSE(breaker.IsOpen("loc"));  // Never two in a row.
  breaker.RecordFailure("loc");
  EXPECT_TRUE(breaker.IsOpen("loc"));
}

TEST(CircuitBreakerTest, OpenCircuitStaysOpen) {
  // A campaign has no half-open probe: once condemned, always condemned.
  CircuitBreaker breaker(1);
  breaker.RecordFailure("loc");
  ASSERT_TRUE(breaker.IsOpen("loc"));
  breaker.RecordSuccess("loc");
  EXPECT_TRUE(breaker.IsOpen("loc"));
}

TEST(CircuitBreakerTest, NonPositiveThresholdDisablesTheBreaker) {
  CircuitBreaker breaker(0);
  for (int i = 0; i < 100; ++i) {
    breaker.RecordFailure("loc");
  }
  EXPECT_FALSE(breaker.IsOpen("loc"));
  EXPECT_TRUE(breaker.OpenKeys().empty());
}

TEST(CircuitBreakerTest, OpenKeysAreSorted) {
  CircuitBreaker breaker(1);
  breaker.RecordFailure("zeta");
  breaker.RecordFailure("alpha");
  breaker.RecordFailure("mid");
  EXPECT_EQ(breaker.OpenKeys(), (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

// --- Circuit breaker half-open recovery (storm admission control) ------------

TEST(CircuitBreakerTest, CooldownAdmitsAHalfOpenProbeDeterministically) {
  CircuitBreaker breaker(1, /*cooldown=*/2);
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kAllow);
  breaker.RecordFailure("loc");
  ASSERT_EQ(breaker.StateOf("loc"), BreakerState::kOpen);
  // Exactly `cooldown` admissions shed, then the next one is the probe.
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kShed);
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kShed);
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kProbe);
  EXPECT_EQ(breaker.StateOf("loc"), BreakerState::kHalfOpen);
  // While the probe is outstanding, everything else sheds.
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kShed);
}

TEST(CircuitBreakerTest, ProbeSuccessClosesTheBreaker) {
  CircuitBreaker breaker(2, /*cooldown=*/1);
  breaker.RecordFailure("loc");
  breaker.RecordFailure("loc");
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kShed);
  ASSERT_EQ(breaker.Admit("loc"), BreakerDecision::kProbe);
  breaker.RecordSuccess("loc");
  EXPECT_EQ(breaker.StateOf("loc"), BreakerState::kClosed);
  EXPECT_FALSE(breaker.IsOpen("loc"));
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kAllow);
  // The failure streak restarts from zero after recovery.
  breaker.RecordFailure("loc");
  EXPECT_EQ(breaker.StateOf("loc"), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRestartsTheCooldown) {
  CircuitBreaker breaker(1, /*cooldown=*/2);
  breaker.RecordFailure("loc");
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kShed);
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kShed);
  ASSERT_EQ(breaker.Admit("loc"), BreakerDecision::kProbe);
  breaker.RecordFailure("loc");
  EXPECT_EQ(breaker.StateOf("loc"), BreakerState::kOpen);
  // A failed probe buys a full new cooldown, not an immediate retry.
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kShed);
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kShed);
  EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kProbe);
}

TEST(CircuitBreakerTest, ZeroCooldownKeepsCampaignNeverCloseSemantics) {
  CircuitBreaker breaker(1);  // Default cooldown 0: the campaign's breaker.
  breaker.RecordFailure("loc");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(breaker.Admit("loc"), BreakerDecision::kShed);
  }
  EXPECT_EQ(breaker.StateOf("loc"), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, CampaignAndStormDefaultsStayPinnedApart) {
  // The two consumers of CircuitBreaker deliberately disagree about
  // half-opening and must never drift together (docs/ROBUSTNESS.md): the
  // campaign's quarantine is final (cooldown 0 — a condemned injection
  // location would re-crash every probe), while the storm simulator models a
  // production admission breaker that probes after a cooldown.
  const StormOptions storm_defaults;
  ASSERT_EQ(storm_defaults.breaker_cooldown, 25);

  // Built the way ExecuteCampaignRobust builds it: threshold only.
  CircuitBreaker campaign(/*threshold=*/1);
  campaign.RecordFailure("loc");
  int campaign_probes = 0;
  for (int i = 0; i < 200; ++i) {
    campaign_probes += campaign.Admit("loc") == BreakerDecision::kProbe ? 1 : 0;
  }
  EXPECT_EQ(campaign_probes, 0) << "the campaign breaker must never half-open";
  EXPECT_EQ(campaign.StateOf("loc"), BreakerState::kOpen);

  CircuitBreaker storm(/*threshold=*/1, storm_defaults.breaker_cooldown);
  storm.RecordFailure("loc");
  for (int i = 0; i < storm_defaults.breaker_cooldown; ++i) {
    ASSERT_EQ(storm.Admit("loc"), BreakerDecision::kShed) << "shed #" << i;
  }
  EXPECT_EQ(storm.Admit("loc"), BreakerDecision::kProbe)
      << "the storm breaker must half-open after exactly `cooldown` sheds";
}

TEST(CircuitBreakerTest, HalfOpenCountsAsOpenForOpenKeysButNotIsOpen) {
  CircuitBreaker breaker(1, /*cooldown=*/1);
  breaker.RecordFailure("loc");
  breaker.Admit("loc");
  ASSERT_EQ(breaker.Admit("loc"), BreakerDecision::kProbe);
  // Half-open is not "open" for the campaign's skip check (the probe must
  // run), but the key still shows up in the end-of-run condemned listing.
  EXPECT_FALSE(breaker.IsOpen("loc"));
  EXPECT_EQ(breaker.OpenKeys(), (std::vector<std::string>{"loc"}));
}

// --- Chaos harness -----------------------------------------------------------

TEST(ChaosTest, DisabledOrZeroRateNeverFaults) {
  ChaosConfig off;  // enabled = false.
  ChaosConfig zero;
  zero.enabled = true;
  zero.rate = 0.0;
  for (uint64_t identity = 0; identity < 200; ++identity) {
    EXPECT_FALSE(ChaosShouldFault(off, identity, 1));
    EXPECT_FALSE(ChaosShouldFault(zero, identity, 1));
  }
}

TEST(ChaosTest, FullRateAlwaysFaults) {
  ChaosConfig config;
  config.enabled = true;
  config.rate = 1.0;
  for (uint64_t identity = 0; identity < 200; ++identity) {
    EXPECT_TRUE(ChaosShouldFault(config, identity, 1));
    EXPECT_TRUE(ChaosShouldFault(config, identity, 3));
  }
}

TEST(ChaosTest, DrawIsAPureFunctionOfSeedIdentityAttempt) {
  ChaosConfig config;
  config.enabled = true;
  config.seed = 42;
  config.rate = 0.3;
  for (uint64_t identity = 0; identity < 500; ++identity) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      EXPECT_EQ(ChaosShouldFault(config, identity, attempt),
                ChaosShouldFault(config, identity, attempt))
          << identity << "/" << attempt;
    }
  }
}

TEST(ChaosTest, TransientFaultsVaryByAttemptPersistentDoNot) {
  ChaosConfig transient;
  transient.enabled = true;
  transient.seed = 7;
  transient.rate = 0.5;
  transient.transient = true;
  bool some_draw_differs = false;
  for (uint64_t identity = 0; identity < 100 && !some_draw_differs; ++identity) {
    some_draw_differs = ChaosShouldFault(transient, identity, 1) !=
                        ChaosShouldFault(transient, identity, 2);
  }
  EXPECT_TRUE(some_draw_differs) << "transient draws must depend on the attempt";

  ChaosConfig persistent = transient;
  persistent.transient = false;
  for (uint64_t identity = 0; identity < 100; ++identity) {
    EXPECT_EQ(ChaosShouldFault(persistent, identity, 1),
              ChaosShouldFault(persistent, identity, 5))
        << identity;
  }
}

TEST(ChaosTest, RateIsApproximatelyHonored) {
  ChaosConfig config;
  config.enabled = true;
  config.seed = 11;
  config.rate = 0.1;
  int faulted = 0;
  const int kDraws = 10000;
  for (uint64_t identity = 0; identity < kDraws; ++identity) {
    faulted += ChaosShouldFault(config, identity, 1) ? 1 : 0;
  }
  EXPECT_GT(faulted, kDraws / 20);      // > 5%
  EXPECT_LT(faulted, kDraws * 3 / 20);  // < 15%
}

TEST(ChaosTest, MaybeFaultThrowsTheHostFaultWithItsIdentity) {
  ChaosConfig config;
  config.enabled = true;
  config.rate = 1.0;
  try {
    ChaosMaybeFault(config, 17, 2);
    FAIL() << "expected a chaos fault";
  } catch (const ChaosHostFault& fault) {
    EXPECT_EQ(fault.identity, 17u);
    EXPECT_EQ(fault.attempt, 2);
  }
}

TEST(ChaosTest, FullBudgetFractionPresentsAsBudgetAborts) {
  ChaosConfig config;
  config.enabled = true;
  config.rate = 1.0;
  config.budget_fraction = 1.0;
  for (uint64_t identity = 0; identity < 20; ++identity) {
    try {
      ChaosMaybeFault(config, identity, 1);
      FAIL() << "expected a chaos fault at identity " << identity;
    } catch (const ChaosBudgetFault& fault) {
      EXPECT_EQ(fault.identity, identity);
    }
  }
}

TEST(ChaosSpecTest, ParsesValidSeedRatePairs) {
  ChaosConfig config;
  std::string error;
  ASSERT_TRUE(ParseChaosSpec("42:0.1", &config, &error)) << error;
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_DOUBLE_EQ(config.rate, 0.1);

  ASSERT_TRUE(ParseChaosSpec("0:1", &config, &error)) << error;
  EXPECT_EQ(config.seed, 0u);
  EXPECT_DOUBLE_EQ(config.rate, 1.0);

  ASSERT_TRUE(ParseChaosSpec("18446744073709551615:0.3", &config, &error)) << error;
  EXPECT_EQ(config.seed, UINT64_MAX);
}

TEST(ChaosSpecTest, RejectsMalformedSpecs) {
  // Seeds that strtoull would negate ("-1") or saturate (past 2^64 - 1).
  for (const char* bad : {"banana", "42", ":0.5", "42:", "x:0.5", "42:y",
                          "42:1.5", "42:-0.1", "4 2:0.5", "-1:0.3", "+1:0.3", " 1:0.3",
                          "18446744073709551616:0.3", "99999999999999999999:0.3"}) {
    ChaosConfig config;
    std::string error;
    EXPECT_FALSE(ParseChaosSpec(bad, &config, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// --- Stats merge -------------------------------------------------------------

TEST(RobustnessStatsTest, MergeSumsCountersAndDedupesLocations) {
  RobustnessStats a;
  a.retries = 2;
  a.quarantined = 1;
  a.backoff_virtual_ms = 30;
  a.open_locations = {"beta", "alpha"};

  RobustnessStats b;
  b.retries = 3;
  b.recovered = 1;
  b.chaos_faults = 4;
  b.open_locations = {"alpha", "gamma"};
  b.aborted = true;

  a.MergeFrom(b);
  EXPECT_EQ(a.retries, 5);
  EXPECT_EQ(a.recovered, 1);
  EXPECT_EQ(a.quarantined, 1);
  EXPECT_EQ(a.chaos_faults, 4);
  EXPECT_EQ(a.backoff_virtual_ms, 30);
  EXPECT_EQ(a.open_locations, (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_TRUE(a.aborted);
}

}  // namespace
}  // namespace wasabi
