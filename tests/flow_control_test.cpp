// Tests for credit-based flow control (§3.3): partitioning, the RPQ
// dedicated/shared/overflow credit classes, blocking accounting, and
// credit conservation.
#include "common/error.h"
#include <gtest/gtest.h>

#include "net/flow_control.h"

namespace rpqd {
namespace {

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.buffers_per_machine = 16;
  cfg.rpq_preallocated_depth = 2;
  cfg.rpq_shared_credits_per_stage = 2;
  cfg.rpq_overflow_credits_per_depth = 1;
  return cfg;
}

TEST(FlowControl, FixedStageCreditsExhaust) {
  // 16 buffers / (2 stages * 2 machines) = 4 credits per slot.
  FlowControl fc(small_config(), 2, {false, false});
  for (int i = 0; i < 4; ++i) {
    const auto c = fc.try_acquire(1, 0, 0);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, CreditClass::kFixed);
  }
  EXPECT_FALSE(fc.try_acquire(1, 0, 0).has_value());
  EXPECT_EQ(fc.counters().flow_blocked, 1u);
  // Other (stage, machine) slots are unaffected.
  EXPECT_TRUE(fc.try_acquire(0, 0, 0).has_value());
  EXPECT_TRUE(fc.try_acquire(1, 1, 0).has_value());
}

TEST(FlowControl, ReleaseRestoresCredit) {
  FlowControl fc(small_config(), 2, {false});
  for (int round = 0; round < 3; ++round) {
    std::vector<CreditClass> held;
    while (const auto c = fc.try_acquire(0, 0, 0)) held.push_back(*c);
    EXPECT_FALSE(held.empty());
    for (const auto c : held) fc.release(0, 0, 0, c);
  }
  EXPECT_EQ(fc.outstanding(), 0u);
}

TEST(FlowControl, MinimumTwoCreditsPerSlot) {
  EngineConfig cfg = small_config();
  cfg.buffers_per_machine = 1;  // would be < 2 per slot: clamped up
  FlowControl fc(cfg, 4, {false, false, false});
  EXPECT_TRUE(fc.try_acquire(3, 2, 0).has_value());
  EXPECT_TRUE(fc.try_acquire(3, 2, 0).has_value());
}

TEST(FlowControl, RpqDedicatedPerDepth) {
  // RPQ stage: window depth < 2, per-depth = max(1, 4/2) = 2.
  FlowControl fc(small_config(), 2, {true, false});
  EXPECT_EQ(*fc.try_acquire(0, 0, 0), CreditClass::kRpqDedicated);
  EXPECT_EQ(*fc.try_acquire(0, 0, 0), CreditClass::kRpqDedicated);
  // Depth 0 dedicated exhausted; falls to shared.
  EXPECT_EQ(*fc.try_acquire(0, 0, 0), CreditClass::kRpqShared);
  // Depth 1 still has dedicated credits.
  EXPECT_EQ(*fc.try_acquire(0, 0, 1), CreditClass::kRpqDedicated);
}

TEST(FlowControl, RpqDeepDepthsUseSharedThenOverflow) {
  FlowControl fc(small_config(), 1, {true});
  // Depth 7 is beyond the window: shared first (2), then one overflow
  // per depth, then blocked.
  EXPECT_EQ(*fc.try_acquire(0, 0, 7), CreditClass::kRpqShared);
  EXPECT_EQ(*fc.try_acquire(0, 0, 7), CreditClass::kRpqShared);
  EXPECT_EQ(*fc.try_acquire(0, 0, 7), CreditClass::kRpqOverflow);
  EXPECT_FALSE(fc.try_acquire(0, 0, 7).has_value());
  // A different deep depth still gets its own overflow credit — this is
  // the §3.3 livelock break.
  EXPECT_EQ(*fc.try_acquire(0, 0, 8), CreditClass::kRpqOverflow);
  EXPECT_EQ(fc.counters().flow_overflow_used, 2u);
}

TEST(FlowControl, OverflowReleaseReenables) {
  FlowControl fc(small_config(), 1, {true});
  fc.try_acquire(0, 0, 9);  // shared
  fc.try_acquire(0, 0, 9);  // shared
  EXPECT_EQ(*fc.try_acquire(0, 0, 9), CreditClass::kRpqOverflow);
  EXPECT_FALSE(fc.try_acquire(0, 0, 9).has_value());
  fc.release(0, 0, 9, CreditClass::kRpqOverflow);
  EXPECT_EQ(*fc.try_acquire(0, 0, 9), CreditClass::kRpqOverflow);
}

TEST(FlowControl, OverflowDisabledWhenConfiguredZero) {
  EngineConfig cfg = small_config();
  cfg.rpq_overflow_credits_per_depth = 0;
  FlowControl fc(cfg, 1, {true});
  fc.try_acquire(0, 0, 9);
  fc.try_acquire(0, 0, 9);
  EXPECT_FALSE(fc.try_acquire(0, 0, 9).has_value());
}

TEST(FlowControl, SharedReleaseRoundTrip) {
  FlowControl fc(small_config(), 1, {true});
  const auto a = *fc.try_acquire(0, 0, 5);
  EXPECT_EQ(a, CreditClass::kRpqShared);
  fc.release(0, 0, 5, a);
  EXPECT_EQ(fc.outstanding(), 0u);
  EXPECT_EQ(*fc.try_acquire(0, 0, 5), CreditClass::kRpqShared);
}

TEST(FlowControl, ReleaseWithoutAcquireThrows) {
  FlowControl fc(small_config(), 1, {false});
  EXPECT_THROW(fc.release(0, 0, 0, CreditClass::kFixed), EngineError);
}

TEST(FlowControl, BlockedCounterAccumulates) {
  FlowControl fc(small_config(), 2, {false});
  while (fc.try_acquire(0, 0, 0)) {
  }
  for (int i = 0; i < 9; ++i) fc.try_acquire(0, 0, 0);
  EXPECT_EQ(fc.counters().flow_blocked, 10u);
}

TEST(FlowControl, OverflowOutstandingTracksInFlightDepths) {
  FlowControl fc(small_config(), 1, {true});
  EXPECT_EQ(fc.overflow_outstanding(), 0u);
  EXPECT_EQ(*fc.try_acquire(0, 0, 7), CreditClass::kRpqShared);
  EXPECT_EQ(*fc.try_acquire(0, 0, 7), CreditClass::kRpqShared);
  EXPECT_EQ(fc.overflow_outstanding(), 0u);  // shared grants don't count
  EXPECT_EQ(*fc.try_acquire(0, 0, 7), CreditClass::kRpqOverflow);
  EXPECT_EQ(*fc.try_acquire(0, 0, 8), CreditClass::kRpqOverflow);
  EXPECT_EQ(fc.overflow_outstanding(), 2u);
  fc.release(0, 0, 7, CreditClass::kRpqOverflow);
  EXPECT_EQ(fc.overflow_outstanding(), 1u);
  fc.release(0, 0, 8, CreditClass::kRpqOverflow);
  EXPECT_EQ(fc.overflow_outstanding(), 0u);
  // Releasing the shared credits never touches the overflow books, and
  // the books stay empty once everything is returned.
  fc.release(0, 0, 7, CreditClass::kRpqShared);
  fc.release(0, 0, 7, CreditClass::kRpqShared);
  EXPECT_EQ(fc.overflow_outstanding(), 0u);
  EXPECT_EQ(fc.outstanding(), 0u);
}

TEST(FlowControl, FastPathCountsLockFreeGrants) {
  // Dedicated and shared grants never take the mutex; only the overflow
  // grant goes through the slow path.
  FlowControl fc(small_config(), 1, {true});
  EXPECT_EQ(*fc.try_acquire(0, 0, 0), CreditClass::kRpqDedicated);
  EXPECT_EQ(*fc.try_acquire(0, 0, 7), CreditClass::kRpqShared);
  EXPECT_EQ(*fc.try_acquire(0, 0, 7), CreditClass::kRpqShared);
  EXPECT_EQ(*fc.try_acquire(0, 0, 7), CreditClass::kRpqOverflow);
  const MachineCounters c = fc.counters();
  EXPECT_EQ(c.flow_fast_path + c.flow_overflow_used, 4u);  // every grant
  EXPECT_EQ(c.flow_fast_path, 3u);  // overflow is the one slow-path grant
}

}  // namespace
}  // namespace rpqd
