// Unit tests for the execution clamp (cons/clamp.hpp): the one horizon rule
// the window executor, the flow throttle and the adaptive policy's
// throttle tier share on both execution backends.
#include <gtest/gtest.h>

#include "cons/clamp.hpp"

namespace cagvt::cons {
namespace {

using core::SyncTier;

TEST(ClampTest, StartsReleased) {
  const Clamp clamp;
  EXPECT_FALSE(clamp.engaged());
  EXPECT_EQ(clamp.bound(), pdes::kVtInfinity);
}

TEST(ClampTest, EngagingFromInfinityReportsOneEngagement) {
  Clamp clamp;
  EXPECT_TRUE(clamp.engage(10.0, 4.0));
  EXPECT_TRUE(clamp.engaged());
  EXPECT_DOUBLE_EQ(clamp.bound(), 14.0);
  // Later engages slide an engaged clamp; they are not new engagements.
  EXPECT_FALSE(clamp.engage(12.0, 4.0));
  EXPECT_DOUBLE_EQ(clamp.bound(), 16.0);
}

TEST(ClampTest, SlideNeverRetractsWhenGvtGoesBackwards) {
  Clamp clamp;
  clamp.engage(20.0, 4.0);
  // A restore rewinds GVT below the granted horizon: the bound holds.
  EXPECT_FALSE(clamp.engage(5.0, 4.0));
  EXPECT_DOUBLE_EQ(clamp.bound(), 24.0);
  // A narrower width at the same GVT cannot retract it either.
  EXPECT_FALSE(clamp.engage(20.0, 1.0));
  EXPECT_DOUBLE_EQ(clamp.bound(), 24.0);
}

TEST(ClampTest, ReleaseFreesAndReengageCountsAgain) {
  Clamp clamp;
  clamp.engage(20.0, 4.0);
  clamp.release();
  EXPECT_FALSE(clamp.engaged());
  EXPECT_EQ(clamp.bound(), pdes::kVtInfinity);
  // After a release the bound restarts from the new GVT, even a lower one.
  EXPECT_TRUE(clamp.engage(5.0, 4.0));
  EXPECT_DOUBLE_EQ(clamp.bound(), 9.0);
}

TEST(ClampTest, HysteresisEngagesOnStressAndReleasesAfterTwoCalmRounds) {
  Clamp clamp;
  // Calm rounds on a released clamp do nothing.
  EXPECT_FALSE(clamp.step(/*stressed=*/false, 1.0, 2.0));
  EXPECT_FALSE(clamp.engaged());
  // A stressed round engages.
  EXPECT_TRUE(clamp.step(/*stressed=*/true, 2.0, 2.0));
  EXPECT_DOUBLE_EQ(clamp.bound(), 4.0);
  // The first calm round keeps it sliding.
  EXPECT_FALSE(clamp.step(/*stressed=*/false, 3.0, 2.0));
  EXPECT_TRUE(clamp.engaged());
  EXPECT_DOUBLE_EQ(clamp.bound(), 5.0);
  // The second calm round in a row releases it.
  EXPECT_FALSE(clamp.step(/*stressed=*/false, 4.0, 2.0));
  EXPECT_FALSE(clamp.engaged());
  static_assert(Clamp::kCalmRounds == 2);
}

TEST(ClampTest, StressRestartsTheCalmCount) {
  Clamp clamp;
  clamp.step(/*stressed=*/true, 0.0, 2.0);
  clamp.step(/*stressed=*/false, 1.0, 2.0);  // calm 1
  EXPECT_FALSE(clamp.step(/*stressed=*/true, 2.0, 2.0));  // slide, calm reset
  clamp.step(/*stressed=*/false, 3.0, 2.0);  // calm 1 again
  EXPECT_TRUE(clamp.engaged());
  clamp.step(/*stressed=*/false, 4.0, 2.0);  // calm 2: released
  EXPECT_FALSE(clamp.engaged());
}

TEST(ClampTest, ApplyTierEngagesOnThrottleAndSyncReleasesOnAsync) {
  Clamp clamp;
  EXPECT_TRUE(apply_tier(clamp, SyncTier::kThrottle, 10.0, 4.0));
  EXPECT_DOUBLE_EQ(clamp.bound(), 14.0);
  // Escalation keeps (and slides) the clamp: barriers add to it.
  EXPECT_FALSE(apply_tier(clamp, SyncTier::kSync, 11.0, 4.0));
  EXPECT_DOUBLE_EQ(clamp.bound(), 15.0);
  EXPECT_FALSE(apply_tier(clamp, SyncTier::kAsync, 12.0, 4.0));
  EXPECT_FALSE(clamp.engaged());
}

}  // namespace
}  // namespace cagvt::cons
