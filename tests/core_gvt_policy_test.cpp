// Unit tests for the tiered CA trigger policy (core/gvt_policy.hpp):
// trip/release hysteresis asymmetry, the queue-peak EWMA, the deferred
// escalation counter, and the --gvt spec / autotune plumbing that feeds it
// (core/config.hpp).
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "core/config.hpp"
#include "core/gvt_policy.hpp"

namespace cagvt::core {
namespace {

CaTriggerPolicy::Config base_config() {
  CaTriggerPolicy::Config cfg;
  cfg.efficiency_threshold = 0.80;
  cfg.queue_threshold = 16;
  cfg.queue_release_frac = 0.5;
  cfg.escalate_after = 3;
  return cfg;
}

TEST(CaTriggerPolicyTest, HealthySignalStaysAsync) {
  CaTriggerPolicy policy(base_config());
  for (int i = 0; i < 20; ++i) {
    const SyncDecision d = policy.decide(/*efficiency=*/0.95, /*queue_peak=*/2);
    EXPECT_EQ(d.tier, SyncTier::kAsync);
    EXPECT_FALSE(d.tripped);
  }
  EXPECT_FALSE(policy.engaged());
}

TEST(CaTriggerPolicyTest, FirstTripThrottlesNotSyncs) {
  CaTriggerPolicy policy(base_config());
  const SyncDecision d = policy.decide(/*efficiency=*/0.50, /*queue_peak=*/0);
  EXPECT_TRUE(d.tripped);
  EXPECT_EQ(d.tier, SyncTier::kThrottle);
  EXPECT_TRUE(policy.engaged());
}

TEST(CaTriggerPolicyTest, EscalatesAfterConsecutiveBadRounds) {
  CaTriggerPolicy policy(base_config());  // escalate_after = 3
  EXPECT_EQ(policy.decide(0.50, 0).tier, SyncTier::kThrottle);  // streak 1
  EXPECT_EQ(policy.decide(0.50, 0).tier, SyncTier::kThrottle);  // streak 2
  EXPECT_EQ(policy.decide(0.50, 0).tier, SyncTier::kSync);      // streak 3
  EXPECT_EQ(policy.decide(0.50, 0).tier, SyncTier::kSync);      // stays bad
  EXPECT_EQ(policy.bad_streak(), 4);
}

TEST(CaTriggerPolicyTest, EscalationCounterResetsOnAnyCalmRound) {
  CaTriggerPolicy policy(base_config());
  policy.decide(0.50, 0);  // streak 1
  policy.decide(0.50, 0);  // streak 2
  // A single good round resets the streak; the NEXT dip starts over at the
  // throttle tier instead of inheriting the old runway.
  const SyncDecision calm = policy.decide(0.95, 0);
  EXPECT_FALSE(calm.tripped);
  EXPECT_EQ(policy.bad_streak(), 0);
  EXPECT_EQ(policy.decide(0.50, 0).tier, SyncTier::kThrottle);
  EXPECT_EQ(policy.decide(0.50, 0).tier, SyncTier::kThrottle);
  EXPECT_EQ(policy.decide(0.50, 0).tier, SyncTier::kSync);
}

TEST(CaTriggerPolicyTest, EscalateZeroNeverReachesSyncTier) {
  CaTriggerPolicy::Config cfg = base_config();
  cfg.escalate_after = 0;
  CaTriggerPolicy policy(cfg);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(policy.decide(0.10, 1000).tier, SyncTier::kThrottle);
}

TEST(CaTriggerPolicyTest, EscalateOneIsTheLegacyTripMeansSyncPolicy) {
  CaTriggerPolicy::Config cfg = base_config();
  cfg.escalate_after = 1;
  CaTriggerPolicy policy(cfg);
  EXPECT_EQ(policy.decide(0.50, 0).tier, SyncTier::kSync);
}

TEST(CaTriggerPolicyTest, ReleaseRequiresMarginAboveTripThreshold) {
  CaTriggerPolicy policy(base_config());  // trip < 0.80, release >= 0.85
  policy.decide(0.50, 0);
  EXPECT_TRUE(policy.engaged());
  // Efficiency recovered above the trip threshold but inside the hysteresis
  // band: not tripped, but not calm either — the clamp stays engaged and
  // the calm streak never starts.
  for (int i = 0; i < 10; ++i) {
    const SyncDecision d = policy.decide(0.82, 0);
    EXPECT_FALSE(d.tripped);
    EXPECT_EQ(d.tier, SyncTier::kThrottle);
  }
  EXPECT_TRUE(policy.engaged());
  EXPECT_EQ(policy.calm_streak(), 0);
}

TEST(CaTriggerPolicyTest, ReleasesAfterCalmRoundsNotFirst) {
  CaTriggerPolicy policy(base_config());  // kCalmRelease = 2
  policy.decide(0.50, 0);
  const SyncDecision first_calm = policy.decide(0.95, 0);
  EXPECT_EQ(first_calm.tier, SyncTier::kThrottle);  // cooling off, still clamped
  EXPECT_EQ(policy.calm_streak(), 1);
  const SyncDecision second_calm = policy.decide(0.95, 0);
  EXPECT_EQ(second_calm.tier, SyncTier::kAsync);
  EXPECT_FALSE(policy.engaged());
  EXPECT_EQ(policy.calm_streak(), 0);
}

TEST(CaTriggerPolicyTest, CalmStreakResetsOnMidBandRound) {
  CaTriggerPolicy policy(base_config());
  policy.decide(0.50, 0);
  policy.decide(0.95, 0);             // calm 1
  EXPECT_EQ(policy.calm_streak(), 1);
  policy.decide(0.82, 0);             // mid-band: not calm
  EXPECT_EQ(policy.calm_streak(), 0);
  policy.decide(0.95, 0);             // calm 1 again — release needs 2 fresh
  EXPECT_TRUE(policy.engaged());
}

TEST(CaTriggerPolicyTest, QueuePeakIsSmoothedByEwma) {
  CaTriggerPolicy policy(base_config());  // kQueueAlpha 0.5, threshold 16
  // One spike of 24 smooths to 12 <= 16: no trip (the raw peak would trip).
  const SyncDecision spike = policy.decide(0.95, 24);
  EXPECT_FALSE(spike.tripped);
  EXPECT_DOUBLE_EQ(policy.queue_ewma(), 12.0);
  // Sustained pressure accumulates: 0.5*24 + 0.5*12 = 18 > 16 trips.
  const SyncDecision sustained = policy.decide(0.95, 24);
  EXPECT_TRUE(sustained.tripped);
  EXPECT_EQ(sustained.tier, SyncTier::kThrottle);
}

TEST(CaTriggerPolicyTest, QueueReleaseNeedsEwmaWellBelowThreshold) {
  CaTriggerPolicy policy(base_config());  // release frac 0.5 -> ewma <= 8
  policy.decide(0.95, 64);
  policy.decide(0.95, 64);
  EXPECT_TRUE(policy.engaged());
  // Efficiency is fine and the raw peak dropped to zero, but the EWMA decays
  // gradually — the policy only counts calm rounds once it is under half the
  // threshold, so the first post-storm rounds keep the clamp.
  int rounds_to_release = 0;
  while (policy.engaged()) {
    policy.decide(0.95, 0);
    ASSERT_LT(++rounds_to_release, 20);
  }
  EXPECT_GE(rounds_to_release, 3);
}

TEST(CaTriggerPolicyTest, TransientOneEpochDipThrottlesButNeverQuiesces) {
  // Golden trace for the common production pattern: a healthy pipeline hits
  // one bad epoch (GC pause, stolen core), recovers, and hits another later.
  // The old trip-means-sync policy would have quiesced twice; the tiered
  // policy must answer with two short throttle windows and zero sync epochs.
  CaTriggerPolicy policy(base_config());
  const struct {
    double eff;
    double queue;
    SyncTier want;
  } trace[] = {
      {0.95, 2, SyncTier::kAsync},      // ewma 1: steady state
      {0.95, 3, SyncTier::kAsync},      // ewma 2
      {0.40, 30, SyncTier::kThrottle},  // ewma 16: the dip — clamp, no barrier
      {0.95, 2, SyncTier::kThrottle},   // ewma 9 > 8: pressure still draining
      {0.95, 1, SyncTier::kThrottle},   // ewma 5: calm 1 of 2
      {0.95, 0, SyncTier::kAsync},      // ewma 2.5: calm 2 — clamp released
      {0.95, 2, SyncTier::kAsync},
      {0.55, 0, SyncTier::kThrottle},  // second dip starts a FRESH streak
      {0.95, 0, SyncTier::kThrottle},  // cooling off again: calm 1
      {0.95, 0, SyncTier::kAsync},     // calm 2 — released
  };
  int step = 0;
  for (const auto& t : trace) {
    const SyncDecision d = policy.decide(t.eff, t.queue);
    EXPECT_EQ(d.tier, t.want) << "step " << step;
    EXPECT_NE(d.tier, SyncTier::kSync) << "step " << step;
    ++step;
  }
  EXPECT_FALSE(policy.engaged());
}

TEST(CaTriggerPolicyTest, StatelessTripsMatchesRawThresholds) {
  const CaTriggerPolicy policy(base_config());
  EXPECT_FALSE(policy.trips(0.90, 10));
  EXPECT_TRUE(policy.trips(0.50, 0));
  EXPECT_TRUE(policy.trips(1.0, 17));
  EXPECT_FALSE(policy.trips(0.80, 16));  // boundary: strict comparisons
}

TEST(CaTriggerPolicyTest, TierToStringRoundTrips) {
  EXPECT_STREQ(to_string(SyncTier::kAsync), "async");
  EXPECT_STREQ(to_string(SyncTier::kThrottle), "throttle");
  EXPECT_STREQ(to_string(SyncTier::kSync), "sync");
}

// --- config plumbing ------------------------------------------------------

TEST(GvtSpecTest, BareKindKeepsKnobDefaults) {
  SimulationConfig cfg;
  apply_gvt_spec(cfg, "epoch");
  EXPECT_EQ(cfg.gvt, GvtKind::kEpoch);
  EXPECT_EQ(cfg.gvt_escalate_rounds, 3);
  EXPECT_DOUBLE_EQ(cfg.gvt_throttle_clamp, 4.0);
}

TEST(GvtSpecTest, ParsesEveryKnob) {
  SimulationConfig cfg;
  apply_gvt_spec(cfg, "epoch,escalate=5,clamp=2.5");
  EXPECT_EQ(cfg.gvt, GvtKind::kEpoch);
  EXPECT_EQ(cfg.gvt_escalate_rounds, 5);
  EXPECT_DOUBLE_EQ(cfg.gvt_throttle_clamp, 2.5);
  cfg.validate();
  // The hysteresis constants are not knobs: their old keys are rejected
  // by name.
  for (const char* key : {"release=0.1", "queue-alpha=0.25", "calm=4"}) {
    try {
      apply_gvt_spec(cfg, std::string("epoch,escalate=5,") + key);
      FAIL() << "expected std::invalid_argument for " << key;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      const std::string name(key, std::string_view(key).find('='));
      EXPECT_NE(what.find("'" + name + "'"), std::string::npos) << what;
    }
  }
}

TEST(GvtSpecTest, UnknownParameterNamesValidOnes) {
  SimulationConfig cfg;
  try {
    apply_gvt_spec(cfg, "ca-gvt,esclate=3");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("esclate"), std::string::npos) << what;
    EXPECT_NE(what.find("expected escalate or clamp"), std::string::npos) << what;
  }
}

TEST(GvtSpecTest, UnknownKindStillNamesValidKinds) {
  SimulationConfig cfg;
  try {
    apply_gvt_spec(cfg, "epcoh,escalate=3");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("epoch"), std::string::npos) << what;
    EXPECT_NE(what.find("mattern"), std::string::npos) << what;
  }
}

TEST(GvtSpecTest, ValidateRejectsOutOfRangeKnobs) {
  SimulationConfig cfg;
  cfg.gvt_escalate_rounds = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  for (const double clamp : {0.0, 0.5}) {
    cfg = SimulationConfig{};
    cfg.gvt_throttle_clamp = clamp;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << "clamp=" << clamp;
  }
}

TEST(GvtSpecTest, TriggerPolicyFromMirrorsConfig) {
  SimulationConfig cfg;
  apply_gvt_spec(cfg, "ca-gvt,escalate=7");
  cfg.ca_efficiency_threshold = 0.6;
  cfg.ca_queue_threshold = 32;
  const TierPolicy policy = tier_policy_from(cfg);
  ASSERT_NE(policy.trigger(), nullptr);
  EXPECT_DOUBLE_EQ(policy.trigger()->config().efficiency_threshold, 0.6);
  EXPECT_EQ(policy.trigger()->config().queue_threshold, 32u);
  EXPECT_EQ(policy.trigger()->config().escalate_after, 7);
  // The trigger policy is engaged for the adaptive kinds only.
  cfg.gvt = GvtKind::kEpoch;
  EXPECT_NE(tier_policy_from(cfg).trigger(), nullptr);
  for (const GvtKind kind : {GvtKind::kBarrier, GvtKind::kMattern}) {
    cfg.gvt = kind;
    TierPolicy plain = tier_policy_from(cfg);
    EXPECT_EQ(plain.trigger(), nullptr) << to_string(kind);
    EXPECT_EQ(plain.decide({.committed = 0, .processed = 100}, 1000), SyncTier::kAsync);
    EXPECT_DOUBLE_EQ(plain.efficiency(), 0.7);  // the EWMA still runs
  }
}

TEST(TreeArityAutotuneTest, TinyClustersGetBinaryTrees) {
  const net::ClusterSpec cluster;
  EXPECT_EQ(autotune_tree_arity(1, cluster), 2);
  EXPECT_EQ(autotune_tree_arity(2, cluster), 2);
  EXPECT_EQ(autotune_tree_arity(3, cluster), 2);
}

TEST(TreeArityAutotuneTest, ArityStaysInRangeAndPrefersWiderAtScale) {
  const net::ClusterSpec cluster;
  int last = 0;
  for (const int nodes : {4, 8, 16, 64, 256, 1024}) {
    const int arity = autotune_tree_arity(nodes, cluster);
    EXPECT_GE(arity, 2) << nodes;
    EXPECT_LE(arity, 8) << nodes;
    EXPECT_LT(arity, nodes) << nodes;
    last = arity;
  }
  // With the default cost model (latency-dominated per level), large node
  // counts favour wider, shallower trees than binary.
  EXPECT_GT(last, 2);
}

TEST(TreeArityAutotuneTest, CheapLatencyFavorsNarrowTrees) {
  // When per-child receive CPU dominates the link latency, wide parents
  // serialize; the autotune must fall back toward binary. (32 nodes: a
  // binary tree's depth-5 cost beats every wider arity, which all waste a
  // partially-filled bottom level.)
  net::ClusterSpec cluster;
  cluster.net_latency = 1;
  cluster.mpi_collective_cpu = 1;
  cluster.control_recv_cpu = 100000;
  EXPECT_EQ(autotune_tree_arity(32, cluster), 2);
}

}  // namespace
}  // namespace cagvt::core
