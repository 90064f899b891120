// Adaptive-GVT trigger policy, shared between execution backends.
//
// CA-GVT's decision of WHEN to synchronize is pure arithmetic over two
// measurements (the smoothed global efficiency and the peak MPI queue
// occupancy), independent of HOW the round is executed — cooperative
// coroutine barriers (core/mattern_gvt) or a real-thread atomic fence
// (exec/gvt_fence). Both backends share this header so an adaptivity
// change cannot silently diverge between them, which is exactly what the
// differential oracle tests would then flag.
#pragma once

#include <cstdint>
#include <optional>

#include "pdes/stats.hpp"

namespace cagvt::core {

/// Events decided (committed or rolled back) over a GVT-round window — the
/// efficiency estimator's input. Uncommitted history is undecided and
/// excluded, which would otherwise bias the estimate low.
struct DecidedEvents {
  std::uint64_t committed = 0;
  std::uint64_t processed = 0;  // committed + rolled back

  DecidedEvents& operator+=(const DecidedEvents& o) {
    committed += o.committed;
    processed += o.processed;
    return *this;
  }
};

/// One worker's decided-event window: its kernel counters at the previous
/// GVT contribution (both backends' contributions take it here).
struct DecidedWindow {
  std::uint64_t committed = 0;
  std::uint64_t rolled_back = 0;

  /// The events decided since the previous take; starts the next window.
  DecidedEvents take(const pdes::KernelStats& stats) {
    const std::uint64_t newly_committed = stats.committed - committed;
    const DecidedEvents d{newly_committed, newly_committed + (stats.rolled_back - rolled_back)};
    *this = {stats.committed, stats.rolled_back};
    return d;
  }
};

/// Exponentially smoothed estimate of the global simulation efficiency
/// (committed / processed events per GVT-round window). The raw window
/// reading recovers the instant one synchronous round cleans the system
/// up, which would flip the SyncFlag back and forth every round; smoothing
/// reproduces the paper's behaviour — synchrony persists for a run of
/// rounds until the measured efficiency climbs back through the threshold.
class EfficiencyEstimator {
 public:
  /// Fold in one round's decided-event window. No decided events = no
  /// evidence; the current estimate is kept.
  void update(const DecidedEvents& decided) {
    if (decided.processed == 0) return;
    const double window = static_cast<double>(decided.committed) /
                          static_cast<double>(decided.processed);
    value_ = kAlpha * window + (1.0 - kAlpha) * value_;
  }

  double value() const { return value_; }

 private:
  static constexpr double kAlpha = 0.3;
  double value_ = 1.0;  // optimistic start: no synchrony until measured
};

/// Escalation tier of the adaptive GVT policy. Ordered: each tier contains
/// every intervention of the tier below it.
///
///   kAsync    — free-running rounds/epochs, no intervention.
///   kThrottle — execution clamped to GVT + C (cons::apply_tier) while the
///               rounds themselves stay fully asynchronous. Local damping:
///               optimism is capped, nothing stalls the GVT pipeline.
///   kSync     — rounds additionally run synchronously (CA barriers /
///               quiesced epochs). The global stall, reserved for signals
///               that stay bad through the throttle.
enum class SyncTier : std::uint8_t { kAsync = 0, kThrottle = 1, kSync = 2 };

/// One adaptivity decision: the tier the NEXT round/epoch should run at,
/// plus the raw trigger verdict that produced it (for traces/tests).
struct SyncDecision {
  SyncTier tier = SyncTier::kAsync;
  bool tripped = false;  // raw trigger fired on this round's measurements
};

/// CA-GVT's two synchronization triggers (paper Sections 5 and 8) —
/// efficiency below the threshold, or MPI queue occupancy above the bound —
/// wrapped in a tiered escalation state machine (DESIGN §13):
///
///   * Hysteresis: the trip and release conditions are asymmetric. A trip
///     engages the policy; it only disengages after kCalmRelease
///     consecutive decisions in the calm band (efficiency above
///     threshold + kReleaseMargin AND the queue EWMA below
///     queue_release_frac * queue_threshold). A single MPI burst therefore
///     cannot flip-flop the mode round to round.
///   * Queue smoothing: the queue trigger compares an EWMA (weight
///     kQueueAlpha) of the per-round peaks, not the raw peak, so one bursty
///     round does not trip it.
///   * Deferred escalation: an engaged policy first answers with kThrottle
///     (clamp execution to GVT + C, keep rounds asynchronous); it escalates
///     to kSync only after `escalate_after` consecutive tripped decisions.
///     escalate_after = 1 recovers the paper's trip-means-barriers CA-GVT
///     (plus hysteresis on the release edge); 0 disables kSync entirely.
///
/// decide() is stateful and must see every round's measurements exactly
/// once per instance. The epoch GVT calls it identically on every rank
/// (each rank receives the same reduced totals), so the per-rank instances
/// stay in lockstep with no extra coordination; Mattern/CA-GVT decide at
/// rank 0 and broadcast the tier in the ring token.
class CaTriggerPolicy {
 public:
  /// Release only above threshold + margin (trip/release asymmetry).
  static constexpr double kReleaseMargin = 0.05;
  /// EWMA weight of the newest per-round queue peak.
  static constexpr double kQueueAlpha = 0.5;
  /// Consecutive calm decisions before an engaged policy releases.
  static constexpr int kCalmRelease = 2;

  struct Config {
    double efficiency_threshold = 0.80;  // trip below this efficiency
    std::uint64_t queue_threshold = 16;  // trip when the queue EWMA exceeds
    /// Release only once the queue EWMA falls below this fraction of the
    /// threshold.
    double queue_release_frac = 0.5;
    /// Consecutive tripped decisions before kThrottle escalates to kSync
    /// (0 = never escalate: throttle is the strongest answer).
    int escalate_after = 3;
  };

  CaTriggerPolicy() = default;
  explicit CaTriggerPolicy(const Config& cfg) : cfg_(cfg) {}

  /// The raw trip condition — stateless arithmetic over a smoothed
  /// efficiency and a queue occupancy. The real-thread backend's announce
  /// path uses this directly (its backlog signal is instantaneous).
  bool trips(double efficiency, double queue) const {
    return efficiency < cfg_.efficiency_threshold ||
           queue > static_cast<double>(cfg_.queue_threshold);
  }

  /// Fold one round's measurements and return the tier for the next round.
  SyncDecision decide(double efficiency, std::uint64_t queue_peak) {
    queue_ewma_ = kQueueAlpha * static_cast<double>(queue_peak) +
                  (1.0 - kQueueAlpha) * queue_ewma_;
    SyncDecision d;
    d.tripped = trips(efficiency, queue_ewma_);
    if (d.tripped) {
      engaged_ = true;
      calm_streak_ = 0;
      ++bad_streak_;
    } else {
      bad_streak_ = 0;  // escalation requires CONSECUTIVE bad rounds
      if (engaged_) {
        const bool calm =
            efficiency >= cfg_.efficiency_threshold + kReleaseMargin &&
            queue_ewma_ <= cfg_.queue_release_frac *
                               static_cast<double>(cfg_.queue_threshold);
        if (calm) {
          if (++calm_streak_ >= kCalmRelease) {
            engaged_ = false;
            calm_streak_ = 0;
          }
        } else {
          // Inside the hysteresis band: neither tripped nor calm. Stay
          // engaged (throttled) and restart the calm count.
          calm_streak_ = 0;
        }
      }
    }
    d.tier = !engaged_ ? SyncTier::kAsync
             : (cfg_.escalate_after > 0 && bad_streak_ >= cfg_.escalate_after)
                 ? SyncTier::kSync
                 : SyncTier::kThrottle;
    return d;
  }

  const Config& config() const { return cfg_; }
  double queue_ewma() const { return queue_ewma_; }
  bool engaged() const { return engaged_; }
  int bad_streak() const { return bad_streak_; }
  int calm_streak() const { return calm_streak_; }

 private:
  Config cfg_;
  double queue_ewma_ = 0.0;  // pessimistic start would trip instantly
  bool engaged_ = false;     // tripped at some point, not yet released
  int bad_streak_ = 0;       // consecutive tripped decisions
  int calm_streak_ = 0;      // consecutive calm decisions while engaged
};

/// The adaptive-GVT tier policy of one deciding party, shared by both
/// backends: GvtAlgorithm::decide (coroutine rank 0, or every epoch rank)
/// and GvtFence::reduce (the threads backend's coordinator) each hold one.
/// It smooths the round's decided-event window into the global efficiency
/// and, for the adaptive kinds (CA-GVT, epoch), steps the tiered trigger
/// policy on it; the other kinds always decide kAsync. Built from a
/// configuration by core::tier_policy_from (core/config.hpp).
class TierPolicy {
 public:
  TierPolicy() = default;
  explicit TierPolicy(std::optional<CaTriggerPolicy> trigger) : trigger_(trigger) {}

  /// Fold one round's decided-event window and MPI queue peak; return the
  /// tier the next round runs at. Stateful: every round exactly once.
  SyncTier decide(const DecidedEvents& window, std::uint64_t queue_peak) {
    efficiency_.update(window);
    return trigger_ ? trigger_->decide(efficiency_.value(), queue_peak).tier
                    : SyncTier::kAsync;
  }

  /// Smoothed global efficiency after the last decided round.
  double efficiency() const { return efficiency_.value(); }
  /// The trigger policy; null for the non-adaptive kinds.
  const CaTriggerPolicy* trigger() const { return trigger_ ? &*trigger_ : nullptr; }

 private:
  EfficiencyEstimator efficiency_;
  std::optional<CaTriggerPolicy> trigger_;
};

inline const char* to_string(SyncTier tier) {
  switch (tier) {
    case SyncTier::kAsync: return "async";
    case SyncTier::kThrottle: return "throttle";
    case SyncTier::kSync: return "sync";
  }
  return "?";
}

/// Memory-pressure tier of a worker's event pool (`--flow=bounded`).
/// Ordered so tiers compare: yellow engages the optimism throttle, red
/// additionally triggers cancelback relief and a forced fossil-collection
/// GVT round.
enum class PressureTier : std::uint8_t { kGreen = 0, kYellow = 1, kRed = 2 };

/// Classifies event-pool occupancy (pending events + uncommitted history
/// records) against a per-worker budget. Like CaTriggerPolicy this is pure
/// arithmetic shared by both execution backends — the coroutine runtime
/// (flow::Controller) and the real-thread fence signaling use the same
/// thresholds, so pressure semantics cannot diverge between them.
struct FlowPressurePolicy {
  std::uint64_t budget = 0;     // 0 = unbounded (always green)
  double yellow_frac = 0.75;    // throttle above this fraction of budget
  double release_frac = 0.5;    // cancelback / parked release drain target

  PressureTier classify(std::uint64_t pool) const {
    if (budget == 0) return PressureTier::kGreen;
    if (pool >= budget) return PressureTier::kRed;
    if (static_cast<double>(pool) >= yellow_frac * static_cast<double>(budget))
      return PressureTier::kYellow;
    return PressureTier::kGreen;
  }

  /// Pool size cancelback relief drains toward (and below which parked
  /// events are released back to a previously red worker).
  std::uint64_t release_target() const {
    return static_cast<std::uint64_t>(release_frac * static_cast<double>(budget));
  }
};

inline const char* to_string(PressureTier tier) {
  switch (tier) {
    case PressureTier::kGreen: return "green";
    case PressureTier::kYellow: return "yellow";
    case PressureTier::kRed: return "red";
  }
  return "?";
}

}  // namespace cagvt::core
