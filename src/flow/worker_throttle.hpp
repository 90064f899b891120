// One worker's overload throttle (`--flow=bounded`), shared by both
// execution backends: the worker's rollback-storm detector, event-pool
// pressure tier, optimism clamp (cons::Clamp at last GVT + clamp), last
// adopted GVT and engagement count. flow::Controller keeps one per worker
// on the coroutine backend and adds cancelback relief, parked events,
// forced rounds and tracing; each exec::ThreadEngine worker owns one and
// signals red pressure through the GVT fence. Single-threaded: only the
// worker's own thread (or the coroutine engine thread) touches it.
#pragma once

#include <cstdint>

#include "cons/clamp.hpp"
#include "core/gvt_policy.hpp"
#include "flow/flow_config.hpp"
#include "flow/storm_detector.hpp"
#include "pdes/kernel.hpp"

namespace cagvt::flow {

class WorkerThrottle {
 public:
  explicit WorkerThrottle(const FlowConfig& cfg = {}) : storm_(cfg.storm), width_(cfg.clamp) {}

  /// Feed the kernel's rollback episodes (depth + straggler/anti cause) to
  /// the storm detector. The hook holds this throttle's address: it must
  /// not move afterwards.
  void attach(pdes::ThreadKernel& kernel) {
    kernel.set_rollback_hook(
        [this](std::uint64_t depth, bool secondary) { storm_.note(depth, secondary); });
  }

  /// Per batch: classify the event pool (pending events + uncommitted
  /// history) against `budget` and engage the clamp the moment pressure
  /// leaves green — waiting for the next adoption would let speculation
  /// overshoot the budget by a round's worth of history. (An engaged clamp
  /// already covers last GVT + clamp, so the slide is a no-op.)
  core::PressureTier classify(std::uint64_t pool, std::uint64_t budget) {
    tier_ = core::FlowPressurePolicy{budget}.classify(pool);
    if (tier_ != core::PressureTier::kGreen && clamp_.engage(gvt_, width_)) ++engagements_;
    return tier_;
  }

  /// Would classify(pool, budget) change anything: the tier, or (off
  /// green) the clamp, which engage() engages when free and slides when
  /// below last GVT + clamp?
  bool classify_acts(std::uint64_t pool, std::uint64_t budget) const {
    const core::PressureTier tier = core::FlowPressurePolicy{budget}.classify(pool);
    return tier != tier_ || (tier != core::PressureTier::kGreen &&
                             (!clamp_.engaged() || clamp_.bound() < gvt_ + width_));
  }

  /// Per round, at adoption of `gvt`: fold the storm detector, then step
  /// the clamp's hysteresis (stressed = storming or off green on the last
  /// batch; cons::Clamp::step). Returns true when the storm state flipped.
  bool adopt(pdes::VirtualTime gvt) {
    gvt_ = gvt;
    const bool was_storming = storm_.storming();
    const bool storming = storm_.fold_round();
    if (clamp_.step(storming || tier_ != core::PressureTier::kGreen, gvt, width_))
      ++engagements_;
    return storming != was_storming;
  }

  /// A cluster restore: green, clamp released, detector reset.
  void reset() {
    tier_ = core::PressureTier::kGreen;
    clamp_.release();
    storm_.reset();
  }

  /// Largest recv_ts the worker may execute (kVtInfinity when unthrottled).
  pdes::VirtualTime bound() const { return clamp_.bound(); }
  core::PressureTier tier() const { return tier_; }
  const StormDetector& storm() const { return storm_; }
  /// Times the clamp engaged from free-running (∞ -> finite).
  std::uint64_t engagements() const { return engagements_; }

 private:
  StormDetector storm_;
  pdes::VirtualTime width_;
  core::PressureTier tier_ = core::PressureTier::kGreen;
  cons::Clamp clamp_;
  pdes::VirtualTime gvt_ = 0;  // last adopted GVT
  std::uint64_t engagements_ = 0;
};

}  // namespace cagvt::flow
