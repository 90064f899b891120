// The execution clamp: one worker horizon of the form "last GVT plus a
// window", shared by every subsystem that bounds optimism.
//
// Three subsystems clamp a worker's execution horizon this way: the
// conservative bounded-window executor (`--sync=window`, cons::Controller),
// the overload throttle (`--flow=bounded`, flow::Controller and the thread
// backend), and the adaptive GVT policy's throttle tier
// (core/gvt_policy.hpp SyncTier::kThrottle, applied through apply_tier by
// NodeRuntime and the thread backend). All must advance the bound
// *monotonically* — a GVT round may momentarily report a value below the
// previously granted horizon (e.g. after a restore), and retracting an
// already-granted bound would re-introduce the causality window the clamp
// exists to close. This type is that single rule, so the clamps cannot
// drift apart. When several clamps are engaged at once the worker runs
// under the tightest (std::min composition in the worker loops).
#pragma once

#include <algorithm>

#include "core/gvt_policy.hpp"
#include "pdes/event.hpp"

namespace cagvt::cons {

class Clamp {
 public:
  /// Consecutive calm rounds before the flow throttle's hysteresis (step)
  /// releases an engaged clamp.
  static constexpr int kCalmRounds = 2;

  /// Engage at `gvt + width`, or slide an engaged bound forward to it;
  /// never moves the bound backwards. Returns true when the clamp newly
  /// engaged (what the engagement counters count).
  bool engage(pdes::VirtualTime gvt, pdes::VirtualTime width) {
    if (!engaged()) {
      bound_ = gvt + width;
      return true;
    }
    bound_ = std::max(bound_, gvt + width);
    return false;
  }

  void release() {
    bound_ = pdes::kVtInfinity;
    calm_ = 0;
  }

  /// One round of the flow throttle's hysteresis at GVT `gvt`: a stressed
  /// round engages (or slides) the clamp; calm rounds keep an engaged clamp
  /// sliding so progress continues, and release it after kCalmRounds in a
  /// row. Returns true when the clamp newly engaged.
  bool step(bool stressed, pdes::VirtualTime gvt, pdes::VirtualTime width) {
    if (stressed) {
      calm_ = 0;
      return engage(gvt, width);
    }
    if (engaged()) {
      if (++calm_ >= kCalmRounds) {
        release();
      } else {
        engage(gvt, width);
      }
    }
    return false;
  }

  bool engaged() const { return bound_ != pdes::kVtInfinity; }
  /// Largest recv_ts a clamped worker may execute (kVtInfinity = free).
  pdes::VirtualTime bound() const { return bound_; }

 private:
  pdes::VirtualTime bound_ = pdes::kVtInfinity;
  int calm_ = 0;  // consecutive calm rounds while engaged (step only)
};

/// Apply an adaptive-policy decision to its clamp: kThrottle and kSync
/// engage or slide it at `gvt + width` (escalation adds barriers, it does
/// not lift the bound), kAsync releases it. Shared by both execution
/// backends. Returns true when the clamp newly engaged.
inline bool apply_tier(Clamp& clamp, core::SyncTier tier, pdes::VirtualTime gvt,
                       pdes::VirtualTime width) {
  if (tier == core::SyncTier::kAsync) {
    clamp.release();
    return false;
  }
  return clamp.engage(gvt, width);
}

}  // namespace cagvt::cons
