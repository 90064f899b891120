// Atomic GVT fence: the real-thread backend's replacement for the
// cooperative GVT round of src/core.
//
// The coroutine backend cuts a consistent global state by construction —
// its workers interleave only at co_await yield points, and Mattern
// colouring accounts for messages crossing the cut. Real threads have no
// yield points, so the fence takes the synchronous route instead: when a
// round is announced (see ThreadEngine's per-algorithm trigger policies),
// every party — one per worker thread, plus one per dedicated MPI agent —
// rendezvouses on a std::barrier and the protocol quiesces the transport
// before reducing:
//
//   barrier                 // everyone inside; coordinator re-arms announce
//   repeat:
//     drain own queues      // deposits may emit new messages (rollbacks)
//     barrier               // all drains of this pass done
//     read in-flight count  // coordinator only; nobody pushes in this window
//     barrier
//   until in-flight == 0    // every message is in some pending set
//   write contribution slot // min pending ts, decided-event deltas
//   barrier
//   reduce                  // coordinator: GVT = min over slots, EWMA, stop?
//   barrier
//   adopt                   // fossil-collect below GVT (workers only)
//   barrier                 // round over; processing resumes
//
// Quiescence is what makes the reduced minimum a true GVT lower bound:
// with zero in-flight messages, every unprocessed event is visible in some
// kernel's pending set, so nothing below min(pending) can ever materialize
// (handlers only schedule into the virtual future). That is exactly the
// invariant the kernels' fossil-horizon CAGVT_CHECKs enforce at every
// deposit, so a fence bug surfaces as a loud check failure, not silent
// corruption.
//
// Between barriers each shared scalar has a single writer, and std::barrier
// provides the happens-before edges; the atomics below make the protocol
// explicit (and ThreadSanitizer-clean) rather than load-bearing clever.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/gvt_policy.hpp"

namespace cagvt::exec {

/// One party's input to a fence round. Agents contribute the defaults
/// (nothing pending, no events decided).
struct FenceContribution {
  double min_ts = std::numeric_limits<double>::infinity();
  core::DecidedEvents decided;  // the party's decided-event window
};

/// What every party leaves a round with.
struct FenceRound {
  double gvt = 0;
  bool stop = false;  // GVT passed end_vt, or the wall-clock cap expired
};

class GvtFence {
 public:
  /// `in_flight` counts messages pushed to an inbox or outbox but not yet
  /// deposited into a kernel (owned by ThreadEngine, which maintains the
  /// increment-before-push / decrement-after-deposit discipline).
  /// `out_of_time` is polled once per round by the coordinator; returning
  /// true stops the run incomplete. `policy` is the tier policy
  /// (core::tier_policy_from — the one GvtAlgorithm::decide runs on the
  /// coroutine backend); it is coordinator-owned state: party 0 steps it
  /// once per round inside reduce(), publishing the next round's tier
  /// through tier().
  GvtFence(int parties, double end_vt, std::atomic<std::int64_t>& in_flight,
           std::function<bool()> out_of_time, core::TierPolicy policy = {});

  /// Request a round. `control` marks it as triggered by CA-GVT's control
  /// policy (queue occupancy / low efficiency) rather than plain cadence;
  /// such rounds are tallied as synchronous, mirroring the coroutine
  /// backend's sync_rounds statistic. Idempotent and callable from any
  /// thread outside a round. Returns whether this call raised the flag,
  /// i.e. whether the next round is this announce's (at most one announce
  /// per round returns true).
  bool announce(bool control = false) {
    if (control) control_announce_.store(true, std::memory_order_release);
    return !announce_.exchange(true, std::memory_order_acq_rel);
  }
  bool announced() const { return announce_.load(std::memory_order_acquire); }

  /// Execute one round. EVERY party must call this (party 0 coordinates);
  /// `drain` must empty the party's own queues, `contribute` is called at
  /// the quiesced cut, `adopt` receives the new GVT unless the run stops.
  FenceRound run_round(int party, const std::function<void()>& drain,
                       const std::function<FenceContribution()>& contribute,
                       const std::function<void(double)>& adopt);

  double last_gvt() const { return gvt_.load(std::memory_order_acquire); }

  /// Tier decided by the adaptive policy after the last round (kAsync for
  /// non-adaptive kinds). Workers apply it at adoption: kThrottle/kSync
  /// engage the execution clamp, kAsync releases it; kSync additionally
  /// shortens the initiator's announce cadence (the quiesced-round analogue
  /// of the coroutine backend's synchronous rounds).
  core::SyncTier tier() const {
    return static_cast<core::SyncTier>(tier_.load(std::memory_order_acquire));
  }

  /// CA-GVT's raw queue trigger on an instantaneous in-flight backlog (no
  /// smoothing, no hysteresis): the any-worker control announce. False for
  /// the non-adaptive kinds. Reads only the policy's immutable thresholds,
  /// so any thread may ask.
  bool backlog_trips(std::int64_t backlog) const {
    const core::CaTriggerPolicy* trigger = policy_.trigger();
    return trigger != nullptr && backlog > 0 &&
           trigger->trips(1.0, static_cast<double>(backlog));
  }

  // --- post-join introspection (call after every party thread exited) ----
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t sync_rounds() const { return sync_rounds_; }
  /// Rounds whose decided tier was kThrottle (clamp engaged, cadence async).
  std::uint64_t throttle_rounds() const { return throttle_rounds_; }
  bool completed() const { return completed_; }
  /// Smoothed global efficiency after the last round (the CA trigger's
  /// input).
  double efficiency() const { return policy_.efficiency(); }
  const std::vector<double>& gvt_trace() const { return gvt_trace_; }

 private:
  void reduce();

  struct alignas(64) Slot {
    FenceContribution value;
  };

  const int parties_;
  const double end_vt_;
  std::atomic<std::int64_t>& in_flight_;
  const std::function<bool()> out_of_time_;

  std::barrier<> barrier_;
  std::vector<Slot> slots_;

  std::atomic<bool> announce_{false};
  std::atomic<bool> control_announce_{false};
  std::atomic<bool> quiesced_{false};
  std::atomic<double> gvt_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint8_t> tier_{0};  // core::SyncTier of the last decision

  // Coordinator-only state (party 0 between barriers; main thread after
  // join — thread creation/join provide the happens-before).
  core::TierPolicy policy_;
  bool control_round_ = false;
  /// In-flight backlog sampled at round entry (before the quiesce drains
  /// it to zero) — the threads backend's queue-occupancy signal.
  std::uint64_t entry_backlog_ = 0;
  double last_gvt_value_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t sync_rounds_ = 0;
  std::uint64_t throttle_rounds_ = 0;
  bool completed_ = true;
  std::vector<double> gvt_trace_;
};

}  // namespace cagvt::exec
