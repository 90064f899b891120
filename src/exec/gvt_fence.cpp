#include "exec/gvt_fence.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace cagvt::exec {

GvtFence::GvtFence(int parties, double end_vt, std::atomic<std::int64_t>& in_flight,
                   std::function<bool()> out_of_time, core::TierPolicy policy)
    : parties_(parties),
      end_vt_(end_vt),
      in_flight_(in_flight),
      out_of_time_(std::move(out_of_time)),
      barrier_(parties),
      slots_(static_cast<std::size_t>(parties)),
      policy_(std::move(policy)) {
  CAGVT_CHECK(parties >= 1);
}

FenceRound GvtFence::run_round(int party, const std::function<void()>& drain,
                               const std::function<FenceContribution()>& contribute,
                               const std::function<void(double)>& adopt) {
  CAGVT_ASSERT(party >= 0 && party < parties_);
  barrier_.arrive_and_wait();  // everyone inside the fence
  if (party == 0) {
    // Re-arm the announce flag while every party is provably in the round:
    // no thread is in its main loop, so no announce can race this clear.
    announce_.store(false, std::memory_order_release);
    control_round_ = control_announce_.exchange(false, std::memory_order_acq_rel);
    // Queue-occupancy signal for the adaptive policy: the backlog as the
    // round begins, before the quiesce loop drains it to zero.
    entry_backlog_ = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, in_flight_.load(std::memory_order_acquire)));
  }

  // Quiesce: alternate full drain passes with a push-free window in which
  // the coordinator samples the in-flight count. Deposits during a pass may
  // emit new messages (rollback anti-message cascades), which the next pass
  // drains; cascades are finite, so the loop terminates.
  for (;;) {
    drain();
    barrier_.arrive_and_wait();  // all drains of this pass done
    if (party == 0)
      quiesced_.store(in_flight_.load(std::memory_order_acquire) == 0,
                      std::memory_order_release);
    barrier_.arrive_and_wait();  // sampling window closed
    if (quiesced_.load(std::memory_order_acquire)) break;
  }

  slots_[static_cast<std::size_t>(party)].value = contribute();
  barrier_.arrive_and_wait();  // every slot written
  if (party == 0) reduce();
  barrier_.arrive_and_wait();  // result published

  FenceRound round;
  round.gvt = gvt_.load(std::memory_order_acquire);
  round.stop = stop_.load(std::memory_order_acquire);
  if (!round.stop) adopt(round.gvt);
  barrier_.arrive_and_wait();  // fossil collection done; processing resumes
  return round;
}

void GvtFence::reduce() {
  FenceContribution total;
  for (const Slot& slot : slots_) {
    total.min_ts = std::min(total.min_ts, slot.value.min_ts);
    total.decided += slot.value.decided;
  }
  // Throttle-first adaptive tiering (CA-GVT and epoch kinds): the shared
  // stateful policy decides the NEXT round's tier from the smoothed
  // efficiency and the entry backlog. Workers read it at adoption (clamp)
  // and the initiator reads it in maybe_announce (cadence).
  const core::SyncTier tier = policy_.decide(total.decided, entry_backlog_);
  tier_.store(static_cast<std::uint8_t>(tier), std::memory_order_release);
  if (tier == core::SyncTier::kThrottle) ++throttle_rounds_;

  // At a quiesced cut the reduced minimum is a true lower bound, and it is
  // monotone: everything below a previous cut's minimum is already
  // committed, and handlers only schedule into the virtual future.
  CAGVT_CHECK_MSG(total.min_ts >= last_gvt_value_, "fence GVT went backwards");
  last_gvt_value_ = total.min_ts;
  gvt_.store(total.min_ts, std::memory_order_release);
  gvt_trace_.push_back(total.min_ts);
  ++rounds_;
  // Control-triggered rounds and escalated rounds mirror the coroutine
  // backend's sync_rounds statistic.
  if (control_round_ || tier == core::SyncTier::kSync) ++sync_rounds_;

  bool stop = false;
  if (total.min_ts > end_vt_) {
    stop = true;  // horizon passed: the run is complete
  } else if (out_of_time_ && out_of_time_()) {
    stop = true;
    completed_ = false;
  }
  stop_.store(stop, std::memory_order_release);
}

}  // namespace cagvt::exec
