#include "core/epoch_gvt.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace cagvt::core {

using metasim::Process;

void EpochGvt::begin_cut() {
  // (A red-pressure round request is satisfied by the continuously running
  // cadence — every epoch fossil-collects.)
  first_wave_ = true;
  // Reopen this epoch's own tag bucket: its last reader was epoch e-2's
  // reduction, and no live worker carries the tag anymore (all are in
  // epoch e-1 until they join).
  ledger_.recycle(EpochLedger::bucket_of(round_));
  CAGVT_LOG_TRACE("rank %d begin epoch %llu sync=%d", node_.rank(),
                  static_cast<unsigned long long>(round_), sync_ ? 1 : 0);
}

void EpochGvt::on_join(WorkerCtx& worker) {
  worker.gvt.contributed = true;
  // The epoch cut values and the windowed decided-event counters for the
  // shared efficiency estimate (MatternGvt contributes them at Collect).
  contribute(worker);
  // The last joiner froze the node's view of the closing bucket: no local
  // worker carries tag (e-1)%3 anymore, so its send minimum and this
  // node's share of its balance can enter the reduction.
  if (phase_ == Phase::kReduce) node_.trace().phase_change(node_.rank(), round_, "reduce");
}

void EpochGvt::complete_epoch(const net::TreeVal& total) {
  CAGVT_CHECK(phase_ == Phase::kReduce);
  const double gvt = std::min(total.min_a, total.min_b);
  CAGVT_CHECK_MSG(gvt >= gvt_value_, "epoch GVT regressed");
  const DecidedEvents window{static_cast<std::uint64_t>(total.add_a),
                             static_cast<std::uint64_t>(total.add_b)};
  const auto queue_peak = static_cast<std::uint64_t>(total.max_a);
  // Shared policy (core/gvt_policy.hpp): the same smoothing and the same
  // two triggers CA-GVT adapts on decide the NEXT epoch's tier. Every rank
  // runs the stateful policy on the identical reduced totals, so the
  // hysteresis / escalation state machines stay in lockstep with no extra
  // broadcast. Throttle-first: a trip clamps execution to GVT + C while
  // epochs keep pipelining; only gvt_escalate_rounds consecutive tripped
  // epochs escalate to a quiesced synchronous epoch.
  apply_tier(decide(gvt, window, queue_peak), gvt);
  gvt_value_ = gvt;
  set_phase(Phase::kBroadcast);
  node_.trace().phase_change(node_.rank(), round_, "broadcast");
}

Process EpochGvt::agent_tick(WorkerCtx* self) {
  // The dedicated MPI thread's part in a synchronous epoch's barriers (an
  // inline agent joins them as a worker).
  if (agent_fence_pending()) co_await agent_fences();

  // --- The epoch reduction: retry waves of the tree all-reduce until the
  // closing bucket's global balance reaches zero. Every rank contributes
  // the same global sequence of waves (each wave's verdict is computed
  // from the identical reduced value on every rank), so the per-rank wave
  // counters stay aligned with no extra coordination. -----------------------
  if (phase_ == Phase::kReduce) {
    const int closing = EpochLedger::closing_bucket(round_);
    std::uint64_t committed = 0;
    std::uint64_t processed = 0;
    std::uint64_t queue_peak = 0;
    net::TreeVal total;
    while (true) {
      co_await agent_drain(self);
      net::TreeVal v;
      v.min_a = node_min_lvt_;
      v.min_b = ledger_.min_send(closing);
      for (int b = 0; b < EpochLedger::kBuckets; ++b) v.sum[b] = ledger_.balance(b);
      if (first_wave_) {
        // Overhead measurements ride only the epoch's first wave; retry
        // waves re-contribute the frozen minima and refreshed balances.
        v.add_a = static_cast<std::int64_t>(window_.committed);
        v.add_b = static_cast<std::int64_t>(window_.processed);
        v.max_a = static_cast<std::int64_t>(node_.take_mpi_queue_peak());
        first_wave_ = false;
      }
      total = co_await node_.fabric().tree_allreduce(node_.rank(), v);
      CAGVT_LOG_TRACE("epoch %llu wave: sums=%lld/%lld/%lld closing=%d sync=%d",
                      static_cast<unsigned long long>(round_),
                      static_cast<long long>(total.sum[0]),
                      static_cast<long long>(total.sum[1]),
                      static_cast<long long>(total.sum[2]), closing,
                      sync_ ? 1 : 0);
      committed += static_cast<std::uint64_t>(total.add_a);
      processed += static_cast<std::uint64_t>(total.add_b);
      queue_peak = std::max(queue_peak, static_cast<std::uint64_t>(total.max_a));
      CAGVT_CHECK_MSG(total.sum[closing] >= 0, "epoch message accounting went negative");
      // A synchronous epoch must leave NOTHING in flight (its quiesced cut
      // carries checkpoints / rewinds / migrations), so it additionally
      // waits out the current bucket — its senders are held, so the
      // balance can only fall — and the recycled bucket (zero already).
      const bool drained =
          total.sum[closing] == 0 &&
          (!sync_ || (total.sum[0] == 0 && total.sum[1] == 0 && total.sum[2] == 0));
      if (drained) break;
    }
    net::TreeVal summary = total;
    summary.add_a = static_cast<std::int64_t>(committed);
    summary.add_b = static_cast<std::int64_t>(processed);
    summary.max_a = static_cast<std::int64_t>(queue_peak);
    complete_epoch(summary);
  }
}

}  // namespace cagvt::core
