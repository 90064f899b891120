#include "core/epoch_gvt.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace cagvt::core {

using metasim::delay;
using metasim::Process;
using metasim::SimTime;

void EpochGvt::begin_epoch() {
  CAGVT_CHECK(phase_ == Phase::kIdle);
  phase_ = Phase::kCollect;
  joined_count_ = 0;
  adopted_count_ = 0;
  node_min_lvt_ = pdes::kVtInfinity;
  first_wave_ = true;
  // The first node to begin an epoch fixes the cluster-wide recovery /
  // migration answer, exactly like Mattern. Checkpoint / restore /
  // migration epochs and escalated CA trips (SyncTier::kSync after
  // gvt_escalate_rounds bad epochs) run synchronously; throttled epochs
  // (SyncTier::kThrottle) and everything else keep the pipeline fully
  // asynchronous. A red-pressure round request is satisfied by the
  // continuously running cadence — every epoch fossil-collects.
  open_round(next_tier_ == SyncTier::kSync);
  // Reopen this epoch's own tag bucket: its last reader was epoch e-2's
  // reduction, and no live worker carries the tag anymore (all are in
  // epoch e-1 until they join).
  ledger_.recycle(EpochLedger::bucket_of(round_));
  CAGVT_LOG_TRACE("rank %d begin epoch %llu sync=%d", node_.rank(),
                  static_cast<unsigned long long>(round_), sync_ ? 1 : 0);
}

void EpochGvt::finish_epoch() {
  phase_ = Phase::kIdle;
  close_round(/*tiered=*/true);
  // The pipeline never idles: the next epoch opens immediately, so the
  // transients that accumulated against it during this epoch's reduction
  // are already being drained.
  if (!node_.stopped()) begin_epoch();
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
  phase_ = Phase::kBroadcast;
  node_.trace().phase_change(node_.rank(), round_, "broadcast");
}

Process EpochGvt::worker_tick(WorkerCtx& worker) {
  const auto& cfg = node_.cfg();
  const bool agent_inline = worker.mpi_duty && !cfg.has_dedicated_mpi();

  // The first worker to tick opens the pipeline; after that epochs chain
  // from finish_epoch and this only fires again once the run has stopped
  // (in which case it must not).
  if (phase_ == Phase::kIdle && !node_.stopped()) begin_epoch();

  // --- Join: contribute the epoch cut values and switch the send tag.
  // Unlike Mattern's white->red flip there is no separate Collect visit
  // later — the join IS the contribution, which is what lets the epoch
  // reduction start the moment the last local worker has passed here. ------
  if (phase_ != Phase::kIdle && worker.gvt.epoch < round_) {
    // Epochs never outrun a worker: epoch e+1 begins only after every
    // worker adopted epoch e.
    CAGVT_CHECK(worker.gvt.epoch + 1 == round_);
    if (sync_) co_await fence_barrier(agent_inline, worker.index_in_node, "pre-join");
    co_await cm_mutex_.lock();
    worker.gvt.epoch = round_;  // sends are tagged round_ % 3 from here on
    node_.trace().white_red(node_.rank(), worker.index_in_node, round_);
    worker.gvt.contributed = true;
    worker.gvt.adopted = false;
    node_min_lvt_ = std::min(node_min_lvt_, NodeRuntime::worker_min_ts(worker));
    // Windowed decided-event counters for the shared efficiency estimate
    // (identical bookkeeping to MatternGvt's Collect contribution).
    contribute_window(worker);
    CAGVT_LOG_TRACE("rank %d worker %d joined epoch %llu", node_.rank(),
                    worker.index_in_node, static_cast<unsigned long long>(round_));
    if (++joined_count_ == cfg.workers_per_node()) {
      // The node's view of the closing bucket is frozen now: no local
      // worker carries tag (e-1)%3 anymore, so its send minimum and this
      // node's share of its balance can enter the reduction.
      phase_ = Phase::kReduce;
      node_.trace().phase_change(node_.rank(), round_, "reduce");
    }
    cm_mutex_.unlock();
    worker.gvt.iters_since_round = 0;
  }

  // Synchronous epochs quiesce processing between join and adoption; held
  // workers still read (and count) incoming messages — deferred, like
  // Barrier GVT's ReadMessages — so the closing bucket can drain.
  if (worker_held(worker)) co_await node_.read_messages_deferred(worker);

  // --- Adopt: the reduction broadcast handed every rank the same value. ----
  if (phase_ == Phase::kBroadcast && worker.gvt.epoch == round_ &&
      !worker.gvt.adopted) {
    CAGVT_CHECK(worker.gvt.contributed);
    worker.gvt.adopted = true;
    co_await fence_step(worker, gvt_value_, agent_inline);
    worker.gvt.iters_since_round = 0;
    CAGVT_LOG_TRACE("rank %d worker %d adopted epoch %llu", node_.rank(),
                    worker.index_in_node, static_cast<unsigned long long>(round_));
    if (++adopted_count_ == cfg.workers_per_node()) finish_epoch();
    co_await node_.flush_round_buffer(worker);
  }
}

bool EpochGvt::tick_pending(const WorkerCtx& worker, int /*ahead*/) const {
  // One clause per step of worker_tick, in its order.
  if (phase_ == Phase::kIdle && !node_.stopped()) return true;    // opens the pipeline
  if (phase_ != Phase::kIdle && worker.gvt.epoch < round_) return true;  // join
  if (worker_held(worker) && worker.has_mail()) return true;
  return phase_ == Phase::kBroadcast && worker.gvt.epoch == round_ && !worker.gvt.adopted;
}

bool EpochGvt::agent_pending() const {
  // One clause per step of agent_tick, in its order.
  if (node_.cfg().has_dedicated_mpi() && sync_ &&
      ((agent_prejoin_epoch_ < round_ && phase_ != Phase::kIdle) ||
       (agent_postfossil_epoch_ < round_ && phase_ == Phase::kBroadcast)))
    return true;
  return phase_ == Phase::kReduce;
}

Process EpochGvt::agent_tick(WorkerCtx* self) {
  // The dedicated MPI thread is a party of a synchronous epoch's two
  // barriers. The joined-epoch markers are recorded BEFORE the await:
  // epochs chain with no idle gap, so by the time a barrier releases the
  // last worker may already have begun the next epoch — a Mattern-style
  // stage counter written after the await would clobber that epoch's
  // state and wedge its pre-join barrier. (When the agent is an inline
  // worker, worker_tick already joins with the barrier_agent variant.)
  if (node_.cfg().has_dedicated_mpi() && sync_) {
    if (agent_prejoin_epoch_ < round_ && phase_ != Phase::kIdle) {
      agent_prejoin_epoch_ = round_;
      co_await fence_barrier(true, -1, "pre-join");
    }
    if (agent_postfossil_epoch_ < round_ && phase_ == Phase::kBroadcast) {
      agent_postfossil_epoch_ = round_;
      co_await fence_barrier(true, -1, "post-fossil");
    }
  }

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
      bool pump = false;
      co_await node_.mpi_progress(&pump);
      if (self != nullptr) {
        // Combined placement: the agent is also a worker — its own inboxes
        // must keep draining or the balance would never reach zero.
        // Inside a synchronous round it reads them deferred like every
        // held worker: nothing is deposited, rolled back or sent until the
        // round's cut (and any checkpoint or restore at it) is behind.
        if (sync_) {
          co_await node_.read_messages_deferred(*self);
        } else {
          co_await node_.drain_inboxes(*self, &pump);
        }
      }
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
