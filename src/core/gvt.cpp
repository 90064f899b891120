#include "core/gvt.hpp"

#include <algorithm>

#include "core/barrier_gvt.hpp"
#include "core/epoch_gvt.hpp"
#include "core/mattern_gvt.hpp"
#include "core/node_runtime.hpp"
#include "util/log.hpp"

namespace cagvt::core {

using metasim::delay;
using metasim::Process;
using metasim::SimTime;

GvtAlgorithm::GvtAlgorithm(NodeRuntime& node, const char* join_fence, bool pipelined)
    : node_(node),
      hooks_(node.hooks()),
      dedicated_agent_(node.cfg().has_dedicated_mpi()),
      cm_mutex_(node.engine(), node.cfg().cluster.lock_acquire, node.cfg().cluster.lock_handoff),
      join_fence_(join_fence),
      pipelined_(pipelined),
      policy_(tier_policy_from(node.cfg())),
      rounds_metric_(node.metrics(), "gvt.rounds"),
      sync_rounds_metric_(node.metrics(), "gvt.sync_rounds"),
      mode_switches_metric_(node.metrics(), "gvt.mode_switches"),
      throttle_engagements_metric_(node.metrics(), "gvt.throttle_engagements"),
      tier_async_metric_(node.metrics(), "gvt.tier.async"),
      tier_throttle_metric_(node.metrics(), "gvt.tier.throttle"),
      tier_sync_metric_(node.metrics(), "gvt.tier.sync"),
      tier_metric_(node.metrics(), "gvt.tier") {}

bool GvtAlgorithm::round_due(const WorkerCtx& worker, int ahead) const {
  if (worker.gvt.iters_since_round + ahead >= node_.cfg().gvt_interval) return true;
  for (const auto& hook : hooks_)
    if (hook->round_requested()) return true;
  return false;
}

std::uint64_t GvtAlgorithm::passes_to_round(const WorkerCtx& worker) const {
  if (!interval_clocked(worker)) return 0;
  // The probe of the n-th next pass reads iters_since_round + n (its own
  // count ahead), so the first due pass is n = interval - iters.
  const int left = node_.cfg().gvt_interval - worker.gvt.iters_since_round;
  return static_cast<std::uint64_t>(std::max(left, 1));
}

void GvtAlgorithm::set_phase(Phase phase) {
  phase_ = phase;
  node_.wake_threads();
}

void GvtAlgorithm::open_round(bool policy_sync) {
  ++round_;
  set_phase(Phase::kJoin);
  round_started_ = node_.engine().now();
  restore_cleared_ = false;
  node_min_lvt_ = pdes::kVtInfinity;
  window_ = {};
  joined_count_ = 0;
  adopted_count_ = 0;
  RoundOpen open;
  for (const auto& hook : hooks_) hook->open_round(round_, open);
  plan_ = open.plan;
  lb_moves_ = open.moves;
  // Checkpoint/restore/migration rounds piggyback on the synchronous
  // machinery: the barriers quiesce processing, and the fence step's
  // barriers fence the snapshot/rewind/moves from the round's message
  // flush. (--gvt=epoch with --sync=window is rejected by validate.)
  sync_ = policy_sync || node_.cfg().sync.kind == cons::SyncKind::kWindow ||
          plan_ != RoundPlan::kNormal || lb_moves_;
  node_.trace().round_begin(node_.rank(), round_, sync_);
}

void GvtAlgorithm::begin_round() {
  CAGVT_CHECK(phase_ == Phase::kIdle);
  // The adaptive policy only reaches the barrier set at SyncTier::kSync;
  // kThrottle rounds run asynchronously under the execution clamp.
  open_round(next_tier_ == SyncTier::kSync);
  begin_cut();
}

void GvtAlgorithm::finish_round() {
  close_round(/*tiered=*/true);
  // The epoch pipeline never idles: the next epoch opens immediately, so
  // the transients that accumulated against it during this epoch's
  // reduction are already being drained.
  if (pipelined_ && !node_.stopped()) begin_round();
}

Process GvtAlgorithm::worker_tick(WorkerCtx& worker) {
  GvtThreadState& state = worker.gvt;
  // The inline agent joins every barrier with the barrier_agent variant.
  const bool agent_inline = worker.mpi_duty;
  // The epoch pipeline opens at the first worker tick and then chains from
  // finish_round; after the run stopped it must not open again.
  if (phase_ == Phase::kIdle && (pipelined_ ? !node_.stopped() : round_due(worker)))
    begin_round();

  // --- Join (Alg. 2 lines 2-7; Alg. 3 adds the first conditional barrier):
  // from here the worker's sends carry the round's colour or tag. --------
  if (phase_ != Phase::kIdle && !joined(state)) {
    // Rounds never outrun a worker: the next opens only after every worker
    // adopted this one.
    CAGVT_CHECK(state.round + 1 == round_);
    if (sync_) co_await fence_barrier(agent_inline, worker.index_in_node, join_fence_);
    co_await cm_mutex_.lock();
    state.round = round_;
    node_.trace().white_red(node_.rank(), worker.index_in_node, round_);
    state.min_red = pdes::kVtInfinity;
    state.contributed = false;
    state.adopted = false;
    // The node's view of the previous colour or closing bucket is frozen
    // once no local worker sends with it: the agent's drain can start.
    if (++joined_count_ == node_.cfg().workers_per_node()) set_phase(Phase::kReduce);
    on_join(worker);
    cm_mutex_.unlock();
    state.iters_since_round = 0;
  }

  // During a synchronous round, held workers still read (and count)
  // incoming messages — deferred, like Barrier GVT's ReadMessages — so the
  // drain can progress while processing is quiesced.
  if (worker_held(state)) co_await node_.read_messages_deferred(worker);

  if (phase_ == Phase::kCollect && !state.contributed) co_await collect(worker);

  // --- Adopt the new GVT and fossil collect (Alg. 2 lines 16-20; Alg. 3
  // adds the post-fossil barrier). Workers keep the round's colour or tag:
  // messages sent from here on stay accountable to the next round. -------
  if (phase_ == Phase::kBroadcast && !state.adopted) {
    CAGVT_CHECK(state.contributed);
    state.adopted = true;
    co_await fence_step(worker, gvt_value_, agent_inline, round_cut());
    state.iters_since_round = 0;
    if (++adopted_count_ == node_.cfg().workers_per_node()) finish_round();
    // Deliver messages buffered while processing was quiesced (ordered
    // before anything the next loop iteration drains).
    co_await node_.flush_round_buffer(worker);
  }
}

bool GvtAlgorithm::tick_pending(const WorkerCtx& worker, int ahead) const {
  // One clause per step of worker_tick, in its order.
  if (phase_ == Phase::kIdle) return pipelined_ ? !node_.stopped() : round_due(worker, ahead);
  const GvtThreadState& state = worker.gvt;
  return !joined(state) || (worker_held(state) && worker.has_mail()) ||
         (phase_ == Phase::kCollect && !state.contributed) ||
         (phase_ == Phase::kBroadcast && !state.adopted);
}

Process GvtAlgorithm::collect(WorkerCtx& worker) {
  (void)worker;
  CAGVT_CHECK_MSG(false, "only Mattern's cut has a Collect phase");
  co_return;
}

Process GvtAlgorithm::fence_barrier(bool agent_side, int worker, const char* which) {
  node_.trace().barrier_enter(node_.rank(), worker, round_, which);
  if (agent_side) {
    co_await node_.collectives().barrier_agent();
  } else {
    co_await node_.collectives().barrier();
  }
  node_.trace().barrier_exit(node_.rank(), worker, round_, which);
}

Process GvtAlgorithm::fence_step(WorkerCtx& worker, double gvt, bool agent_side, RoundCut cut,
                                 bool fence_each) {
  const int track = worker.index_in_node;
  // The round's state comes from `cut`: while this worker waits out fossil
  // collection the node's last adopter can close the round and, if a
  // forced round is pending, open the next one.
  const auto [round, plan, lb_moves, sync] = cut;
  if (plan == RoundPlan::kRestore) {
    // Rewind instead of adopting: the computed GVT described the pre-crash
    // state being discarded, and the restored cut has no in-flight
    // messages to account for.
    if (!restore_cleared_) {
      restore_cleared_ = true;
      restart_cut_accounting();
    }
    for (const auto& hook : hooks_) co_await hook->restore(worker, round);
    if (fence_each) co_await fence_barrier(agent_side, track, "restore-fence");
  } else {
    const std::uint64_t committed = node_.adopt_gvt(worker, gvt, round);
    co_await delay(node_.cfg().cluster.fossil_per_event * static_cast<SimTime>(committed));
    if (plan == RoundPlan::kCheckpoint) {
      for (const auto& hook : hooks_) co_await hook->checkpoint(worker, round, gvt);
      // Fence the snapshot (kernel + transport cursors) from the round's
      // flush: a send slipping in before a slower node's transport
      // snapshot would tear the checkpoint's sequence-number cut.
      if (fence_each) co_await fence_barrier(agent_side, track, "ckpt-fence");
    }
    // Migrations execute at the same quiesced cut, after any checkpoint
    // captured the pre-move placement; the barrier keeps every worker's
    // post-round sends behind the owner-table bump.
    if (lb_moves) {
      for (const auto& hook : hooks_) co_await hook->migrate(worker, round);
      if (fence_each) co_await fence_barrier(agent_side, track, "lb-fence");
    }
  }
  if (!fence_each && sync) co_await fence_barrier(agent_side, track, "post-fossil");
}

Process GvtAlgorithm::agent_fences() {
  for (const Phase at : {Phase::kJoin, Phase::kCollect, Phase::kBroadcast}) {
    if (phase_ != at || !agent_fence_pending()) continue;
    agent_fenced_[static_cast<int>(at)] = round_;
    co_await fence_barrier(true, -1, fence_name(at));
  }
}

Process GvtAlgorithm::agent_drain(WorkerCtx* self) {
  bool pump = false;
  co_await node_.mpi_progress(&pump);
  if (self == nullptr) co_return;
  if (sync_) {
    co_await node_.read_messages_deferred(*self);
  } else {
    co_await node_.drain_inboxes(*self, &pump);
  }
}

Process GvtAlgorithm::agent_fence_step() {
  if (plan_ == RoundPlan::kRestore) {
    co_await fence_barrier(true, -1, "restore-fence");
    co_return;
  }
  if (plan_ == RoundPlan::kCheckpoint) co_await fence_barrier(true, -1, "ckpt-fence");
  if (lb_moves_) co_await fence_barrier(true, -1, "lb-fence");
}

void GvtAlgorithm::contribute(WorkerCtx& worker) {
  node_min_lvt_ = std::min(node_min_lvt_, NodeRuntime::worker_min_ts(worker));
  window_ += worker.gvt.decided.take(worker.kernel.stats());
}

SyncTier GvtAlgorithm::decide(double gvt, const DecidedEvents& window,
                              std::uint64_t queue_peak) {
  // The policy is stateful (hysteresis, queue EWMA, escalation streak), so
  // it must see every round's window exactly once, in order.
  const SyncTier next = policy_.decide(window, queue_peak);
  const double efficiency = policy_.efficiency();
  node_.trace().gvt_computed(node_.rank(), round_, gvt, efficiency, queue_peak);
  const bool sync_next = next == SyncTier::kSync;
  if (sync_next != sync_) {
    // The policy flips mode for the next round; the smoothed efficiency and
    // the round's queue peak are exactly the measurements that triggered it.
    node_.trace().mode_switch(node_.rank(), round_, sync_next, efficiency, queue_peak);
    mode_switches_metric_.inc();
  }
  CAGVT_LOG_DEBUG("rank %d round %llu: gvt=%.3f efficiency=%.3f queue_peak=%llu next_tier=%s",
                  node_.rank(), static_cast<unsigned long long>(round_), gvt, efficiency,
                  static_cast<unsigned long long>(queue_peak), to_string(next));
  return next;
}

void GvtAlgorithm::apply_tier(SyncTier tier, double gvt) {
  next_tier_ = tier;
  node_.wake_threads();  // the clamp bounds every worker's batch
  if (cons::apply_tier(clamp_, tier, gvt, node_.cfg().gvt_throttle_clamp)) {
    ++stats_.throttle_engagements;
    throttle_engagements_metric_.inc();
  }
}

void GvtAlgorithm::close_round(bool tiered) {
  set_phase(Phase::kIdle);
  ++stats_.rounds;
  stats_.round_time_total += node_.engine().now() - round_started_;
  rounds_metric_.inc();
  if (tiered) {
    const SyncTier tier = sync_              ? SyncTier::kSync
                          : clamp_.engaged() ? SyncTier::kThrottle
                                             : SyncTier::kAsync;
    switch (tier) {
      case SyncTier::kAsync:
        tier_async_metric_.inc();
        break;
      case SyncTier::kThrottle:
        ++stats_.throttle_rounds;
        tier_throttle_metric_.inc();
        break;
      case SyncTier::kSync:
        ++stats_.sync_rounds;
        sync_rounds_metric_.inc();
        tier_sync_metric_.inc();
        break;
    }
    tier_metric_.set(static_cast<double>(tier));
  }
  node_.trace().round_end(node_.rank(), round_);
}

std::unique_ptr<GvtAlgorithm> make_gvt(GvtKind kind, NodeRuntime& node) {
  switch (kind) {
    case GvtKind::kBarrier: return std::make_unique<BarrierGvt>(node);
    case GvtKind::kMattern:
    case GvtKind::kControlledAsync: return std::make_unique<MatternGvt>(node);
    case GvtKind::kEpoch: return std::make_unique<EpochGvt>(node);
  }
  CAGVT_CHECK_MSG(false, "unknown GVT kind");
  return nullptr;
}

}  // namespace cagvt::core
