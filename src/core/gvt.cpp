#include "core/gvt.hpp"

#include "core/barrier_gvt.hpp"
#include "core/ca_gvt.hpp"
#include "core/epoch_gvt.hpp"
#include "core/mattern_gvt.hpp"
#include "core/node_runtime.hpp"
#include "util/log.hpp"

namespace cagvt::core {

using metasim::delay;
using metasim::Process;
using metasim::SimTime;

GvtAlgorithm::GvtAlgorithm(NodeRuntime& node)
    : node_(node),
      hooks_(node.hooks()),
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

void GvtAlgorithm::open_round(bool policy_sync) {
  ++round_;
  round_started_ = node_.engine().now();
  restore_cleared_ = false;
  window_ = {};
  RoundOpen open;
  for (const auto& hook : hooks_) hook->open_round(round_, open);
  plan_ = open.plan;
  lb_moves_ = open.moves;
  sync_ = policy_sync || plan_ != RoundPlan::kNormal || lb_moves_;
  node_.trace().round_begin(node_.rank(), round_, sync_);
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

Process GvtAlgorithm::fence_step(WorkerCtx& worker, double gvt, bool agent_side,
                                 bool fence_each) {
  const int track = worker.index_in_node;
  // The round's state is read once, on entry: while this worker waits out
  // fossil collection the node's last adopter can close the round and, if
  // a forced round is pending, open the next one.
  const std::uint64_t round = round_;
  const RoundPlan plan = plan_;
  const bool lb_moves = lb_moves_;
  const bool sync = sync_;
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
    // Barrier GVT has always numbered its adoptions from 0; the lb, flow
    // and cons round clocks keep that numbering.
    const std::uint64_t committed =
        node_.adopt_gvt(worker, gvt, fence_each ? round - 1 : round);
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

Process GvtAlgorithm::agent_fence_step() {
  if (plan_ == RoundPlan::kRestore) {
    co_await fence_barrier(true, -1, "restore-fence");
    co_return;
  }
  if (plan_ == RoundPlan::kCheckpoint) co_await fence_barrier(true, -1, "ckpt-fence");
  if (lb_moves_) co_await fence_barrier(true, -1, "lb-fence");
}

void GvtAlgorithm::contribute_window(WorkerCtx& worker) {
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
  if (cons::apply_tier(clamp_, tier, gvt, node_.cfg().gvt_throttle_clamp)) {
    ++stats_.throttle_engagements;
    throttle_engagements_metric_.inc();
  }
}

void GvtAlgorithm::close_round(bool tiered) {
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
    case GvtKind::kMattern: return std::make_unique<MatternGvt>(node);
    case GvtKind::kControlledAsync: return std::make_unique<CaGvt>(node);
    case GvtKind::kEpoch: return std::make_unique<EpochGvt>(node);
  }
  CAGVT_CHECK_MSG(false, "unknown GVT kind");
  return nullptr;
}

}  // namespace cagvt::core
