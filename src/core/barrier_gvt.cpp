#include "core/barrier_gvt.hpp"

namespace cagvt::core {

using metasim::Process;

Process BarrierGvt::worker_tick(WorkerCtx& worker) {
  worker.gvt.iters_since_round = 0;

  // In combined/everywhere placements worker 0 doubles as the MPI agent
  // and performs the cross-node steps of the round inline.
  const bool agent_inline = worker.mpi_duty && !node_.cfg().has_dedicated_mpi();
  if (!round_active_) {
    round_active_ = true;  // signals the dedicated MPI thread to join
    open_round(/*policy_sync=*/true);
  }
  auto& collectives = node_.collectives();

  // Phase 1: block until no event message is in transit anywhere.
  // Messages are read (counted) but their rollback processing is deferred
  // past the round, as in ROSS — otherwise cascades would keep the round
  // alive.
  node_.trace().barrier_enter(node_.rank(), worker.index_in_node, round_, "transit-count");
  while (true) {
    co_await node_.read_messages_deferred(worker);  // ReadMessages()
    if (agent_inline) {
      bool pump = false;
      co_await node_.mpi_progress(&pump);  // keep remote messages moving
    }
    const std::int64_t msg_count = worker.gvt.msgs_sent - worker.gvt.msgs_recv;
    if (agent_inline) {
      co_await collectives.sum_agent(msg_count);
    } else {
      co_await collectives.sum(msg_count);
    }
    if (collectives.last_sum() == 0) break;
  }
  node_.trace().barrier_exit(node_.rank(), worker.index_in_node, round_, "transit-count");

  // Phase 2: reduce the minimum local virtual position into the GVT. A
  // restore round skips it: the transit count just drained every in-flight
  // message (including retransmits held back by the crash), so the cut is
  // quiescent and the fence step rewinds instead of adopting.
  double gvt = 0;
  if (plan_ != RoundPlan::kRestore) {
    const double local_min = NodeRuntime::worker_min_ts(worker);
    node_.trace().barrier_enter(node_.rank(), worker.index_in_node, round_, "min-reduce");
    if (agent_inline) {
      co_await collectives.min_agent(local_min);
    } else {
      co_await collectives.min(local_min);
    }
    node_.trace().barrier_exit(node_.rank(), worker.index_in_node, round_, "min-reduce");
    gvt = collectives.last_min();
    if (agent_inline) node_.trace().gvt_computed(node_.rank(), round_, gvt, 0.0, 0);
  }

  co_await fence_step(worker, gvt, agent_inline, /*fence_each=*/true);
  if (agent_inline) close();
  // Round over: hand the buffered messages to the engine (rollbacks and
  // their anti-messages happen now, as post-round traffic).
  co_await node_.flush_round_buffer(worker);
}

Process BarrierGvt::agent_tick(WorkerCtx* self) {
  // Only the dedicated MPI thread runs the agent side from here; in
  // combined/everywhere placements worker 0 handles it inline above.
  (void)self;
  if (!node_.cfg().has_dedicated_mpi() || !round_active_) co_return;

  auto& collectives = node_.collectives();
  node_.trace().barrier_enter(node_.rank(), -1, round_, "transit-count");
  while (true) {
    bool pump = false;
    co_await node_.mpi_progress(&pump);
    co_await collectives.sum_agent(0);  // the MPI thread owns no LPs
    if (collectives.last_sum() == 0) break;
  }
  node_.trace().barrier_exit(node_.rank(), -1, round_, "transit-count");
  if (plan_ != RoundPlan::kRestore) {
    node_.trace().barrier_enter(node_.rank(), -1, round_, "min-reduce");
    co_await collectives.min_agent(pdes::kVtInfinity);
    node_.trace().barrier_exit(node_.rank(), -1, round_, "min-reduce");
  }
  co_await agent_fence_step();
  close();
}

}  // namespace cagvt::core
