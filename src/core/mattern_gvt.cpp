#include "core/mattern_gvt.hpp"

#include <algorithm>

namespace cagvt::core {

using metasim::delay;
using metasim::Process;

void MatternGvt::fold_node_into(MatternToken& token) {
  token.min_lvt = std::min(token.min_lvt, node_min_lvt_);
  token.min_red = std::min(token.min_red, node_min_red_);
  token.decided += window_;
  token.queue_peak = std::max(token.queue_peak, node_.take_mpi_queue_peak());
}

void MatternGvt::apply_broadcast(const MatternToken& token) {
  CAGVT_CHECK_MSG(token.round == round_, "GVT round desynchronized across nodes");
  CAGVT_CHECK(phase_ == Phase::kCollect);
  gvt_value_ = token.gvt;
  // Throttle-first intervention: every rank applies the broadcast tier to
  // its execution clamp immediately (the clamp also stays on across kSync
  // rounds — escalation adds barriers, it does not lift the bound).
  apply_tier(token.next_tier, token.gvt);
  set_phase(Phase::kBroadcast);
  node_.trace().phase_change(node_.rank(), round_, "broadcast");
}

Process MatternGvt::send_token(MatternToken token) {
  node_.trace().ring_leg(node_.rank(), token.round,
                         (node_.rank() + 1) % node_.fabric().nranks(),
                         token.phase == MatternToken::Phase::kCollect ? "collect"
                                                                      : "broadcast");
  co_await node_.fabric().ring_send(node_.rank(), node_.cfg().cluster.control_msg_bytes,
                                    NetMsg{token});
}

Process MatternGvt::complete_collect(MatternToken token) {
  token.gvt = std::min(token.min_lvt, token.min_red);
  token.next_tier = decide(token.gvt, token.decided, token.queue_peak);
  token.phase = MatternToken::Phase::kBroadcast;
  token.visits = 1;
  apply_broadcast(token);
  if (node_.fabric().nranks() > 1) co_await send_token(token);
}

Process MatternGvt::collect(WorkerCtx& worker) {
  // --- Red phase: once every white message is accounted for, contribute
  // LVT and min_red to the node control structure (Alg. 2 lines 8-12;
  // Alg. 3 adds the second barrier and the efficiency bookkeeping cost). ----
  if (sync_) co_await fence_barrier(worker.mpi_duty, worker.index_in_node, "pre-collect");
  if (collect_overhead_ > 0) co_await delay(collect_overhead_);
  co_await cm_mutex_.lock();
  // Efficiency over the decided events of the last round window.
  contribute(worker);
  node_min_red_ = std::min(node_min_red_, worker.gvt.min_red);
  ++contributions_;
  node_.wake_threads();  // the agent waits on the node's contributions
  worker.gvt.contributed = true;
  cm_mutex_.unlock();
}

void MatternGvt::on_token(const MatternToken& token) {
  CAGVT_CHECK_MSG(!have_token_, "two GVT control messages at one node");
  held_ = token;
  have_token_ = true;
  node_.wake_threads();  // the agent advances the token
}

bool MatternGvt::agent_pending() const {
  // One clause per step of agent_tick, in its order.
  return GvtAlgorithm::agent_pending() ||
         (phase_ == Phase::kCollect && node_.rank() == 0 && !collect_forwarded_ &&
          contributions_ == node_.cfg().workers_per_node()) ||
         have_token_;
}

Process MatternGvt::agent_tick(WorkerCtx* self) {
  const int workers = node_.cfg().workers_per_node();

  // The dedicated MPI thread's part in a synchronous round's barriers
  // (an inline agent joins them as a worker).
  if (agent_fence_pending()) co_await agent_fences();

  // Background message counting: all agents repeatedly all-reduce the
  // cumulative counters of the PREVIOUS round's colour; zero means every
  // message of that colour — including stragglers sent after the last
  // round's broadcast — has arrived (accumulateMsgCountersAcrossNodes).
  if (phase_ == Phase::kReduce) {
    const std::int64_t& old_counter = counter_[idx(color_of(round_ - 1))];
    while (true) {
      co_await agent_drain(self);
      const std::int64_t total = co_await node_.fabric().allreduce_sum(old_counter);
      CAGVT_CHECK_MSG(total >= 0, "colour message accounting went negative");
      if (total == 0) break;
    }
    set_phase(Phase::kCollect);
    node_.trace().phase_change(node_.rank(), round_, "collect");
  }

  // Originate the Collect circulation at rank 0 once every local thread
  // has contributed (circulateGlobalCM).
  if (phase_ == Phase::kCollect && node_.rank() == 0 && !collect_forwarded_ &&
      contributions_ == workers) {
    MatternToken token;
    token.phase = MatternToken::Phase::kCollect;
    token.round = round_;
    token.visits = 1;
    fold_node_into(token);
    collect_forwarded_ = true;
    if (node_.fabric().nranks() == 1) {
      co_await complete_collect(token);
    } else {
      co_await send_token(token);
    }
  }

  // Advance a held token.
  if (have_token_) {
    MatternToken token = held_;
    if (token.phase == MatternToken::Phase::kCollect) {
      if (node_.rank() == 0) {
        // Full circle: compute the GVT and start the broadcast.
        CAGVT_CHECK(collect_forwarded_ && token.visits == node_.fabric().nranks());
        have_token_ = false;
        co_await complete_collect(token);
      } else if (phase_ == Phase::kCollect && contributions_ == workers &&
                 !collect_forwarded_) {
        fold_node_into(token);
        ++token.visits;
        collect_forwarded_ = true;
        have_token_ = false;
        co_await send_token(token);
      }
      // Otherwise the token waits here until local contributions finish.
    } else {  // kBroadcast
      have_token_ = false;
      apply_broadcast(token);
      ++token.visits;
      if (token.visits < node_.fabric().nranks()) co_await send_token(token);
    }
  }
}

}  // namespace cagvt::core
