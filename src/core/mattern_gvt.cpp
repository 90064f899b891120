#include "core/mattern_gvt.hpp"

#include <algorithm>

namespace cagvt::core {

using metasim::delay;
using metasim::Process;
using metasim::SimTime;

void MatternGvt::begin_round() {
  CAGVT_CHECK(phase_ == Phase::kIdle);
  phase_ = Phase::kRed;
  // Alternate the round colour: messages of the previous colour — including
  // any still in flight from the last round — are what this round's
  // counting phase drains before the Collect cut.
  cur_color_ = flip(cur_color_);
  red_count_ = 0;
  counting_done_ = false;
  node_min_lvt_ = pdes::kVtInfinity;
  node_min_red_ = pdes::kVtInfinity;
  contributions_ = 0;
  collect_forwarded_ = false;
  adopted_count_ = 0;
  // Checkpoint/restore/migration rounds piggyback on the synchronous
  // machinery: the barriers quiesce processing, and the post-fossil barrier
  // fences the snapshot/rewind/moves from the round's message flush. The
  // adaptive policy only reaches the barrier set at SyncTier::kSync;
  // kThrottle rounds run asynchronously under the execution clamp.
  open_round(next_tier_ == SyncTier::kSync || always_sync_);
}

void MatternGvt::finish_round() {
  phase_ = Phase::kIdle;
  close_round(/*tiered=*/true);
}

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
  phase_ = Phase::kBroadcast;
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

Process MatternGvt::worker_tick(WorkerCtx& worker) {
  const auto& cfg = node_.cfg();
  const bool agent_inline = worker.mpi_duty && !cfg.has_dedicated_mpi();

  // --- Join phase: flip to the round's colour (Alg. 2 lines 2-7;
  // Alg. 3 adds the first conditional barrier). Colours alternate per
  // round — begin_round flips cur_color_, so "not yet the round's colour"
  // marks a thread that has not joined. -------------------------------------
  if (phase_ == Phase::kIdle && round_due(worker)) begin_round();
  if (phase_ == Phase::kRed && worker.gvt.color != cur_color_) {
    if (sync_) co_await fence_barrier(agent_inline, worker.index_in_node, "pre-red");
    co_await cm_mutex_.lock();
    worker.gvt.color = cur_color_;
    node_.trace().white_red(node_.rank(), worker.index_in_node, round_);
    worker.gvt.min_red = pdes::kVtInfinity;
    worker.gvt.contributed = false;
    worker.gvt.adopted = false;
    ++red_count_;
    cm_mutex_.unlock();
    worker.gvt.iters_since_round = 0;
  }

  // During a synchronous round, held workers still read (and count)
  // incoming messages — deferred, like Barrier GVT's ReadMessages — so the
  // white count can drain while processing is quiesced.
  if (worker_held(worker)) co_await node_.read_messages_deferred(worker);

  // --- Red phase: once every white message is accounted for, contribute
  // LVT and min_red to the node control structure (Alg. 2 lines 8-12;
  // Alg. 3 adds the second barrier and the efficiency bookkeeping cost). ----
  if (phase_ == Phase::kCollect && worker.gvt.color == cur_color_ &&
      !worker.gvt.contributed) {
    if (sync_)
      co_await fence_barrier(agent_inline, worker.index_in_node, "pre-collect");
    if (contribute_overhead() > 0) co_await delay(contribute_overhead());
    co_await cm_mutex_.lock();
    node_min_lvt_ = std::min(node_min_lvt_, NodeRuntime::worker_min_ts(worker));
    node_min_red_ = std::min(node_min_red_, worker.gvt.min_red);
    // Efficiency over the decided events of the last round window.
    contribute_window(worker);
    ++contributions_;
    worker.gvt.contributed = true;
    cm_mutex_.unlock();
  }

  // --- Broadcast: adopt the new GVT, fossil collect (Alg. 2 lines 16-20;
  // Alg. 3 adds the post-fossil barrier). Threads keep the round's colour:
  // messages sent from here on stay accountable — the next round drains
  // them as its previous colour. ---------------------------------------------
  if (phase_ == Phase::kBroadcast && worker.gvt.color == cur_color_ &&
      !worker.gvt.adopted) {
    CAGVT_CHECK(worker.gvt.contributed);
    worker.gvt.adopted = true;
    co_await fence_step(worker, gvt_value_, agent_inline);
    worker.gvt.iters_since_round = 0;
    if (++adopted_count_ == cfg.workers_per_node()) finish_round();
    // Deliver messages buffered while processing was quiesced (ordered
    // before anything the next loop iteration drains).
    co_await node_.flush_round_buffer(worker);
  }
}

bool MatternGvt::tick_pending(const WorkerCtx& worker) const {
  // One clause per step of worker_tick, in its order.
  if (phase_ == Phase::kIdle && round_due(worker, 1)) return true;  // begin + join
  if (phase_ == Phase::kRed && worker.gvt.color != cur_color_) return true;
  if (worker_held(worker) && worker.has_mail()) return true;
  if (worker.gvt.color != cur_color_) return false;
  return (phase_ == Phase::kCollect && !worker.gvt.contributed) ||
         (phase_ == Phase::kBroadcast && !worker.gvt.adopted);
}

bool MatternGvt::agent_pending() const {
  // One clause per step of agent_tick, in its order.
  if (node_.cfg().has_dedicated_mpi() && sync_ &&
      ((agent_stage_ == 0 && phase_ != Phase::kIdle) ||
       (agent_stage_ == 1 && phase_ == Phase::kCollect) ||
       (agent_stage_ == 2 && phase_ == Phase::kBroadcast)))
    return true;
  if (phase_ == Phase::kIdle && agent_stage_ != 0) return true;
  if (phase_ == Phase::kRed && red_count_ == node_.cfg().workers_per_node() && !counting_done_)
    return true;
  if (phase_ == Phase::kCollect && node_.rank() == 0 && !collect_forwarded_ &&
      contributions_ == node_.cfg().workers_per_node())
    return true;
  return have_token_;
}

Process MatternGvt::agent_tick(WorkerCtx* self) {
  const int workers = node_.cfg().workers_per_node();

  // The dedicated MPI thread is a party of a synchronous round's
  // system-wide barriers; join each as the round reaches it. Synchronous
  // rounds occur under CA-GVT's SyncFlag and in any checkpoint/restore
  // round. (When the agent is an inline worker, worker_tick already joins
  // with the barrier_agent variant, so no stage machine is needed.)
  if (node_.cfg().has_dedicated_mpi() && sync_) {
    if (agent_stage_ == 0 && phase_ != Phase::kIdle) {
      co_await fence_barrier(true, -1, "pre-red");  // before white->red
      agent_stage_ = 1;
    }
    if (agent_stage_ == 1 && phase_ == Phase::kCollect) {
      co_await fence_barrier(true, -1, "pre-collect");  // before contributions
      agent_stage_ = 2;
    }
    if (agent_stage_ == 2 && phase_ == Phase::kBroadcast) {
      co_await fence_barrier(true, -1, "post-fossil");  // after fossil / ckpt / rewind
      agent_stage_ = 3;
    }
  }
  if (phase_ == Phase::kIdle) agent_stage_ = 0;

  // Background message counting: all agents repeatedly all-reduce the
  // cumulative counters of the PREVIOUS round's colour; zero means every
  // message of that colour — including stragglers sent after the last
  // round's broadcast — has arrived (accumulateMsgCountersAcrossNodes).
  if (phase_ == Phase::kRed && red_count_ == workers && !counting_done_) {
    const std::int64_t& old_counter = counter_[idx(flip(cur_color_))];
    while (true) {
      bool pump = false;
      co_await node_.mpi_progress(&pump);
      if (self != nullptr) {
        // Combined placement: the agent is also a worker — its own inboxes
        // must keep draining or the count would never reach zero.
        // Inside a synchronous round it reads them deferred like every
        // held worker: nothing is deposited, rolled back or sent until the
        // round's cut (and any checkpoint or restore at it) is behind.
        if (sync_) {
          co_await node_.read_messages_deferred(*self);
        } else {
          co_await node_.drain_inboxes(*self, &pump);
        }
      }
      const std::int64_t total = co_await node_.fabric().allreduce_sum(old_counter);
      CAGVT_CHECK_MSG(total >= 0, "colour message accounting went negative");
      if (total == 0) break;
    }
    counting_done_ = true;
    phase_ = Phase::kCollect;
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
