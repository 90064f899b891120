#include "core/node_runtime.hpp"

namespace cagvt::core {

using metasim::delay;
using metasim::MutexGuard;
using metasim::Process;
using metasim::SimTime;

// ---------------------------------------------------------------------------
// NodeCollectives
// ---------------------------------------------------------------------------

Process NodeCollectives::sum(std::int64_t value) {
  (void)co_await reduce_sum_.arrive(value);
  co_await exit_barrier_.arrive();  // agent published last_sum_ before this
}

Process NodeCollectives::sum_agent(std::int64_t value) {
  const std::int64_t node_partial = co_await reduce_sum_.arrive(value);
  if (fabric_.tree_enabled()) {
    net::TreeVal v;
    v.sum[0] = node_partial;
    last_sum_ = (co_await fabric_.tree_allreduce(rank_, v)).sum[0];
  } else {
    last_sum_ = co_await fabric_.allreduce_sum(node_partial);
  }
  co_await exit_barrier_.arrive();
}

Process NodeCollectives::min(double value) {
  (void)co_await reduce_min_.arrive(value);
  co_await exit_barrier_.arrive();
}

Process NodeCollectives::min_agent(double value) {
  const double node_partial = co_await reduce_min_.arrive(value);
  if (fabric_.tree_enabled()) {
    net::TreeVal v;
    v.min_a = node_partial;
    last_min_ = (co_await fabric_.tree_allreduce(rank_, v)).min_a;
  } else {
    last_min_ = co_await fabric_.allreduce_min(node_partial);
  }
  co_await exit_barrier_.arrive();
}

Process NodeCollectives::barrier() {
  co_await entry_barrier_.arrive();
  co_await exit_barrier_.arrive();  // released after the agent's MPI barrier
}

Process NodeCollectives::barrier_agent() {
  co_await entry_barrier_.arrive();
  if (fabric_.tree_enabled()) {
    // An empty tree wave is a barrier: the broadcast-down cannot reach any
    // rank before every rank has contributed.
    (void)co_await fabric_.tree_allreduce(rank_, net::TreeVal{});
  } else {
    co_await fabric_.barrier();
  }
  co_await exit_barrier_.arrive();
}

// ---------------------------------------------------------------------------
// NodeRuntime
// ---------------------------------------------------------------------------

NodeRuntime::NodeRuntime(metasim::Engine& engine, Fabric& fabric, const SimulationConfig& cfg,
                         const pdes::LpMap& map, pdes::OwnerTable& owners,
                         const pdes::Model& model, int node_id, ClusterProfiler& profiler,
                         obs::TraceRecorder& trace, obs::MetricsRegistry& metrics,
                         const fault::FaultEngine* faults, RecoveryManager* recovery,
                         lb::Controller* lb, cons::Controller* cons, flow::Controller* flow)
    : engine_(engine),
      fabric_(fabric),
      cfg_(cfg),
      map_(map),
      owners_(owners),
      model_(model),
      node_id_(node_id),
      profiler_(profiler),
      trace_(trace),
      metrics_(metrics),
      faults_(faults),
      recovery_(recovery),
      lb_(lb),
      cons_(cons),
      flow_(flow),
      regional_msgs_metric_(metrics.counter("net.regional_msgs")),
      remote_msgs_metric_(metrics.counter("net.remote_msgs")),
      mpi_outbox_(engine, cfg.cluster),
      mpi_lock_(engine, cfg.cluster.lock_acquire, cfg.cluster.lock_handoff),
      collectives_(engine, fabric, node_id,
                   cfg.workers_per_node() + (cfg.has_dedicated_mpi() ? 1 : 0),
                   cfg.cluster.pthread_barrier_cost(cfg.threads_per_node)) {
  const pdes::KernelConfig kcfg{.end_vt = cfg.end_vt,
                                .seed = cfg.seed,
                                .dynamic_placement = lb_ != nullptr,
                                .cancelback = flow_ != nullptr};
  for (int w = 0; w < cfg.workers_per_node(); ++w) {
    const bool duty = !cfg.has_dedicated_mpi() && w == 0;
    workers_.push_back(std::make_unique<WorkerCtx>(*this, engine, cfg.cluster, model, map,
                                                   map.global_worker(node_id, w), kcfg, duty));
    workers_.back()->kernel.set_observability(
        &trace_, metrics_.histogram("kernel.rollback_depth", 0, 64, 16), node_id, w);
    if (lb_ != nullptr)
      lb_->register_kernel(workers_.back()->global_worker, &workers_.back()->kernel);
    if (flow_ != nullptr) {
      const int gw = workers_.back()->global_worker;
      workers_.back()->kernel.set_rollback_hook(
          [this, gw](std::uint64_t depth, bool secondary) {
            flow_->note_rollback(gw, depth, secondary);
          });
    }
  }
}

void NodeRuntime::start() {
  gvt_ = make_gvt(cfg_.gvt, *this);
  // The window executor's advance is only safe against a fully drained
  // reduction — force every round synchronous regardless of --gvt kind.
  if (cons_ != nullptr && cons_->config().kind == cons::SyncKind::kWindow)
    gvt_->set_always_sync();
  for (auto& worker : workers_) {
    worker->kernel.init();
    spawn(engine_, worker_main(*worker));
  }
  if (cfg_.has_dedicated_mpi()) spawn(engine_, mpi_main());
}

std::uint64_t NodeRuntime::adopt_gvt(WorkerCtx& worker, double gvt, std::uint64_t round) {
  profiler_.record_lvt(round, worker.kernel.local_min_ts());
  if (cons_ != nullptr)
    cons_->on_gvt(static_cast<std::int64_t>(round), worker.global_worker,
                  worker.kernel.local_min_ts(), gvt);
  if (lb_ != nullptr)
    lb_->observe(round, worker.global_worker, worker.kernel.local_min_ts(), gvt,
                 worker.kernel.drain_lp_work());
  if (node_id_ == 0 && worker.index_in_node == 0) profiler_.record_gvt(gvt);
  // Round-sampled pool peak (cheap, always on): captured before fossil
  // collection frees history, so the peak reflects the round's high-water.
  worker.kernel.sample_pool_peak();
  if (flow_ != nullptr)
    flow_->on_gvt(static_cast<std::int64_t>(round), worker.global_worker, gvt);
  const std::uint64_t committed = worker.kernel.fossil_collect(gvt);
  if (gvt > cfg_.end_vt && !stop_) {
    stop_ = true;
    final_gvt_ = gvt;
  }
  return committed;
}

Process NodeRuntime::worker_main(WorkerCtx& worker) {
  while (!stop_ || !gvt_->worker_done(worker)) {
    if (faults_ != nullptr && faults_->node_down(node_id_)) {
      co_await halt_if_down();
      continue;
    }
    bool did_work = false;
    if (worker.mpi_duty && cfg_.mpi == MpiPlacement::kCombined &&
        worker.iterations % static_cast<std::uint64_t>(cfg_.combined_mpi_poll_period) == 0)
      co_await mpi_progress(&did_work);
    if (cfg_.mpi == MpiPlacement::kEverywhere)
      co_await receive_arrivals(worker.index_in_node, &did_work);

    if (!gvt_->worker_held(worker)) {
      co_await drain_inboxes(worker, &did_work);
      int processed = 0;
      for (int b = 0; b < cfg_.batch; ++b) {
        // Execution horizon: the tightest of the adaptive GVT policy's
        // throttle tier, the conservative window (--sync) and the flow
        // throttle clamp (--flow); infinity = free-running. Read before
        // every event: the agent can move the policy clamp while this
        // worker is suspended in handle_outcome.
        double bound = gvt_->clamp().bound();
        if (cons_ != nullptr) bound = std::min(bound, cons_->bound(worker.global_worker));
        if (flow_ != nullptr)
          bound = std::min(bound, flow_->exec_bound(worker.global_worker));
        pdes::Outcome out = bound == pdes::kVtInfinity
                                ? worker.kernel.process_next()
                                : worker.kernel.process_next_bounded(bound);
        if (!out.processed) break;
        ++processed;
        did_work = true;
        co_await handle_outcome(worker, std::move(out));
      }
      if (cons_ != nullptr) co_await cons_tick(worker, processed, &did_work);
      if (flow_ != nullptr) co_await flow_tick(worker, &did_work);
    }

    ++worker.iterations;
    ++worker.gvt.iters_since_round;
    if (worker.mpi_duty) co_await gvt_->agent_tick(&worker);
    co_await gvt_->worker_tick(worker);
    if (!did_work) co_await delay(cpu(cfg_.cluster.idle_poll));
  }
}

Process NodeRuntime::cons_tick(WorkerCtx& worker, int processed, bool* did_work) {
  std::vector<pdes::Event> control;
  cons_->tick(worker.global_worker, worker.kernel.local_min_ts(), processed, control);
  for (pdes::Event& event : control) {
    co_await send_event(worker, event);
    *did_work = true;
  }
}

Process NodeRuntime::flow_tick(WorkerCtx& worker, bool* did_work) {
  const int gw = worker.global_worker;
  const PressureTier tier =
      flow_->on_tick(gw, worker.kernel.pending_size(), worker.kernel.live_history());
  if (tier == PressureTier::kRed) {
    const std::size_t quota = flow_->cancelback_quota(gw);
    if (quota > 0) {
      // Return the furthest-ahead pending events to their senders. Events
      // this worker sent to itself can't ride the transport back — they
      // stay and drain through the throttled execution instead.
      std::vector<pdes::Event> back = worker.kernel.extract_cancelback(
          quota,
          [&](const pdes::Event& e) { return owners_.worker_of(e.src_lp) != gw; });
      flow_->note_cancelback(gw, back.size());
      for (pdes::Event& event : back) {
        event.kind = pdes::MsgKind::kCancelback;
        co_await send_event(worker, event);
        *did_work = true;
      }
    }
  }
  // Re-deliver parked events whose destinations cooled down (or whose hold
  // expired — that bound is what keeps GVT progressing under sustained red).
  std::vector<pdes::Event> out;
  flow_->release(gw, out);
  for (pdes::Event& event : out) {
    if (owners_.worker_of(event.dst_lp) == gw) {
      // The destination LP migrated onto the parking worker while the event
      // was held: deposit directly (send_event forbids self-sends).
      pdes::Outcome o = worker.kernel.deposit(event);
      co_await handle_outcome(worker, std::move(o));
    } else {
      co_await send_event(worker, event);
    }
    *did_work = true;
  }
}

Process NodeRuntime::mpi_main() {
  while (!stop_ || !gvt_->agent_done()) {
    if (faults_ != nullptr && faults_->node_down(node_id_)) {
      co_await halt_if_down();
      continue;
    }
    bool did_work = false;
    co_await mpi_progress(&did_work);
    co_await gvt_->agent_tick(nullptr);
    if (!did_work) co_await delay(cpu(cfg_.cluster.mpi_poll));
  }
}

Process NodeRuntime::halt_if_down() {
  // The node crashed: freeze until the restart instant. Back-to-back crash
  // windows re-enter here via the caller's loop.
  const SimTime until = faults_->node_restart_at(node_id_);
  if (until > engine_.now()) co_await delay(until - engine_.now());
}

Process NodeRuntime::stall_if_faulted() {
  // Repeat after waking: a pulse train (period > 0) may open the next pulse
  // exactly where the previous one ended.
  while (true) {
    const SimTime until = faults_->mpi_stall_until(node_id_);
    if (until <= engine_.now()) co_return;
    co_await delay(until - engine_.now());
  }
}

Process NodeRuntime::mpi_progress(bool* did_work) {
  // A stalled MPI agent makes no progress at all until the pulse ends —
  // the paper's motivation for bounding asynchrony: stale tokens hold GVT
  // (and fossil collection) back cluster-wide.
  if (faults_ != nullptr) co_await stall_if_faulted();
  const auto& spec = cfg_.cluster;
  const std::uint64_t occupancy =
      mpi_outbox_.items.size() + fabric_.inbox(node_id_).size();
  if (occupancy > mpi_queue_peak_) mpi_queue_peak_ = occupancy;
  // Drain the node's outbox onto the wire, one message at a time (the
  // paper's ROSS posts sends individually).
  while (!mpi_outbox_.items.empty()) {
    co_await mpi_outbox_.mutex.lock();
    if (mpi_outbox_.items.empty()) {
      mpi_outbox_.mutex.unlock();
      break;
    }
    const pdes::Event event = mpi_outbox_.items.front();
    mpi_outbox_.items.pop_front();
    co_await delay(cpu(spec.shm_copy));
    mpi_outbox_.mutex.unlock();
    co_await fabric_.isend(node_id_, owners_.node_of(pdes::route_lp(event)),
                           spec.event_msg_bytes, NetMsg{event});
    *did_work = true;
  }
  co_await receive_arrivals(-1, did_work);
}

Process NodeRuntime::receive_arrivals(int trace_worker, bool* did_work) {
  const auto& spec = cfg_.cluster;
  // In the kEverywhere placement every worker consumes the same inbox
  // concurrently, so pops must serialize under the node MPI lock or
  // per-pair delivery order breaks.
  const bool shared_inbox = cfg_.mpi == MpiPlacement::kEverywhere;
  while (!fabric_.inbox(node_id_).empty()) {
    if (shared_inbox) co_await mpi_lock_.lock();
    auto msg = fabric_.inbox(node_id_).try_recv();
    if (!msg) {
      if (shared_inbox) mpi_lock_.unlock();
      break;
    }
    const SimTime base = std::holds_alternative<pdes::Event>(*msg) ? spec.mpi_recv_cpu
                                                                   : spec.control_recv_cpu;
    co_await delay(cpu(shared_inbox
                           ? static_cast<SimTime>(static_cast<double>(base) *
                                                  spec.threaded_mpi_penalty)
                           : base));
    if (shared_inbox) mpi_lock_.unlock();
    *did_work = true;
    if (const auto* event = std::get_if<pdes::Event>(&*msg)) {
      trace_.mpi_recv(node_id_, trace_worker, "event");
      // The destination LP may have migrated off this node while the
      // message was in flight; re-send toward the current owner. The
      // original send is still the only counted send — the receive is
      // counted when the final worker drains it, so GVT transit counting
      // stays balanced across any number of forwarding hops.
      const pdes::LpId route = pdes::route_lp(*event);
      const int owner_node = owners_.node_of(route);
      if (owner_node != node_id_) {
        CAGVT_CHECK_MSG(event->epoch < owners_.version(),
                        "event misrouted within its own epoch");
        lb_->count_forward();
        co_await fabric_.isend(node_id_, owner_node, spec.event_msg_bytes, NetMsg{*event});
        continue;
      }
      // Always route through the destination's remote inbox — even for an
      // everywhere-placement worker's own LPs. Depositing directly could
      // overtake another worker's still-in-flight delivery of an EARLIER
      // message for the same destination, breaking the per-pair FIFO order
      // annihilation depends on.
      WorkerCtx& dest = *workers_[static_cast<std::size_t>(owners_.worker_in_node(route))];
      co_await deliver_to_worker(dest, *event);
    } else {
      trace_.mpi_recv(node_id_, trace_worker, "control");
      gvt_->on_token(std::get<MatternToken>(*msg));
    }
  }
}

Process NodeRuntime::deliver_to_worker(WorkerCtx& dest, pdes::Event event) {
  co_await dest.remote_in.mutex.lock();
  co_await delay(cpu(cfg_.cluster.shm_copy));
  dest.remote_in.items.push_back(event);
  ++dest.remote_in.total_enqueued;
  dest.remote_in.mutex.unlock();
}

Process NodeRuntime::drain_inboxes(WorkerCtx& worker, bool* did_work) {
  const auto& spec = cfg_.cluster;
  for (SharedQueue* queue : {&worker.regional_in, &worker.remote_in}) {
    if (queue->items.empty()) continue;  // cheap unsynchronized peek
    std::vector<pdes::Event> batch;
    co_await queue->mutex.lock();
    while (!queue->items.empty()) {
      batch.push_back(queue->items.front());
      queue->items.pop_front();
      co_await delay(cpu(spec.shm_copy));
    }
    queue->mutex.unlock();
    for (const pdes::Event& event : batch) {
      ++worker.gvt.msgs_recv;
      gvt_->on_recv(worker, event);
      co_await dispatch_received(worker, event);
      *did_work = true;
    }
  }
}

Process NodeRuntime::read_messages_deferred(WorkerCtx& worker) {
  const auto& spec = cfg_.cluster;
  for (SharedQueue* queue : {&worker.regional_in, &worker.remote_in}) {
    if (queue->items.empty()) continue;
    co_await queue->mutex.lock();
    while (!queue->items.empty()) {
      const pdes::Event event = queue->items.front();
      queue->items.pop_front();
      ++worker.gvt.msgs_recv;
      gvt_->on_recv(worker, event);
      worker.round_buffer.push_back(event);
      co_await delay(cpu(spec.shm_copy));
    }
    queue->mutex.unlock();
  }
}

Process NodeRuntime::flush_round_buffer(WorkerCtx& worker) {
  if (worker.round_buffer.empty()) co_return;
  std::vector<pdes::Event> batch;
  batch.swap(worker.round_buffer);
  for (const pdes::Event& event : batch) co_await dispatch_received(worker, event);
}

Process NodeRuntime::dispatch_received(WorkerCtx& worker, const pdes::Event& event) {
  // Called after the receive was counted (on_recv), so transit counting
  // stays balanced whichever way the message goes.
  if (event.kind == pdes::MsgKind::kCancelback) {
    // A returned event is back at (what was) its source worker: park it
    // until the destination drains. If the source LP has since migrated
    // the ledger still works — parked minima bound GVT at the parking
    // worker, and release re-routes to the current owner.
    flow_->on_cancelback(worker.global_worker, event, owners_.worker_of(event.dst_lp));
    co_return;
  }
  if (event.kind != pdes::MsgKind::kEvent) {
    // Conservative control message: consumed by the controller, never
    // deposited into a kernel.
    cons_->on_control(worker.global_worker, event);
    co_return;
  }
  if (owners_.worker_of(event.dst_lp) != worker.global_worker) {
    // Delivered (or read, in a synchronous round) before a migration fence
    // moved the destination LP away. Re-send: the forward is a fresh
    // counted send (the matching receive happens at the new owner), and
    // its receive-time stamp is >= the adopted GVT, so transit counting,
    // min-red accounting and the next round's bound stay exact.
    CAGVT_CHECK_MSG(event.epoch < owners_.version(), "event misrouted within its own epoch");
    lb_->count_forward();
    co_await send_event(worker, event);
    co_return;
  }
  co_await handle_outcome(worker, worker.kernel.deposit(event));
}

double NodeRuntime::worker_min_ts(WorkerCtx& worker) {
  double lowest = worker.kernel.local_min_ts();
  // Buffered conservative control messages are excluded: they never touch
  // LP state (a null only unlocks pending events, which the kernels' own
  // minima already bound), and a demand request propagated upstream
  // carries X - k*lookahead, which may sit below the adopted GVT.
  // Cancelbacks ARE included — they carry a live simulation event.
  for (const pdes::Event& event : worker.round_buffer)
    if ((event.kind == pdes::MsgKind::kEvent || event.kind == pdes::MsgKind::kCancelback) &&
        event.recv_ts < lowest)
      lowest = event.recv_ts;
  // Parked (cancelled-back, not yet re-released) events bound GVT too:
  // their re-delivery must never be overrun by a round.
  if (worker.node.flow_ != nullptr)
    lowest = std::min(lowest, worker.node.flow_->parked_min(worker.global_worker));
  return lowest;
}

Process NodeRuntime::handle_outcome(WorkerCtx& worker, pdes::Outcome outcome) {
  const auto& spec = cfg_.cluster;
  SimTime cost = 0;
  if (outcome.processed) {
    cost += static_cast<SimTime>(outcome.cost_units * spec.ns_per_epg_unit) +
            spec.event_overhead;
    if (!model_.supports_reverse()) cost += spec.state_save_cost;
  }
  cost += spec.rollback_per_event * outcome.rolled_back;
  cost += spec.antimessage_overhead * outcome.antimessages;
  if (cost > 0) co_await delay(cpu(cost));
  for (pdes::Event& event : outcome.external) co_await send_event(worker, event);
}

Process NodeRuntime::send_event(WorkerCtx& worker, pdes::Event event) {
  const auto& spec = cfg_.cluster;
  // An anti-message whose positive twin is parked right here (cancelled
  // back and not yet re-released) annihilates in place: neither half is
  // ever sent, so no counting happens for either.
  if (flow_ != nullptr && event.anti && flow_->absorb_anti(worker.global_worker, event))
    co_return;
  event.epoch = owners_.version();
  ++worker.gvt.msgs_sent;
  gvt_->on_send(worker, event);  // stamps the colour, updates counters

  // Cancelbacks travel to the SOURCE worker of the event they carry; all
  // other messages to the destination LP's owner.
  const pdes::LpId route = pdes::route_lp(event);
  const int dest_node = owners_.node_of(route);
  if (dest_node == node_id_) {
    ++regional_msgs_;
    regional_msgs_metric_.inc();
    WorkerCtx& dest = *workers_[static_cast<std::size_t>(owners_.worker_in_node(route))];
    CAGVT_ASSERT(&dest != &worker);  // same-thread events never reach here
    co_await dest.regional_in.mutex.lock();
    co_await delay(cpu(spec.shm_copy));
    dest.regional_in.items.push_back(event);
    ++dest.regional_in.total_enqueued;
    dest.regional_in.mutex.unlock();
    co_return;
  }

  ++remote_msgs_;
  remote_msgs_metric_.inc();
  if (cfg_.mpi == MpiPlacement::kEverywhere) {
    // Threaded MPI: every worker calls into the MPI library itself,
    // serialized by the node-wide lock and paying the multi-threaded
    // call penalty — the contention of [2].
    co_await mpi_lock_.lock();
    co_await delay(cpu(static_cast<SimTime>(static_cast<double>(spec.mpi_send_cpu) *
                                            (spec.threaded_mpi_penalty - 1.0))));
    co_await fabric_.isend(node_id_, dest_node, spec.event_msg_bytes, NetMsg{event});
    mpi_lock_.unlock();
    co_return;
  }
  co_await mpi_outbox_.mutex.lock();
  co_await delay(cpu(spec.shm_copy));
  mpi_outbox_.items.push_back(event);
  ++mpi_outbox_.total_enqueued;
  mpi_outbox_.mutex.unlock();
}

Process NodeRuntime::checkpoint_worker(WorkerCtx& worker, std::uint64_t round, double gvt) {
  const auto& spec = cfg_.cluster;
  co_await delay(cpu(spec.ckpt_base +
                     spec.ckpt_per_lp * static_cast<SimTime>(worker.kernel.lp_count())));
  WorkerSnapshot snap{worker.kernel.snapshot(), worker.round_buffer,
                      flow_ != nullptr ? flow_->parked_events(worker.global_worker)
                                       : std::vector<pdes::Event>{}};
  trace_.ckpt_write(node_id_, worker.index_in_node, round, gvt, snap.bytes());
  recovery_->save_worker(round, gvt, worker.global_worker, std::move(snap));
  if (++ckpt_done_ == cfg_.workers_per_node()) {
    ckpt_done_ = 0;
    recovery_->node_checkpoint_done(node_id_, round, fabric_.snapshot_transport(node_id_));
  }
}

Process NodeRuntime::apply_migrations(WorkerCtx& worker, std::uint64_t round) {
  if (lb_ == nullptr) co_return;
  const std::vector<pdes::Migration>& plan = lb_->moves_for(round);
  if (plan.empty()) co_return;
  const auto& spec = cfg_.cluster;
  int moved = 0;        // LPs this worker packs (out) or installs (in)
  int cross_node = 0;   // ... of which cross the network
  for (const pdes::Migration& m : plan) {
    const bool out = m.src_worker == worker.global_worker;
    const bool in = m.dst_worker == worker.global_worker;
    if (!out && !in) continue;
    ++moved;
    if (map_.node_of_worker(m.src_worker) != map_.node_of_worker(m.dst_worker)) ++cross_node;
  }
  if (moved > 0) {
    SimTime cost = spec.migrate_base + spec.migrate_per_lp * static_cast<SimTime>(moved);
    cost += (spec.net_latency + spec.transmit_time(spec.migrate_msg_bytes)) *
            static_cast<SimTime>(cross_node);
    co_await delay(cpu(cost));
  }
  // The cluster-wide last arrival moves the LPs and bumps the table.
  lb_->worker_at_fence(round);
}

Process NodeRuntime::restore_worker(WorkerCtx& worker, std::uint64_t round) {
  const auto& spec = cfg_.cluster;
  const ClusterCheckpoint& ckpt = recovery_->restore_source();
  co_await delay(cpu(spec.restore_base +
                     spec.restore_per_lp * static_cast<SimTime>(worker.kernel.lp_count())));
  // The restore cut must be quiesced: GVT counting drained every in-flight
  // message before this round's adopt step, so nothing may be waiting in
  // the inboxes (it would be silently erased by the rewind).
  CAGVT_CHECK_MSG(worker.regional_in.items.empty() && worker.remote_in.items.empty(),
                  "restore cut not quiesced (worker inbox)");
  const WorkerSnapshot& snap = ckpt.workers[static_cast<std::size_t>(worker.global_worker)];
  worker.kernel.restore(snap.kernel);
  worker.round_buffer = snap.round_buffer;
  if (flow_ != nullptr) flow_->restore_parked(worker.global_worker, snap.parked);
  // The checkpointed cut has no in-transit messages, so message-counting
  // state restarts from zero; the efficiency window restarts from the
  // restored commit counters.
  worker.gvt.msgs_sent = 0;
  worker.gvt.msgs_recv = 0;
  worker.gvt.min_red = pdes::kVtInfinity;
  worker.gvt.last_committed = snap.kernel.stats.committed;
  worker.gvt.last_rolled_back = snap.kernel.stats.rolled_back;
  trace_.restore(node_id_, worker.index_in_node, round, ckpt.round, ckpt.gvt, snap.bytes());
  if (++restore_done_ == cfg_.workers_per_node()) {
    restore_done_ = 0;
    CAGVT_CHECK_MSG(mpi_outbox_.items.empty(), "restore cut not quiesced (mpi outbox)");
    fabric_.restore_transport(node_id_, recovery_->restore_epoch(),
                              ckpt.transport[static_cast<std::size_t>(node_id_)]);
    recovery_->node_restore_complete(node_id_, round);
    // The recovery manager rewound the owner table to the checkpoint's cut
    // (node_restore_complete, cluster-wide last node); the balancer's
    // estimators and any pending plan describe a timeline that no longer
    // exists.
    if (lb_ != nullptr) lb_->on_restore();
    // Pressure tiers, storm EWMAs and throttle clamps describe the
    // discarded timeline; the reinstalled parked ledgers stay.
    if (flow_ != nullptr) flow_->on_restore();
  }
}

pdes::KernelStats NodeRuntime::aggregate_kernel_stats() const {
  pdes::KernelStats total;
  for (const auto& worker : workers_) total += worker->kernel.stats();
  return total;
}

std::uint64_t NodeRuntime::committed_fingerprint() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker->kernel.committed_fingerprint();
  return total;
}

std::uint64_t NodeRuntime::state_hash() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker->kernel.state_hash();
  return total;
}

SimTime NodeRuntime::lock_wait_time() const {
  SimTime total = mpi_lock_.total_wait_time() + mpi_outbox_.mutex.total_wait_time();
  for (const auto& worker : workers_) {
    total += worker->regional_in.mutex.total_wait_time();
    total += worker->remote_in.mutex.total_wait_time();
  }
  return total;
}

}  // namespace cagvt::core
