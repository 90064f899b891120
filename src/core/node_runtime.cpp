#include "core/node_runtime.hpp"

#include <span>
#include <utility>

namespace cagvt::core {

using metasim::delay;
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

NodeRuntime::NodeRuntime(const ClusterServices& cluster, int node_id)
    : cluster_(cluster),
      node_id_(node_id),
      regional_msgs_metric_(cluster.metrics.counter("net.regional_msgs")),
      remote_msgs_metric_(cluster.metrics.counter("net.remote_msgs")),
      mpi_outbox_(cluster.engine, cluster.cfg.cluster),
      mpi_lock_(cluster.engine, cluster.cfg.cluster.lock_acquire,
                cluster.cfg.cluster.lock_handoff),
      collectives_(cluster.engine, cluster.fabric, node_id,
                   cluster.cfg.workers_per_node() + (cluster.cfg.has_dedicated_mpi() ? 1 : 0),
                   cluster.cfg.cluster.pthread_barrier_cost(cluster.cfg.threads_per_node)) {
  const SimulationConfig& cfg = cluster.cfg;
  const pdes::KernelConfig kcfg{.end_vt = cfg.end_vt,
                                .seed = cfg.seed,
                                .dynamic_placement = cfg.lb.enabled(),
                                .cancelback = cfg.flow.enabled()};
  for (int w = 0; w < cfg.workers_per_node(); ++w) {
    const bool duty = !cfg.has_dedicated_mpi() && w == 0;
    workers_.push_back(std::make_unique<WorkerCtx>(*this, cluster.engine, cfg.cluster,
                                                   cluster.model, cluster.map,
                                                   cluster.map.global_worker(node_id, w), kcfg,
                                                   duty));
    workers_.back()->kernel.set_observability(
        &cluster.trace, cluster.metrics.histogram("kernel.rollback_depth", 0, 64, 16), node_id,
        w);
  }
  // Tie-break owners, node-major: the workers, the dedicated MPI thread,
  // then the node's callbacks (the fabric's entries that act here).
  for (auto& worker : workers_) worker->owner = cluster.engine.add_owner();
  if (cfg.has_dedicated_mpi()) agent_owner_ = cluster.engine.add_owner();
  cluster.fabric.set_owner(node_id, cluster.engine.add_owner());
  for (const auto& hook : cluster.hooks)
    if (hook->in_worker_loop()) loop_hooks_.push_back(hook.get());
  idle_polls_ = cluster.faults == nullptr;
}

void NodeRuntime::start() {
  gvt_ = make_gvt(cfg().gvt, *this);
  for (auto& worker : workers_) {
    worker->kernel.init();
    for (const auto& hook : hooks()) hook->attach(*worker);
    if (idle_polls_)
      worker->poller = engine().add_poller(*worker, cfg().cluster.idle_poll, worker->owner);
    spawn(engine(), thread_main(worker.get()), 0, worker->owner);
  }
  if (cfg().has_dedicated_mpi()) {
    if (idle_polls_)
      agent_poll_id_ = engine().add_poller(agent_poller_, cfg().cluster.mpi_poll, agent_owner_);
    spawn(engine(), thread_main(nullptr), 0, agent_owner_);
  }
  for (const auto& hook : hooks()) hook->bind(engine());
  if (!idle_polls_) return;
  // Who sleeps on which queue: a worker on its inboxes; the MPI agent (the
  // dedicated thread or the duty worker) on the outbox and the node's
  // fabric inbox, which in the everywhere placement every worker reads.
  for (auto& worker : workers_) worker->regional_in.consumer = worker->remote_in.consumer =
      worker->poller;
  switch (cfg().mpi) {
    case MpiPlacement::kDedicated:
      mpi_outbox_.consumer = agent_poll_id_;
      fabric().inbox(node_id_).wake_on_send(agent_poll_id_);
      break;
    case MpiPlacement::kCombined:
      mpi_outbox_.consumer = workers_.front()->poller;
      fabric().inbox(node_id_).wake_on_send(workers_.front()->poller);
      break;
    case MpiPlacement::kEverywhere:
      for (auto& worker : workers_) fabric().inbox(node_id_).wake_on_send(worker->poller);
      break;
  }
}

bool WorkerCtx::pass_pending() { return node.pass_pending(this); }
void WorkerCtx::skip_passes(std::uint64_t passes) { node.skip_passes(*this, passes); }
std::uint64_t WorkerCtx::passes_to_due() const { return node.passes_to_due(*this); }

void NodeRuntime::wake_threads() {
  if (!idle_polls_) return;
  for (auto& worker : workers_) engine().wake(worker->poller);
  if (cfg().has_dedicated_mpi()) engine().wake(agent_poll_id_);
}

double NodeRuntime::hooks_bound(const WorkerCtx& worker) const {
  double bound = pdes::kVtInfinity;
  for (const RoundHook* hook : loop_hooks_)
    bound = std::min(bound, hook->exec_bound(worker.global_worker));
  return bound;
}

bool NodeRuntime::hooks_pending(const WorkerCtx& worker) const {
  for (const RoundHook* hook : loop_hooks_)
    if (hook->loop_pending(worker)) return true;
  return false;
}

bool NodeRuntime::mpi_pending() const {
  return !mpi_outbox_.items.empty() || !cluster_.fabric.inbox(node_id_).empty() ||
         (cluster_.faults != nullptr &&
          cluster_.faults->mpi_stall_until(node_id_) > cluster_.engine.now());
}

template <NodeRuntime::Walk kWalk>
inline bool NodeRuntime::stops_at(Step step, Pass& pass) {
  constexpr bool kGuards = kWalk != Walk::kCredit;
  constexpr bool kCredits = kWalk != Walk::kProbe;
  WorkerCtx* self = pass.self;
  switch (step) {
    case Step::kMpiProgress: {
      // The dedicated MPI thread, or the combined placement's duty worker on
      // its cadence; either only with traffic to move.
      const auto period = static_cast<std::uint64_t>(cfg().combined_mpi_poll_period);
      const bool due = self == nullptr || (self->mpi_duty && cfg().mpi == MpiPlacement::kCombined &&
                                           self->iterations % period == 0);
      return kGuards && due && mpi_pending();
    }
    case Step::kNodeInbox:
      return kGuards && cfg().mpi == MpiPlacement::kEverywhere &&
             !fabric().inbox(node_id_).empty();
    case Step::kDrain:
      // The held check, read once per pass; of the credits, only the loop
      // hooks' reads it.
      if (kGuards || !loop_hooks_.empty()) pass.held = gvt_->worker_held(self->gvt);
      return kGuards && !pass.held && self->has_mail();
    case Step::kBatch:
      return kGuards && !pass.held &&
             self->kernel.local_min_ts() <= std::min(exec_bound(*self), cfg().end_vt);
    case Step::kHooks:
      if (kGuards && !pass.held && !loop_hooks_.empty() &&
          (pass.processed > 0 || hooks_pending(*self)))
        return true;
      if (kCredits && !pass.held)
        for (RoundHook* hook : loop_hooks_)
          for (std::uint64_t p = 0; p < pass.passes; ++p) hook->skip_tick(*self);
      return false;
    case Step::kCount:
      if (kCredits) {
        self->iterations += pass.passes;
        self->gvt.iters_since_round += static_cast<int>(pass.passes);
      }
      return false;
    case Step::kAgentTick:
      return kGuards && (self == nullptr || self->mpi_duty) && gvt_->agent_pending();
    case Step::kGvtTick:
      // The one guard that reads a credit: the loop asks after kCount, a
      // probe (which applies no credit) one iteration ahead.
      return kGuards && gvt_->tick_pending(*self, kCredits ? 0 : 1);
  }
  return false;
}

template <NodeRuntime::Walk kWalk, const auto& kSteps>
bool NodeRuntime::walk(Pass& pass) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return (stops_at<kWalk>(kSteps[I], pass) || ...);
  }(std::make_index_sequence<std::size(kSteps)>());
}

bool NodeRuntime::pass_pending(WorkerCtx* self) {
  // Only runs without a fault engine poll, so the loop's fault check never
  // acts here.
  if (exits(self)) return true;
  Pass pass{self};
  return self == nullptr ? walk<Walk::kProbe, kAgentPass>(pass)
                         : walk<Walk::kProbe, kWorkerPass>(pass);
}

void NodeRuntime::skip_passes(WorkerCtx& worker, std::uint64_t passes) {
  Pass pass{&worker};
  pass.passes = passes;
  walk<Walk::kCredit, kWorkerPass>(pass);
}

std::uint64_t NodeRuntime::passes_to_due(const WorkerCtx& worker) const {
  std::uint64_t due = gvt_->passes_to_round(worker);
  if (worker.mpi_duty && cfg().mpi == MpiPlacement::kCombined && mpi_pending()) {
    // The next pass whose count (read before its credit) hits the cadence.
    const auto period = static_cast<std::uint64_t>(cfg().combined_mpi_poll_period);
    const std::uint64_t cadence = (period - worker.iterations % period) % period + 1;
    due = due == 0 ? cadence : std::min(due, cadence);
  }
  return due;
}

std::uint64_t NodeRuntime::adopt_gvt(WorkerCtx& worker, double gvt, std::uint64_t round) {
  profiler().record_lvt(round, worker.kernel.local_min_ts());
  for (const auto& hook : hooks()) hook->adopt(round, worker, gvt);
  if (node_id_ == 0 && worker.index_in_node == 0) profiler().record_gvt(gvt);
  // Round-sampled pool peak (cheap, always on): captured before fossil
  // collection frees history, so the peak reflects the round's high-water.
  worker.kernel.sample_pool_peak();
  const std::uint64_t committed = worker.kernel.fossil_collect(gvt);
  if (gvt > cfg().end_vt && !stop_) {
    stop_ = true;
    final_gvt_ = gvt;
    wake_threads();
  }
  return committed;
}

Process NodeRuntime::thread_main(WorkerCtx* self) {
  const std::span<const Step> steps =
      self != nullptr ? std::span<const Step>(kWorkerPass) : std::span<const Step>(kAgentPass);
  std::vector<pdes::Event> hook_out;
  while (!exits(self)) {
    if (cluster_.faults != nullptr && cluster_.faults->node_down(node_id_)) {
      co_await halt_if_down();
      continue;
    }
    Pass pass{self};
    for (const Step step : steps) {
      if (!stops_at<Walk::kRun>(step, pass)) continue;
      switch (step) {
        case Step::kMpiProgress: co_await mpi_progress(&pass.did_work); break;
        case Step::kNodeInbox:
          co_await receive_arrivals(self->index_in_node, &pass.did_work);
          break;
        case Step::kDrain: co_await drain_inboxes(*self, &pass.did_work); break;
        case Step::kBatch:
          for (int b = 0; b < cfg().batch; ++b) {
            // Execution horizon: the tightest of the adaptive GVT policy's
            // throttle tier, the conservative window (--sync) and the flow
            // throttle clamp (--flow); infinity = free-running. Read before
            // every event: the agent can move the policy clamp while this
            // worker is suspended in handle_outcome.
            pdes::Outcome out = self->kernel.process_next_bounded(exec_bound(*self));
            if (!out.processed) break;
            ++pass.processed;
            pass.did_work = true;
            co_await handle_outcome(*self, std::move(out));
          }
          break;
        case Step::kHooks:
          for (RoundHook* hook : loop_hooks_) {
            hook->batch_tick(*self, pass.processed, hook_out);
            for (pdes::Event& event : hook_out) {
              co_await send_event(*self, event);
              pass.did_work = true;
            }
            hook_out.clear();
          }
          for (RoundHook* hook : loop_hooks_) {
            hook->batch_release(*self, hook_out);
            for (pdes::Event& event : hook_out) {
              if (cluster_.owners.worker_of(event.dst_lp) == self->global_worker) {
                // The destination LP migrated onto this worker while the
                // event was held: deposit directly (send_event forbids
                // self-sends).
                co_await handle_outcome(*self, self->kernel.deposit(event));
              } else {
                co_await send_event(*self, event);
              }
              pass.did_work = true;
            }
            hook_out.clear();
          }
          break;
        case Step::kAgentTick: co_await gvt_->agent_tick(self); break;
        case Step::kGvtTick: co_await gvt_->worker_tick(*self); break;
        case Step::kCount: break;  // a credit only
      }
    }
    if (pass.did_work) continue;
    if (idle_polls_) {
      co_await metasim::idle_poll(self != nullptr ? self->poller : agent_poll_id_);
    } else {
      co_await delay(cpu(self != nullptr ? cfg().cluster.idle_poll : cfg().cluster.mpi_poll));
    }
  }
}

Process NodeRuntime::halt_if_down() {
  // The node crashed: freeze until the restart instant. Back-to-back crash
  // windows re-enter here via the caller's loop.
  const SimTime until = cluster_.faults->node_restart_at(node_id_);
  if (until > engine().now()) co_await delay(until - engine().now());
}

Process NodeRuntime::stall_if_faulted() {
  // Repeat after waking: a pulse train (period > 0) may open the next pulse
  // exactly where the previous one ended.
  while (true) {
    const SimTime until = cluster_.faults->mpi_stall_until(node_id_);
    if (until <= engine().now()) co_return;
    co_await delay(until - engine().now());
  }
}

Process NodeRuntime::mpi_progress(bool* did_work) {
  // A stalled MPI agent makes no progress at all until the pulse ends —
  // the paper's motivation for bounding asynchrony: stale tokens hold GVT
  // (and fossil collection) back cluster-wide.
  if (cluster_.faults != nullptr) co_await stall_if_faulted();
  const auto& spec = cfg().cluster;
  const std::uint64_t occupancy =
      mpi_outbox_.items.size() + fabric().inbox(node_id_).size();
  if (occupancy > mpi_queue_peak_) mpi_queue_peak_ = occupancy;
  // Drain the node's outbox onto the wire, one message at a time (the
  // paper's ROSS posts sends individually).
  while (!mpi_outbox_.items.empty()) {
    pdes::Event event;
    // This thread is the outbox's only consumer: what it peeked is still
    // there at the grant.
    co_await mpi_outbox_.mutex.lock_then([&](SimTime acquired_at) {
      CAGVT_ASSERT(!mpi_outbox_.items.empty());
      event = mpi_outbox_.items.front();
      mpi_outbox_.items.pop_front();
      return cpu_at(spec.shm_copy, acquired_at);
    });
    mpi_outbox_.mutex.unlock();
    co_await fabric().isend(node_id_, cluster_.owners.node_of(pdes::route_lp(event)),
                           spec.event_msg_bytes, NetMsg{event});
    *did_work = true;
  }
  co_await receive_arrivals(-1, did_work);
}

Process NodeRuntime::receive_arrivals(int trace_worker, bool* did_work) {
  const auto& spec = cfg().cluster;
  // In the kEverywhere placement every worker consumes the same inbox
  // concurrently, so pops must serialize under the node MPI lock or
  // per-pair delivery order breaks.
  const bool shared_inbox = cfg().mpi == MpiPlacement::kEverywhere;
  while (!fabric().inbox(node_id_).empty()) {
    if (shared_inbox) co_await mpi_lock_.lock();
    auto msg = fabric().inbox(node_id_).try_recv();
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
      trace().mpi_recv(node_id_, trace_worker, "event");
      // The destination LP may have migrated off this node while the
      // message was in flight; re-send toward the current owner. The
      // original send is still the only counted send — the receive is
      // counted when the final worker drains it, so GVT transit counting
      // stays balanced across any number of forwarding hops.
      const pdes::LpId route = pdes::route_lp(*event);
      const int owner_node = cluster_.owners.node_of(route);
      if (owner_node != node_id_) {
        CAGVT_CHECK_MSG(event->epoch < cluster_.owners.version(),
                        "event misrouted within its own epoch");
        for (const auto& hook : hooks()) hook->note_forward();
        co_await fabric().isend(node_id_, owner_node, spec.event_msg_bytes, NetMsg{*event});
        continue;
      }
      // Always route through the destination's remote inbox — even for an
      // everywhere-placement worker's own LPs. Depositing directly could
      // overtake another worker's still-in-flight delivery of an EARLIER
      // message for the same destination, breaking the per-pair FIFO order
      // annihilation depends on.
      WorkerCtx& dest = *workers_[static_cast<std::size_t>(cluster_.owners.worker_in_node(route))];
      co_await enqueue(dest.remote_in, *event);
    } else {
      trace().mpi_recv(node_id_, trace_worker, "control");
      gvt_->on_token(std::get<MatternToken>(*msg));
    }
  }
}

Process NodeRuntime::enqueue(SharedQueue& queue, pdes::Event event) {
  // The copy is priced under the lock; the push waits until it is done,
  // when the consumer's unsynchronized peek may see it.
  co_await queue.mutex.lock_then(
      [&](SimTime acquired_at) { return cpu_at(cfg().cluster.shm_copy, acquired_at); });
  queue.items.push_back(event);
  wake(queue.consumer);
  queue.mutex.unlock();
}

Process NodeRuntime::drain_inboxes(WorkerCtx& worker, bool* did_work) {
  const auto& spec = cfg().cluster;
  for (SharedQueue* queue : {&worker.regional_in, &worker.remote_in}) {
    if (queue->items.empty()) continue;  // cheap unsynchronized peek
    std::vector<pdes::Event> batch;
    // Every item, one copy each, each priced where a copy loop would
    // reach it. Only producers touch the queue besides this worker, and
    // they take the lock.
    co_await queue->mutex.lock_then([&](SimTime acquired_at) {
      SimTime at = acquired_at;
      for (; !queue->items.empty(); queue->items.pop_front()) {
        batch.push_back(queue->items.front());
        at += cpu_at(spec.shm_copy, at);
      }
      return at - acquired_at;
    });
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
  const auto& spec = cfg().cluster;
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
  if (event.kind != pdes::MsgKind::kEvent) {
    // Cancelbacks and conservative control messages are consumed by their
    // controller, never deposited into a kernel.
    for (const auto& hook : hooks())
      if (hook->consume(worker, event)) co_return;
    CAGVT_CHECK_MSG(false, "no controller consumes a received message kind");
  }
  if (cluster_.owners.worker_of(event.dst_lp) != worker.global_worker) {
    // Delivered (or read, in a synchronous round) before a migration fence
    // moved the destination LP away. Re-send: the forward is a fresh
    // counted send (the matching receive happens at the new owner), and
    // its receive-time stamp is >= the adopted GVT, so transit counting,
    // min-red accounting and the next round's bound stay exact.
    CAGVT_CHECK_MSG(event.epoch < cluster_.owners.version(), "event misrouted within its own epoch");
    for (const auto& hook : hooks()) hook->note_forward();
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
  // Events a hook holds (flow's parked cancelbacks) bound GVT too: their
  // re-delivery must never be overrun by a round.
  for (const auto& hook : worker.node.hooks())
    lowest = std::min(lowest, hook->min_ts(worker.global_worker));
  return lowest;
}

Process NodeRuntime::handle_outcome(WorkerCtx& worker, pdes::Outcome outcome) {
  const auto& spec = cfg().cluster;
  SimTime cost = 0;
  if (outcome.processed) {
    cost += static_cast<SimTime>(outcome.cost_units * spec.ns_per_epg_unit) +
            spec.event_overhead;
    if (!cluster_.model.supports_reverse()) cost += spec.state_save_cost;
  }
  cost += spec.rollback_per_event * outcome.rolled_back;
  cost += spec.antimessage_overhead * outcome.antimessages;
  if (cost > 0) co_await delay(cpu(cost));
  for (pdes::Event& event : outcome.external) co_await send_event(worker, event);
}

Process NodeRuntime::send_event(WorkerCtx& worker, pdes::Event event) {
  const auto& spec = cfg().cluster;
  // An anti-message whose positive twin is parked right here (cancelled
  // back and not yet re-released) annihilates in place: neither half is
  // ever sent, so no counting happens for either.
  if (event.anti)
    for (const auto& hook : hooks())
      if (hook->absorb_anti(worker.global_worker, event)) co_return;
  event.epoch = cluster_.owners.version();
  ++worker.gvt.msgs_sent;
  gvt_->on_send(worker, event);  // stamps the colour, updates counters

  // Cancelbacks travel to the SOURCE worker of the event they carry; all
  // other messages to the destination LP's owner.
  const pdes::LpId route = pdes::route_lp(event);
  const int dest_node = cluster_.owners.node_of(route);
  if (dest_node == node_id_) {
    ++regional_msgs_;
    regional_msgs_metric_.inc();
    WorkerCtx& dest = *workers_[static_cast<std::size_t>(cluster_.owners.worker_in_node(route))];
    CAGVT_ASSERT(&dest != &worker);  // same-thread events never reach here
    co_await enqueue(dest.regional_in, event);
    co_return;
  }

  ++remote_msgs_;
  remote_msgs_metric_.inc();
  if (cfg().mpi == MpiPlacement::kEverywhere) {
    // Threaded MPI: every worker calls into the MPI library itself,
    // serialized by the node-wide lock and paying the multi-threaded
    // call penalty — the contention of [2].
    const auto penalty = static_cast<SimTime>(static_cast<double>(spec.mpi_send_cpu) *
                                              (spec.threaded_mpi_penalty - 1.0));
    co_await mpi_lock_.lock_then(
        [&](SimTime acquired_at) { return cpu_at(penalty, acquired_at); });
    co_await fabric().isend(node_id_, dest_node, spec.event_msg_bytes, NetMsg{event});
    mpi_lock_.unlock();
    co_return;
  }
  co_await enqueue(mpi_outbox_, event);
}

void NodeRuntime::restore_transport(std::uint32_t epoch,
                                    const net::TransportSnapshot& snapshot) {
  CAGVT_CHECK_MSG(mpi_outbox_.items.empty(), "restore cut not quiesced (mpi outbox)");
  fabric().restore_transport(node_id_, epoch, snapshot);
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
