#include "exec/thread_engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <thread>

namespace cagvt::exec {

using core::GvtKind;
using core::MpiPlacement;

ThreadEngine::ThreadEngine(const core::SimulationConfig& cfg, const pdes::Model& model)
    : cfg_(cfg),
      model_(model),
      map_(cfg.nodes, cfg.workers_per_node(), cfg.lps_per_worker) {
  cfg_.validate();
  if (!cfg_.faults.empty())
    throw std::invalid_argument(
        "fault injection is driven by the simulated clock and is not supported "
        "with --backend=threads");
  if (cfg_.ckpt_every > 0)
    throw std::invalid_argument(
        "GVT-aligned checkpoints are not supported with --backend=threads");
  if (cfg_.lb.enabled())
    throw std::invalid_argument(
        "dynamic LP migration (--lb) runs at simulated-clock GVT fences and "
        "is not supported with --backend=threads");
  if (cfg_.sync.enabled())
    throw std::invalid_argument(
        "conservative synchronization (--sync) runs on the coroutine "
        "backend's simulated transport and is not supported with "
        "--backend=threads");
  if (cfg_.obs.trace || cfg_.obs.metrics)
    throw std::invalid_argument(
        "structured tracing/metrics are stamped with the simulated clock and "
        "are not supported with --backend=threads");

  const pdes::KernelConfig kcfg{cfg_.end_vt, cfg_.seed};
  workers_.reserve(static_cast<std::size_t>(map_.total_workers()));
  for (int w = 0; w < map_.total_workers(); ++w) {
    workers_.push_back(std::make_unique<Worker>(model_, map_, w, kcfg, cfg_.flow));
    // The throttle's detector is fed only from its own kernel (the hook
    // fires on the owning thread), keeping flow state thread-partitioned.
    Worker& worker = *workers_.back();
    if (cfg_.flow.enabled()) worker.throttle.attach(worker.kernel);
  }
  if (uses_outbox()) {
    outboxes_.reserve(static_cast<std::size_t>(cfg_.nodes));
    for (int n = 0; n < cfg_.nodes; ++n)
      outboxes_.push_back(std::make_unique<MpscQueue<pdes::Event>>());
  }

  const int parties =
      map_.total_workers() + (cfg_.has_dedicated_mpi() ? cfg_.nodes : 0);
  // The stateful tier policy (hysteresis + deferred escalation) lives in
  // the fence coordinator.
  fence_ = std::make_unique<GvtFence>(
      parties, cfg_.end_vt, in_flight_,
      [this] { return std::chrono::steady_clock::now() >= deadline_; },
      core::tier_policy_from(cfg_));
}

void ThreadEngine::route_externals(Worker& self, int src_node,
                                   const std::vector<pdes::Event>& events) {
  for (const pdes::Event& e : events) {
    const int dst_worker = map_.worker_of(e.dst_lp);
    const int dst_node = map_.node_of_worker(dst_worker);
    // Increment strictly before the push: a consumer that already drained
    // the message must find the counter accounted for.
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    if (dst_node == src_node) {
      ++self.regional_msgs;
      workers_[static_cast<std::size_t>(dst_worker)]->inbox.push(e);
    } else {
      ++self.remote_msgs;
      if (uses_outbox()) {
        outboxes_[static_cast<std::size_t>(src_node)]->push(e);
      } else {
        // kEverywhere: the worker performs its own "MPI" delivery.
        workers_[static_cast<std::size_t>(dst_worker)]->inbox.push(e);
      }
    }
  }
}

void ThreadEngine::drain_inbox(Worker& self, int src_node) {
  if (self.inbox.approx_empty()) return;
  self.drain_buf.clear();
  self.inbox.drain(self.drain_buf);
  for (const pdes::Event& e : self.drain_buf) {
    pdes::Outcome out = self.kernel.deposit(e);
    // Route the deposit's fallout (anti-message cascades) BEFORE retiring
    // the consumed message, so in_flight_ never reaches zero while any
    // causal successor is still unpushed.
    route_externals(self, src_node, out.external);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  self.drain_buf.clear();
}

void ThreadEngine::forward_outbox(int node, std::vector<pdes::Event>& scratch) {
  auto& box = *outboxes_[static_cast<std::size_t>(node)];
  if (box.approx_empty()) return;
  scratch.clear();
  box.drain(scratch);
  for (const pdes::Event& e : scratch)
    workers_[static_cast<std::size_t>(map_.worker_of(e.dst_lp))]->inbox.push(e);
  scratch.clear();
}

void ThreadEngine::maybe_announce(Worker& self, int w) {
  const auto interval = static_cast<std::uint64_t>(cfg_.gvt_interval);
  switch (cfg_.gvt) {
    case GvtKind::kBarrier:
      // Synchronous discipline: every worker requests a round on its own
      // cadence; the first requester pulls the whole fleet into the fence,
      // like Barrier GVT's collective entry.
      if (self.iters_since_round >= interval) fence_->announce();
      break;
    case GvtKind::kMattern:
      // Asynchronous discipline: one initiator (global worker 0) starts
      // rounds on its cadence, everyone else only answers the announce.
      if (w == 0 && self.iters_since_round >= interval) fence_->announce();
      break;
    case GvtKind::kControlledAsync: {
      // Mattern cadence plus the paper's control triggers, with the shared
      // policy arithmetic from core/gvt_policy.hpp. The queue-occupancy
      // trigger fires from ANY worker the moment the in-flight backlog
      // exceeds the bound (the stateless raw check — the stateful
      // hysteresis/escalation policy is coordinator-owned inside the
      // fence). Otherwise it falls through to the epoch cadence below,
      // whose escalated kSync tier shortens the initiator's interval.
      if (fence_->backlog_trips(in_flight_.load(std::memory_order_relaxed))) {
        fence_->announce(/*control=*/true);
        break;
      }
      [[fallthrough]];
    }
    case GvtKind::kEpoch: {
      // The real-thread fence quiesces every worker per round, which
      // collapses the coroutine backend's always-in-flight pipeline into
      // a Mattern-shaped cadence: one initiator, interval-clocked. The
      // epoch protocol itself (tags, tree waves) lives in the simulated
      // backend; here only the announce discipline differs per kind. The
      // escalated kSync tier tightens the cadence (CA-GVT's degraded mode,
      // and its quiesced-epoch analogue); kThrottle leaves the cadence
      // alone — only the execution clamp engages.
      if (w != 0) break;
      const bool degraded = fence_->tier() == core::SyncTier::kSync;
      const std::uint64_t effective =
          degraded ? std::max<std::uint64_t>(1, interval / 4) : interval;
      if (self.iters_since_round >= effective) fence_->announce(/*control=*/degraded);
      break;
    }
  }
}

void ThreadEngine::worker_main(int w) {
  Worker& self = *workers_[static_cast<std::size_t>(w)];
  self.kernel.init();
  const int node = map_.node_of_worker(w);
  const bool combined_duty =
      cfg_.mpi == MpiPlacement::kCombined && map_.worker_in_node_of(w) == 0;
  const auto poll_period = static_cast<std::uint64_t>(cfg_.combined_mpi_poll_period);

  const bool flow_on = cfg_.flow.enabled();
  const auto flow_budget = static_cast<std::uint64_t>(cfg_.flow.mem);

  for (;;) {
    drain_inbox(self, node);
    bool executed = false;
    // The flow clamp and the GVT trigger policy's clamp compose by taking
    // the tighter bound (same rule as the coroutine backend's worker loop).
    const pdes::VirtualTime bound =
        std::min(self.throttle.bound(), self.policy_clamp.bound());
    for (int i = 0; i < cfg_.batch; ++i) {
      pdes::Outcome out = self.kernel.process_next_bounded(bound);
      if (!out.processed) break;
      executed = true;
      route_externals(self, node, out.external);
    }
    ++self.iterations;
    ++self.iters_since_round;
    if (combined_duty && self.iterations % poll_period == 0)
      forward_outbox(node, self.drain_buf);

    if (flow_on &&
        self.throttle.classify(self.kernel.pending_size() + self.kernel.live_history(),
                               flow_budget) == core::PressureTier::kRed &&
        !self.red_announced) {
      // Pressure signaling through the fence: pull the fleet into a round so
      // the adopted GVT can fossil-collect the pool. One announce per round —
      // re-announcing while the round is pending would only re-arm the fence.
      // The round counts as forced only if this announce raised the flag
      // (otherwise the cadence or another red worker already had).
      if (fence_->announce()) ++self.forced_rounds;
      self.red_announced = true;
    }
    maybe_announce(self, w);
    if (fence_->announced()) {
      const FenceRound round = fence_->run_round(
          /*party=*/w,
          [&] {
            drain_inbox(self, node);
            if (combined_duty) forward_outbox(node, self.drain_buf);
          },
          [&] {
            return FenceContribution{self.kernel.local_min_ts(),
                                     self.decided.take(self.kernel.stats())};
          },
          [&](double gvt) {
            self.kernel.sample_pool_peak();
            if (flow_on) {
              self.throttle.adopt(gvt);
              self.red_announced = false;
            }
            // The fence's decided tier (published by reduce() earlier in
            // this round; the barriers order the accesses).
            if (cons::apply_tier(self.policy_clamp, fence_->tier(), gvt,
                                 cfg_.gvt_throttle_clamp))
              ++self.gvt_throttle_engagements;
            self.kernel.fossil_collect(gvt);
          });
      self.iters_since_round = 0;
      if (round.stop) return;
    } else if (!executed && self.inbox.approx_empty()) {
      // Out of work until a message or a round — either truly idle, or
      // throttled below the clamp with everything pending above it.
      std::this_thread::yield();
    }
  }
}

void ThreadEngine::agent_main(int node) {
  const int party = map_.total_workers() + node;
  std::vector<pdes::Event> scratch;
  for (;;) {
    forward_outbox(node, scratch);
    if (fence_->announced()) {
      const FenceRound round = fence_->run_round(
          party, [&] { forward_outbox(node, scratch); },
          [] { return FenceContribution{}; }, [](double) {});
      if (round.stop) return;
    } else {
      std::this_thread::yield();
    }
  }
}

core::SimulationResult ThreadEngine::run(double max_wall_seconds) {
  const auto start = std::chrono::steady_clock::now();
  deadline_ = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(max_wall_seconds));

  // A CAGVT_CHECK failure aborts the process outright; any other exception
  // escaping a worker is reported before terminating, because a dead party
  // would leave the rest of the fleet deadlocked inside the fence.
  const auto guarded = [](auto&& fn) {
    return [fn = std::forward<decltype(fn)>(fn)]() mutable {
      try {
        fn();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "thread backend worker died: %s\n", e.what());
        std::abort();
      }
    };
  };

  std::vector<std::thread> threads;
  threads.reserve(workers_.size() +
                  (cfg_.has_dedicated_mpi() ? static_cast<std::size_t>(cfg_.nodes) : 0));
  for (int w = 0; w < map_.total_workers(); ++w)
    threads.emplace_back(guarded([this, w] { worker_main(w); }));
  if (cfg_.has_dedicated_mpi())
    for (int n = 0; n < cfg_.nodes; ++n)
      threads.emplace_back(guarded([this, n] { agent_main(n); }));
  for (std::thread& t : threads) t.join();

  core::SimulationResult result;
  result.completed = fence_->completed();
  for (auto& worker : workers_) {
    worker->kernel.sample_pool_peak();  // capture the shutdown occupancy
    worker->kernel.final_commit();
    result.events += worker->kernel.stats();
    result.committed_fingerprint += worker->kernel.committed_fingerprint();
    result.state_hash += worker->kernel.state_hash();
    result.regional_msgs += worker->regional_msgs;
    result.remote_msgs += worker->remote_msgs;
    if (cfg_.flow.enabled()) {
      result.flow_storms += worker->throttle.storm().storms();
      result.flow_throttle_engagements += worker->throttle.engagements();
      result.flow_forced_rounds += worker->forced_rounds;
    }
    result.gvt_throttle_engagements += worker->gvt_throttle_engagements;
  }
  result.peak_event_pool = result.events.pool_peak;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.committed_rate =
      result.wall_seconds > 0
          ? static_cast<double>(result.events.committed) / result.wall_seconds
          : 0;
  result.efficiency = result.events.efficiency();
  result.final_gvt = fence_->last_gvt();
  result.gvt_rounds = fence_->rounds();
  result.sync_rounds = fence_->sync_rounds();
  result.gvt_throttle_rounds = fence_->throttle_rounds();
  result.gvt_trace = fence_->gvt_trace();
  result.last_global_efficiency = fence_->efficiency();
  return result;
}

}  // namespace cagvt::exec
