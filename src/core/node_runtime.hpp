// NodeRuntime: one simulated KNL node.
//
// Owns the node's worker threads (coroutines), the MPI thread (dedicated
// placement) or MPI duty assignment (combined/everywhere), the shared
// message queues between them, and the node-level collectives used by the
// GVT algorithms. All timing costs of the message path are charged here:
//
//   worker A --[regional_in lock + copy]--> worker B          (same node)
//   worker A --[mpi_outbox lock]--> MPI thread --isend--> wire
//        --> MPI thread B --[remote_in lock + copy]--> worker B
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/gvt.hpp"
#include "core/messages.hpp"
#include "core/round_hook.hpp"
#include "fault/fault_engine.hpp"
#include "metasim/channel.hpp"
#include "metasim/process.hpp"
#include "metasim/sync.hpp"
#include "net/vmpi.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdes/kernel.hpp"
#include "util/stats.hpp"

namespace cagvt::core {

using Fabric = net::Fabric<NetMsg>;

/// Mutex-protected event queue (regional inboxes, remote inboxes, the
/// per-node MPI outbox).
struct SharedQueue {
  SharedQueue(metasim::Engine& engine, const net::ClusterSpec& spec)
      : mutex(engine, spec.lock_acquire, spec.lock_handoff) {}
  metasim::Mutex mutex;
  std::deque<pdes::Event> items;
  /// The engine poller of the thread that drains it, woken by enqueue.
  std::uint32_t consumer = 0;
};

/// One worker thread. As an idle poller it walks its loop pass's steps
/// (NodeRuntime::Step): the pass is pending when one step's guard holds,
/// and skipped passes apply every step's skip credit.
struct WorkerCtx final : metasim::IdlePoller {
  WorkerCtx(NodeRuntime& node_rt, metasim::Engine& engine, const net::ClusterSpec& spec,
            const pdes::Model& model, const pdes::LpMap& map, int global_worker_idx,
            pdes::KernelConfig kcfg, bool duty)
      : node(node_rt),
        global_worker(global_worker_idx),
        index_in_node(map.worker_in_node_of(global_worker_idx)),
        mpi_duty(duty),
        kernel(model, map, global_worker_idx, kcfg),
        regional_in(engine, spec),
        remote_in(engine, spec) {}

  NodeRuntime& node;
  int global_worker;
  int index_in_node;
  /// True for the worker that carries MPI duty in combined/everywhere
  /// placements (always false with a dedicated MPI thread).
  bool mpi_duty;
  pdes::ThreadKernel kernel;
  SharedQueue regional_in;
  SharedQueue remote_in;
  GvtThreadState gvt;
  std::uint64_t iterations = 0;
  /// Messages read (counted as received) during a synchronous GVT round
  /// but not yet handed to the engine — ROSS defers rollback processing
  /// until the round is over.
  std::vector<pdes::Event> round_buffer;
  /// The thread's tie-break owner (metasim::Engine::add_owner).
  std::uint32_t owner = 0;
  /// Engine poller id, when the node elides idle passes.
  std::uint32_t poller = 0;

  /// Anything in either inbox (the drain's unsynchronized peek).
  bool has_mail() const { return !regional_in.items.empty() || !remote_in.items.empty(); }

  bool pass_pending() override;
  void skip_passes(std::uint64_t passes) override;
  std::uint64_t passes_to_due() const override;
};

/// Two-level reduction/barrier used by the GVT algorithms: a node-level
/// pthread-style step over all local participants plus an MPI collective
/// performed by the node's agent. Workers read the global result from
/// last_sum()/last_min() after their coroutine completes.
class NodeCollectives {
 public:
  NodeCollectives(metasim::Engine& engine, Fabric& fabric, int rank, int parties,
                  metasim::SimTime node_barrier_cost)
      : fabric_(fabric),
        rank_(rank),
        reduce_sum_(engine, parties, add_i64, 0, node_barrier_cost),
        reduce_min_(engine, parties, min_f64, pdes::kVtInfinity, node_barrier_cost),
        entry_barrier_(engine, parties, node_barrier_cost),
        exit_barrier_(engine, parties, node_barrier_cost) {}

  // Global sum: workers call sum(v), the node's agent calls sum_agent(v).
  metasim::Process sum(std::int64_t value);
  metasim::Process sum_agent(std::int64_t value);
  std::int64_t last_sum() const { return last_sum_; }

  // Global min.
  metasim::Process min(double value);
  metasim::Process min_agent(double value);
  double last_min() const { return last_min_; }

  // Global barrier (node barrier + MPI barrier + node barrier).
  metasim::Process barrier();
  metasim::Process barrier_agent();

  /// Total simulated thread-time blocked in the node-level steps (the
  /// paper's "time in the GVT function" component).
  metasim::SimTime node_block_time() const {
    return reduce_sum_.total_block_time() + reduce_min_.total_block_time() +
           entry_barrier_.total_block_time() + exit_barrier_.total_block_time();
  }

 private:
  static std::int64_t add_i64(std::int64_t a, std::int64_t b) { return a + b; }
  static double min_f64(double a, double b) { return a < b ? a : b; }

  Fabric& fabric_;
  int rank_;
  metasim::ReduceBarrier<std::int64_t> reduce_sum_;
  metasim::ReduceBarrier<double> reduce_min_;
  metasim::Barrier entry_barrier_;
  metasim::Barrier exit_barrier_;
  std::int64_t last_sum_ = 0;
  double last_min_ = 0;
};

/// Measurement-only cross-node profiler (an "omniscient observer": it
/// consumes no simulated time). Tracks the paper's LVT-disparity metric
/// and the per-round GVT trace.
class ClusterProfiler {
 public:
  void record_lvt(std::uint64_t round, double lvt) {
    if (lvt == pdes::kVtInfinity) return;
    if (rounds_.size() <= round) rounds_.resize(round + 1);
    rounds_[round].add(lvt);
  }

  void record_gvt(double gvt) { gvt_trace_.push_back(gvt); }

  /// Paper metric: per-round population stddev of LVTs, averaged over
  /// rounds that saw at least two contributions.
  double avg_lvt_disparity() const {
    double total = 0;
    std::uint64_t n = 0;
    for (const auto& stat : rounds_) {
      if (stat.count() < 2) continue;
      total += stat.stddev_population();
      ++n;
    }
    return n ? total / static_cast<double>(n) : 0.0;
  }

  const std::vector<double>& gvt_trace() const { return gvt_trace_; }

 private:
  std::vector<RunningStat> rounds_;
  std::vector<double> gvt_trace_;
};

/// What every node of one simulated cluster shares, built once per run
/// (Simulation::run) and handed to each NodeRuntime and to the controller
/// factory.
struct ClusterServices {
  metasim::Engine& engine;
  Fabric& fabric;
  const SimulationConfig& cfg;
  const pdes::LpMap& map;
  /// The dynamic owner table every routing decision goes through (the
  /// identity overlay when migration is off).
  pdes::OwnerTable& owners;
  const pdes::Model& model;
  ClusterProfiler& profiler;
  /// Always valid objects; disabled instances ignore every call.
  obs::TraceRecorder& trace;
  obs::MetricsRegistry& metrics;
  /// Null on a healthy cluster; when set, every CPU cost a node charges is
  /// scaled by its straggler factor and MPI agents honor stall pulses.
  const fault::FaultEngine* faults;
  /// The run's enabled controllers, in call order (core/round_hook.hpp).
  RoundHooks hooks;
};

class NodeRuntime {
 public:
  NodeRuntime(const ClusterServices& cluster, int node_id);

  /// Initialize kernels, attach them to the hooks, and spawn this node's
  /// thread coroutines.
  void start();

  // --- accessors for the GVT algorithms ---------------------------------
  metasim::Engine& engine() { return cluster_.engine; }
  Fabric& fabric() { return cluster_.fabric; }
  int rank() const { return node_id_; }
  const SimulationConfig& cfg() const { return cluster_.cfg; }
  const pdes::LpMap& map() const { return cluster_.map; }
  NodeCollectives& collectives() { return collectives_; }
  std::vector<std::unique_ptr<WorkerCtx>>& workers() { return workers_; }
  ClusterProfiler& profiler() { return cluster_.profiler; }
  GvtAlgorithm& gvt() { return *gvt_; }
  obs::TraceRecorder& trace() { return cluster_.trace; }
  obs::MetricsRegistry& metrics() { return cluster_.metrics; }
  const RoundHooks& hooks() const { return cluster_.hooks; }
  const pdes::OwnerTable& owners() const { return cluster_.owners; }

  /// All simulated CPU time this node charges funnels through here so a
  /// straggler window slows every activity uniformly (EPG, queue copies,
  /// MPI packing, polling) — the model of a thermally throttled / noisy
  /// KNL node.
  metasim::SimTime cpu(metasim::SimTime base) const { return cpu_at(base, cluster_.engine.now()); }
  /// The same for CPU time charged from instant `t` on: a folded lock
  /// hold's steps (metasim::Mutex::lock_then), each priced where the
  /// unfolded loop would have reached it.
  metasim::SimTime cpu_at(metasim::SimTime base, metasim::SimTime t) const {
    return cluster_.faults == nullptr ? base : cluster_.faults->scale_cpu_at(node_id_, base, t);
  }

  /// A worker adopts a freshly computed GVT: fossil-collect, record the
  /// profiler samples, stop the node once the horizon is passed. Returns
  /// the newly committed event count (the caller charges fossil cost).
  std::uint64_t adopt_gvt(WorkerCtx& worker, double gvt, std::uint64_t round);

  bool stopped() const { return stop_; }
  double final_gvt() const { return final_gvt_; }

  /// MPI progress: outbox -> wire, wire -> worker remote inboxes, GVT
  /// tokens -> algorithm. Runs on the dedicated MPI thread or inline on
  /// the MPI-duty worker.
  metasim::Process mpi_progress(bool* did_work);

  /// Drain a worker's regional + remote inboxes into its kernel (the
  /// paper's ReadMessages), charging receive costs and routing cascades.
  metasim::Process drain_inboxes(WorkerCtx& worker, bool* did_work);

  /// Synchronous-GVT variant of ReadMessages: messages are read and
  /// counted as received but buffered — no rollback processing happens
  /// inside the round (matching ROSS). flush_round_buffer() deposits them
  /// once the round is over.
  metasim::Process read_messages_deferred(WorkerCtx& worker);
  metasim::Process flush_round_buffer(WorkerCtx& worker);

  /// Worker's GVT contribution: min over its pending events AND any
  /// buffered-but-undeposited messages.
  static double worker_min_ts(WorkerCtx& worker);

  /// Charge the costs of an engine outcome and route its external events.
  metasim::Process handle_outcome(WorkerCtx& worker, pdes::Outcome outcome);

  /// Idle polls: would the pass of `self` (nullptr: the dedicated MPI
  /// thread) dispatched now do anything besides re-arming its poll? True
  /// when the loop exits or one of the pass's step guards holds.
  bool pass_pending(WorkerCtx* self);
  /// `passes` worker passes pass_pending ruled out: apply their steps'
  /// skip credits.
  void skip_passes(WorkerCtx& worker, std::uint64_t passes);
  /// The worker sleeps: in how many passes does a guard that reads its
  /// own credits hold (0: none)? The GVT tick's interval clock, and the
  /// combined placement's MPI cadence while traffic waits.
  std::uint64_t passes_to_due(const WorkerCtx& worker) const;
  /// A write to state the guards of this node's threads read (the GVT
  /// algorithm's phase, round, tokens and clamp; stop_): wake them.
  void wake_threads();

  /// Restore round, at the node's last rewound worker: reset the node's
  /// data-plane transport to a checkpoint's cursors under `epoch`.
  void restore_transport(std::uint32_t epoch, const net::TransportSnapshot& snapshot);

  // --- aggregate results --------------------------------------------------
  /// Highest MPI queue occupancy (outbox + fabric inbox) seen since the
  /// last call; consumes the peak. CA-GVT's queue-occupancy trigger.
  std::uint64_t take_mpi_queue_peak() {
    const std::uint64_t peak = mpi_queue_peak_;
    mpi_queue_peak_ = 0;
    return peak;
  }

  pdes::KernelStats aggregate_kernel_stats() const;
  std::uint64_t committed_fingerprint() const;
  /// Order-independent hash of the node's final LP states (see
  /// ThreadKernel::state_hash); meaningful after final_commit().
  std::uint64_t state_hash() const;
  std::uint64_t regional_msgs() const { return regional_msgs_; }
  std::uint64_t remote_msgs() const { return remote_msgs_; }
  metasim::SimTime lock_wait_time() const;
  metasim::SimTime gvt_block_time() const { return collectives_.node_block_time(); }

 private:
  /// MPI stall pulses: block until the agent's current pulse (if any) ends.
  metasim::Process stall_if_faulted();
  /// Crash windows: a thread reaching its loop top while the node is down
  /// freezes until the restart instant (the crash takes effect at loop
  /// granularity; threads blocked inside a collective stay blocked there).
  metasim::Process halt_if_down();

  /// The steps of a loop pass, in order (DESIGN §14 "Idle polls"). The loop
  /// runs each step whose guard holds and applies the skip credit of every
  /// other, the idle-poll predicate is the OR of the guards, and a skipped
  /// pass applies every credit. So a step whose guard is false must charge
  /// no time, take no lock and change nothing but its credit. kDrain reads
  /// worker_held for itself, kBatch and kHooks; kCount is a credit only.
  enum class Step : std::uint8_t {
    kMpiProgress, kNodeInbox, kDrain, kBatch, kHooks, kCount, kAgentTick, kGvtTick
  };
  static constexpr Step kWorkerPass[] = {Step::kMpiProgress, Step::kNodeInbox, Step::kDrain,
                                         Step::kBatch,       Step::kHooks,     Step::kCount,
                                         Step::kAgentTick,   Step::kGvtTick};
  static constexpr Step kAgentPass[] = {Step::kMpiProgress, Step::kAgentTick};
  struct Pass {
    WorkerCtx* self = nullptr;  // nullptr: the dedicated MPI thread
    bool held = false;
    int processed = 0;
    bool did_work = false;
    std::uint64_t passes = 1;  // a credit walk credits this many passes
  };
  /// The loop reads guards and credits, the predicate guards, a skip credits.
  enum class Walk : std::uint8_t { kRun, kProbe, kCredit };
  /// Does the walk stop at `step`, its guard holding? Each step's case
  /// holds its guard and its credit.
  template <Walk kWalk>
  [[gnu::always_inline]] bool stops_at(Step step, Pass& pass);
  /// Does a probe or credit walk stop at one of `kSteps`? Unrolled, so the
  /// guards and credits compile in line.
  template <Walk kWalk, const auto& kSteps>
  bool walk(Pass& pass);
  /// Any MPI traffic, or an open stall pulse? Otherwise mpi_progress
  /// charges nothing.
  bool mpi_pending() const;
  bool exits(const WorkerCtx* self) const {
    return stop_ && (self == nullptr ? gvt_->agent_done() : gvt_->worker_done(self->gvt));
  }
  /// A worker's loop, or the dedicated MPI thread's (`self` == nullptr).
  metasim::Process thread_main(WorkerCtx* self);
  /// The worker's execution horizon: the tightest of the GVT policy's
  /// clamp and every loop hook's exec_bound.
  double exec_bound(const WorkerCtx& worker) const {
    const double bound = gvt_->clamp().bound();
    return loop_hooks_.empty() ? bound : std::min(bound, hooks_bound(worker));
  }
  /// The loop hooks' part of the guards, out of line: a run without loop
  /// hooks pays one test for them.
  double hooks_bound(const WorkerCtx& worker) const;
  bool hooks_pending(const WorkerCtx& worker) const;
  /// Lock, charge the shared-memory copy, append, unlock: the enqueue of
  /// every shared queue.
  metasim::Process enqueue(SharedQueue& queue, pdes::Event event);
  metasim::Process send_event(WorkerCtx& worker, pdes::Event event);
  /// Unpack the node's network arrivals: events are forwarded toward a
  /// migrated LP's current owner node or delivered to the owning worker's
  /// remote inbox, tokens go to the GVT algorithm. Runs on the MPI agent
  /// and, in the kEverywhere placement, on every worker (which perform
  /// their own MPI calls under the node-wide MPI lock — the threaded-MPI
  /// contention model). `trace_worker` is the trace track (-1 = agent).
  metasim::Process receive_arrivals(int trace_worker, bool* did_work);
  /// Hand one received message to its consumer: a non-event message to the
  /// hook that consumes it (cancelbacks to flow, control messages to cons),
  /// an event for an LP that migrated away is forwarded, anything else is
  /// deposited.
  metasim::Process dispatch_received(WorkerCtx& worker, const pdes::Event& event);

  /// Wake one of this node's pollers (a no-op in runs that keep every
  /// pass).
  void wake(std::uint32_t poller) {
    if (idle_polls_) engine().wake(poller);
  }

  /// The dedicated MPI thread as an idle poller; its steps carry no credit.
  struct AgentPoller final : metasim::IdlePoller {
    explicit AgentPoller(NodeRuntime& node_rt) : node(node_rt) {}
    bool pass_pending() override { return node.pass_pending(nullptr); }
    void skip_passes(std::uint64_t /*passes*/) override {}
    NodeRuntime& node;
  };

  const ClusterServices& cluster_;
  int node_id_;
  /// The hooks inside the worker loop (RoundHook::in_worker_loop).
  std::vector<RoundHook*> loop_hooks_;
  /// Idle passes end in idle polls rather than plain delays. Runs with a
  /// fault engine (which scales poll periods and takes nodes down) keep
  /// every pass; a loop hook keeps the passes its loop_pending cannot rule
  /// out (cons cmb: all of them).
  bool idle_polls_ = false;
  AgentPoller agent_poller_{*this};
  std::uint32_t agent_owner_ = 0;
  std::uint32_t agent_poll_id_ = 0;
  obs::CounterHandle regional_msgs_metric_;
  obs::CounterHandle remote_msgs_metric_;

  std::vector<std::unique_ptr<WorkerCtx>> workers_;
  SharedQueue mpi_outbox_;
  metasim::Mutex mpi_lock_;  // kEverywhere: serializes workers' MPI calls
  NodeCollectives collectives_;
  std::unique_ptr<GvtAlgorithm> gvt_;

  bool stop_ = false;
  double final_gvt_ = 0;
  std::uint64_t mpi_queue_peak_ = 0;
  std::uint64_t regional_msgs_ = 0;
  std::uint64_t remote_msgs_ = 0;
};

}  // namespace cagvt::core
