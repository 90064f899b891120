#include "core/recovery.hpp"

#include <algorithm>
#include <utility>

#include "core/node_runtime.hpp"
#include "core/simulation.hpp"
#include "fault/fault_spec.hpp"
#include "util/assert.hpp"

namespace cagvt::core {

using metasim::delay;
using metasim::Process;
using metasim::SimTime;

namespace {
/// Checkpoints kept in memory. Only the newest complete one is ever
/// restored; the slack absorbs a checkpoint round that a crash interrupts
/// mid-assembly.
constexpr std::size_t kStoreCapacity = 4;
}  // namespace

ClusterCheckpoint& CheckpointStore::at_round(std::uint64_t round, double gvt) {
  if (!ring_.empty() && ring_.back().round == round) return ring_.back();
  CAGVT_CHECK_MSG(ring_.empty() || ring_.back().round < round,
                  "checkpoint rounds must be deposited in order");
  if (ring_.size() == capacity_) ring_.erase(ring_.begin());
  ClusterCheckpoint& ckpt = ring_.emplace_back();
  ckpt.round = round;
  ckpt.gvt = gvt;
  ckpt.workers.resize(static_cast<std::size_t>(total_workers_));
  ckpt.transport.resize(static_cast<std::size_t>(nodes_));
  return ckpt;
}

const ClusterCheckpoint* CheckpointStore::latest_complete() const {
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it)
    if (it->complete(total_workers_, nodes_)) return &*it;
  return nullptr;
}

RecoveryManager::RecoveryManager(const SimulationConfig& cfg, metasim::Engine& engine,
                                 obs::MetricsRegistry* metrics)
    : cfg_(cfg),
      engine_(engine),
      metrics_(metrics),
      store_(kStoreCapacity, cfg.nodes * cfg.workers_per_node(), cfg.nodes),
      ckpt_workers_done_(static_cast<std::size_t>(cfg.nodes), 0),
      restore_workers_done_(static_cast<std::size_t>(cfg.nodes), 0) {
  if (metrics_ != nullptr) {
    ckpt_metric_ = metrics_->counter("recovery.checkpoints");
    restore_metric_ = metrics_->counter("recovery.restores");
  }
  for (const fault::FaultSpec& spec : cfg.faults) {
    if (spec.kind != fault::FaultKind::kCrash) continue;
    CrashWindow w;
    w.start = spec.start;
    w.restart = spec.window_end();
    crashes_.push_back(w);
  }
  std::sort(crashes_.begin(), crashes_.end(),
            [](const CrashWindow& a, const CrashWindow& b) { return a.restart < b.restart; });
}

RoundPlan RecoveryManager::plan_round(std::uint64_t round) {
  const auto it = plans_.find(round);
  if (it != plans_.end()) return it->second;

  RoundPlan plan = RoundPlan::kNormal;
  const metasim::SimTime now = engine_.now();
  bool restoring = false;
  for (CrashWindow& w : crashes_) {
    if (!w.handled && w.restart <= now) {
      // The node is back up; rewind the cluster this round. One restore
      // round covers every crash that has already resolved.
      if (!restoring) {
        restoring = true;
        recovering_since_ = w.start;  // earliest unhandled failure onset
      }
      w.handled = true;
    }
  }
  if (restoring) {
    plan = RoundPlan::kRestore;
    ++restore_epoch_;
    restore_nodes_done_ = 0;
  } else if (cfg_.ckpt_every > 0 && round % static_cast<std::uint64_t>(cfg_.ckpt_every) == 0) {
    plan = RoundPlan::kCheckpoint;
  }
  plans_.emplace(round, plan);
  return plan;
}

void RecoveryManager::save_worker(std::uint64_t round, double gvt, int global_worker,
                                  WorkerSnapshot snapshot) {
  ClusterCheckpoint& ckpt = store_.at_round(round, gvt);
  // First slice of the round: freeze the LP owner table alongside it. Every
  // worker checkpoints before the round's migration fence executes, so this
  // is the placement the kernel slices were cut under.
  if (owners_ != nullptr && ckpt.owners.owner.empty()) ckpt.owners = owners_->snapshot();
  ckpt.workers[static_cast<std::size_t>(global_worker)] = std::move(snapshot);
  ++ckpt.workers_done;
  CAGVT_CHECK(ckpt.workers_done <= store_.total_workers());
}

void RecoveryManager::node_checkpoint_done(int node, std::uint64_t round,
                                           net::TransportSnapshot transport) {
  ClusterCheckpoint& ckpt = store_.at_round(round, /*gvt=*/0);
  CAGVT_CHECK_MSG(ckpt.round == round, "transport snapshot for an evicted checkpoint");
  ckpt.transport[static_cast<std::size_t>(node)] = std::move(transport);
  ++ckpt.nodes_done;
  if (ckpt.complete(store_.total_workers(), store_.nodes())) {
    ++checkpoints_;
    ckpt_metric_.inc();
  }
}

const ClusterCheckpoint& RecoveryManager::restore_source() const {
  const ClusterCheckpoint* ckpt = store_.latest_complete();
  CAGVT_CHECK_MSG(ckpt != nullptr, "restore with no complete checkpoint");
  return *ckpt;
}

void RecoveryManager::node_restore_complete(int node, std::uint64_t round) {
  (void)node;
  (void)round;
  ++restore_nodes_done_;
  if (restore_nodes_done_ == store_.nodes()) {
    // Rewind LP placement to the checkpoint's cut. The restore fence holds
    // every node until this point, so no event routes under the new table
    // between the kernel rewinds and this.
    if (owners_ != nullptr && !restore_source().owners.owner.empty())
      owners_->restore(restore_source().owners);
    ++restores_;
    restore_metric_.inc();
    const metasim::SimTime latency = engine_.now() - recovering_since_;
    recovery_time_total_ += latency;
    if (metrics_ != nullptr)
      metrics_->gauge("recovery.last_latency_ns").set(static_cast<double>(latency));
  }
}

void RecoveryManager::deposit(WorkerCtx& worker, std::uint64_t round, double gvt,
                              WorkerSnapshot snapshot) {
  save_worker(round, gvt, worker.global_worker, std::move(snapshot));
  const int node = worker.node.rank();
  int& done = ckpt_workers_done_[static_cast<std::size_t>(node)];
  if (++done == cfg_.workers_per_node()) {
    done = 0;
    node_checkpoint_done(node, round, worker.node.fabric().snapshot_transport(node));
  }
}

void RecoveryManager::attach(WorkerCtx& worker) {
  deposit(worker, 0, 0.0, {worker.kernel.snapshot(), {}, {}});
}

Process RecoveryManager::checkpoint(WorkerCtx& worker, std::uint64_t round, double gvt) {
  NodeRuntime& node = worker.node;
  const auto& spec = cfg_.cluster;
  co_await delay(node.cpu(spec.ckpt_base +
                          spec.ckpt_per_lp * static_cast<SimTime>(worker.kernel.lp_count())));
  WorkerSnapshot snap{worker.kernel.snapshot(), worker.round_buffer, {}};
  for (const auto& hook : node.hooks()) hook->save_state(worker.global_worker, snap);
  node.trace().ckpt_write(node.rank(), worker.index_in_node, round, gvt, snap.bytes());
  deposit(worker, round, gvt, std::move(snap));
}

Process RecoveryManager::restore(WorkerCtx& worker, std::uint64_t round) {
  NodeRuntime& node = worker.node;
  const auto& spec = cfg_.cluster;
  const ClusterCheckpoint& ckpt = restore_source();
  co_await delay(node.cpu(spec.restore_base + spec.restore_per_lp *
                                                  static_cast<SimTime>(worker.kernel.lp_count())));
  // The restore cut must be quiesced: GVT counting drained every in-flight
  // message before this round's adopt step, so nothing may be waiting in
  // the inboxes (it would be silently erased by the rewind).
  CAGVT_CHECK_MSG(worker.regional_in.items.empty() && worker.remote_in.items.empty(),
                  "restore cut not quiesced (worker inbox)");
  const WorkerSnapshot& snap = ckpt.workers[static_cast<std::size_t>(worker.global_worker)];
  worker.kernel.restore(snap.kernel);
  worker.round_buffer = snap.round_buffer;
  for (const auto& hook : node.hooks()) hook->load_state(worker.global_worker, snap);
  // The checkpointed cut has no in-transit messages, so message-counting
  // state restarts from zero; the efficiency window restarts from the
  // restored commit counters.
  worker.gvt.msgs_sent = 0;
  worker.gvt.msgs_recv = 0;
  worker.gvt.min_red = pdes::kVtInfinity;
  worker.gvt.decided = {snap.kernel.stats.committed, snap.kernel.stats.rolled_back};
  node.trace().restore(node.rank(), worker.index_in_node, round, ckpt.round, ckpt.gvt,
                       snap.bytes());
  int& done = restore_workers_done_[static_cast<std::size_t>(node.rank())];
  if (++done == cfg_.workers_per_node()) {
    done = 0;
    node.restore_transport(restore_epoch_, ckpt.transport[static_cast<std::size_t>(node.rank())]);
    node_restore_complete(node.rank(), round);
    // The owner table is rewound (cluster-wide last node); every hook's
    // estimators, plans, tiers and clamps describe a timeline that no
    // longer exists.
    for (const auto& hook : node.hooks()) hook->on_restore();
  }
}

void RecoveryManager::report(SimulationResult& result, obs::MetricsRegistry& metrics) const {
  result.checkpoints = checkpoints_;
  result.restores = restores_;
  result.recovery_seconds = metasim::to_seconds(recovery_time_total_);
  metrics.gauge("run.checkpoints").set(static_cast<double>(result.checkpoints));
  metrics.gauge("run.restores").set(static_cast<double>(result.restores));
  metrics.gauge("run.recovery_seconds").set(result.recovery_seconds);
}

}  // namespace cagvt::core
