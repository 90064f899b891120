// Crash-consistent recovery: GVT-aligned checkpointing and coordinated
// cluster restore.
//
// The GVT invariant is exactly a recovery line: no committed
// (fossil-collected) state below GVT can ever be recomputed, so a snapshot
// taken at the quiesced cut of a GVT round — after counting has drained
// every in-transit message and before the round's buffered messages are
// flushed — is a consistent global state with NO in-flight messages to
// log. A checkpoint is therefore just: per worker, the Time Warp kernel
// state plus the round's deferred-message buffer; per node, the reliable
// transport's data-stream cursors (net/reliable.hpp).
//
// Recovery is coordinated: when a crashed node comes back, the next GVT
// round is planned as a RESTORE round and the whole cluster rewinds to the
// last complete checkpoint. (A single-node restore with sender-log replay
// would need every peer's regenerated events to be byte-identical to the
// originals, which optimistic re-execution does not guarantee across the
// rewind; the coordinated rewind needs no replay at all.) Rollback past
// the checkpoint is impossible by construction — the restored kernels
// carry the checkpoint's fossil horizon, and the kernel aborts on any
// message below it.
//
// The RecoveryManager is cluster-global (like the ClusterProfiler): the
// first node to begin a round fixes the round's plan, and every other node
// reads the cached decision, so the cluster always agrees without extra
// control traffic. That is a modelling simplification — a real
// implementation would piggyback the plan on the GVT control message. It
// rides the GVT round as a RoundHook: it plans at round open, deposits the
// initial checkpoint as the workers attach, and runs each worker's
// checkpoint and restore step at the round's quiesced cut, collecting the
// other hooks' per-worker state into the slice.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/round_hook.hpp"
#include "metasim/engine.hpp"
#include "net/reliable.hpp"
#include "obs/metrics.hpp"
#include "pdes/event.hpp"
#include "pdes/kernel.hpp"
#include "pdes/mapping.hpp"

namespace cagvt::core {

/// One worker's slice of a checkpoint.
struct WorkerSnapshot {
  pdes::ThreadKernel::Snapshot kernel;
  /// Messages read-but-deferred in the checkpoint round (counted as
  /// received; they are flushed right after the cut, so they are state).
  std::vector<pdes::Event> round_buffer;
  /// Events parked at this worker's cancelback ledger (--flow=bounded):
  /// the parked copy is each event's only copy, so it is state too.
  std::vector<pdes::Event> parked;

  std::int64_t bytes() const {
    return kernel.bytes() +
           static_cast<std::int64_t>((round_buffer.size() + parked.size()) *
                                     sizeof(pdes::Event));
  }
};

/// A cluster-wide checkpoint at one GVT round's quiesced cut. Complete
/// once every worker deposited its slice and every node its transport
/// cursors.
struct ClusterCheckpoint {
  std::uint64_t round = 0;
  double gvt = 0;
  std::vector<WorkerSnapshot> workers;            // by global worker index
  std::vector<net::TransportSnapshot> transport;  // by node rank
  /// LP owner table at the cut. Captured before any migration installs for
  /// the round run (per-worker checkpoint slices precede the migration
  /// fence), so a restore rewinds placement to match the kernel slices.
  pdes::OwnerTable::Snapshot owners;
  int workers_done = 0;
  int nodes_done = 0;

  bool complete(int total_workers, int nodes) const {
    return workers_done == total_workers && nodes_done == nodes;
  }
};

/// Bounded in-memory ring of cluster checkpoints (oldest evicted first).
class CheckpointStore {
 public:
  CheckpointStore(std::size_t capacity, int total_workers, int nodes)
      : capacity_(capacity), total_workers_(total_workers), nodes_(nodes) {}

  /// The checkpoint being assembled for `round` (created on first use).
  ClusterCheckpoint& at_round(std::uint64_t round, double gvt);

  /// Newest complete checkpoint, or null if none finished yet.
  const ClusterCheckpoint* latest_complete() const;

  std::size_t size() const { return ring_.size(); }
  int total_workers() const { return total_workers_; }
  int nodes() const { return nodes_; }

 private:
  std::vector<ClusterCheckpoint> ring_;  // ascending round order
  std::size_t capacity_;
  int total_workers_;
  int nodes_;
};

class RecoveryManager final : public RoundHook {
 public:
  RecoveryManager(const SimulationConfig& cfg, metasim::Engine& engine,
                  obs::MetricsRegistry* metrics);

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Wire up the cluster's owner table so checkpoints capture LP placement
  /// and restores rewind it. Optional: without it placement is assumed
  /// static (no migration subsystem active).
  void set_owner_table(pdes::OwnerTable* owners) { owners_ = owners; }

  /// Decide (once, cluster-wide) what round `round` does: a restore if an
  /// unhandled crash has restarted by now, else a checkpoint on the
  /// --ckpt-every cadence, else nothing special. Cached by round number so
  /// every node sees the same plan regardless of call order.
  RoundPlan plan_round(std::uint64_t round);

  // --- checkpoint assembly ------------------------------------------------
  void save_worker(std::uint64_t round, double gvt, int global_worker,
                   WorkerSnapshot snapshot);
  void node_checkpoint_done(int node, std::uint64_t round,
                            net::TransportSnapshot transport);

  // --- restore -------------------------------------------------------------
  /// The checkpoint a restore round rewinds to. CHECKs one exists (the
  /// simulation deposits an initial round-0 checkpoint before running).
  const ClusterCheckpoint& restore_source() const;
  /// Data-plane epoch all nodes must reset to in the current restore round.
  std::uint32_t restore_epoch() const { return restore_epoch_; }
  void node_restore_complete(int node, std::uint64_t round);

  // --- round hook ------------------------------------------------------------
  /// Deposit the worker's post-init, pre-traffic state as the round-0
  /// checkpoint (trivially a quiesced cut; charges no time).
  void attach(WorkerCtx& worker) override;
  void open_round(std::uint64_t round, RoundOpen& open) override {
    open.plan = plan_round(round);
  }
  /// Checkpoint round, at the quiesced cut (after fossil collection, before
  /// the round's post-barrier flush): charge the copy cost and deposit this
  /// worker's slice; the node's last worker also captures the transport
  /// cursors. The caller MUST hold a global barrier between this and any
  /// message send, or the transport snapshot would tear.
  metasim::Process checkpoint(WorkerCtx& worker, std::uint64_t round, double gvt) override;
  /// Restore round, in place of GVT adoption: rewind this worker to the
  /// checkpoint being restored. Zeroes the worker's message-counting state
  /// (the restored cut has no in-flight messages); the node's last worker
  /// resets the data-plane transport under the round's restore epoch and
  /// tells every hook the node was restored. Same barrier obligation as
  /// checkpoint.
  metasim::Process restore(WorkerCtx& worker, std::uint64_t round) override;
  void report(SimulationResult& result, obs::MetricsRegistry& metrics) const override;

  // --- results --------------------------------------------------------------
  std::uint64_t checkpoints_completed() const { return checkpoints_; }
  std::uint64_t restores_completed() const { return restores_; }
  /// Total failure-onset -> cluster-restored time across all recoveries.
  metasim::SimTime recovery_time_total() const { return recovery_time_total_; }

 private:
  /// File a worker's slice; the node's last worker files the transport.
  void deposit(WorkerCtx& worker, std::uint64_t round, double gvt, WorkerSnapshot snapshot);

  const SimulationConfig& cfg_;
  metasim::Engine& engine_;
  obs::CounterHandle ckpt_metric_;
  obs::CounterHandle restore_metric_;
  obs::MetricsRegistry* metrics_;

  CheckpointStore store_;
  std::unordered_map<std::uint64_t, RoundPlan> plans_;
  pdes::OwnerTable* owners_ = nullptr;

  struct CrashWindow {
    metasim::SimTime start = 0;
    metasim::SimTime restart = 0;
    bool handled = false;
  };
  std::vector<CrashWindow> crashes_;

  std::uint32_t restore_epoch_ = 0;
  int restore_nodes_done_ = 0;
  // Per node: workers through the current checkpoint / restore step.
  std::vector<int> ckpt_workers_done_;
  std::vector<int> restore_workers_done_;
  metasim::SimTime recovering_since_ = 0;

  std::uint64_t checkpoints_ = 0;
  std::uint64_t restores_ = 0;
  metasim::SimTime recovery_time_total_ = 0;
};

}  // namespace cagvt::core
