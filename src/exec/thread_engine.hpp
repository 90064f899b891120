// Real-thread execution backend: each simulated worker of the virtual
// cluster becomes an actual std::thread.
//
// Layout mirrors the coroutine backend's NodeRuntime, with real concurrency
// substituted for simulated concurrency:
//
//   * one OS thread + ThreadKernel + MpscQueue inbox per worker
//   * per-node MpscQueue outbox for remote traffic under the dedicated and
//     combined MPI placements (kEverywhere pushes straight to the remote
//     inbox, the threaded-MPI model)
//   * a real agent thread per node under kDedicated; under kCombined the
//     node's worker 0 forwards the outbox every combined_mpi_poll_period
//     iterations (the starvation effect the paper's dedicated thread fixes)
//   * the cooperative GVT round is replaced by exec::GvtFence; the three
//     GvtKinds differ only in WHO announces a round and WHEN (see
//     maybe_announce), the fence protocol itself is shared
//   * overload protection (--flow=bounded) stays thread-partitioned: each
//     worker owns a flow::WorkerThrottle — the same per-worker storm
//     detector, pressure tier and clamp flow::Controller keeps on the
//     coroutine backend — fed only from its own kernel. Red pressure
//     signals the fleet through the fence (announce a round so fossil
//     collection can relieve the pool); there is no cancelback here — no
//     simulated transport to carry events back — so relief is forced
//     rounds plus the optimism clamp.
//   * the adaptive GVT tier is decided by the fence coordinator with the
//     core::TierPolicy GvtAlgorithm::decide runs on the coroutine backend,
//     and each worker's decided-event window is a core::DecidedWindow, so
//     the efficiency estimate and the tiers cannot diverge either.
//
// The kernels stay single-owner — only the owning thread touches its
// pending set and rollback machinery; cross-thread hand-off happens
// exclusively through the inbox mutexes and the fence barriers. What this
// backend does NOT model is simulated time: costs (EPG, latencies, lock
// hold times) are ignored and wall_seconds is real elapsed time, so timing
// metrics are not comparable with the coroutine backend. Committed results
// are — that is the differential oracle contract:
// committed_fingerprint, committed count, and state_hash must be identical
// to the coroutine backend and the sequential reference for any
// configuration; GVT round counts may differ (the fence has its own
// cadence) but must be nonzero.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "cons/clamp.hpp"
#include "core/config.hpp"
#include "core/gvt_policy.hpp"
#include "core/simulation.hpp"
#include "exec/gvt_fence.hpp"
#include "exec/mpsc_queue.hpp"
#include "flow/worker_throttle.hpp"
#include "pdes/kernel.hpp"
#include "pdes/mapping.hpp"
#include "pdes/model.hpp"

namespace cagvt::exec {

class ThreadEngine {
 public:
  /// Throws std::invalid_argument for configurations the thread backend
  /// does not support (fault injection, checkpoints, observability — all
  /// of which are defined in terms of the simulated clock).
  ThreadEngine(const core::SimulationConfig& cfg, const pdes::Model& model);

  /// Execute to completion (GVT past end_vt) on real threads and aggregate
  /// results. `max_wall_seconds` caps REAL elapsed time here.
  core::SimulationResult run(double max_wall_seconds = 3600.0);

 private:
  struct alignas(64) Worker {
    Worker(const pdes::Model& model, const pdes::LpMap& map, int global_worker,
           pdes::KernelConfig kcfg, const flow::FlowConfig& flow)
        : kernel(model, map, global_worker, kcfg), throttle(flow) {}

    pdes::ThreadKernel kernel;
    MpscQueue<pdes::Event> inbox;
    std::vector<pdes::Event> drain_buf;  // owner-thread scratch
    std::uint64_t iterations = 0;
    std::uint64_t iters_since_round = 0;
    core::DecidedWindow decided;  // since the previous fence contribution
    std::uint64_t regional_msgs = 0;
    std::uint64_t remote_msgs = 0;

    // --- overload protection (--flow=bounded), all owner-thread-only ------
    flow::WorkerThrottle throttle;
    bool red_announced = false;  // one forced announce per round
    std::uint64_t forced_rounds = 0;  // rounds this worker's red announce opened

    // --- GVT trigger-policy clamp (CA-GVT / epoch tiers), owner-thread-only.
    // Composes with the flow clamp by std::min in the worker loop.
    cons::Clamp policy_clamp;
    std::uint64_t gvt_throttle_engagements = 0;
  };

  void worker_main(int w);
  void agent_main(int node);
  /// Route a kernel outcome's off-thread events: same-node destinations go
  /// straight to the destination inbox, remote ones to the node outbox
  /// (except kEverywhere). Bumps in_flight_ BEFORE each push.
  void route_externals(Worker& self, int src_node, const std::vector<pdes::Event>& events);
  /// Deposit everything in the worker's inbox. in_flight_ is decremented
  /// only after a message's deposit completed AND the externals it caused
  /// were counted, so the counter can never dip to zero early.
  void drain_inbox(Worker& self, int src_node);
  /// Forward a node outbox to destination inboxes (single drainer per box:
  /// the agent thread, or the combined-duty worker). Leaves in_flight_
  /// untouched — forwarded messages are still in flight.
  void forward_outbox(int node, std::vector<pdes::Event>& scratch);
  /// Per-GvtKind round trigger, evaluated once per worker loop iteration.
  void maybe_announce(Worker& self, int w);

  bool uses_outbox() const { return cfg_.mpi != core::MpiPlacement::kEverywhere; }

  core::SimulationConfig cfg_;
  const pdes::Model& model_;
  pdes::LpMap map_;
  std::atomic<std::int64_t> in_flight_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<MpscQueue<pdes::Event>>> outboxes_;  // one per node
  std::unique_ptr<GvtFence> fence_;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace cagvt::exec
