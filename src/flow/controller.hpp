// Overload-protection controller: the cluster-wide state of `--flow=bounded`.
//
// Three cooperating mechanisms make the optimistic backends degrade
// gracefully instead of melting down, none of which can change simulation
// outcomes (they only move unprocessed events and delay execution):
//
//  * memory-bounded optimism — every worker's event pool (pending events +
//    uncommitted history records) is accounted against a budget and
//    classified into pressure tiers (core::FlowPressurePolicy). Red
//    pressure triggers cancelback relief: the worker returns its
//    furthest-ahead pending events to the workers that sent them
//    (MsgKind::kCancelback over the normal transport, routed by src_lp),
//    and a fossil-collection GVT round is forced through the algorithms'
//    begin-round triggers so over-budget history drains too. Returned
//    events are *parked* here at their source until the destination's
//    pressure drops (or a bounded hold expires), then re-sent as ordinary
//    events. Parked minima are folded into the GVT reduction, so a round
//    can never overrun a parked event — which is exactly why parking is
//    outcome-invariant.
//
//  * rollback-storm detection and adaptive optimism throttling — one
//    flow::WorkerThrottle per worker (flow/worker_throttle.hpp) folds the
//    kernel's rollback episodes per GVT round into the echo /
//    deepening-cascade signatures and, on storm or yellow pressure, clamps
//    the worker's execution horizon to GVT + clamp (the Korniss-Novotny
//    suppression), sliding forward with each round and self-releasing
//    after consecutive calm rounds.
//
// Threading: like cons::Controller, one instance serves the whole cluster
// on the coroutine backend's single metasim engine thread — no locking.
// The real-thread backend does not use this class: each of its workers
// owns the same WorkerThrottle and signals red pressure through the GVT
// fence (exec/gvt_fence.hpp); cancelback needs simulated transport, so
// threads-backend relief is forced rounds + clamping only.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/round_hook.hpp"
#include "fault/fault_engine.hpp"
#include "flow/flow_config.hpp"
#include "flow/worker_throttle.hpp"
#include "obs/trace.hpp"
#include "pdes/event.hpp"

namespace cagvt::flow {

class Controller final : public core::RoundHook {
 public:
  /// `workers` is the cluster-wide worker count; `faults` (may be null)
  /// answers `mem:` squeeze queries; `trace` may be null (flow records are
  /// cluster-scoped, node = -1).
  Controller(const FlowConfig& cfg, int workers, const fault::FaultEngine* faults,
             obs::TraceRecorder* trace);

  // --- round hook -----------------------------------------------------------
  /// Feed the kernel's rollback episodes (depth + straggler/anti cause) to
  /// the worker's storm detector.
  void attach(core::WorkerCtx& worker) override;

  /// Largest recv_ts the worker may execute (kVtInfinity when unthrottled).
  bool in_worker_loop() const override { return true; }
  pdes::VirtualTime exec_bound(int worker) const override {
    return throttles_[static_cast<std::size_t>(worker)].bound();
  }

  /// Per-batch accounting: classify the worker's event-pool occupancy
  /// against the effective budget, update its tier, and on red request a
  /// forced GVT round and return enough of its furthest-ahead pending
  /// events to their senders (as cancelbacks) to reach the release
  /// watermark. Events it sent to itself can't ride the transport back —
  /// they stay and drain through the throttled execution instead.
  void batch_tick(core::WorkerCtx& worker, int processed,
                  std::vector<pdes::Event>& out) override;

  /// Pop the worker's parked events that are eligible for re-delivery
  /// (destination back below the release threshold, destination unknown
  /// after a restore, or held for kMaxHoldRounds — the bounded hold is what
  /// guarantees GVT progress and termination). Rate-limited per call.
  void batch_release(core::WorkerCtx& worker, std::vector<pdes::Event>& out) override;

  /// Exact: true iff batch_tick(worker, 0, ...) or batch_release would
  /// change anything (flow credits nothing on a skipped pass).
  bool loop_pending(const core::WorkerCtx& worker) const override;

  /// True when red pressure wants a fossil-collection round forced through
  /// the GVT algorithm's begin-round trigger.
  bool round_requested() const override { return round_requested_; }

  /// A GVT round began (forced or not). A pending request stays visible —
  /// every node's GVT instance begins its own round and all must see the
  /// trigger — and clears when the round is adopted; no new request can be
  /// raised while one is in flight.
  void open_round(std::uint64_t round, core::RoundOpen& open) override;

  /// The worker adopted `round` with `gvt`: step its throttle (storm
  /// detector fold, clamp hysteresis) and advance the parked-hold clock.
  void adopt(std::uint64_t round, core::WorkerCtx& worker, double gvt) override;

  /// Parked events are each event's ONLY copy, so they are checkpoint
  /// state. Reinstalled ones release on the hold timer (destination
  /// pressure is stale after a rewind).
  void save_state(int worker, core::WorkerSnapshot& snap) const override;
  void load_state(int worker, const core::WorkerSnapshot& snap) override;

  /// Cluster restore: reset the throttles and round requests.
  /// Parked sets are NOT touched — load_state() reinstalls them.
  void on_restore() override;

  /// A kCancelback arrived back at its source worker: park the event until
  /// its destination's pressure drains or the hold expires. If the source
  /// LP has since migrated the ledger still works — parked minima bound
  /// GVT at the parking worker, and release re-routes to the current owner.
  bool consume(core::WorkerCtx& worker, const pdes::Event& event) override;

  /// An outgoing anti-message whose positive twin is parked right here
  /// annihilates in place (the pair never existed for the destination).
  bool absorb_anti(int worker, const pdes::Event& anti) override;

  /// Minimum parked recv_ts at `worker` (kVtInfinity when none).
  pdes::VirtualTime min_ts(int worker) const override;

  void report(core::SimulationResult& result, obs::MetricsRegistry& metrics) const override;

 private:
  struct Parked {
    pdes::Event event;      // kind/anti reset to a plain positive
    int dest_worker = -1;   // -1 = unknown (post-restore): release on hold
    std::int64_t round = 0; // last_round_ when parked
  };

  static constexpr std::int64_t kMaxHoldRounds = 2;
  static constexpr std::size_t kReleaseBatch = 64;

  /// The worker's event pool: pending events + uncommitted history.
  static std::uint64_t pool_of(const core::WorkerCtx& worker);
  /// The worker's effective budget (the configured one, capped by a `mem:`
  /// squeeze).
  std::uint64_t budget(int worker) const;
  /// May batch_release re-deliver `p` (hold expired, or its destination is
  /// green or unknown)?
  bool releasable(const Parked& p) const;

  FlowConfig cfg_;
  const fault::FaultEngine* faults_;

  std::vector<WorkerThrottle> throttles_;
  std::vector<std::deque<Parked>> parked_;

  std::int64_t last_round_ = -1;
  bool round_requested_ = false;
  bool round_inflight_ = false;

  std::uint64_t cancelbacks_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t absorbed_antis_ = 0;
  std::uint64_t forced_rounds_ = 0;
  std::uint64_t red_ticks_ = 0;
  std::uint64_t peak_pool_ = 0;

  obs::TraceRecorder* trace_;
};

}  // namespace cagvt::flow
