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
//  * rollback-storm detection — one StormDetector per worker consumes the
//    kernel's rollback hook stream (depth + straggler/anti cause) and folds
//    it per GVT round into the echo / deepening-cascade signatures.
//
//  * adaptive optimism throttling — on storm or yellow pressure a worker's
//    execution horizon is clamped to GVT + clamp (the Korniss-Novotny
//    suppression), per worker, sliding forward with each round and
//    self-releasing after consecutive calm rounds (cons::Clamp::step, the
//    hysteresis the thread backend shares).
//
// Threading: like cons::Controller, one instance serves the whole cluster
// on the coroutine backend's single metasim engine thread — no locking.
// The real-thread backend does not use this class: it carries budgets,
// detectors and clamps per worker and signals pressure through the GVT
// fence (exec/gvt_fence.hpp); cancelback needs simulated transport, so
// threads-backend relief is forced rounds + clamping only.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cons/clamp.hpp"
#include "core/gvt_policy.hpp"
#include "fault/fault_engine.hpp"
#include "flow/flow_config.hpp"
#include "flow/storm_detector.hpp"
#include "obs/trace.hpp"
#include "pdes/event.hpp"

namespace cagvt::flow {

class Controller {
 public:
  /// `workers` is the cluster-wide worker count; `faults` (may be null)
  /// answers `mem:` squeeze queries.
  Controller(const FlowConfig& cfg, int workers, const fault::FaultEngine* faults);

  const FlowConfig& config() const { return cfg_; }

  /// `trace` may be null; flow records are cluster-scoped (node = -1).
  void set_observability(obs::TraceRecorder* trace) { trace_ = trace; }

  // --- pressure accounting -------------------------------------------------
  /// Per-batch accounting for `worker`: classify its event-pool occupancy
  /// against the effective budget, update tier state and the cancelback
  /// quota, and request a forced GVT round on red. Returns the tier.
  core::PressureTier on_tick(int worker, std::size_t pending, std::size_t history);

  /// Pending events `worker` should return to their senders now (computed
  /// by the last on_tick; zero below red pressure).
  std::size_t cancelback_quota(int worker) const {
    return quota_[static_cast<std::size_t>(worker)];
  }

  /// Effective budget of `worker` right now: the configured budget, capped
  /// by any active `mem:` squeeze.
  std::int64_t budget(int worker) const;

  core::PressureTier tier(int worker) const { return tier_[static_cast<std::size_t>(worker)]; }

  // --- cancelback ledger ---------------------------------------------------
  /// A kCancelback arrived back at its source `worker`: park the event
  /// until `dest_worker`'s pressure drains or the hold expires. The parked
  /// copy is the event's ONLY copy; its timestamp is folded into the GVT
  /// minimum via parked_min().
  void on_cancelback(int worker, const pdes::Event& event, int dest_worker);

  /// Account one cancelback batch leaving `worker` (trace + stats).
  void note_cancelback(int worker, std::size_t count);

  /// Minimum parked recv_ts at `worker` (kVtInfinity when none).
  pdes::VirtualTime parked_min(int worker) const;

  /// An outgoing anti-message whose positive twin is parked right here
  /// annihilates in place (the pair never existed for the destination).
  /// Returns true when absorbed — the caller must not send the anti.
  bool absorb_anti(int worker, const pdes::Event& anti);

  /// Pop parked events at `worker` that are eligible for re-delivery
  /// (destination back below the release threshold, destination unknown
  /// after a restore, or held for kMaxHoldRounds — the bounded hold is what
  /// guarantees GVT progress and termination). Rate-limited per call.
  void release(int worker, std::vector<pdes::Event>& out);

  // --- storm detection -----------------------------------------------------
  /// Kernel rollback hook for `worker` (one call per episode).
  void note_rollback(int worker, std::uint64_t depth, bool secondary);

  const StormDetector& detector(int worker) const {
    return detectors_[static_cast<std::size_t>(worker)];
  }

  // --- GVT round coupling --------------------------------------------------
  /// True when red pressure wants a fossil-collection round forced through
  /// the GVT algorithm's begin-round trigger.
  bool round_requested() const { return round_requested_; }

  /// A GVT round began (forced or not). A pending request stays visible —
  /// every node's GVT instance begins its own round and all must see the
  /// trigger — and clears when the round is adopted (on_gvt); no new
  /// request can be raised while one is in flight.
  void note_round_begin();

  /// `worker` adopted round `round` with value `gvt`: fold its storm
  /// detector, refresh or release its throttle clamp, and advance the
  /// parked-hold clock.
  void on_gvt(std::int64_t round, int worker, pdes::VirtualTime gvt);

  /// Largest recv_ts `worker` may execute (kVtInfinity when unthrottled).
  pdes::VirtualTime exec_bound(int worker) const {
    return clamps_[static_cast<std::size_t>(worker)].bound();
  }

  // --- recovery ------------------------------------------------------------
  /// Parked events of `worker`, for the GVT-aligned checkpoint.
  std::vector<pdes::Event> parked_events(int worker) const;

  /// Reinstall a checkpointed parked set (destination pressure is stale
  /// after a rewind, so restored events release on the hold timer).
  void restore_parked(int worker, const std::vector<pdes::Event>& parked);

  /// Cluster restore: reset detectors, clamps, tiers and round requests.
  /// Parked sets are NOT touched — restore_parked() reinstalls them.
  void on_restore();

  // --- statistics ----------------------------------------------------------
  std::uint64_t cancelbacks() const { return cancelbacks_; }
  std::uint64_t releases() const { return releases_; }
  std::uint64_t absorbed_antis() const { return absorbed_antis_; }
  std::uint64_t forced_rounds() const { return forced_rounds_; }
  std::uint64_t throttle_engagements() const { return throttle_engagements_; }
  std::uint64_t red_ticks() const { return red_ticks_; }
  std::uint64_t storms() const;
  /// Peak pool occupancy seen by on_tick across all workers (tick-sampled;
  /// finer than the kernels' round-sampled stats.pool_peak).
  std::uint64_t peak_pool() const { return peak_pool_; }
  std::size_t parked_count(int worker) const {
    return parked_[static_cast<std::size_t>(worker)].size();
  }

 private:
  struct Parked {
    pdes::Event event;      // kind/anti reset to a plain positive
    int dest_worker = -1;   // -1 = unknown (post-restore): release on hold
    std::int64_t round = 0; // last_round_ when parked
  };

  static constexpr std::int64_t kMaxHoldRounds = 2;
  static constexpr std::size_t kReleaseBatch = 64;

  FlowConfig cfg_;
  int workers_;
  const fault::FaultEngine* faults_;
  core::FlowPressurePolicy policy_;  // budget field is re-derived per query

  std::vector<core::PressureTier> tier_;
  std::vector<std::size_t> quota_;
  std::vector<StormDetector> detectors_;
  std::vector<cons::Clamp> clamps_;     // throttle clamp, per worker
  std::vector<pdes::VirtualTime> gvt_;  // last adopted GVT, per worker
  std::vector<std::deque<Parked>> parked_;

  std::int64_t last_round_ = -1;
  bool round_requested_ = false;
  bool round_inflight_ = false;

  std::uint64_t cancelbacks_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t absorbed_antis_ = 0;
  std::uint64_t forced_rounds_ = 0;
  std::uint64_t throttle_engagements_ = 0;
  std::uint64_t red_ticks_ = 0;
  std::uint64_t peak_pool_ = 0;

  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace cagvt::flow
