// ThreadKernel: the Time Warp engine state of one worker thread.
//
// Owns a set of LPs (initially the LpMap's contiguous block; LPs can be
// extracted/installed at GVT fences by the migration subsystem), their
// pending event set, processed-event histories (with pre-state checkpoints
// and generated-event logs), and the rollback machinery. The kernel is *purely logical*: it is synchronous,
// engine-agnostic code with no timing — the core layer's worker coroutines
// drive it and charge the simulated-time costs its outcome reports
// describe. That split keeps all causality logic unit-testable without the
// metasim substrate.
//
// Protocol with the transport layer:
//  * deposit()      — a message (positive or anti) arrived for one of my
//                     LPs. May trigger straggler/secondary rollbacks.
//  * process_next() — execute the lowest-timestamped pending event.
//  * Both return an Outcome listing (a) events that must be routed off this
//    thread, and (b) the work performed, so the caller can charge costs.
//    Events whose destination LP lives on this same kernel are resolved
//    internally (the paper's zero-transport "local" messages).
//  * fossil_collect() frees history older than GVT and counts commits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdes/event.hpp"
#include "pdes/mapping.hpp"
#include "pdes/model.hpp"
#include "pdes/pending_set.hpp"
#include "pdes/stats.hpp"

namespace cagvt::pdes {

struct KernelConfig {
  VirtualTime end_vt = 100.0;
  std::uint64_t seed = 1;
  /// LPs can migrate between kernels at GVT fences. A fence splits a
  /// sender's FIFO stream to a migrated LP across two paths (the old-owner
  /// forwarding detour and the direct route to the new owner), so the
  /// kernel must tolerate duplicate positives and antis that overtook
  /// their positive — orderings the strict FIFO CHECKs reject otherwise.
  bool dynamic_placement = false;
  /// Overload relief (`--flow=bounded`) may extract a pending event and
  /// return it to its sender, to be re-delivered later. An anti-message can
  /// then reach this kernel before its positive comes back — a FIFO-order
  /// violation the strict transport CHECKs reject otherwise; with this flag
  /// the anti is stashed early and annihilates on re-delivery.
  bool cancelback = false;
};

/// Result of one deposit() or process_next() call.
struct Outcome {
  bool processed = false;       // process_next executed a handler
  double cost_units = 0;        // EPG units consumed by the handler
  int rolled_back = 0;          // handler executions undone (all cascades)
  int antimessages = 0;         // external anti-messages emitted
  bool was_straggler = false;
  bool annihilated = false;     // an anti met its positive
  std::vector<Event> external;  // positives + antis to route off-thread
};

class ThreadKernel {
 private:
  // Declared first so the public Snapshot below can hold them.
  struct ProcessedRecord {
    Event event;
    InlineVec<Event, 2> outputs;
    InlineVec<std::byte, 48> pre_state;
  };

  struct Lp {
    VirtualTime lvt = 0;
    EventKey last_processed{};
    std::vector<std::byte> state;
    std::deque<ProcessedRecord> history;
    /// EPG units executed on this LP since the last drain_lp_work() call;
    /// feeds the load balancer's per-LP heat estimate.
    double window_work = 0;
  };

  /// Owned LPs as (id, LP) pairs sorted by id, so every aggregate walk
  /// (init, fossil collection, state hash, work drain) iterates in
  /// ascending id order.
  using LpTable = std::vector<std::pair<LpId, Lp>>;

  /// Redundant copies of a positive that is already pending or processed
  /// (dynamic placement only — see KernelConfig::dynamic_placement). Each
  /// surplus copy annihilates against the in-flight anti of its pair; the
  /// destination LP travels with the entry on migration.
  struct SurplusPositive {
    LpId lp = -1;
    int count = 0;
  };

 public:
  ThreadKernel(const Model& model, const LpMap& map, int worker, KernelConfig cfg);

  /// Create LP states and self-targeted initial events.
  void init();

  /// A message from the transport arrived for one of my LPs.
  Outcome deposit(const Event& event);

  /// Execute the lowest pending event with recv_ts <= end_vt, if any.
  Outcome process_next();

  /// Like process_next(), but only events with recv_ts <= min(bound, end_vt)
  /// are eligible (inclusive). The conservative executors pass their safety
  /// bound here; everything else about the kernel is unchanged.
  Outcome process_next_bounded(VirtualTime bound);

  /// True when nothing below the end-time bound is pending.
  bool idle() { return !pending_.min_key() || pending_.min_key()->ts > cfg_.end_vt; }

  /// This thread's GVT contribution: the lowest unprocessed timestamp it
  /// knows about (its pending set minimum). In-transit messages are the
  /// GVT algorithm's responsibility.
  VirtualTime local_min_ts() {
    const auto k = pending_.min_key();
    return k ? k->ts : kVtInfinity;
  }

  /// Free history strictly below gvt; returns newly committed event count.
  std::uint64_t fossil_collect(VirtualTime gvt);

  /// Commit everything left (call after GVT has passed end_vt).
  std::uint64_t final_commit() { return fossil_collect(kVtInfinity); }

  /// Deep copy of the full Time Warp state of this kernel, taken at a
  /// quiesced GVT cut (no cascade in progress). Restoring it on a restore
  /// round rewinds the kernel to that cut exactly: LP states + histories,
  /// the pending set (tombstones and all), early anti-messages, committed
  /// stats/fingerprint, and the fossil horizon. RNG cursors need no
  /// snapshot — every handler draw is a CounterRng keyed by event identity,
  /// so re-execution after the rewind reproduces the same randomness.
  /// Restoring last_fossil_gvt makes the kernel's own "below fossil
  /// horizon" CHECKs the proof that recovery never rolls back past the
  /// checkpoint's GVT.
  struct Snapshot {
    LpTable lps;
    PendingSet pending;
    std::unordered_map<std::uint64_t, LpId> early_antis;
    std::unordered_map<std::uint64_t, SurplusPositive> surplus;
    VirtualTime last_fossil_gvt = -kVtInfinity;
    KernelStats stats;
    std::uint64_t committed_fingerprint = 0;
    std::size_t live_history = 0;

    /// Approximate in-memory footprint (for ckpt_write trace records).
    std::int64_t bytes() const;
  };

  Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  /// Everything one LP carries when it migrates to another kernel: its
  /// Time Warp state (LVT, model state, uncommitted history), the pending
  /// events addressed to it, and any early anti-messages waiting for it.
  struct LpPackage {
    LpId lp = -1;
    Lp data;
    std::vector<Event> pending;
    std::vector<std::uint64_t> early_antis;
    std::vector<std::pair<std::uint64_t, int>> surplus;  // uid -> copy count

    /// Approximate serialized size (for migration trace records / costs).
    std::int64_t bytes() const;
  };

  /// Remove `lp` from this kernel and package it for installation
  /// elsewhere. Only valid at a quiesced GVT fence (no cascade pending).
  LpPackage extract_lp(LpId lp);

  /// Adopt an LP packaged by another kernel's extract_lp().
  void install_lp(LpPackage&& pkg);

  /// Per-LP EPG units executed since the previous call (ascending LP id);
  /// resets the windows. The load balancer samples this once per GVT round.
  std::vector<std::pair<LpId, double>> drain_lp_work();

  /// LPs currently owned, ascending.
  std::vector<LpId> owned_lps() const;

  /// True iff this kernel currently hosts `lp`.
  bool owns_lp(LpId lp) const { return owns(lp); }

  /// Attach measurement-only observability: `trace` (may be null) receives
  /// rollback episodes (LP, depth, cause) and fossil collections;
  /// `rollback_depth` sees each episode's depth. Neither affects the
  /// kernel's logic — hooks are single branches when instrumentation is
  /// disabled.
  void set_observability(obs::TraceRecorder* trace, obs::HistogramHandle rollback_depth,
                         int node, int worker_in_node) {
    trace_ = trace;
    rollback_depth_ = rollback_depth;
    obs_node_ = node;
    obs_worker_ = worker_in_node;
  }

  /// Uncommitted history records across all owned LPs. Together with
  /// pending_size() this is the worker's event-pool occupancy — the
  /// quantity memory-bounded optimism (src/flow) budgets.
  std::size_t live_history() const { return live_history_; }

  /// Fold the current event-pool occupancy into stats().pool_peak. Called
  /// once per GVT round at adoption (before fossil collection frees the
  /// round's history), so the peak is visible even with --flow=off at zero
  /// hot-path cost.
  void sample_pool_peak() {
    const std::size_t pool = pending_.size() + live_history_;
    if (pool > stats_.pool_peak) stats_.pool_peak = pool;
  }

  /// Cancelback relief: remove and return up to `max_count` of the
  /// furthest-ahead pending events for which `eligible` is true, so the
  /// caller can hand them back to their senders. The events leave this
  /// kernel entirely; an anti that arrives before the re-delivered
  /// positive takes the early-anti path (KernelConfig::cancelback).
  template <typename Pred>
  std::vector<Event> extract_cancelback(std::size_t max_count, Pred&& eligible) {
    std::vector<Event> out = pending_.extract_top(max_count, std::forward<Pred>(eligible));
    stats_.cancelled_back += out.size();
    return out;
  }

  /// Hook invoked once per rollback episode with (events undone, caused by
  /// an anti-message). The storm detector (src/flow) listens here; the
  /// kernel's logic is unaffected. Null (default) costs one branch.
  using RollbackHook = std::function<void(std::uint64_t depth, bool secondary)>;
  void set_rollback_hook(RollbackHook hook) { rollback_hook_ = std::move(hook); }

  const KernelStats& stats() const { return stats_; }
  /// Order-independent fingerprint of all committed events; equal runs
  /// (any layout, any GVT algorithm, or the sequential reference) must
  /// produce equal fingerprints.
  std::uint64_t committed_fingerprint() const { return committed_fingerprint_; }

  /// Order-independent hash over this kernel's final LP states. After
  /// final_commit() it depends only on the committed event set (events past
  /// end_vt are never executed), so — like committed_fingerprint() — it must
  /// be equal across execution backends, GVT algorithms, and the sequential
  /// reference. The differential oracle tests compare both: the fingerprint
  /// proves the same events committed, the state hash proves they left the
  /// LPs in the same state.
  std::uint64_t state_hash() const;

  int worker() const { return worker_; }
  int lp_count() const { return static_cast<int>(lps_.size()); }

  // --- test introspection -------------------------------------------------
  VirtualTime lp_lvt(LpId lp) const { return lp_ref(lp).lvt; }
  std::size_t lp_history_size(LpId lp) const { return lp_ref(lp).history.size(); }
  std::span<const std::byte> lp_state(LpId lp) const {
    const Lp& l = lp_ref(lp);
    return {l.state.data(), l.state.size()};
  }
  std::size_t pending_size() const { return pending_.size(); }

  /// Fingerprint contribution of one committed event (shared with the
  /// sequential reference simulator).
  static std::uint64_t commit_fingerprint(const Event& e);

  /// Hash contribution of one LP's state block (shared with the sequential
  /// reference simulator so the two sides stay comparable).
  static std::uint64_t lp_state_hash(LpId lp, std::span<const std::byte> state);

 private:
  // Ownership is kernel-local presence, not a map lookup: the OwnerTable
  // and the kernels' LP sets are updated together at migration fences, so
  // the two views never disagree while events are in flight.
  bool owns(LpId lp) const { return slot_of(lp) >= 0; }
  Lp& lp_ref(LpId lp) {
    const int slot = slot_of(lp);
    CAGVT_ASSERT(slot >= 0);
    return lps_[static_cast<std::size_t>(slot)].second;
  }
  const Lp& lp_ref(LpId lp) const {
    const int slot = slot_of(lp);
    CAGVT_ASSERT(slot >= 0);
    return lps_[static_cast<std::size_t>(slot)].second;
  }

  /// First entry of a sorted LP table whose id is not below `lp`.
  template <typename Table>
  static auto lower_bound_lp(Table& table, LpId lp) {
    return std::lower_bound(table.begin(), table.end(), lp,
                            [](const auto& entry, LpId id) { return entry.first < id; });
  }
  /// Position of `lp` in lps_, or -1 if this kernel does not own it. An LP
  /// of the worker's home block is one read of home_slot_; an LP that
  /// migrated in from elsewhere is a binary search over lps_.
  int slot_of(LpId lp) const {
    const auto offset = static_cast<std::size_t>(static_cast<std::int64_t>(lp) - home_first_);
    if (offset < home_slot_.size()) return home_slot_[offset];
    const auto it = lower_bound_lp(lps_, lp);
    return it != lps_.end() && it->first == lp ? static_cast<int>(it - lps_.begin()) : -1;
  }
  /// Rebuild home_slot_ after lps_ changed shape (migration or restore).
  void reindex();

  /// Apply a message destined to one of my LPs; cascades are pushed onto
  /// `queue_` and externals onto out.external.
  void apply(const Event& event, Outcome& out);
  void apply_positive(const Event& event, Outcome& out);
  void apply_anti(const Event& event, Outcome& out);
  /// Undo history of `lp` down to `target`. If `annihilate_target` the
  /// record with key == target is removed without reinsertion (anti-message
  /// cancellation); otherwise records with key > target are undone and a
  /// record matching target exactly is left in place (it is the processed
  /// twin of a duplicate positive — dynamic placement only). Returns
  /// whether a record with key == target was found.
  bool rollback(Lp& lp, EventKey target, bool annihilate_target, Outcome& out);
  /// Remember a redundant positive copy / consume one against an anti.
  void add_surplus(const Event& event);
  bool consume_surplus(std::uint64_t uid);
  void drain_queue(Outcome& out);
  void route_or_queue(const Event& event, Outcome& out);
  /// `secondary`: the episode was caused by an anti-message (trace cause
  /// "anti") rather than a straggler positive ("straggler").
  void note_rollback(LpId lp, int depth, bool secondary);

  const Model& model_;
  LpMap map_;
  int worker_;
  KernelConfig cfg_;
  LpTable lps_;
  /// First LP of this worker's home block in the LpMap; home_slot_[k] is
  /// the lps_ position of LP home_first_ + k, or -1 while it lives
  /// elsewhere. Sized to the block, not to the cluster, so the index costs
  /// O(lps_per_worker) per kernel.
  LpId home_first_;
  std::vector<std::int32_t> home_slot_;
  PendingSet pending_;
  std::vector<Event> queue_;  // same-thread cascade work list
  /// Early anti-messages: uid -> destination LP (the LP id travels with a
  /// migrating LP so pending annihilations follow it).
  std::unordered_map<std::uint64_t, LpId> early_antis_;
  /// Redundant positive copies awaiting their pair's anti (uid-keyed;
  /// dynamic placement only, empty otherwise).
  std::unordered_map<std::uint64_t, SurplusPositive> surplus_;
  VirtualTime last_fossil_gvt_ = -kVtInfinity;
  KernelStats stats_;
  std::uint64_t committed_fingerprint_ = 0;
  std::size_t live_history_ = 0;  // total uncommitted records across LPs

  RollbackHook rollback_hook_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::HistogramHandle rollback_depth_;
  int obs_node_ = -1;
  int obs_worker_ = -1;
};

}  // namespace cagvt::pdes
