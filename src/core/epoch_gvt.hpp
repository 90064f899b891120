// Epoch-pipelined GVT — the fourth algorithm (--gvt=epoch), modelled on
// devastator's continuously running GVT: instead of discrete rounds opened
// by an interval clock, epochs chain back to back, and the collection of
// epoch e+1's transients overlaps epoch e's reduction.
//
// The three-phase contract per epoch e:
//
//  1. BEGIN (kCollect): every worker joins the epoch at its next loop
//     iteration, contributing its LVT and switching its send tag to
//     e mod 3 (workers do NOT block — the join is one lock acquisition).
//     Messages tagged (e-1) mod 3 — sent by workers not yet joined, or
//     still in flight from before the epoch — are exactly what this
//     epoch's reduction drains; new sends already accumulate against
//     epoch e+1. That is the pipeline: there is no white/red quiescent
//     gap between rounds.
//  2. ADVANCE (kReduce): once all local workers joined, the node's MPI
//     agent repeatedly contributes (min join-LVT, min send-timestamp of
//     the closing bucket, the three cumulative bucket balances) to a
//     tree all-reduce wave (net/tree_reduce.hpp) until the closing
//     bucket's global balance reaches zero — every cut-crossing message
//     is accounted for. The broadcast-down of the final wave hands EVERY
//     rank the identical reduced value, so each rank computes the same
//     GVT, efficiency and next-epoch sync decision locally: no separate
//     broadcast token circulates.
//  3. END (kBroadcast): workers adopt GVT = min(join LVTs, closing-bucket
//     send minimum) and fossil-collect; when the last local worker has
//     adopted, the node immediately begins epoch e+1.
//
// Soundness is Mattern's cut argument with three alternating "colours"
// (see core/epoch_ledger.hpp for why three buckets suffice and when a
// bucket recycles). CA-style adaptivity composes through the shared
// core/gvt_policy.hpp triggers, throttle-first: an epoch whose smoothed
// efficiency or MPI queue-peak EWMA trips CaTriggerPolicy first only
// clamps execution to GVT + gvt_throttle_clamp (SyncTier::kThrottle) while
// epochs keep pipelining asynchronously — the sync tax of a quiesced epoch
// is paid only if the signal stays tripped for gvt_escalate_rounds
// consecutive epochs (SyncTier::kSync: join barrier, held workers with
// deferred reads, post-fossil barrier, all three buckets drained), which
// is also how checkpoint / restore / migration epochs quiesce — identical
// to MatternGvt's synchronous rounds. Hysteresis releases the clamp only
// after CaTriggerPolicy::kCalmRelease calm epochs above threshold + margin.
//
// DESIGN §13 documents the protocol, the tree reduction, and why the
// bounded-window conservative executor (set_always_sync) is rejected.
#pragma once

#include "core/epoch_ledger.hpp"
#include "core/gvt.hpp"
#include "core/node_runtime.hpp"

namespace cagvt::core {

class EpochGvt : public GvtAlgorithm {
 public:
  explicit EpochGvt(NodeRuntime& node)
      : GvtAlgorithm(node),
        cm_mutex_(node.engine(), node.cfg().cluster.lock_acquire,
                  node.cfg().cluster.lock_handoff) {}

  void on_send(WorkerCtx& worker, pdes::Event& event) override {
    // Same minimum rule as Mattern's min_red: kNull/kNullRequest are
    // counted for the drain but never bound the GVT (see epoch_ledger.hpp).
    event.gvt_tag =
        static_cast<std::uint8_t>(EpochLedger::bucket_of(worker.gvt.epoch));
    ledger_.record_send(event.gvt_tag, event.recv_ts,
                        event.kind == pdes::MsgKind::kEvent ||
                            event.kind == pdes::MsgKind::kCancelback);
  }

  void on_recv(WorkerCtx& worker, const pdes::Event& event) override {
    (void)worker;
    ledger_.record_recv(event.gvt_tag);
  }

  metasim::Process worker_tick(WorkerCtx& worker) override;
  metasim::Process agent_tick(WorkerCtx* self) override;
  bool tick_pending(const WorkerCtx& worker, int ahead) const override;
  bool agent_pending() const override;

  void on_token(const MatternToken& token) override {
    (void)token;
    CAGVT_CHECK_MSG(false, "epoch GVT circulates no ring tokens");
  }

  bool worker_done(const WorkerCtx& worker) const override {
    return phase_ == Phase::kIdle || worker.gvt.adopted;
  }

  /// Synchronous epochs hold joined workers exactly like CA-GVT's
  /// synchronous rounds (deferred reads keep the drain progressing).
  bool worker_held(const WorkerCtx& worker) const override {
    return sync_ && !worker.gvt.adopted && worker.gvt.epoch == round_;
  }
  bool agent_done() const override { return phase_ == Phase::kIdle; }

  /// The bounded-window executor needs every round fully synchronous and
  /// drained before it advances — the epoch pipeline has no such round to
  /// offer (a reduction is always in flight). Config validation rejects
  /// --gvt=epoch with --sync=window before a runtime exists; this is the
  /// backstop.
  void set_always_sync() override {
    CAGVT_CHECK_MSG(false,
                    "epoch GVT cannot run always-synchronous: the bounded "
                    "window requires barrier, mattern, or ca-gvt");
  }

  // Introspection (tests, experiment reports).
  double last_gvt() const { return gvt_value_; }
  std::uint64_t epochs_started() const { return round_; }
  const EpochLedger& ledger() const { return ledger_; }

 private:
  enum class Phase : std::uint8_t {
    kIdle,       // only before the first epoch and after the run stops
    kCollect,    // workers joining the epoch (contributions at join)
    kReduce,     // all local workers joined; agent drives tree waves
    kBroadcast,  // reduction complete; workers adopt, then the next epoch
  };

  // Epochs are the algorithm's rounds: round_ is the current epoch number
  // (the first epoch is 1).
  void begin_epoch();
  void finish_epoch();  // chains straight into begin_epoch unless stopped
  /// Every rank runs this identically on the epoch's final reduced wave.
  void complete_epoch(const net::TreeVal& total);
  /// A restore also rewinds GVT: the regression check restarts from zero.
  void restart_cut_accounting() override {
    ledger_.clear();
    gvt_value_ = 0;
  }

  // Per-node shared control structure, guarded by a contended lock like
  // the real shared-memory structure would be (mirrors MatternGvt).
  metasim::Mutex cm_mutex_;
  EpochLedger ledger_;

  Phase phase_ = Phase::kIdle;

  int joined_count_ = 0;
  int adopted_count_ = 0;
  double node_min_lvt_ = pdes::kVtInfinity;
  /// Overhead measurements ride only the epoch's FIRST wave (retry waves
  /// re-contribute the stable minima and refreshed balances but must not
  /// double-count the committed/processed window).
  bool first_wave_ = true;

  double gvt_value_ = 0;

  /// Latest epoch whose pre-join / post-fossil barrier the dedicated MPI
  /// thread has joined (recorded before the await — see agent_tick).
  std::uint64_t agent_prejoin_epoch_ = 0;
  std::uint64_t agent_postfossil_epoch_ = 0;
};

}  // namespace cagvt::core
