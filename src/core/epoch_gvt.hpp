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
// The join/hold/adopt skeleton, the synchronous epoch's barriers and the
// dedicated MPI thread's part in them are GvtAlgorithm's, shared with
// MatternGvt. DESIGN §13 documents the protocol, the tree reduction, and
// why the bounded-window conservative executor is rejected.
#pragma once

#include "core/epoch_ledger.hpp"
#include "core/gvt.hpp"
#include "core/node_runtime.hpp"

namespace cagvt::core {

class EpochGvt final : public GvtAlgorithm {
 public:
  explicit EpochGvt(NodeRuntime& node) : GvtAlgorithm(node, "pre-join", /*pipelined=*/true) {}

  void on_send(WorkerCtx& worker, pdes::Event& event) override {
    // Same minimum rule as Mattern's min_red: kNull/kNullRequest are
    // counted for the drain but never bound the GVT (see epoch_ledger.hpp).
    event.gvt_tag = static_cast<std::uint8_t>(EpochLedger::bucket_of(worker.gvt.round));
    ledger_.record_send(event.gvt_tag, event.recv_ts,
                        event.kind == pdes::MsgKind::kEvent ||
                            event.kind == pdes::MsgKind::kCancelback);
  }

  void on_recv(WorkerCtx& worker, const pdes::Event& event) override {
    (void)worker;
    ledger_.record_recv(event.gvt_tag);
  }

  metasim::Process agent_tick(WorkerCtx* self) override;

  void on_token(const MatternToken& token) override {
    (void)token;
    CAGVT_CHECK_MSG(false, "epoch GVT circulates no ring tokens");
  }

 private:
  // Epochs are the algorithm's rounds: round_ is the current epoch number
  // (the first epoch is 1), and the phases run kJoin (workers joining,
  // contributing at the join) -> kReduce (all local workers joined; the
  // agent drives tree waves) -> kBroadcast (workers adopt, then the next
  // epoch).
  void begin_cut() override;
  /// Unlike Mattern's white->red flip there is no separate Collect visit
  /// later — the join IS the contribution, which is what lets the epoch
  /// reduction start the moment the last local worker has joined.
  void on_join(WorkerCtx& worker) override;
  /// Every rank runs this identically on the epoch's final reduced wave.
  void complete_epoch(const net::TreeVal& total);
  /// A restore also rewinds GVT: the regression check restarts from zero.
  void restart_cut_accounting() override {
    ledger_.clear();
    gvt_value_ = 0;
  }

  EpochLedger ledger_;
  /// Overhead measurements ride only the epoch's FIRST wave (retry waves
  /// re-contribute the stable minima and refreshed balances but must not
  /// double-count the committed/processed window).
  bool first_wave_ = true;
};

}  // namespace cagvt::core
