// Asynchronous Mattern GVT — the paper's Algorithm 2, adapted (as the
// paper does) to a two-level cluster of many-core nodes:
//
//  * Message colouring: every off-thread event message carries its
//    sender's colour, and colours ALTERNATE from round to round (Mattern's
//    repeated-cut scheme): a worker's colour is the parity of the round it
//    joined. Each colour keeps a per-node cumulative counter
//    (sent - received); a round drains the PREVIOUS round's colour to zero
//    before collecting, while messages of the current colour contribute
//    their receive timestamp to the sender's min_red. Alternation is what
//    makes repeated rounds sound: a current-colour message still in flight
//    when this round's broadcast lands (possible — senders keep simulating
//    after contributing) is exactly what the NEXT round's counting phase
//    waits for. With a single colour pair that never alternated, such a
//    message would be invisible to every later round and GVT could overrun
//    it — a hole that real perturbed timing (stragglers) does expose.
//  * A GVT round flips every thread to the round's colour
//    (interval-triggered; threads do NOT block — they keep simulating
//    throughout).
//  * Counting across nodes runs as a background MPI reduction on the
//    MPI agents (the paper's accumulateMsgCountersAcrossNodes): the agents
//    repeatedly all-reduce the previous colour's cumulative counters until
//    the global sum reaches zero — i.e. every message of the old colour
//    has been received.
//  * Then a control message circulates the node ring (circulateGlobalCM):
//    a Collect pass gathers min LVT / min red (each node folds in its
//    values once all its threads contributed to the node-shared control
//    structure), and a Broadcast pass distributes GVT = min(LVT, min_red).
//  * Threads adopt the GVT and fossil-collect; they keep the round's
//    colour until they join the next round.
//
// Controlled Asynchronous GVT — the paper's Algorithm 3 and primary
// contribution (--gvt=ca-gvt) — is this class under the tiered policy.
// CA-GVT is Mattern's algorithm plus three *conditional* synchronization
// points, enabled for a round whenever the globally measured simulation
// efficiency (committed / processed events, gathered by the control
// message) fell below a threshold (paper: 80%) in the previous round:
//
//   1. barrier() before the white->red transition      (Alg. 3 line 4)
//   2. barrier() before contributing LVT/min_red       (Alg. 3 line 14)
//   3. barrier() after fossil collection               (Alg. 3 line 30)
//
// With high efficiency it behaves like pure Mattern (asynchronous, no
// stalls); with low efficiency the barriers align thread progress like
// Barrier GVT, cutting rollbacks. This reproduction interposes a cheaper
// first response before the barriers: the first tripped rounds only clamp
// execution to GVT + gvt_throttle_clamp (SyncTier::kThrottle) while rounds
// stay asynchronous, and the barrier set engages only after the smoothed
// signal stays bad for gvt_escalate_rounds consecutive rounds (see
// CaTriggerPolicy in core/gvt_policy.hpp and DESIGN §13). The efficiency
// bookkeeping itself costs a little extra per round (the paper measures
// GVT rounds ~8% costlier than plain Mattern) — modelled by
// ClusterSpec::ca_round_overhead, charged at each Collect contribution.
//
// The round lifecycle around this cut protocol (recovery/migration plan,
// the join/hold/adopt skeleton, the synchronous round's barriers and the
// dedicated MPI thread's part in them, tier decision, close) is
// GvtAlgorithm's; checkpoint/restore rounds reuse the barriers under every
// policy.
#pragma once

#include "core/gvt.hpp"
#include "core/node_runtime.hpp"

namespace cagvt::core {

class MatternGvt final : public GvtAlgorithm {
 public:
  explicit MatternGvt(NodeRuntime& node)
      : GvtAlgorithm(node, "pre-red"),
        collect_overhead_(node.cfg().gvt == GvtKind::kControlledAsync
                              ? node.cfg().cluster.ca_round_overhead
                              : 0) {}

  void on_send(WorkerCtx& worker, pdes::Event& event) override {
    event.color = color_of(worker.gvt.round);
    ++counter_[idx(event.color)];
    // Current-colour sends feed min_red; old-colour sends (a thread that
    // has not joined the round yet) are covered by the counting drain.
    // Conservative control messages (kNull/kNullRequest) are counted for
    // the drain but excluded from the minimum: they never touch LP state —
    // a null merely unlocks pending events, which min_lvt already accounts
    // for — and a demand request propagated upstream carries X - k*la,
    // which may legitimately sit below the adopted GVT. Cancelbacks ARE
    // included: they carry a live simulation event back to its sender.
    if ((event.kind == pdes::MsgKind::kEvent ||
         event.kind == pdes::MsgKind::kCancelback) &&
        joined(worker.gvt) && event.recv_ts < worker.gvt.min_red)
      worker.gvt.min_red = event.recv_ts;
  }

  void on_recv(WorkerCtx& worker, const pdes::Event& event) override {
    (void)worker;
    --counter_[idx(event.color)];
  }

  metasim::Process agent_tick(WorkerCtx* self) override;
  bool agent_pending() const override;

  void on_token(const MatternToken& token) override;

 private:
  void begin_cut() override {
    node_min_red_ = pdes::kVtInfinity;
    contributions_ = 0;
    collect_forwarded_ = false;
  }
  metasim::Process collect(WorkerCtx& worker) override;
  void restart_cut_accounting() override {
    counter_[0] = 0;
    counter_[1] = 0;
  }
  void fold_node_into(MatternToken& token);
  void apply_broadcast(const MatternToken& token);
  metasim::Process complete_collect(MatternToken token);  // at rank 0
  metasim::Process send_token(MatternToken token);

  static int idx(pdes::Color c) { return static_cast<int>(c); }
  /// Round 0 (before the first) is white, and colours alternate from there.
  static pdes::Color color_of(std::uint64_t round) {
    return round % 2 == 0 ? pdes::Color::kWhite : pdes::Color::kRed;
  }

  /// CA-GVT: extra per-thread cost of the round's efficiency bookkeeping.
  const metasim::SimTime collect_overhead_;
  // Cumulative (sent - received) per message colour. The colour a round
  // flips threads TO alternates round to round; the counting phase drains
  // the opposite (previous) colour.
  std::int64_t counter_[2] = {0, 0};
  double node_min_red_ = pdes::kVtInfinity;
  int contributions_ = 0;
  bool collect_forwarded_ = false;

  bool have_token_ = false;
  MatternToken held_;
};

}  // namespace cagvt::core
