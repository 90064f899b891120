// Asynchronous Mattern GVT — the paper's Algorithm 2, adapted (as the
// paper does) to a two-level cluster of many-core nodes:
//
//  * Message colouring: every off-thread event message carries its
//    sender's colour, and colours ALTERNATE from round to round (Mattern's
//    repeated-cut scheme). Each colour keeps a per-node cumulative counter
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
// The round lifecycle around this cut protocol (recovery/migration plan,
// fence step, tier decision, close) is GvtAlgorithm's. CA-GVT (Algorithm 3)
// derives from this class: it switches on the tiered policy, whose kSync
// tier runs the conditional barriers below, and charges its efficiency
// bookkeeping through contribute_overhead.
#pragma once

#include "core/gvt.hpp"
#include "core/node_runtime.hpp"

namespace cagvt::core {

class MatternGvt : public GvtAlgorithm {
 public:
  explicit MatternGvt(NodeRuntime& node)
      : GvtAlgorithm(node),
        cm_mutex_(node.engine(), node.cfg().cluster.lock_acquire,
                  node.cfg().cluster.lock_handoff) {}

  void on_send(WorkerCtx& worker, pdes::Event& event) override {
    event.color = worker.gvt.color;
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
        event.color == cur_color_ && event.recv_ts < worker.gvt.min_red)
      worker.gvt.min_red = event.recv_ts;
  }

  void on_recv(WorkerCtx& worker, const pdes::Event& event) override {
    (void)worker;
    --counter_[idx(event.color)];
  }

  metasim::Process worker_tick(WorkerCtx& worker) override;
  metasim::Process agent_tick(WorkerCtx* self) override;
  bool tick_pending(const WorkerCtx& worker, int ahead) const override;
  bool agent_pending() const override;

  void on_token(const MatternToken& token) override {
    CAGVT_CHECK_MSG(!have_token_, "two GVT control messages at one node");
    held_ = token;
    have_token_ = true;
  }

  bool worker_done(const WorkerCtx& worker) const override {
    return phase_ == Phase::kIdle || worker.gvt.adopted;
  }

  /// During a CA-GVT synchronous round, joined workers pause event
  /// processing until they have adopted — the round then behaves like a
  /// Barrier GVT round (full message flush, aligned resume). (`adopted`
  /// is cleared when a worker joins and set at broadcast, so it is the
  /// "in the active round" marker now that colours persist across rounds.)
  bool worker_held(const WorkerCtx& worker) const override {
    return sync_ && !worker.gvt.adopted && worker.gvt.color == cur_color_;
  }
  bool agent_done() const override { return phase_ == Phase::kIdle; }

  /// Window-mode conservative execution: every round runs with the full
  /// synchronous barrier set, draining all in-flight messages, so the
  /// reduced GVT is safe to advance the window against.
  void set_always_sync() override { always_sync_ = true; }

  // Introspection (tests, experiment reports).
  double last_gvt() const { return gvt_value_; }
  std::uint64_t rounds_started() const { return round_; }

 protected:
  enum class Phase : std::uint8_t {
    kIdle,       // between rounds, all threads carry the last round's colour
    kRed,        // threads flipping colour / background old-colour counting
    kCollect,    // counting done; threads contribute LVT & min_red
    kBroadcast,  // GVT known; threads adopt
  };

  /// CA-GVT: extra per-thread cost of the round's efficiency bookkeeping.
  virtual metasim::SimTime contribute_overhead() const { return 0; }

  Phase phase_ = Phase::kIdle;

 private:
  void begin_round();
  void finish_round();
  void restart_cut_accounting() override {
    counter_[0] = 0;
    counter_[1] = 0;
  }
  void fold_node_into(MatternToken& token);
  void apply_broadcast(const MatternToken& token);
  metasim::Process complete_collect(MatternToken token);  // at rank 0
  metasim::Process send_token(MatternToken token);

  static int idx(pdes::Color c) { return static_cast<int>(c); }
  static pdes::Color flip(pdes::Color c) {
    return c == pdes::Color::kWhite ? pdes::Color::kRed : pdes::Color::kWhite;
  }

  // Per-node shared control structure (the paper's node-level CM), guarded
  // by a contended lock like the real shared-memory structure would be.
  metasim::Mutex cm_mutex_;
  // Cumulative (sent - received) per message colour. The colour a round
  // flips threads TO alternates round to round; the counting phase drains
  // the opposite (previous) colour.
  std::int64_t counter_[2] = {0, 0};
  pdes::Color cur_color_ = pdes::Color::kWhite;
  int red_count_ = 0;
  bool counting_done_ = false;
  double node_min_lvt_ = pdes::kVtInfinity;
  double node_min_red_ = pdes::kVtInfinity;
  int contributions_ = 0;
  bool collect_forwarded_ = false;
  int adopted_count_ = 0;

  double gvt_value_ = 0;
  bool always_sync_ = false;  // window-mode: every round synchronous
  /// Which of a synchronous round's three barriers the dedicated MPI
  /// thread has joined (combined placement joins inline as a worker).
  int agent_stage_ = 0;

  bool have_token_ = false;
  MatternToken held_;
};

}  // namespace cagvt::core
