// GVT algorithm strategy interface.
//
// One instance per node. Instances coordinate across nodes exclusively via
// virtual-MPI traffic (tokens, collectives) — there is no shared-state
// shortcut, so the algorithms pay the same communication costs their real
// counterparts would.
//
// Call sites (driven by NodeRuntime):
//  * on_send/on_recv  — synchronous hooks on every off-thread event
//                       message at the moment a worker sends/reads it
//                       (message colouring + counting).
//  * worker_tick      — once per worker loop iteration in which
//                       tick_pending holds (the guard of the pass's GVT
//                       tick step, NodeRuntime::Step); runs rounds, may
//                       block the worker (barriers).
//  * agent_tick       — once per MPI-agent progress iteration in which
//                       agent_pending holds. The agent is the dedicated
//                       MPI thread when one exists, otherwise worker 0
//                       (which then performs agent duties inside its own
//                       worker_tick).
//  * on_token         — a Mattern-style control message arrived.
#pragma once

#include <memory>

#include "cons/clamp.hpp"
#include "core/config.hpp"
#include "core/gvt_policy.hpp"
#include "core/messages.hpp"
#include "core/round_hook.hpp"
#include "metasim/process.hpp"
#include "metasim/sync.hpp"
#include "obs/metrics.hpp"
#include "pdes/event.hpp"

namespace cagvt::core {

class NodeRuntime;
struct WorkerCtx;

/// Per-worker GVT bookkeeping shared by all algorithms.
struct GvtThreadState {
  std::int64_t msgs_sent = 0;  // cumulative off-thread event messages
  std::int64_t msgs_recv = 0;
  int iters_since_round = 0;
  double min_red = pdes::kVtInfinity;  // min recv_ts of current-round sends
  /// The round this worker has joined (0 before the first). Its sends carry
  /// the round's parity as Mattern's colour and its residue mod 3 as the
  /// epoch GVT's tag bucket.
  std::uint64_t round = 0;
  bool contributed = false;  // this round's contribution is in
  /// This round's GVT is adopted; true for round 0, which every worker starts
  /// in. Barrier GVT never joins or adopts through these flags.
  bool adopted = true;
  /// Decided-event window since the previous contribution, for the
  /// windowed efficiency estimate CA-GVT adapts on.
  DecidedWindow decided;
};

struct GvtAlgoStats {
  std::uint64_t rounds = 0;       // GVT rounds completed at this node
  std::uint64_t sync_rounds = 0;  // rounds executed with added synchrony (CA)
  /// Rounds that ran asynchronously but under the policy's execution clamp
  /// (SyncTier::kThrottle — the deferred-escalation middle tier).
  std::uint64_t throttle_rounds = 0;
  /// Times the policy clamp engaged from free-running (∞ -> finite).
  std::uint64_t throttle_engagements = 0;
  metasim::SimTime round_time_total = 0;  // wall time spanned by rounds
};

class GvtAlgorithm {
 public:
  /// The tier policy comes from the node's configuration
  /// (core::tier_policy_from): the adaptive kinds run the tiered trigger
  /// policy of core/gvt_policy.hpp, the others always decide kAsync. The
  /// asynchronous algorithms name their round's join barrier (`join_fence`)
  /// and say whether each round opens the next as it closes (`pipelined`,
  /// the epoch GVT).
  explicit GvtAlgorithm(NodeRuntime& node, const char* join_fence = nullptr,
                        bool pipelined = false);
  virtual ~GvtAlgorithm() = default;
  GvtAlgorithm(const GvtAlgorithm&) = delete;
  GvtAlgorithm& operator=(const GvtAlgorithm&) = delete;

  virtual void on_send(WorkerCtx& worker, pdes::Event& event) = 0;
  virtual void on_recv(WorkerCtx& worker, const pdes::Event& event) = 0;
  /// The asynchronous round (join, held read, Collect, adoption); Barrier
  /// GVT runs its whole synchronous round here instead.
  virtual metasim::Process worker_tick(WorkerCtx& worker);
  /// `self` is the worker carrying MPI duty when the agent runs inline
  /// (combined/everywhere placements); nullptr on a dedicated MPI thread.
  virtual metasim::Process agent_tick(WorkerCtx* self) = 0;

  /// Would worker_tick do anything for `worker` once `ahead` more loop
  /// iterations are counted? Each clause mirrors a branch of worker_tick.
  /// It is the guard of the worker pass's GVT-tick step
  /// (NodeRuntime::Step): the loop asks with ahead 0 after counting the
  /// pass, the idle-poll predicate with ahead 1 before, so both see the
  /// same count, and a wrong `false` changes every run rather than only the
  /// skipped passes.
  virtual bool tick_pending(const WorkerCtx& worker, int ahead) const;
  /// Idle polls: the worker sleeps, its passes credited. In how many
  /// passes does its interval clock make tick_pending hold (0: the clock
  /// is not what the guard waits on)?
  std::uint64_t passes_to_round(const WorkerCtx& worker) const;

  /// The same for agent_tick, on either kind of agent: a barrier the
  /// dedicated MPI thread owes the round, or the drain of the round's
  /// previous colour or closing bucket.
  virtual bool agent_pending() const { return agent_fence_pending() || phase_ == Phase::kReduce; }
  virtual void on_token(const MatternToken& token) = 0;

  /// May the MPI agent exit once the node has stopped? Guards against
  /// leaving a round's cross-node protocol half-finished.
  bool agent_done() const { return phase_ == Phase::kIdle; }

  /// Should this worker pause event processing right now? Synchronous
  /// rounds quiesce joined workers until they adopt (like Barrier GVT), so
  /// the round's message flush converges and thread progress aligns.
  bool worker_held(const GvtThreadState& worker) const {
    return sync_ && joined(worker) && !worker.adopted;
  }

  /// May this worker exit once the node has stopped? Workers stay until
  /// they adopted the round they joined, so cross-node barriers and rings
  /// complete cleanly. (Between rounds every worker has adopted.)
  bool worker_done(const GvtThreadState& worker) const { return worker.adopted; }

  const GvtAlgoStats& stats() const { return stats_; }

  /// The adaptive policy's execution clamp (SyncTier::kThrottle, DESIGN
  /// §13): kVtInfinity while the policy is at kAsync. Workers run under it
  /// composed with the cons window and the flow clamp (std::min).
  const cons::Clamp& clamp() const { return clamp_; }

  /// Smoothed global efficiency after the last decided round.
  double last_global_efficiency() const { return policy_.efficiency(); }

 protected:
  // --- the round lifecycle shared by the coroutine algorithms -----------
  // Every round runs open_round -> (cut protocol, with fence_barrier for
  // its synchronous points) -> contribute per worker -> the policy's
  // decide / apply_tier -> fence_step per worker -> close_round. Each
  // algorithm supplies only its cut protocol: Barrier's transit count,
  // Mattern's colour ring, or the epoch tree waves.
  //
  // The asynchronous algorithms (Mattern, CA-GVT, epoch) share the round's
  // skeleton too: worker_tick's join, held read and adoption, the phases,
  // the inline agent's drain and the dedicated agent's barriers.

  enum class Phase : std::uint8_t {
    kIdle,       // between rounds (epochs: before the first, after the run stops)
    kJoin,       // workers joining (Barrier GVT: its whole round)
    kReduce,     // every local worker joined; the agent drains the cut
    kCollect,    // Mattern: counting done; workers contribute LVT and min_red
    kBroadcast,  // GVT known; workers adopt
  };

  /// Does tick_pending read the interval clock right now (round_due)?
  virtual bool interval_clocked(const WorkerCtx& worker) const {
    (void)worker;
    return phase_ == Phase::kIdle && !pipelined_;
  }
  /// Every write to the phase goes here: it wakes the node's threads,
  /// whose guards read it (as do open_round, apply_tier and the tokens).
  void set_phase(Phase phase);

  /// Has this worker joined the current round? Rounds never outrun a
  /// worker, so it is in this round or the previous one.
  bool joined(const GvtThreadState& worker) const { return worker.round == round_; }

  /// Is a round due for this worker: its interval clock ran out, or a hook
  /// requests one (flow's red pressure forces fossil collection)?
  /// `ahead` more loop iterations count toward the interval clock
  /// (tick_pending's `ahead`).
  bool round_due(const WorkerCtx& worker, int ahead = 0) const;

  /// Open the next round (++round_, phase kJoin): the hooks fix its plan
  /// and migration commitment (the first node to ask fixes the
  /// cluster-wide answer; restore rounds never migrate), decide whether it
  /// runs synchronously — `policy_sync`, the bounded-window executor
  /// (whose advance is only safe against a drained reduction), or forced
  /// because the fence step must run at a quiesced cut — and trace its
  /// beginning.
  void open_round(bool policy_sync);
  /// The asynchronous algorithms' opening: open_round at the tier the last
  /// round decided, then the cut's own per-round state.
  void begin_round();
  virtual void begin_cut() {}
  /// The worker's part of the cut at its join, under the control-structure
  /// lock (the epoch GVT contributes here).
  virtual void on_join(WorkerCtx& worker) { (void)worker; }
  /// Mattern's Collect step (phase kCollect, which only its cut reaches).
  virtual metasim::Process collect(WorkerCtx& worker);

  /// Traced global barrier of the current round. `agent_side` selects the
  /// node's MPI-agent variant (the dedicated MPI thread, or the MPI-duty
  /// worker joining inline); `worker` is the trace track (-1 = dedicated
  /// MPI thread).
  metasim::Process fence_barrier(bool agent_side, int worker, const char* which);

  /// What a worker's fence step acts on: the round's number, plan,
  /// migration commitment and synchrony, read once while the round is
  /// surely still open. Barrier GVT reads it before its barriers: once
  /// they release, the inline agent may close the round and another
  /// worker open the next before this one resumes.
  struct RoundCut {
    std::uint64_t round;
    RoundPlan plan;
    bool lb_moves;
    bool sync;
  };
  RoundCut round_cut() const { return {round_, plan_, lb_moves_, sync_}; }

  /// One worker's step at the round's quiesced cut: rewind on a restore
  /// round (the node's first restorer calls restart_cut_accounting),
  /// otherwise adopt `gvt`, charge fossil collection, then checkpoint and
  /// migrate as planned. With `fence_each` (Barrier GVT) every planned
  /// step is followed by its own global barrier ("restore-fence",
  /// "ckpt-fence", "lb-fence"); otherwise a synchronous round fences the
  /// whole step with one "post-fossil" barrier. Either way no message is
  /// sent between the snapshot/rewind/moves and the barrier release.
  metasim::Process fence_step(WorkerCtx& worker, double gvt, bool agent_side, RoundCut cut,
                              bool fence_each = false);
  /// The dedicated MPI thread's side of fence_step's per-step barriers.
  metasim::Process agent_fence_step();
  /// A restore round discards every in-flight message: zero the
  /// algorithm's own message accounting (colour counters, epoch ledger).
  virtual void restart_cut_accounting() {}

  /// Does the dedicated MPI thread owe the round the barrier of its current
  /// phase (the join barrier, Mattern's pre-collect, post-fossil)?
  bool agent_fence_pending() const {
    return dedicated_agent_ && sync_ && fence_name(phase_) != nullptr &&
           agent_fenced_[static_cast<int>(phase_)] < round_;
  }
  /// Join the barriers agent_fence_pending names, each at most once per
  /// pass and in round order. Each marker is recorded before its await:
  /// by the time a barrier releases, the round may have closed and (epochs)
  /// the next one opened, whose barriers the marker must not cover.
  metasim::Process agent_fences();
  /// One progress step of the agent inside the drain loops: MPI progress,
  /// and when the agent is a worker (`self`), its own inboxes — read
  /// deferred in a synchronous round like every held worker's, so nothing
  /// is deposited, rolled back or sent before the round's cut.
  metasim::Process agent_drain(WorkerCtx* self);

  /// Fold this worker's LVT and decided-event window (committed and rolled
  /// back since its previous contribution) into the round's node totals.
  /// Decided events exclude still-uncommitted history, which would bias
  /// the efficiency estimate low; windowing lets it track workload phases.
  void contribute(WorkerCtx& worker);

  /// Decide the next round's tier from this round's reduced totals with
  /// the tier policy (the one the thread backend's fence also runs), and
  /// trace the computed GVT plus a mode switch when the decision flips the
  /// round's synchrony. Called once per round per deciding rank: rank 0
  /// in the Mattern family, every rank in lockstep for epochs.
  SyncTier decide(double gvt, const DecidedEvents& window, std::uint64_t queue_peak);
  /// Adopt the tier the next round runs at and apply it to the execution
  /// clamp (cons::apply_tier), counting engagements.
  void apply_tier(SyncTier tier, double gvt);

  /// Close the current round (phase kIdle): round statistics, trace,
  /// gvt.* metrics. `tiered` algorithms (all but Barrier GVT) also count
  /// synchronous rounds and the tier occupancy — plan-forced synchronous
  /// rounds count as kSync.
  void close_round(bool tiered);

  NodeRuntime& node_;
  const RoundHooks& hooks_;
  GvtAlgoStats stats_;
  /// The node runs a dedicated MPI thread (not an inline agent).
  const bool dedicated_agent_;

  // Per-round state, set by open_round.
  /// Current (or last closed) round; the first round is 1. Barrier traces
  /// read it live, so a trace written after a wait names the round the
  /// node is in by then.
  std::uint64_t round_ = 0;
  Phase phase_ = Phase::kIdle;
  RoundPlan plan_ = RoundPlan::kNormal;
  /// The load balancer committed a migration plan to this round.
  bool lb_moves_ = false;
  /// This round runs synchronously (quiesced).
  bool sync_ = false;
  metasim::SimTime round_started_ = 0;
  bool restore_cleared_ = false;  // first restorer reset the cut accounting
  /// Node totals of the round's contributions (contribute).
  double node_min_lvt_ = pdes::kVtInfinity;
  DecidedEvents window_;
  /// Local workers that joined / adopted the round.
  int joined_count_ = 0;
  int adopted_count_ = 0;
  /// The GVT the round computed (the last adopted one between rounds).
  double gvt_value_ = 0;

  /// Tier decided for the next round (apply_tier).
  SyncTier next_tier_ = SyncTier::kAsync;

  /// Per-node shared control structure (the paper's node-level CM) guarding
  /// the joins and contributions, contended like the real shared-memory
  /// structure would be.
  metasim::Mutex cm_mutex_;

 private:
  /// The barrier the dedicated agent owes a synchronous round in `phase`.
  const char* fence_name(Phase phase) const {
    switch (phase) {
      case Phase::kJoin: return join_fence_;
      case Phase::kCollect: return "pre-collect";
      case Phase::kBroadcast: return "post-fossil";
      default: return nullptr;
    }
  }
  /// Finish the last local adoption: close the round, and open the next
  /// one right away when rounds are pipelined and the run goes on.
  void finish_round();

  const char* const join_fence_;
  const bool pipelined_;
  /// Per phase, the latest round whose barrier the dedicated agent joined.
  std::uint64_t agent_fenced_[5] = {};

  TierPolicy policy_;
  cons::Clamp clamp_;
  obs::LazyCounter rounds_metric_;
  obs::LazyCounter sync_rounds_metric_;
  obs::LazyCounter mode_switches_metric_;
  obs::LazyCounter throttle_engagements_metric_;
  obs::LazyCounter tier_async_metric_;
  obs::LazyCounter tier_throttle_metric_;
  obs::LazyCounter tier_sync_metric_;
  obs::LazyGauge tier_metric_;
};

std::unique_ptr<GvtAlgorithm> make_gvt(GvtKind kind, NodeRuntime& node);

}  // namespace cagvt::core
