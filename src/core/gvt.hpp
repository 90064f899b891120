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
//                       tick_pending holds; runs rounds, may block the
//                       worker (barriers).
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
#include "obs/metrics.hpp"
#include "pdes/event.hpp"

namespace cagvt::core {

class NodeRuntime;
struct WorkerCtx;

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
  /// policy of core/gvt_policy.hpp, the others always decide kAsync.
  explicit GvtAlgorithm(NodeRuntime& node);
  virtual ~GvtAlgorithm() = default;
  GvtAlgorithm(const GvtAlgorithm&) = delete;
  GvtAlgorithm& operator=(const GvtAlgorithm&) = delete;

  virtual void on_send(WorkerCtx& worker, pdes::Event& event) = 0;
  virtual void on_recv(WorkerCtx& worker, const pdes::Event& event) = 0;
  virtual metasim::Process worker_tick(WorkerCtx& worker) = 0;
  /// `self` is the worker carrying MPI duty when the agent runs inline
  /// (combined/everywhere placements); nullptr on a dedicated MPI thread.
  virtual metasim::Process agent_tick(WorkerCtx* self) = 0;

  /// Would worker_tick do anything for `worker` after one more loop
  /// iteration (round_due at iters_since_round + 1)? Each clause mirrors a
  /// branch of worker_tick. The worker loop calls worker_tick only when
  /// this holds, and the idle-poll predicate (NodeRuntime::
  /// worker_pass_pending) asks it before a pass even starts, so a wrong
  /// `false` changes every run rather than only the skipped passes.
  virtual bool tick_pending(const WorkerCtx& worker) const = 0;
  /// The same for agent_tick, on either kind of agent. The default keeps
  /// every agent pass.
  virtual bool agent_pending() const { return true; }
  virtual void on_token(const MatternToken& token) = 0;

  /// May the MPI agent exit once the node has stopped? Guards against
  /// leaving a round's cross-node protocol half-finished.
  virtual bool agent_done() const { return true; }

  /// Force every round to run in its fully synchronous form (all in-flight
  /// messages drained before the reduction). The bounded-window
  /// conservative executor requires this: its window advance is only safe
  /// against a GVT with nothing in transit. Barrier GVT is already fully
  /// synchronous, so the default is a no-op; Mattern-family algorithms
  /// override it.
  virtual void set_always_sync() {}

  /// Should this worker pause event processing right now? CA-GVT's
  /// synchronous rounds quiesce processing (like Barrier GVT) so the
  /// round's message flush actually converges and thread progress aligns.
  virtual bool worker_held(const WorkerCtx& worker) const {
    (void)worker;
    return false;
  }

  /// May this worker exit once the node has stopped? Asynchronous
  /// algorithms hold workers until they have adopted the final round's
  /// GVT (so cross-node barriers/rings complete cleanly).
  virtual bool worker_done(const WorkerCtx& worker) const {
    (void)worker;
    return true;
  }

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
  // its synchronous points) -> contribute_window per worker -> the
  // policy's decide / apply_tier -> fence_step per worker ->
  // close_round. Each algorithm supplies only its cut protocol: Barrier's
  // transit count, Mattern's colour ring, or the epoch tree waves.

  /// Is a round due for this worker: its interval clock ran out, or a hook
  /// requests one (flow's red pressure forces fossil collection)?
  /// `ahead` more loop iterations count toward the interval clock
  /// (tick_pending asks before the pass's own increment).
  bool round_due(const WorkerCtx& worker, int ahead = 0) const;

  /// Open the next round (++round_): the hooks fix its plan and migration
  /// commitment (the first node to ask fixes the cluster-wide answer;
  /// restore rounds never migrate), decide whether it runs synchronously —
  /// `policy_sync`, or forced because the fence step must run at a
  /// quiesced cut — and trace its beginning.
  void open_round(bool policy_sync);

  /// Traced global barrier of the current round. `agent_side` selects the
  /// node's MPI-agent variant (the dedicated MPI thread, or the MPI-duty
  /// worker joining inline); `worker` is the trace track (-1 = dedicated
  /// MPI thread).
  metasim::Process fence_barrier(bool agent_side, int worker, const char* which);

  /// One worker's step at the round's quiesced cut: rewind on a restore
  /// round (the node's first restorer calls restart_cut_accounting),
  /// otherwise adopt `gvt`, charge fossil collection, then checkpoint and
  /// migrate as planned. With `fence_each` (Barrier GVT) every planned
  /// step is followed by its own global barrier ("restore-fence",
  /// "ckpt-fence", "lb-fence"); otherwise a synchronous round fences the
  /// whole step with one "post-fossil" barrier. Either way no message is
  /// sent between the snapshot/rewind/moves and the barrier release.
  /// (Barrier GVT also hands the adoption round `round_ - 1` to the
  /// controllers, its historical numbering.)
  metasim::Process fence_step(WorkerCtx& worker, double gvt, bool agent_side,
                              bool fence_each = false);
  /// The dedicated MPI thread's side of fence_step's per-step barriers.
  metasim::Process agent_fence_step();
  /// A restore round discards every in-flight message: zero the
  /// algorithm's own message accounting (colour counters, epoch ledger).
  virtual void restart_cut_accounting() {}

  /// Fold this worker's decided-event window (committed and rolled back
  /// since its previous contribution) into the round's node totals. Decided
  /// events exclude still-uncommitted history, which would bias the
  /// efficiency estimate low; windowing lets it track workload phases.
  void contribute_window(WorkerCtx& worker);

  /// Decide the next round's tier from this round's reduced totals with
  /// the tier policy (the one the thread backend's fence also runs), and
  /// trace the computed GVT plus a mode switch when the decision flips the
  /// round's synchrony. Called once per round per deciding rank: rank 0
  /// in the Mattern family, every rank in lockstep for epochs.
  SyncTier decide(double gvt, const DecidedEvents& window, std::uint64_t queue_peak);
  /// Adopt the tier the next round runs at and apply it to the execution
  /// clamp (cons::apply_tier), counting engagements.
  void apply_tier(SyncTier tier, double gvt);

  /// Close the current round: round statistics, trace, gvt.* metrics. `tiered`
  /// algorithms (all but Barrier GVT) also count synchronous rounds and
  /// the tier occupancy — plan-forced synchronous rounds count as kSync.
  void close_round(bool tiered);

  NodeRuntime& node_;
  const RoundHooks& hooks_;
  GvtAlgoStats stats_;

  // Per-round state, set by open_round.
  /// Current (or last closed) round; the first round is 1. Barrier traces
  /// read it live, so a trace written after a wait names the round the
  /// node is in by then.
  std::uint64_t round_ = 0;
  RoundPlan plan_ = RoundPlan::kNormal;
  /// The load balancer committed a migration plan to this round.
  bool lb_moves_ = false;
  /// This round runs synchronously (quiesced).
  bool sync_ = false;
  metasim::SimTime round_started_ = 0;
  bool restore_cleared_ = false;  // first restorer reset the cut accounting
  /// Node totals of the round's decided-event window (contribute_window).
  DecidedEvents window_;

  /// Tier decided for the next round (apply_tier).
  SyncTier next_tier_ = SyncTier::kAsync;

 private:
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
