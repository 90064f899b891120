// Controllers as GVT-round hooks.
//
// Every controller (recovery, lb, cons, flow) rides the GVT round: it
// plans at round open, observes the adopted GVT, acts at the round's
// quiesced cut, and bounds or feeds the workers in between. Each one is a
// RoundHook; the simulation builds the enabled ones once, in call order
// (recovery, cons, lb, flow), and NodeRuntime and the GVT algorithms walk
// that one list at each call site. Every method defaults to "not
// involved", so a hook overrides only the call sites it uses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "metasim/process.hpp"
#include "obs/metrics.hpp"
#include "pdes/event.hpp"

namespace cagvt::core {

struct WorkerCtx;
struct WorkerSnapshot;
struct SimulationResult;

/// What a GVT round does besides computing GVT. Checkpoint and restore
/// rounds run synchronously (quiesced) in every algorithm.
enum class RoundPlan : std::uint8_t {
  kNormal,
  kCheckpoint,  // snapshot at the round's fossil-collection point
  kRestore,     // rewind to the last complete checkpoint instead of adopting
};

/// What round open fixes cluster-wide (the first node to ask decides).
struct RoundOpen {
  RoundPlan plan = RoundPlan::kNormal;
  bool moves = false;  // a migration batch executes at the round's cut
};

class RoundHook {
 public:
  virtual ~RoundHook() = default;

  /// A worker's kernel is initialized; its coroutine has not run yet.
  virtual void attach(WorkerCtx& /*worker*/) {}

  /// Hooks inside the worker loop say so once; only those are asked for
  /// exec_bound (the largest recv_ts the worker may execute) before every
  /// event, for batch_tick / batch_release after every batch, and for
  /// loop_pending / skip_tick on every pass that processed nothing.
  virtual bool in_worker_loop() const { return false; }
  virtual pdes::VirtualTime exec_bound(int /*worker*/) const { return pdes::kVtInfinity; }

  /// After a worker's batch of events: fill `out` (empty on entry) with the
  /// messages to send. batch_release then fills it with events to
  /// re-deliver — it runs once every hook's batch_tick sends were awaited,
  /// because other workers move on during those awaits.
  virtual void batch_tick(WorkerCtx& /*worker*/, int /*processed*/,
                          std::vector<pdes::Event>& /*out*/) {}
  virtual void batch_release(WorkerCtx& /*worker*/, std::vector<pdes::Event>& /*out*/) {}

  /// The guard of the worker pass's hook step (DESIGN §14 "Idle polls"):
  /// would batch_tick with nothing processed, or batch_release, change
  /// anything for `worker` right now, apart from what skip_tick credits?
  /// When no event was processed and every loop hook says `false`, the
  /// loop skips both calls and the idle-poll predicate may skip the pass,
  /// so a wrong `false` changes every run. The default, `true`, means
  /// "cannot tell" and keeps every pass.
  virtual bool loop_pending(const WorkerCtx& /*worker*/) const { return true; }
  /// The hook step did not run: credit what batch_tick(…, 0, …) would have
  /// counted.
  virtual void skip_tick(WorkerCtx& /*worker*/) {}

  /// Round `round` opens; a hook may also want a round now, whatever the
  /// interval clock says.
  virtual void open_round(std::uint64_t /*round*/, RoundOpen& /*open*/) {}
  virtual bool round_requested() const { return false; }
  /// `worker` adopts `gvt` for `round`, before fossil collection.
  virtual void adopt(std::uint64_t /*round*/, WorkerCtx& /*worker*/, double /*gvt*/) {}

  // --- the round's quiesced cut (no message is sent until its barrier) --
  /// Per-worker checkpoint and restore steps (the recovery manager's); the
  /// other hooks add their per-worker state to a slice and reinstall it,
  /// and hear once per node that the node was rewound.
  virtual metasim::Process checkpoint(WorkerCtx&, std::uint64_t, double) { co_return; }
  virtual metasim::Process restore(WorkerCtx&, std::uint64_t) { co_return; }
  virtual void save_state(int /*worker*/, WorkerSnapshot& /*snap*/) const {}
  virtual void load_state(int /*worker*/, const WorkerSnapshot& /*snap*/) {}
  virtual void on_restore() {}
  /// Per-worker step of a round with a migration batch.
  virtual metasim::Process migrate(WorkerCtx&, std::uint64_t) { co_return; }

  // --- messages ---------------------------------------------------------
  /// A received non-event message (control, cancelback): true if consumed.
  virtual bool consume(WorkerCtx& /*worker*/, const pdes::Event& /*event*/) { return false; }
  /// An outgoing anti-message: true if annihilated here (never sent).
  virtual bool absorb_anti(int /*worker*/, const pdes::Event& /*anti*/) { return false; }
  /// An event was re-sent toward a migrated LP's current owner.
  virtual void note_forward() {}
  /// Lowest timestamp the hook holds for `worker` (its GVT contribution).
  virtual pdes::VirtualTime min_ts(int /*worker*/) const { return pdes::kVtInfinity; }

  /// End of run: fill this controller's result fields and gauges.
  virtual void report(SimulationResult& /*result*/, obs::MetricsRegistry& /*metrics*/) const {}
};

/// The run's enabled hooks, in call order.
using RoundHooks = std::vector<std::unique_ptr<RoundHook>>;

}  // namespace cagvt::core
