// Cluster-global load-balancing controller: metric + policy + fence
// execution for dynamic LP migration.
//
// Like RecoveryManager, the controller is an omniscient cluster-wide
// singleton: a real deployment would disseminate the same decisions over
// the GVT control channel, which the simulation does not charge for —
// migration's *data* costs (packing, wire transfer, installing) are
// charged per worker at the fence by node_runtime.
//
// It rides the GVT round as a core::RoundHook. Lifecycle per GVT round:
//  1. adopt()       — every worker reports its LVT, the round's GVT, and
//                     its per-LP work window when it adopts the round's
//                     GVT. When the last report of a round arrives, the
//                     controller updates the roughness / advance-rate
//                     EWMAs and, if the trigger fires, computes a
//                     migration plan.
//  2. open_round()  — at the next round's start (first caller fixes the
//                     answer, RecoveryManager-style) a pending plan is
//                     pinned to that round, which the GVT algorithms then
//                     run as a sync round.
//  3. migrate()     — each worker charges its share of the pack/install
//                     and wire costs at the round's quiesced cut, then
//                     arrives at the fence. The cluster-wide last arrival
//                     executes the whole batch — extract from source
//                     kernels, install into destinations, bump the
//                     owner-table version once — while every other worker
//                     is parked at the fence barrier.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/round_hook.hpp"
#include "lb/lb_config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdes/kernel.hpp"
#include "pdes/mapping.hpp"

namespace cagvt::lb {

class Controller final : public core::RoundHook {
 public:
  Controller(const LbConfig& cfg, pdes::OwnerTable& owners, obs::MetricsRegistry& metrics,
             obs::TraceRecorder* trace);

  // --- round hook (see the file comment) -------------------------------------
  /// Register the worker's kernel so the fence executor can reach every
  /// worker's LP store.
  void attach(core::WorkerCtx& worker) override;
  /// Restore rounds never migrate.
  void open_round(std::uint64_t round, core::RoundOpen& open) override;
  void adopt(std::uint64_t round, core::WorkerCtx& worker, double gvt) override;
  metasim::Process migrate(core::WorkerCtx& worker, std::uint64_t round) override;
  /// A checkpoint restore rewound the cluster (and the owner table):
  /// discard the pending plan and every estimator fed by pre-crash rounds.
  void on_restore() override;
  /// Count one event forwarded because it was routed with a stale epoch.
  void note_forward() override;
  void report(core::SimulationResult& result, obs::MetricsRegistry& metrics) const override;

 private:
  struct RoundObs {
    int reported = 0;
    double gvt = 0;
    std::vector<double> lvt;
  };

  /// All of a round's workers have reported: update estimators, maybe plan.
  void finalize_round(std::uint64_t round, const RoundObs& obs);
  /// `mean` and `width` are finalize_round's LVT surface (finite LVTs).
  void plan_moves(std::uint64_t round, const RoundObs& obs, double mean, double width);

  LbConfig cfg_;
  pdes::OwnerTable& owners_;
  obs::TraceRecorder* trace_;
  std::vector<pdes::ThreadKernel*> kernels_;

  std::map<std::uint64_t, RoundObs> observations_;
  std::unordered_map<pdes::LpId, double> work_ewma_;

  // Estimator state (reset on restore).
  double width_ewma_ = 0;
  double advance_ewma_ = 0;
  double prev_gvt_ = 0;
  bool have_prev_gvt_ = false;
  int warmup_rounds_ = 0;

  // Plan state.
  std::vector<pdes::Migration> pending_plan_;
  std::map<std::uint64_t, std::vector<pdes::Migration>> plans_;
  std::map<std::uint64_t, int> fence_arrivals_;
  std::uint64_t last_migration_round_ = 0;
  bool migrated_once_ = false;
  /// Stall backoff: when a migration round fails to flatten the width
  /// EWMA, the balancer has hit the floor reachable by shedding alone —
  /// keep moving LPs and you pay fences and routing churn for nothing.
  /// Each stalled plan doubles the effective cooldown (capped); any real
  /// improvement resets it.
  std::uint64_t backoff_ = 1;
  double width_at_last_plan_ = -1.0;
  /// Per-LP move hysteresis: the planning round an LP last appeared in a
  /// plan. An LP sheds once and then anchors at its destination for a
  /// while, so a hot LP cannot ping-pong between a laggard and the leader
  /// it just overloaded.
  std::unordered_map<pdes::LpId, std::uint64_t> last_moved_round_;

  // Run stats.
  std::uint64_t migrations_ = 0;
  std::uint64_t migration_rounds_ = 0;
  std::uint64_t forwards_ = 0;
  double width_sum_ = 0;
  std::uint64_t rounds_finalized_ = 0;

  obs::CounterHandle migrations_metric_;
  obs::CounterHandle migration_rounds_metric_;
  obs::CounterHandle forwards_metric_;
  obs::GaugeHandle roughness_metric_;
  obs::GaugeHandle roughness_ewma_metric_;
};

}  // namespace cagvt::lb
