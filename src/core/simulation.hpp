// Simulation facade: the library's main entry point.
//
//   SimulationConfig cfg;               // cluster shape, GVT algo, knobs
//   cfg.nodes = 8; cfg.gvt = GvtKind::kControlledAsync;
//   pdes::LpMap map = Simulation::make_map(cfg);
//   models::PholdModel model(map, params);
//   Simulation sim(cfg, model);
//   SimulationResult result = sim.run();
//
// run() builds the virtual cluster (engine, fabric, one NodeRuntime per
// node), executes it to completion, and aggregates the paper's metrics.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "metasim/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdes/mapping.hpp"
#include "pdes/model.hpp"
#include "pdes/stats.hpp"

namespace cagvt::core {

struct SimulationResult {
  pdes::KernelStats events;  // aggregated over every worker thread

  /// Simulated wall-clock duration of the run.
  double wall_seconds = 0;
  /// The paper's headline metric: committed events per simulated second.
  double committed_rate = 0;
  /// committed / processed (the paper's efficiency).
  double efficiency = 0;
  double final_gvt = 0;

  std::uint64_t gvt_rounds = 0;
  std::uint64_t sync_rounds = 0;  // CA-GVT rounds run synchronously
  /// Rounds/epochs that ran asynchronously under the trigger policy's
  /// execution clamp (SyncTier::kThrottle, the deferred-escalation tier).
  std::uint64_t gvt_throttle_rounds = 0;
  /// Clamp engage transitions performed by the GVT trigger policy
  /// (infinity -> finite bound), summed over nodes (coroutine backend) or
  /// workers (threads backend).
  std::uint64_t gvt_throttle_engagements = 0;
  /// Wall time spanned by GVT rounds at node 0 (the paper's "time elapsed
  /// on the GVT function").
  double gvt_round_seconds = 0;
  /// Total simulated thread-time blocked in GVT synchronization.
  double gvt_block_seconds = 0;
  /// Total simulated thread-time blocked on shared-memory queue locks.
  double lock_wait_seconds = 0;
  /// Average per-round population stddev of thread LVTs (paper's
  /// "virtual time disparity").
  double avg_lvt_disparity = 0;
  double last_global_efficiency = 0;

  std::uint64_t regional_msgs = 0;
  std::uint64_t remote_msgs = 0;
  std::uint64_t net_frames = 0;
  /// Frames carried by the tree all-reduce (0 unless a tree collective ran:
  /// --tree-arity > 0 or --gvt=epoch).
  std::uint64_t tree_frames = 0;

  // --- reliable transport / recovery (all 0 on healthy runs) -------------
  std::uint64_t retransmits = 0;         // frames re-sent on timeout
  std::uint64_t acks_sent = 0;           // transport acks put on the wire
  std::uint64_t duplicates_dropped = 0;  // frames deduplicated at receive
  std::uint64_t frames_dropped = 0;      // dropped by loss: fault specs
  std::uint64_t down_drops = 0;          // black-holed at crashed endpoints
  std::uint64_t checkpoints = 0;         // complete cluster checkpoints
  std::uint64_t restores = 0;            // coordinated rewinds performed
  /// Simulated failure-onset -> cluster-restored time, summed over crashes.
  double recovery_seconds = 0;

  // --- dynamic load balancing (all 0 when --lb=off) -----------------------
  std::uint64_t lb_migrations = 0;       // LP moves executed
  std::uint64_t lb_migration_rounds = 0; // GVT rounds that moved at least one LP
  std::uint64_t lb_forwards = 0;         // stale-epoch events re-routed to the new owner
  /// Average per-round LVT roughness (time-horizon width: population stddev
  /// of worker LVTs) as seen by the balancer; 0 when --lb=off.
  double avg_lvt_roughness = 0;
  /// Final owner-table version (number of migration batches applied, plus
  /// any rewinds from restores).
  std::uint32_t owner_table_version = 0;

  // --- conservative synchronization (all 0 when --sync=optimistic) --------
  std::uint64_t cons_null_msgs = 0;  // CMB null messages sent
  std::uint64_t cons_req_msgs = 0;   // demand-driven null requests sent
  /// Fraction of worker batch steps that executed at least one event
  /// (Kolakowska/Novotny per-step utilization).
  double cons_utilization = 0;
  /// Control messages sent per simulation event executed.
  double cons_null_ratio = 0;
  /// Mean per-GVT-round max-min spread of worker LVTs (time-horizon width).
  double cons_horizon_width = 0;

  // --- overload protection (all 0 when --flow=off except peak_event_pool) --
  std::uint64_t flow_cancelbacks = 0;  // events returned to their senders
  std::uint64_t flow_releases = 0;     // parked events re-delivered
  std::uint64_t flow_storms = 0;       // rollback-storm episodes detected
  std::uint64_t flow_throttle_engagements = 0;  // clamp engage transitions
  std::uint64_t flow_forced_rounds = 0;         // GVT rounds forced by red pressure
  std::uint64_t flow_absorbed_antis = 0;        // antis annihilated in the parked ledger
  /// Largest per-worker event pool (pending + uncommitted history) observed.
  /// Round-sampled and always on, so --flow=off runs report it too — the
  /// unbounded-growth evidence in the A10 ablation.
  std::uint64_t peak_event_pool = 0;

  /// Fault-window activations announced during the run (0 when no --fault
  /// schedule was configured; square waves / stall pulses count per cycle).
  std::uint64_t fault_activations = 0;
  /// Link-jitter RNG draws consumed (a cheap replay/divergence check).
  std::uint64_t fault_jitter_draws = 0;

  /// Order-independent fingerprint of the committed event set; equal
  /// across any two correct runs of the same workload (see seqref).
  std::uint64_t committed_fingerprint = 0;
  /// Order-independent hash of the final LP states after every event was
  /// committed. Like the fingerprint it is backend-, algorithm- and
  /// schedule-independent: the differential harness diffs both against the
  /// coroutine oracle and the sequential reference.
  std::uint64_t state_hash = 0;
  /// GVT values in round order (node 0's trace).
  std::vector<double> gvt_trace;

  /// What the coroutine backend's engine did on the host (all 0 on the
  /// threads backend). Deterministic like every simulated count, but not
  /// a simulated result: the BENCH reports and the metrics export leave it
  /// out, and a change that only saves host work moves nothing else.
  metasim::HostWork host_work;

  /// False if the safety wall-clock cap expired before GVT passed end_vt.
  bool completed = false;

  /// The run's structured trace, populated when cfg.obs.trace was set
  /// (null otherwise). Export with obs::write_chrome_trace / write_trace_csv.
  std::shared_ptr<const obs::TraceRecorder> trace;
  /// The run's metrics registry, populated when cfg.obs.metrics was set
  /// (null otherwise). Export a snapshot with obs::write_metrics_csv.
  std::shared_ptr<const obs::MetricsRegistry> metrics;
};

class Simulation {
 public:
  /// LP placement implied by a configuration; build the model against it.
  static pdes::LpMap make_map(const SimulationConfig& cfg) {
    return pdes::LpMap(cfg.nodes, cfg.workers_per_node(), cfg.lps_per_worker);
  }

  /// `model` must outlive the Simulation and be built on make_map(cfg).
  Simulation(SimulationConfig cfg, const pdes::Model& model);

  /// Execute to completion (GVT past end_vt) and aggregate results.
  /// `max_wall_seconds` is a safety cap for misconfigured runs.
  SimulationResult run(double max_wall_seconds = 3600.0);

 private:
  SimulationConfig cfg_;
  const pdes::Model& model_;
};

}  // namespace cagvt::core
