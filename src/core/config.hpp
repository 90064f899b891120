// Top-level simulation configuration: cluster shape, GVT algorithm, MPI
// thread placement, and engine knobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cons/cons_config.hpp"
#include "core/gvt_policy.hpp"
#include "fault/fault_parse.hpp"
#include "fault/fault_spec.hpp"
#include "flow/flow_config.hpp"
#include "lb/lb_config.hpp"
#include "net/cluster_spec.hpp"
#include "pdes/event.hpp"
#include "util/config.hpp"

namespace cagvt::core {

/// Which GVT algorithm drives fossil collection (paper Sections 3 and 5).
enum class GvtKind {
  kBarrier,           // synchronous, Algorithm 1
  kMattern,           // asynchronous, Algorithm 2
  kControlledAsync,   // CA-GVT, Algorithm 3 (the paper's contribution)
  kEpoch,             // continuously-pipelined epoch GVT over a tree
                      // reduction (devastator-style; DESIGN §13)
};

/// Where MPI work runs (paper Section 4, first contribution).
enum class MpiPlacement {
  kDedicated,   // one thread per node does ONLY MPI (the paper's proposal)
  kCombined,    // the MPI thread also processes events (baseline from [31])
  kEverywhere,  // every worker makes its own MPI calls through a node lock
                // (the threaded-MPI contention ablation, cf. [2])
};

/// Observability (src/obs): measurement-only instrumentation that never
/// consumes simulated time or perturbs results. Both facilities default
/// off; when off every hook is a predictable branch. Surfaced on the CLIs
/// as --trace-out= / --metrics-out=.
struct ObsConfig {
  /// Record the structured trace (GVT round lifecycle, CA-GVT mode
  /// switches, rollbacks, fossil collections, vmpi traffic) for export as
  /// Chrome trace-event JSON (Perfetto) or CSV.
  bool trace = false;
  /// Maintain the metrics registry (counters/gauges/histograms).
  bool metrics = false;
  /// Trace records kept before further ones are counted as dropped.
  std::size_t trace_capacity = 1u << 22;
};

struct SimulationConfig {
  net::ClusterSpec cluster;  // hardware cost model
  ObsConfig obs;             // tracing / metrics (off by default)

  int nodes = 8;
  /// Hardware threads loaded per node (paper: 60). With kDedicated one of
  /// them is the MPI thread and the rest are workers; with kCombined and
  /// kEverywhere all of them are workers (and thread 0 carries MPI duty).
  int threads_per_node = 60;
  int lps_per_worker = 128;

  pdes::VirtualTime end_vt = 100.0;
  /// Worker-loop iterations between GVT rounds (paper: 25-50).
  int gvt_interval = 25;
  GvtKind gvt = GvtKind::kMattern;
  MpiPlacement mpi = MpiPlacement::kDedicated;
  /// CA-GVT: engage the adaptive policy below this efficiency.
  double ca_efficiency_threshold = 0.80;
  /// CA-GVT's second trigger (paper Section 8): engage when the (smoothed)
  /// peak MPI queue occupancy since the last round exceeds this many
  /// messages.
  int ca_queue_threshold = 16;
  // --- tiered escalation of the adaptive policy (core/gvt_policy.hpp) ----
  /// Consecutive tripped rounds/epochs before the throttle tier escalates
  /// to fully synchronous rounds (0 = never escalate; 1 = the paper's
  /// trip-means-barriers CA-GVT). Spelled `escalate=` in --gvt specs.
  int gvt_escalate_rounds = 3;
  /// Width C >= 1 of the execution clamp the throttle tier applies: workers
  /// may not process events past GVT + C virtual time units. Spelled
  /// `clamp=`.
  double gvt_throttle_clamp = 4.0;
  /// Fan-out of the vmpi tree reduction (net/tree_reduce.hpp). 0 keeps the
  /// flat rendezvous collectives (status quo for barrier/mattern/ca-gvt);
  /// >= 2 routes node-level collectives over the reduce-up/broadcast-down
  /// tree. --gvt=epoch always runs on the tree: when the arity is left at
  /// 0 it is autotuned from the node count and the cluster cost model
  /// (see autotune_tree_arity below).
  int gvt_tree_arity = 0;

  std::uint64_t seed = 1;
  /// Max events a worker processes per loop iteration.
  int batch = 4;

  /// Fault-injection schedule (src/fault). Empty = healthy cluster, and the
  /// run is bit-identical to a build without the subsystem: the FaultEngine
  /// is only instantiated when at least one spec is present. Parsed from
  /// --fault on the CLIs (see fault/fault_parse.hpp for the DSL).
  std::vector<fault::FaultSpec> faults;
  /// Seed for the perturbation RNG streams (link jitter). Deliberately
  /// separate from `seed` so the same workload can be replayed under
  /// different perturbation draws.
  std::uint64_t fault_seed = 0x5eedfau;
  /// Combined placement: the MPI-duty worker services the network only
  /// every this many loop iterations (event processing starves MPI
  /// progress — the effect that motivates the dedicated thread).
  int combined_mpi_poll_period = 4;
  /// Write a GVT-aligned checkpoint every N GVT rounds (0 = off). Crash
  /// recovery always has at least the initial round-0 checkpoint to rewind
  /// to; a periodic cadence bounds how much work a crash discards.
  /// Surfaced on the CLIs as --ckpt-every.
  int ckpt_every = 0;
  /// Dynamic LP migration (src/lb). Off by default: the balancer is only
  /// instantiated when enabled, and an off run is bit-identical to a build
  /// without the subsystem. Parsed from --lb on the CLIs
  /// (see lb/lb_config.hpp for the policy parameters).
  lb::LbConfig lb;
  /// Conservative synchronization (src/cons). Off (= optimistic) by
  /// default: the cons::Controller is only instantiated when enabled, and
  /// an optimistic run is bit-identical to a build without the subsystem.
  /// Parsed from --sync on the CLIs (see cons/cons_config.hpp).
  cons::ConsConfig sync;
  /// Overload protection (src/flow): memory-bounded optimism, rollback-storm
  /// containment, adaptive throttling. Off by default: the flow::Controller
  /// is only instantiated when enabled, and an off run is bit-identical to a
  /// build without the subsystem. Parsed from --flow on the CLIs
  /// (see flow/flow_config.hpp).
  flow::FlowConfig flow;

  int workers_per_node() const {
    return mpi == MpiPlacement::kDedicated ? threads_per_node - 1 : threads_per_node;
  }
  /// Is there a dedicated MPI-thread coroutine on each node?
  bool has_dedicated_mpi() const { return mpi == MpiPlacement::kDedicated; }

  void validate() const {
    if (nodes < 1) throw std::invalid_argument("nodes must be >= 1");
    if (threads_per_node < 1) throw std::invalid_argument("threads_per_node must be >= 1");
    if (workers_per_node() < 1)
      throw std::invalid_argument("dedicated MPI placement needs >= 2 threads per node");
    if (lps_per_worker < 1) throw std::invalid_argument("lps_per_worker must be >= 1");
    if (gvt_interval < 1) throw std::invalid_argument("gvt_interval must be >= 1");
    if (batch < 1) throw std::invalid_argument("batch must be >= 1");
    if (!(end_vt > 0)) throw std::invalid_argument("end_vt must be > 0");
    if (ca_efficiency_threshold < 0 || ca_efficiency_threshold > 1)
      throw std::invalid_argument("ca_efficiency_threshold must be in [0,1]");
    if (gvt_escalate_rounds < 0)
      throw std::invalid_argument(
          "--gvt escalate must be >= 0 (0 = never escalate to synchronous "
          "rounds, 1 = escalate on the first tripped round)");
    if (!(gvt_throttle_clamp >= 1))
      throw std::invalid_argument(
          "--gvt clamp must be >= 1 virtual-time unit (the throttle tier "
          "bounds execution to GVT + clamp)");
    if (gvt_tree_arity != 0 && gvt_tree_arity < 2)
      throw std::invalid_argument("gvt_tree_arity must be 0 (flat collectives) or >= 2");
    if (ckpt_every < 0) throw std::invalid_argument("ckpt_every must be >= 0");
    lb.validate();
    sync.validate();
    flow.validate();
    if (flow.enabled() && sync.enabled())
      throw std::invalid_argument("--flow=bounded cannot be combined with --sync (conservative "
                                  "execution never over-commits: there is no optimism to bound)");
    if (gvt == GvtKind::kEpoch && sync.kind == cons::SyncKind::kWindow)
      throw std::invalid_argument(
          "--gvt=epoch cannot be combined with --sync=window: the bounded "
          "window drives every advance through a synchronous GVT round (a "
          "fully drained reduction), while the epoch GVT keeps a "
          "round permanently in flight — there is no synchronous round to "
          "piggyback the window barrier on (use barrier, mattern, or ca-gvt)");
    if (sync.enabled()) {
      // Conservative execution never rolls back, so the Time Warp recovery
      // and migration machinery has nothing to hook into: checkpoints,
      // crash faults, and LVT-roughness balancing are all defined against
      // optimistic GVT rounds. Reject the combinations loudly rather than
      // silently measuring a half-configured run.
      if (lb.enabled())
        throw std::invalid_argument("--sync=" + std::string(cons::to_string(sync.kind)) +
                                    " cannot be combined with --lb (conservative runs have no "
                                    "rollbacks for the balancer to suppress)");
      if (!faults.empty())
        throw std::invalid_argument("--sync=" + std::string(cons::to_string(sync.kind)) +
                                    " cannot be combined with --fault");
      if (ckpt_every != 0)
        throw std::invalid_argument("--sync=" + std::string(cons::to_string(sync.kind)) +
                                    " cannot be combined with --ckpt-every");
    }
    for (std::size_t i = 0; i < faults.size(); ++i) {
      faults[i].validate(i);
      const std::string where =
          "fault spec #" + std::to_string(i + 1) + " (" + fault::describe(faults[i]) + "): ";
      const std::string cluster = " is outside the cluster (" + std::to_string(nodes) +
                                  " nodes, ids 0.." + std::to_string(nodes - 1) + ")";
      if (faults[i].node >= nodes)
        throw std::invalid_argument(where + "node=" + std::to_string(faults[i].node) + cluster);
      if (faults[i].src >= nodes)
        throw std::invalid_argument(where + "src=" + std::to_string(faults[i].src) + cluster);
      if (faults[i].dst >= nodes)
        throw std::invalid_argument(where + "dst=" + std::to_string(faults[i].dst) + cluster);
      if (faults[i].kind == fault::FaultKind::kMemSqueeze) {
        const int total_workers = nodes * workers_per_node();
        if (faults[i].worker >= total_workers)
          throw std::invalid_argument(where + "worker=" + std::to_string(faults[i].worker) +
                                      " is outside the cluster (" + std::to_string(total_workers) +
                                      " workers, ids 0.." + std::to_string(total_workers - 1) +
                                      ")");
      }
    }
  }
};

inline std::string_view to_string(GvtKind kind) {
  switch (kind) {
    case GvtKind::kBarrier: return "barrier";
    case GvtKind::kMattern: return "mattern";
    case GvtKind::kControlledAsync: return "ca-gvt";
    case GvtKind::kEpoch: return "epoch";
  }
  return "?";
}

inline std::string_view to_string(MpiPlacement placement) {
  switch (placement) {
    case MpiPlacement::kDedicated: return "dedicated";
    case MpiPlacement::kCombined: return "combined";
    case MpiPlacement::kEverywhere: return "everywhere";
  }
  return "?";
}

inline GvtKind gvt_kind_from(std::string_view name) {
  if (name == "barrier") return GvtKind::kBarrier;
  if (name == "mattern") return GvtKind::kMattern;
  if (name == "ca-gvt" || name == "ca" || name == "cagvt") return GvtKind::kControlledAsync;
  if (name == "epoch") return GvtKind::kEpoch;
  throw std::invalid_argument("unknown GVT algorithm: '" + std::string(name) +
                              "' (expected barrier, mattern, ca-gvt, or epoch)");
}

inline MpiPlacement mpi_placement_from(std::string_view name) {
  if (name == "dedicated") return MpiPlacement::kDedicated;
  if (name == "combined") return MpiPlacement::kCombined;
  if (name == "everywhere") return MpiPlacement::kEverywhere;
  throw std::invalid_argument("unknown MPI placement: '" + std::string(name) +
                              "' (expected dedicated, combined, or everywhere)");
}

/// The tier policy a configuration implies (core/gvt_policy.hpp): the
/// tiered trigger policy is engaged for the adaptive kinds (CA-GVT and
/// epoch) and absent for the others. The one place that choice is made;
/// every GVT algorithm and the real-thread fence build their policy here.
inline TierPolicy tier_policy_from(const SimulationConfig& cfg) {
  if (cfg.gvt != GvtKind::kControlledAsync && cfg.gvt != GvtKind::kEpoch) return TierPolicy{};
  CaTriggerPolicy::Config pc;
  pc.efficiency_threshold = cfg.ca_efficiency_threshold;
  pc.queue_threshold = static_cast<std::uint64_t>(cfg.ca_queue_threshold);
  pc.escalate_after = cfg.gvt_escalate_rounds;
  return TierPolicy(CaTriggerPolicy(pc));
}

/// Parse a full --gvt specification — "kind[,key=value,...]", e.g.
/// "epoch,escalate=4,clamp=2" — into `cfg`. The bare kind keeps every
/// escalation knob at its current value; unknown kinds, unknown keys, and
/// out-of-range values all throw naming the valid alternatives.
inline void apply_gvt_spec(SimulationConfig& cfg, std::string_view text) {
  std::string_view kind = text;
  std::string_view params;
  if (const auto comma = text.find(','); comma != std::string_view::npos) {
    kind = text.substr(0, comma);
    params = text.substr(comma + 1);
  }
  cfg.gvt = gvt_kind_from(kind);
  if (params.empty()) return;
  const Options opts = Options::parse_kv(params);
  cfg.gvt_escalate_rounds =
      static_cast<int>(opts.get_int("escalate", cfg.gvt_escalate_rounds));
  cfg.gvt_throttle_clamp = opts.get_double("clamp", cfg.gvt_throttle_clamp);
  for (const std::string& key : opts.unused_keys())
    throw std::invalid_argument("unknown --gvt parameter: '" + key +
                                "' (expected escalate or clamp)");
}

/// Pick a tree-reduction arity for `nodes` ranks from the cluster cost
/// model (the A11 ablation's wave-latency model): one reduce-up or
/// broadcast-down traversal costs depth * (link latency + per-hop CPU)
/// on the critical path, plus the parent's service of its `arity` child
/// frames per level. Wider trees are shallower (fewer latency hops) but
/// serialize more per-child work at each parent; the crossover moves with
/// the node count. --tree-arity > 0 overrides the autotune.
inline int autotune_tree_arity(int nodes, const net::ClusterSpec& cluster) {
  if (nodes <= 3) return 2;
  int best_arity = 2;
  double best_cost = 0;
  for (int arity = 2; arity <= 8 && arity < nodes; ++arity) {
    int depth = 0;
    for (long long span = 1; span < nodes; span *= arity) ++depth;
    const double per_level =
        static_cast<double>(cluster.net_latency) +
        static_cast<double>(cluster.mpi_collective_cpu) +
        static_cast<double>(arity) * static_cast<double>(cluster.control_recv_cpu);
    const double cost = static_cast<double>(depth) * per_level;
    if (best_cost == 0 || cost < best_cost) {
      best_cost = cost;
      best_arity = arity;
    }
  }
  return best_arity;
}

}  // namespace cagvt::core
