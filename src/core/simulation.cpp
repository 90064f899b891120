#include "core/simulation.hpp"

#include <algorithm>

#include "cons/controller.hpp"
#include "core/node_runtime.hpp"
#include "core/recovery.hpp"
#include "fault/fault_engine.hpp"
#include "flow/controller.hpp"
#include "lb/controller.hpp"
#include "util/log.hpp"

namespace cagvt::core {

namespace {

/// The run's controllers, each only when enabled: a disabled subsystem is
/// never touched (lb registers its metrics at construction). The order is
/// the call order — recovery plans a round before lb commits moves to it.
RoundHooks make_round_hooks(const ClusterServices& cluster) {
  const SimulationConfig& cfg = cluster.cfg;
  RoundHooks hooks;
  // Recovery: checkpoints are requested or a crash is scheduled (a crash
  // always has the initial checkpoint to rewind to).
  bool has_crash = false;
  for (const auto& spec : cfg.faults)
    if (spec.kind == fault::FaultKind::kCrash) has_crash = true;
  if (cfg.ckpt_every > 0 || has_crash) {
    auto recovery = std::make_unique<RecoveryManager>(cfg, cluster.engine, &cluster.metrics);
    // Checkpoints must capture (and restores rewind) LP placement whenever
    // the owner table can change under migration.
    if (cfg.lb.enabled()) recovery->set_owner_table(&cluster.owners);
    hooks.push_back(std::move(recovery));
  }
  // Conservative synchronization rejects models without a positive
  // lookahead here, before any coroutine starts.
  if (cfg.sync.enabled())
    hooks.push_back(std::make_unique<cons::Controller>(cfg.sync, cluster.map,
                                                       cluster.model.lookahead(), cfg.end_vt));
  if (cfg.lb.enabled())
    hooks.push_back(std::make_unique<lb::Controller>(cfg.lb, cluster.owners, cluster.metrics,
                                                     &cluster.trace));
  if (cfg.flow.enabled())
    hooks.push_back(std::make_unique<flow::Controller>(
        cfg.flow, cfg.nodes * cfg.workers_per_node(), cluster.faults, &cluster.trace));
  return hooks;
}

}  // namespace

Simulation::Simulation(SimulationConfig cfg, const pdes::Model& model)
    : cfg_(std::move(cfg)), model_(model) {
  cfg_.validate();
}

SimulationResult Simulation::run(double max_wall_seconds) {
  const pdes::LpMap map = make_map(cfg_);
  // Dynamic LP placement: identity overlay over the static map; the
  // balancer (when enabled) rewrites it at GVT fences. With --lb=off the
  // table never changes and routing is identical to the static map.
  pdes::OwnerTable owners(map);

  metasim::Engine engine;
  Fabric fabric(engine, cfg_.cluster, cfg_.nodes);
  // The tree reduction must exist before any traffic: the epoch GVT always
  // runs on it, and any other algorithm opts in through --tree-arity to
  // route the flat rendezvous collectives over the same
  // reduce-up/broadcast-down structure. When --tree-arity is not given the
  // arity is autotuned from the cluster cost model (see
  // autotune_tree_arity): wider trees are shallower (fewer serialized
  // latency hops) but serialize more child receives per parent.
  if (cfg_.gvt_tree_arity > 0 || cfg_.gvt == GvtKind::kEpoch)
    fabric.enable_tree(cfg_.gvt_tree_arity > 0
                           ? cfg_.gvt_tree_arity
                           : autotune_tree_arity(cfg_.nodes, cfg_.cluster));
  ClusterProfiler profiler;

  // Observability is measurement-only: the recorder stamps records with the
  // engine clock but charges no simulated time, so traced and untraced runs
  // are bit-identical in every simulation result.
  auto trace =
      std::make_shared<obs::TraceRecorder>(cfg_.obs.trace, cfg_.obs.trace_capacity);
  auto metrics = std::make_shared<obs::MetricsRegistry>(cfg_.obs.metrics);
  trace->set_clock([&engine] { return engine.now(); });
  fabric.set_trace(trace.get());

  // Fault injection (src/fault): only instantiated when a schedule is
  // present, so healthy runs never touch the subsystem and stay
  // bit-identical to builds without it.
  std::unique_ptr<fault::FaultEngine> faults;
  if (!cfg_.faults.empty()) {
    faults = std::make_unique<fault::FaultEngine>(cfg_.faults, cfg_.fault_seed, cfg_.nodes);
    faults->arm(engine, trace.get(), metrics.get());
    fabric.set_fault(faults.get());
  }
  // Loss or crash specs need delivery guarantees the raw wire does not
  // give: switch the fabric to sequence-numbered, acked, retransmitting
  // streams. Healthy runs (and fault schedules that only perturb timing)
  // keep the bare wire and stay bit-identical to earlier builds.
  if (faults != nullptr && faults->needs_reliable_transport())
    fabric.enable_reliable(cfg_.fault_seed);

  ClusterServices cluster{.engine = engine, .fabric = fabric, .cfg = cfg_, .map = map,
                          .owners = owners, .model = model_, .profiler = profiler,
                          .trace = *trace, .metrics = *metrics, .faults = faults.get(),
                          .hooks = {}};
  cluster.hooks = make_round_hooks(cluster);

  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  nodes.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (int n = 0; n < cfg_.nodes; ++n) nodes.push_back(std::make_unique<NodeRuntime>(cluster, n));
  for (auto& node : nodes) node->start();

  engine.run(metasim::seconds(max_wall_seconds));

  SimulationResult result;
  result.completed = true;
  for (auto& node : nodes) {
    if (!node->stopped()) {
      result.completed = false;
      CAGVT_LOG_WARN("node %d did not reach end_vt before the wall-clock cap", node->rank());
    }
  }

  for (auto& node : nodes) {
    for (auto& worker : node->workers()) worker->kernel.final_commit();
    result.events += node->aggregate_kernel_stats();
    result.committed_fingerprint += node->committed_fingerprint();
    result.state_hash += node->state_hash();
    result.regional_msgs += node->regional_msgs();
    result.remote_msgs += node->remote_msgs();
    result.gvt_block_seconds += metasim::to_seconds(node->gvt_block_time());
    result.lock_wait_seconds += metasim::to_seconds(node->lock_wait_time());
  }
  result.gvt_block_seconds += metasim::to_seconds(fabric.collective_block_time());

  result.wall_seconds = metasim::to_seconds(engine.now());
  result.host_work = engine.host_work();
  result.committed_rate = result.wall_seconds > 0
                              ? static_cast<double>(result.events.committed) /
                                    result.wall_seconds
                              : 0;
  result.efficiency = result.events.efficiency();
  result.final_gvt = nodes.front()->final_gvt();

  const auto& gvt0 = nodes.front()->gvt();
  result.gvt_rounds = gvt0.stats().rounds;
  result.sync_rounds = gvt0.stats().sync_rounds;
  result.gvt_throttle_rounds = gvt0.stats().throttle_rounds;
  for (auto& node : nodes)
    result.gvt_throttle_engagements += node->gvt().stats().throttle_engagements;
  result.gvt_round_seconds = metasim::to_seconds(gvt0.stats().round_time_total);
  result.avg_lvt_disparity = profiler.avg_lvt_disparity();
  // Barrier GVT measures no efficiency.
  if (cfg_.gvt != GvtKind::kBarrier)
    result.last_global_efficiency = gvt0.last_global_efficiency();
  result.gvt_trace = profiler.gvt_trace();
  result.net_frames = fabric.network().frames_sent();
  result.tree_frames = fabric.tree_frames();
  result.retransmits = fabric.retransmits();
  result.acks_sent = fabric.acks_sent();
  result.duplicates_dropped = fabric.duplicates_dropped();
  result.down_drops = fabric.down_drops();
  if (faults != nullptr) {
    result.fault_activations = faults->activations();
    result.fault_jitter_draws = faults->jitter_draws();
    result.frames_dropped = faults->frames_dropped();
  }
  result.owner_table_version = owners.version();
  result.peak_event_pool = result.events.pool_peak;
  for (const auto& hook : cluster.hooks) hook->report(result, *metrics);

  // Detach the engine-bound clock (the engine dies with this frame) and
  // mirror the headline results into the registry so a single metrics CSV
  // carries both the live-run counters and the end-of-run aggregates.
  trace->set_clock(nullptr);
  if (metrics->enabled()) {
    metrics->gauge("run.committed").set(static_cast<double>(result.events.committed));
    metrics->gauge("run.processed").set(static_cast<double>(result.events.processed));
    metrics->gauge("run.rolled_back").set(static_cast<double>(result.events.rolled_back));
    metrics->gauge("run.efficiency").set(result.efficiency);
    metrics->gauge("run.committed_rate").set(result.committed_rate);
    metrics->gauge("run.wall_seconds").set(result.wall_seconds);
    metrics->gauge("run.final_gvt").set(result.final_gvt);
    metrics->gauge("run.lvt_disparity").set(result.avg_lvt_disparity);
    metrics->gauge("run.gvt_block_seconds").set(result.gvt_block_seconds);
    metrics->gauge("run.lock_wait_seconds").set(result.lock_wait_seconds);
    metrics->gauge("run.completed").set(result.completed ? 1 : 0);
    metrics->gauge("run.gvt_throttle_rounds")
        .set(static_cast<double>(result.gvt_throttle_rounds));
    metrics->gauge("run.gvt_throttle_engagements")
        .set(static_cast<double>(result.gvt_throttle_engagements));
    if (faults != nullptr) {
      metrics->gauge("run.fault_activations")
          .set(static_cast<double>(result.fault_activations));
      metrics->gauge("run.fault_jitter_draws")
          .set(static_cast<double>(result.fault_jitter_draws));
      metrics->gauge("run.frames_dropped").set(static_cast<double>(result.frames_dropped));
      metrics->gauge("run.retransmits").set(static_cast<double>(result.retransmits));
    }
    metrics->gauge("flow.peak_event_pool").set(static_cast<double>(result.peak_event_pool));
  }
  if (cfg_.obs.trace) result.trace = trace;
  if (cfg_.obs.metrics) result.metrics = metrics;
  return result;
}

}  // namespace cagvt::core
