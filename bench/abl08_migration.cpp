// Ablation A8: dynamic LP migration (--lb=roughness) versus static
// placement on the three workloads where placement matters:
//
//   scenario 0  imbalance  A4's hot-worker model (a quarter of each node's
//                          workers host LPs whose events cost 4x the base
//                          EPG) — a static skew the balancer spreads out
//   scenario 1  straggler  A6's perturbation (node 3 computes 4x slower
//                          from t=2ms to the end of the run) — the
//                          balancer evacuates the degraded node wholesale
//   scenario 2  hotspot    Zipf-weighted per-LP heat (compute + targets)
//                          stacks the hot set on worker 0's block
//
// Each scenario carries its own policy parameters — the right
// aggressiveness is a property of the skew being repaired, not of the
// cluster. The imbalance scenario wants a lazy trigger (the first few
// moves carry all the value; after that shedding hits its floor and the
// stall backoff parks the balancer). The straggler wants whole-node
// evacuation (budget >= every LP on the node, min-lps=0): partial
// evacuation leaves migrated LPs chained to still-degraded block mates
// and the rollback echo eats the gain. The hotspot wants one LP per
// fence: its heat is Zipf-skewed, so moving the single hottest LP to the
// nearest leader is most of the achievable win.
//
// Both series run under Mattern GVT (asynchronous rounds let the laggards
// fall behind, which is exactly the LVT roughness the policy measures).
// Migration must win on simulated wall-clock and rollback efficiency, with
// the roughness signal visibly flattened (lvt_roughness counter). The
// cluster is deliberately small (4 nodes x 4 workers x 8 LPs): migration
// repairs placement skew, and at this scale a single worker's skew is a
// large fraction of cluster capacity — the same reason the paper's
// imbalance ablations bite hardest at modest node counts.
#include "figure_common.hpp"

#include "fault/fault_parse.hpp"
#include "models/hotspot_phold.hpp"
#include "models/imbalanced_phold.hpp"

namespace cagvt::bench {
namespace {

enum Scenario { kImbalance = 0, kStraggler = 1, kHotspot = 2 };

void export_lb_counters(State& state, const SimulationResult& r) {
  state.counters["lvt_roughness"] = r.avg_lvt_roughness;
  state.counters["migrations"] = static_cast<double>(r.lb_migrations);
  state.counters["migration_rounds"] = static_cast<double>(r.lb_migration_rounds);
  state.counters["forwards"] = static_cast<double>(r.lb_forwards);
  state.counters["owner_table_version"] = static_cast<double>(r.owner_table_version);
}

SimulationConfig migration_config() {
  SimulationConfig cfg;
  cfg.nodes = 4;
  cfg.threads_per_node = 4;
  cfg.lps_per_worker = 8;
  cfg.end_vt = 300.0;
  cfg.gvt = GvtKind::kMattern;
  // Fence cadence: migration can only act at round fences, so the round
  // interval bounds the balancer's reaction time.
  cfg.gvt_interval = 12;
  return cfg;
}

SimulationResult migration_point(bool migrate, Scenario scenario) {
  SimulationConfig cfg = migration_config();

  switch (scenario) {
    case kImbalance: {
      if (migrate) cfg.lb = lb::parse_lb("roughness,trigger=2.0,budget=2,cooldown=8");
      const pdes::LpMap map = core::Simulation::make_map(cfg);
      models::ImbalancedPholdParams params;
      params.base = Workload::computation().phold();
      params.hot_worker_fraction = 0.25;
      params.hot_factor = 4;
      const models::ImbalancedPholdModel model(map, params);
      core::Simulation sim(cfg, model);
      return sim.run();
    }
    case kStraggler: {
      if (migrate)
        cfg.lb = lb::parse_lb("roughness,trigger=0.5,budget=32,cooldown=8,min-lps=0");
      cfg.faults = fault::parse_fault_schedule("straggler:node=3,t=2ms..1s,slow=4x");
      return core::run_phold(cfg, Workload::computation());
    }
    case kHotspot: {
      if (migrate) cfg.lb = lb::parse_lb("roughness,trigger=1.0,budget=1,cooldown=6");
      cfg.end_vt = 100.0;  // the hot block's echo, not the horizon, is the story
      const pdes::LpMap map = core::Simulation::make_map(cfg);
      models::HotspotPholdParams params;
      params.base = Workload::computation().phold();
      params.hotspot_pct = 0.10;
      params.hot_cost = 8.0;
      const models::HotspotPholdModel model(map, params);
      core::Simulation sim(cfg, model);
      return sim.run();
    }
  }
  return {};
}

// Arg: 0 = imbalance (A4), 1 = straggler (A6), 2 = hotspot PHOLD.
Series migration_series(const char* name, bool migrate) {
  return {name, {"scenario"}, product({{0, 1, 2}}),
          [migrate](const Args& a) {
            return migration_point(migrate, static_cast<Scenario>(a[0]));
          },
          [](State& state, const SimulationResult& r) {
            export_counters(state, r);
            export_lb_counters(state, r);
          }};
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(argc, argv, "abl08",
                         {migration_series("BM_Static", false),
                          migration_series("BM_Roughness", true)});
}
