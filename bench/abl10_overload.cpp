// Ablation A10: overload protection (--flow=bounded, src/flow).
//
// The adversarial workload is hotspot PHOLD — a Zipf-skewed target
// distribution with expensive hot events — on a communication-dominated
// profile (thin events, 10% remote). The hot workers fall behind, everyone
// else speculates far ahead of them, and the run exhibits exactly the two
// failure modes --flow=bounded exists to contain: unbounded event-pool /
// state-log growth on the fast workers, and anti-message echo storms when
// the hot workers' stragglers finally land.
//
// Two series per point:
//
//   FlowOff      unconstrained optimism. peak_pool shows the unbounded
//                growth; secondary_frac shows storm collapse.
//   FlowBounded  the three overload mechanisms on. The acceptance bar:
//                completes with peak_pool <= budget (pressure tiers +
//                cancelback keep the pool inside it) at <= 1.5x the
//                unconstrained sim wall-clock.
//
// Axes: budget (per-worker event-pool cap) x squeeze (0 = static budget
// only, 1 = a mid-run `mem:` fault halves the effective budget — the
// operator-induced pressure spike). A second sweep varies the throttle
// clamp width under the squeezed point, exposing the optimism-vs-progress
// trade. Deterministic seeds, one iteration per point; the comparator is
// sim_wall_s (simulated cluster wall-clock on the same virtual horizon).
#include "figure_common.hpp"

#include <string>

#include "fault/fault_parse.hpp"
#include "flow/flow_config.hpp"
#include "models/hotspot_phold.hpp"

namespace cagvt::bench {
namespace {

void export_flow_counters(State& state, const SimulationResult& r) {
  export_counters(state, r);
  state.counters["peak_pool"] = static_cast<double>(r.peak_event_pool);
  state.counters["cancelbacks"] = static_cast<double>(r.flow_cancelbacks);
  state.counters["releases"] = static_cast<double>(r.flow_releases);
  state.counters["storms"] = static_cast<double>(r.flow_storms);
  state.counters["throttle_engagements"] =
      static_cast<double>(r.flow_throttle_engagements);
  state.counters["forced_rounds"] = static_cast<double>(r.flow_forced_rounds);
  state.counters["secondary_frac"] =
      r.events.rollback_episodes == 0
          ? 0.0
          : static_cast<double>(r.events.secondary_rollbacks) /
                static_cast<double>(r.events.rollback_episodes);
}

SimulationResult run_hotspot(const SimulationConfig& cfg) {
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  models::HotspotPholdParams params;
  params.base.epg_units = 500;       // thin events: rollback-dominated regime
  params.base.regional_pct = 0.20;
  params.base.remote_pct = 0.10;
  params.hotspot_pct = 0.15;
  params.zipf_s = 1.1;
  params.hot_cost = 6.0;
  const models::HotspotPholdModel model(map, params);
  core::Simulation sim(cfg, model);
  return sim.run();
}

// Args: budget x squeeze (0/1). The squeeze halves the effective budget on
// every worker for a 2ms mid-run window via the `mem:` fault spec — under
// --flow=off it is inert (nothing consumes the budget), which keeps the
// two series' event streams identical.
SimulationResult overload_point(bool bounded, const Args& args) {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 4;
  cfg.lps_per_worker = 8;
  cfg.end_vt = 60.0;
  cfg.gvt = GvtKind::kMattern;  // no CA queue trigger: optimism uncontrolled
  cfg.gvt_interval = 24;
  const std::int64_t budget = args[0];
  if (bounded) {
    cfg.flow.kind = flow::FlowKind::kBounded;
    cfg.flow.mem = budget;
  }
  if (args[1] != 0) {
    cfg.faults = fault::parse_fault_schedule(
        "mem:worker=all,budget=" + std::to_string(budget / 2) + ",t=1ms..3ms");
  }
  return run_hotspot(cfg);
}

Series overload_series(const char* name, bool bounded) {
  return {name, {"budget", "squeeze"}, product({{256, 1024}, {0, 1}}),
          [bounded](const Args& a) { return overload_point(bounded, a); }, export_flow_counters};
}

// Throttle clamp width under the squeezed 256-budget point: a narrow clamp
// contains storms hardest but serializes progress; a wide one barely
// throttles. The sweep brackets the default (4.0).
SimulationResult clamp_width_point(std::int64_t clamp) {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 4;
  cfg.lps_per_worker = 8;
  cfg.end_vt = 60.0;
  cfg.gvt = GvtKind::kMattern;
  cfg.gvt_interval = 24;
  cfg.flow.kind = flow::FlowKind::kBounded;
  cfg.flow.mem = 256;
  cfg.flow.clamp = static_cast<double>(clamp);
  cfg.faults = fault::parse_fault_schedule("mem:worker=all,budget=128,t=1ms..3ms");
  return run_hotspot(cfg);
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(argc, argv, "abl10",
                         {overload_series("BM_FlowOff", false),
                          overload_series("BM_FlowBounded", true),
                          {"BM_ClampWidth", {"clamp"}, product({{1, 2, 4, 8}}),
                           [](const Args& a) { return clamp_width_point(a[0]); },
                           export_flow_counters}});
}
