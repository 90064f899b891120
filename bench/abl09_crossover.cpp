// Ablation A9: the optimistic-vs-conservative crossover.
//
// Every model runs identically (same seed, same lookahead-bearing
// timestamp stream) under the three --sync modes, sweeping the three
// axes that the conservative literature predicts decide the winner:
//
//   epg     event granularity (500 = communication-dominated, 10000 =
//           computation-dominated). Fat events amortize synchronization:
//           both null messages and speculative rollbacks shrink relative
//           to useful work as epg grows.
//   remote  cross-node fraction (1% vs 10%). Remote traffic is where
//           optimism pays for mis-speculation (rollback cascades cross
//           the network) and where CMB pays for caution (demands and
//           nulls ride the same links).
//   lps     LP density per worker (8 vs 32). More LPs per worker widen
//           the safe horizon — with k LPs the pending minimum advances k
//           timestamps per lookahead window, so conservative blocking
//           drops as density rises (Kolakowska & Novotny's utilization
//           argument).
//
// Series = sync mode; each point carries the update statistics
// (utilization, null ratio, horizon width) next to the throughput
// numbers, so BENCH_abl09.json holds the full crossover surface for the
// three model classes (phold / imbalanced / hotspot). The comparator is
// sim_wall_s — simulated cluster wall-clock on the same virtual horizon.
#include "figure_common.hpp"

#include "models/hotspot_phold.hpp"
#include "models/imbalanced_phold.hpp"

namespace cagvt::bench {
namespace {

enum Model { kPhold = 0, kImbalanced = 1, kHotspot = 2 };

void export_cons_counters(State& state, const SimulationResult& r) {
  state.counters["cons_utilization"] = r.cons_utilization;
  state.counters["cons_null_ratio"] = r.cons_null_ratio;
  state.counters["cons_horizon_width"] = r.cons_horizon_width;
  state.counters["null_msgs"] = static_cast<double>(r.cons_null_msgs);
  state.counters["req_msgs"] = static_cast<double>(r.cons_req_msgs);
}

// Args: model (0 phold, 1 imbalanced, 2 hotspot), epg, remote%, LPs/worker.
SimulationResult crossover_point(cons::SyncKind sync, const Args& args) {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 4;
  cfg.lps_per_worker = static_cast<int>(args[3]);
  cfg.end_vt = 60.0;
  cfg.gvt = GvtKind::kMattern;
  cfg.gvt_interval = 8;
  cfg.sync.kind = sync;

  // The identical model instance under every sync mode: min_delay is the
  // conservative lookahead, and it perturbs the optimistic timestamp
  // stream the same way, so the three series commit the same events.
  models::PholdParams base;
  base.epg_units = static_cast<double>(args[1]);
  base.remote_pct = static_cast<double>(args[2]) / 100.0;
  base.regional_pct = 0.20;
  base.mean_delay = 1.0;
  base.min_delay = 0.5;

  const pdes::LpMap map = core::Simulation::make_map(cfg);
  switch (static_cast<Model>(args[0])) {
    case kPhold: {
      const models::PholdModel model(map, base);
      core::Simulation sim(cfg, model);
      return sim.run();
    }
    case kImbalanced: {
      models::ImbalancedPholdParams params;
      params.base = base;
      params.hot_worker_fraction = 0.25;
      params.hot_factor = 4.0;
      const models::ImbalancedPholdModel model(map, params);
      core::Simulation sim(cfg, model);
      return sim.run();
    }
    case kHotspot: {
      models::HotspotPholdParams params;
      params.base = base;
      params.hotspot_pct = 0.15;
      params.zipf_s = 1.1;
      params.hot_cost = 6.0;
      const models::HotspotPholdModel model(map, params);
      core::Simulation sim(cfg, model);
      return sim.run();
    }
  }
  return {};
}

// The full 24-point grid per sync mode.
Series crossover_series(const char* name, cons::SyncKind sync) {
  return {name, {"model", "epg", "remote", "lps"},
          product({{0, 1, 2}, {500, 10000}, {1, 10}, {8, 32}}),
          [sync](const Args& a) { return crossover_point(sync, a); },
          [](State& state, const SimulationResult& r) {
            export_counters(state, r);
            export_cons_counters(state, r);
          }};
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  using cagvt::cons::SyncKind;
  return run_figure_main(argc, argv, "abl09",
                         {crossover_series("BM_Optimistic", SyncKind::kOptimistic),
                          crossover_series("BM_Cmb", SyncKind::kCmb),
                          crossover_series("BM_Window", SyncKind::kWindow)});
}
