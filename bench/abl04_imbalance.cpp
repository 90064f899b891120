// Ablation A4: imbalanced model — a quarter of each node's workers host
// "hot" LPs whose events cost 4x the base EPG.
//
// The paper (and its predecessor, Eker et al. DS-RT 2018) observes that
// synchronous GVT tolerates imbalance better: barriers stop fast threads
// from racing far ahead of the loaded ones, containing the straggler
// traffic the imbalance would otherwise generate.
#include "figure_common.hpp"

#include "models/imbalanced_phold.hpp"

namespace cagvt::bench {
namespace {

SimulationResult imbalance_point(GvtKind gvt, double hot_factor) {
  SimulationConfig cfg = figure_config(8);
  cfg.gvt = gvt;
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  models::ImbalancedPholdParams params;
  params.base = Workload::computation().phold();
  params.hot_worker_fraction = 0.25;
  params.hot_factor = hot_factor;
  const models::ImbalancedPholdModel model(map, params);
  core::Simulation sim(cfg, model);
  return sim.run();
}

Series imbalance_series(const char* name, GvtKind gvt) {
  return {name, {"hot_factor"}, product({{1, 2, 4, 8}}), [gvt](const Args& a) {
            return imbalance_point(gvt, static_cast<double>(a[0]));
          }};
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(argc, argv, "abl04",
                         {imbalance_series("BM_Mattern", GvtKind::kMattern),
                          imbalance_series("BM_Barrier", GvtKind::kBarrier),
                          imbalance_series("BM_CaGvt", GvtKind::kControlledAsync)});
}
