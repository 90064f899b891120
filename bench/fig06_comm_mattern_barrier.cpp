// Figure 6: Mattern vs Barrier, communication-dominated workload
// (dedicated MPI thread). Paper result: Barrier wins by 14.5% at 8 nodes —
// its per-round in-transit flush caps the rollback feedback loop that
// craters Mattern's efficiency (paper: 94.2% vs 64.3%).
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(int nodes, GvtKind gvt) {
  SimulationConfig cfg = figure_config(nodes);
  cfg.gvt = gvt;
  cfg.mpi = MpiPlacement::kDedicated;
  return core::run_phold(cfg, Workload::communication());
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "fig06",
      {{"BM_Mattern", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern); }},
       {"BM_Barrier", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier); }}});
}
