// Figure 9: Mattern vs Barrier vs CA-GVT, communication-dominated
// workload. Paper result at 8 nodes: CA-GVT detects the low efficiency,
// switches to synchronous rounds, and finishes 2% behind Barrier but 13%
// ahead of Mattern — with the simulation's final efficiency pinned at the
// CA threshold (paper: 79.95% with an 80% threshold).
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
      argc, argv, "fig09",
      {{"BM_Mattern", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern); }},
       {"BM_Barrier", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier); }},
       {"BM_CaGvt", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kControlledAsync); }}});
}
