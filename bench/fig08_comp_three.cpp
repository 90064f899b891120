// Figure 8: Mattern vs Barrier vs CA-GVT, computation-dominated workload.
// Paper result at 8 nodes: CA-GVT runs 8% slower than Mattern (pure
// efficiency-bookkeeping overhead; it stays asynchronous the whole run)
// and 19% faster than Barrier.
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(int nodes, GvtKind gvt) {
  SimulationConfig cfg = figure_config(nodes);
  cfg.gvt = gvt;
  cfg.mpi = MpiPlacement::kDedicated;
  return core::run_phold(cfg, Workload::computation());
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "fig08",
      {{"BM_Mattern", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern); }},
       {"BM_Barrier", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier); }},
       {"BM_CaGvt", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kControlledAsync); }}});
}
