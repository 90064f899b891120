// Figure 4: Dedicated MPI Thread for the Communication-Dominated Workload.
//
// Same four series as Figure 3 under the 90% regional / 10% remote / 5K
// EPG profile. Paper result: the dedicated MPI thread is dramatically
// better — 14.59x for Mattern and 4.29x for Barrier at 8 nodes — because
// the combined thread's MPI backlog saturates and drags the whole
// simulation into rollback storms.
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(int nodes, GvtKind gvt, MpiPlacement mpi) {
  SimulationConfig cfg = figure_config(nodes);
  cfg.gvt = gvt;
  cfg.mpi = mpi;
  return core::run_phold(cfg, Workload::communication());
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "fig04",
      {{"BM_MatternDedicated", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern, MpiPlacement::kDedicated); }},
       {"BM_MatternCombined", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern, MpiPlacement::kCombined); }},
       {"BM_BarrierDedicated", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier, MpiPlacement::kDedicated); }},
       {"BM_BarrierCombined", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier, MpiPlacement::kCombined); }}});
}
