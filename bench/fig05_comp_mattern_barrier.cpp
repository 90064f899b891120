// Figure 5: Mattern vs Barrier, computation-dominated workload (dedicated
// MPI thread). Paper result: Mattern's asynchronous GVT wins — 27.9%
// faster at 8 nodes — because barrier stalls waste time that optimistic
// threads could spend processing coarse (10K EPG) events.
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
      argc, argv, "fig05",
      {{"BM_Mattern", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern); }},
       {"BM_Barrier", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier); }}});
}
