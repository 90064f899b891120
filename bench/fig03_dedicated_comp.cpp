// Figure 3: Dedicated MPI Thread for the Computation-Dominated Workload.
//
// Four series (Mattern/Barrier x dedicated/combined MPI thread) of
// committed event rate over node count. Paper result: the dedicated MPI
// thread wins for both algorithms (+51% Mattern, +17% Barrier at 8 nodes).
//
// Scale note: this figure runs at twice the base scale (13 threads/node by
// default). Dedicating a thread sacrifices 1/N of the node's workers; the
// paper's N is 60, so the benefit needs enough threads per node to emerge
// (see EXPERIMENTS.md).
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(int nodes, GvtKind gvt, MpiPlacement mpi) {
  SimulationConfig cfg =
      core::scaled_config(nodes, 2.0 * core::bench_scale_from_env());
  cfg.gvt = gvt;
  cfg.mpi = mpi;
  return core::run_phold(cfg, Workload::computation());
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "fig03",
      {{"BM_MatternDedicated", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern, MpiPlacement::kDedicated); }},
       {"BM_MatternCombined", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern, MpiPlacement::kCombined); }},
       {"BM_BarrierDedicated", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier, MpiPlacement::kDedicated); }},
       {"BM_BarrierCombined", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier, MpiPlacement::kCombined); }}});
}
