// Ablation 11: weak-scaling shoot-out of all four GVT algorithms on
// many-core cluster sizes far beyond the paper's 8 nodes.
//
// Per-node work is held constant (3 threads, 8 LPs/worker — deliberately
// small so a 256-node virtual cluster is still one tractable simulation)
// while the node count sweeps 8..64, and 128/256 with CAGVT_ABL11_STRESS=1.
// The metric of interest is gvt_rounds_per_s: how fast each algorithm can
// turn GVT over as the reduction widens. Barrier and Mattern pay a flat
// O(nodes) collect per round and an interval-clocked restart; the epoch
// pipeline keeps a log-arity tree reduction permanently in flight, so its
// round rate should hold (and its GVT lag shrink) where the flat
// algorithms' rates collapse — Shchur & Novotny's time-horizon wall.
//
// Committed rate is exported too, but at this per-node scale it mostly
// tracks event-population effects; rounds/sec is the scaling story.
#include <cstdlib>

#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(int nodes, GvtKind gvt) {
  SimulationConfig cfg = core::scaled_config(nodes, 0.5);
  cfg.end_vt = 15.0;
  cfg.gvt = gvt;
  cfg.mpi = MpiPlacement::kDedicated;
  return core::run_phold(cfg, Workload::communication());
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  Args sizes = {8, 16, 32, 64};
  const char* stress = std::getenv("CAGVT_ABL11_STRESS");
  if (stress != nullptr && std::string(stress) != "0") {
    sizes.push_back(128);
    sizes.push_back(256);
  }
  const std::vector<Args> nodes = product({sizes});
  return run_figure_main(
      argc, argv, "abl11",
      {{"BM_Barrier", {"nodes"}, nodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier); }},
       {"BM_Mattern", {"nodes"}, nodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern); }},
       {"BM_CaGvt", {"nodes"}, nodes,
        [](const Args& a) { return point(a[0], GvtKind::kControlledAsync); }},
       {"BM_Epoch", {"nodes"}, nodes,
        [](const Args& a) { return point(a[0], GvtKind::kEpoch); }}});
}
