// Figure 11: the 15-10 mixed model (computation-leaning mix). Paper result
// at 8 nodes: CA-GVT beats Mattern by 6.9% and Barrier by 12.7%.
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(int nodes, GvtKind gvt) {
  SimulationConfig cfg = figure_config(nodes);
  cfg.end_vt = 150.0;
  cfg.gvt = gvt;
  return core::run_mixed(cfg, 15, 10);
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "fig11",
      {{"BM_Mattern", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern); }},
       {"BM_Barrier", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier); }},
       {"BM_CaGvt", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kControlledAsync); }}});
}
