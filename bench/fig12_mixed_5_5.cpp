// Figure 12: the 5-5 mixed model (balanced, rapidly alternating phases).
// Runs a longer virtual horizon (250) so each short phase still lasts long
// enough for its characteristic dynamics to develop.
// Paper result at 8 nodes: CA-GVT beats Mattern by 7.8% and Barrier by
// 8.3%.
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(int nodes, GvtKind gvt) {
  SimulationConfig cfg = figure_config(nodes);
  cfg.end_vt = 250.0;
  cfg.gvt = gvt;
  return core::run_mixed(cfg, 5, 5);
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "fig12",
      {{"BM_Mattern", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern); }},
       {"BM_Barrier", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier); }},
       {"BM_CaGvt", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kControlledAsync); }}});
}
