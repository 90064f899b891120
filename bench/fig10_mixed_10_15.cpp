// Figure 10: the 10-15 mixed model — 10% of the run computation-dominated,
// then 15% communication-dominated, repeating. Paper result at 8 nodes:
// CA-GVT beats Mattern by 8.3% and Barrier by 6.4% by running the
// computation phases asynchronously and the communication phases
// synchronously.
//
// Mixed runs use a longer virtual horizon so each communication phase
// lasts long enough for its characteristic rollback dynamics to develop
// (the paper's phases span minutes of execution).
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult point(int nodes, GvtKind gvt) {
  SimulationConfig cfg = figure_config(nodes);
  cfg.end_vt = 150.0;
  cfg.gvt = gvt;
  return core::run_mixed(cfg, 10, 15);
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "fig10",
      {{"BM_Mattern", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kMattern); }},
       {"BM_Barrier", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kBarrier); }},
       {"BM_CaGvt", {"nodes"}, kPaperNodes,
        [](const Args& a) { return point(a[0], GvtKind::kControlledAsync); }}});
}
