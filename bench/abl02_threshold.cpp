// Ablation A2: CA-GVT efficiency-threshold sweep on the 10-15 mixed model.
//
// The paper uses an 80% threshold and notes "the percentage of the
// simulation executed synchronously by CA-GVT is dependent on the
// efficiency threshold". Threshold 0 degenerates to pure Mattern; a
// threshold near 100% forces near-constant synchrony (approaching Barrier
// behaviour plus token overhead).
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult threshold_point(std::int64_t threshold_pct) {
  SimulationConfig cfg = figure_config(8);
  cfg.gvt = GvtKind::kControlledAsync;
  cfg.ca_efficiency_threshold = static_cast<double>(threshold_pct) / 100.0;
  return core::run_mixed(cfg, 10, 15);
}

void export_threshold_counters(State& state, const SimulationResult& r) {
  export_counters(state, r);
  state.counters["sync_fraction_pct"] =
      r.gvt_rounds == 0 ? 0.0
                        : 100.0 * static_cast<double>(r.sync_rounds) /
                              static_cast<double>(r.gvt_rounds);
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(argc, argv, "abl02",
                         {{"BM_Threshold", {"threshold_pct"}, product({{0, 60, 70, 80, 90, 99}}),
                           [](const Args& a) { return threshold_point(a[0]); },
                           export_threshold_counters}});
}
