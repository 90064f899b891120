// Ablation A1: GVT interval sweep.
//
// The paper chooses intervals of 25-50 "because they resulted in the best
// overall performance". This ablation regenerates that tuning decision:
// too small an interval makes synchronous rounds dominate (and Mattern
// rounds churn); too large an interval delays fossil collection, grows
// event histories, and lets communication-mode feedback run longer between
// flushes.
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult interval_point(GvtKind gvt, const Workload& workload, std::int64_t interval) {
  SimulationConfig cfg = figure_config(8);
  cfg.gvt = gvt;
  cfg.gvt_interval = static_cast<int>(interval);
  return core::run_phold(cfg, workload);
}

void export_history_counters(State& state, const SimulationResult& r) {
  export_counters(state, r);
  state.counters["max_history"] = static_cast<double>(r.events.max_history);
}

Series interval_series(const char* name, GvtKind gvt, const Workload& workload) {
  return {name, {"interval"}, product({{10, 25, 50, 100}}),
          [gvt, workload](const Args& a) { return interval_point(gvt, workload, a[0]); },
          export_history_counters};
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "abl01",
      {interval_series("BM_MatternComp", GvtKind::kMattern, Workload::computation()),
       interval_series("BM_BarrierComp", GvtKind::kBarrier, Workload::computation()),
       interval_series("BM_BarrierComm", GvtKind::kBarrier, Workload::communication()),
       interval_series("BM_CaComm", GvtKind::kControlledAsync, Workload::communication())});
}
