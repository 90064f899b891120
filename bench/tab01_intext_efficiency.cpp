// "Table 1": the in-text metrics of Section 4 at 8 nodes — efficiency,
// rollback counts, LVT disparity, simulated wall time and time in the GVT
// function for Mattern and Barrier under both canonical workloads.
//
// Paper reference points (8 nodes):
//   Mattern comp->comm: rollbacks x6.4, efficiency 92.08% -> 64.24%
//   Barrier comp->comm: wall 21.05s -> 25.64s, GVT function 8.92s -> 31.38s
//   LVT disparity (comm): Barrier 0.31 vs Mattern 0.43
//   Barrier comm efficiency 94.2% vs Mattern 64.3%
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

void export_table_counters(State& state, const SimulationResult& r) {
  export_counters(state, r);
  state.counters["gvt_round_s"] = r.gvt_round_seconds;
  state.counters["gvt_block_thread_s"] = r.gvt_block_seconds;
  state.counters["lock_wait_thread_s"] = r.lock_wait_seconds;
  state.counters["remote_msgs"] = static_cast<double>(r.remote_msgs);
  state.counters["regional_msgs"] = static_cast<double>(r.regional_msgs);
  state.counters["stragglers"] = static_cast<double>(r.events.stragglers);
}

Series table_series(const char* name, GvtKind gvt, const Workload& workload) {
  return {name, {}, product({}),
          [gvt, workload](const Args&) {
            SimulationConfig cfg = figure_config(8);
            cfg.gvt = gvt;
            return core::run_phold(cfg, workload);
          },
          export_table_counters};
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "tab01",
      {table_series("BM_MatternComp", GvtKind::kMattern, Workload::computation()),
       table_series("BM_MatternComm", GvtKind::kMattern, Workload::communication()),
       table_series("BM_BarrierComp", GvtKind::kBarrier, Workload::computation()),
       table_series("BM_BarrierComm", GvtKind::kBarrier, Workload::communication())});
}
