// Ablation A5: rollback mechanism — state checkpointing vs reverse
// computation (ROSS's native mode), on the same PHOLD workload.
//
// Reverse computation skips the per-event checkpoint (a copy cost on the
// forward path) at the price of an inverse handler call during rollback.
// Expected: a modest rate edge and a lower memory footprint for reverse
// computation in high-efficiency workloads; the gap narrows when rollbacks
// are frequent.
#include <memory>

#include "figure_common.hpp"

#include "models/reverse_phold.hpp"

namespace cagvt::bench {
namespace {

SimulationResult state_saving_point(int nodes, bool reverse, const Workload& workload) {
  SimulationConfig cfg = figure_config(nodes);
  cfg.gvt = GvtKind::kMattern;
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  const models::PholdParams params = workload.phold();
  std::unique_ptr<pdes::Model> model;
  if (reverse) {
    model = std::make_unique<models::ReversePholdModel>(map, params);
  } else {
    model = std::make_unique<models::PholdModel>(map, params);
  }
  core::Simulation sim(cfg, *model);
  return sim.run();
}

void export_history_counters(State& state, const SimulationResult& r) {
  export_counters(state, r);
  state.counters["max_history"] = static_cast<double>(r.events.max_history);
}

Series state_saving_series(const char* name, bool reverse, const Workload& workload) {
  return {name, {"nodes"}, kPaperNodes,
          [reverse, workload](const Args& a) {
            return state_saving_point(a[0], reverse, workload);
          },
          export_history_counters};
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(
      argc, argv, "abl05",
      {state_saving_series("BM_CheckpointComp", /*reverse=*/false, Workload::computation()),
       state_saving_series("BM_ReverseComp", /*reverse=*/true, Workload::computation()),
       state_saving_series("BM_CheckpointComm", /*reverse=*/false, Workload::communication()),
       state_saving_series("BM_ReverseComm", /*reverse=*/true, Workload::communication())});
}
