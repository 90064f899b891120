// Ablation A3: the full MPI placement spectrum, including the
// "everywhere" mode the paper's introduction argues against (every thread
// makes its own MPI calls through the library's lock, cf. Amer et al. [2]
// on MPI+threads lock contention).
//
// Expected ordering under communication load:
//   dedicated > combined >> everywhere
// with the lock-wait counter exposing the contention the everywhere mode
// suffers.
#include "figure_common.hpp"

namespace cagvt::bench {
namespace {

SimulationResult placement_point(int nodes, MpiPlacement mpi) {
  SimulationConfig cfg = figure_config(nodes);
  cfg.gvt = GvtKind::kMattern;
  cfg.mpi = mpi;
  return core::run_phold(cfg, Workload::communication());
}

void export_lock_counters(State& state, const SimulationResult& r) {
  export_counters(state, r);
  state.counters["lock_wait_thread_s"] = r.lock_wait_seconds;
}

Series placement_series(const char* name, MpiPlacement mpi) {
  return {name, {"nodes"}, kPaperNodes,
          [mpi](const Args& a) { return placement_point(a[0], mpi); },
          export_lock_counters};
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(argc, argv, "abl03",
                         {placement_series("BM_DedicatedComm", MpiPlacement::kDedicated),
                          placement_series("BM_CombinedComm", MpiPlacement::kCombined),
                          placement_series("BM_EverywhereComm", MpiPlacement::kEverywhere)});
}
