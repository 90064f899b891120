// Ablation A6: GVT algorithms under deterministic perturbation (src/fault).
//
// Three cluster scenarios, each run with every GVT algorithm on the
// computation-dominated PHOLD workload:
//
//   scenario 0  healthy    no faults — the baseline the others divide into
//   scenario 1  straggler  node 3 computes 4x slower for the middle of the
//                          run (t=5ms..15ms of a ~20ms simulated wall)
//   scenario 2  degraded   every link at 4x latency, half bandwidth, 2us
//                          jitter, plus periodic 200us MPI-progress stalls
//                          on node 1
//
// The paper's argument predicts the ordering: Barrier couples every node to
// the slowest one each round, so a straggler/stall hits it hardest; pure
// asynchronous Mattern keeps fast nodes racing ahead of the perturbed one
// and pays in rollbacks; CA-GVT detects the efficiency collapse and falls
// back to synchronous rounds only while the perturbation lasts.
//
// The perturbation schedule is deterministic (counter-based RNG), so each
// point still runs exactly once (Iterations(1)).
#include "figure_common.hpp"

#include "fault/fault_parse.hpp"

namespace cagvt::bench {
namespace {

const char* const kScenarios[] = {
    /*healthy=*/"",
    /*straggler=*/"straggler:node=3,t=5ms..15ms,slow=4x",
    /*degraded=*/"link:latency=4x,bw=0.5,jitter=2us;"
                 "mpistall:node=1,t=2ms..,stall=200us,period=2ms",
};

SimulationResult perturbation_point(GvtKind gvt, std::int64_t scenario) {
  SimulationConfig cfg = figure_config(8);
  cfg.gvt = gvt;
  const char* const schedule = kScenarios[scenario];
  if (schedule[0] != '\0') cfg.faults = fault::parse_fault_schedule(schedule);
  return core::run_phold(cfg, Workload::computation());
}

void export_fault_counters(State& state, const SimulationResult& r) {
  export_counters(state, r);
  state.counters["fault_activations"] = static_cast<double>(r.fault_activations);
}

// Arg: 0 = healthy, 1 = straggler, 2 = degraded links + MPI stalls.
Series perturbation_series(const char* name, GvtKind gvt) {
  return {name, {"scenario"}, product({{0, 1, 2}}),
          [gvt](const Args& a) { return perturbation_point(gvt, a[0]); }, export_fault_counters};
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(argc, argv, "abl06",
                         {perturbation_series("BM_Mattern", GvtKind::kMattern),
                          perturbation_series("BM_Barrier", GvtKind::kBarrier),
                          perturbation_series("BM_CaGvt", GvtKind::kControlledAsync)});
}
