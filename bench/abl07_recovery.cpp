// Ablation A7: crash-consistent recovery (src/core/recovery, net reliable
// transport).
//
// Part 1 — fault scenarios x GVT algorithm (computation PHOLD, ckpt every
// 4 rounds whenever recovery is engaged):
//
//   scenario 0  healthy      no faults, no checkpoints — the baseline
//   scenario 1  checkpoint   no faults, checkpoint every 4 rounds: isolates
//                            the pure snapshot overhead
//   scenario 2  lossy        10% loss on every link for the whole run: the
//                            retransmit path carries the workload
//   scenario 3  crash        node 1 dies at t=2ms for 1ms; the cluster
//                            rewinds to the last GVT-aligned checkpoint
//   scenario 4  crash+lossy  both at once — recovery traffic itself rides
//                            the lossy links
//
// Part 2 — checkpoint period sweep under the crash scenario (CA-GVT):
// period 0 means "initial checkpoint only", so the whole run replays after
// the crash; denser checkpoints shrink the rewind but pay per-round
// snapshot cost. The sweep exposes that trade.
//
// Every fault schedule is deterministic (counter-based RNG keyed by
// --fault-seed), so each point runs exactly once (Iterations(1)) and two
// invocations produce byte-identical results.
#include "figure_common.hpp"

#include "fault/fault_parse.hpp"

namespace cagvt::bench {
namespace {

constexpr const char* kLossAll = "loss:src=all,dst=all,rate=0.1";
constexpr const char* kCrash = "crash:node=1,t=2ms,down=1ms";

struct Scenario {
  const char* schedule;
  int ckpt_every;
};

const Scenario kScenarios[] = {
    /*0 healthy=*/{"", 0},
    /*1 checkpoint=*/{"", 4},
    /*2 lossy=*/{kLossAll, 0},
    /*3 crash=*/{kCrash, 4},
    /*4 crash+lossy=*/{"loss:src=all,dst=all,rate=0.1;crash:node=1,t=2ms,down=1ms", 4},
};

void export_recovery_counters(State& state, const SimulationResult& r) {
  export_counters(state, r);
  state.counters["frames_dropped"] = static_cast<double>(r.frames_dropped);
  state.counters["retransmits"] = static_cast<double>(r.retransmits);
  state.counters["dup_frames"] = static_cast<double>(r.duplicates_dropped);
  state.counters["checkpoints"] = static_cast<double>(r.checkpoints);
  state.counters["restores"] = static_cast<double>(r.restores);
  state.counters["recovery_s"] = r.recovery_seconds;
}

SimulationResult recovery_point(GvtKind gvt, std::int64_t scenario) {
  SimulationConfig cfg = figure_config(4);
  cfg.gvt = gvt;
  const Scenario& sc = kScenarios[scenario];
  if (sc.schedule[0] != '\0') cfg.faults = fault::parse_fault_schedule(sc.schedule);
  cfg.ckpt_every = sc.ckpt_every;
  return core::run_phold(cfg, Workload::computation());
}

// Arg: scenario index (see kScenarios above).
Series recovery_series(const char* name, GvtKind gvt) {
  return {name, {"scenario"}, product({{0, 1, 2, 3, 4}}),
          [gvt](const Args& a) { return recovery_point(gvt, a[0]); }, export_recovery_counters};
}

// Checkpoint period under the crash scenario: 0 = initial checkpoint only.
SimulationResult ckpt_period_point(std::int64_t ckpt_every) {
  SimulationConfig cfg = figure_config(4);
  cfg.gvt = GvtKind::kControlledAsync;
  cfg.faults = fault::parse_fault_schedule(kCrash);
  cfg.ckpt_every = static_cast<int>(ckpt_every);
  return core::run_phold(cfg, Workload::computation());
}

}  // namespace
}  // namespace cagvt::bench

int main(int argc, char** argv) {
  using namespace cagvt::bench;
  return run_figure_main(argc, argv, "abl07",
                         {recovery_series("BM_Mattern", GvtKind::kMattern),
                          recovery_series("BM_Barrier", GvtKind::kBarrier),
                          recovery_series("BM_CaGvt", GvtKind::kControlledAsync),
                          {"BM_CkptPeriod", {"ckpt_every"}, product({{0, 2, 4, 8}}),
                           [](const Args& a) { return ckpt_period_point(a[0]); },
                           export_recovery_counters}});
}
