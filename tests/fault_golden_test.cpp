// Golden-model correctness under perturbation: whatever the fault schedule
// does to the cluster's timing — stragglers, degraded links, MPI stalls —
// every GVT algorithm must still commit exactly the sequential oracle's
// event set. Perturbations move WHEN things happen, never WHAT is computed;
// any divergence means a fault hook broke Time Warp's correctness
// machinery (ordering, annihilation, fossil collection).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/simulation.hpp"
#include "fault/fault_parse.hpp"
#include "models/phold.hpp"
#include "pdes/seqref.hpp"

namespace cagvt::core {
namespace {

struct PerturbedCase {
  const char* name;
  const char* schedule;
  /// GVT-aligned checkpoint period (0 = initial checkpoint only).
  int ckpt_every = 0;
  /// Schedule contains a crash that must actually trigger a restore.
  bool expect_restore = false;
  /// Schedule has loss specs: the run must exercise the retransmit path
  /// (asserted across the three algorithms combined — a single algorithm's
  /// traffic may dodge a sparse loss window).
  bool expect_drops = false;
};

// ctest names each discovered case after the printed parameter; without a
// printer gtest dumps the struct's bytes, and these are string pointers, so
// the name would change with the load address from one run to the next.
void PrintTo(const PerturbedCase& c, std::ostream* os) {
  *os << c.schedule;
  if (c.ckpt_every > 0) *os << " ckpt-every=" << c.ckpt_every;
}

class PerturbedGolden : public ::testing::TestWithParam<PerturbedCase> {};

TEST_P(PerturbedGolden, AllAlgorithmsMatchSequentialOracle) {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 6;
  cfg.end_vt = 20.0;
  cfg.gvt_interval = 6;
  cfg.seed = 31;
  cfg.faults = fault::parse_fault_schedule(GetParam().schedule);
  cfg.ckpt_every = GetParam().ckpt_every;

  const pdes::LpMap map = Simulation::make_map(cfg);
  models::PholdParams params;
  params.regional_pct = 0.3;
  params.remote_pct = 0.1;
  params.epg_units = 500;
  const models::PholdModel model(map, params);

  pdes::SequentialReference ref(model, map, {.end_vt = cfg.end_vt, .seed = cfg.seed});
  ref.run();
  ASSERT_GT(ref.committed(), 100u);

  std::uint64_t total_drops = 0;
  for (const GvtKind kind :
       {GvtKind::kBarrier, GvtKind::kMattern, GvtKind::kControlledAsync,
        GvtKind::kEpoch}) {
    cfg.gvt = kind;
    Simulation sim(cfg, model);
    const SimulationResult r = sim.run(120.0);
    ASSERT_TRUE(r.completed) << GetParam().name << "/" << to_string(kind);
    EXPECT_EQ(r.events.committed, ref.committed())
        << GetParam().name << "/" << to_string(kind);
    EXPECT_EQ(r.committed_fingerprint, ref.fingerprint())
        << GetParam().name << "/" << to_string(kind);
    if (GetParam().expect_restore) {
      EXPECT_GE(r.restores, 1u) << GetParam().name << "/" << to_string(kind);
    }
    total_drops += r.frames_dropped;
  }
  if (GetParam().expect_drops) {
    EXPECT_GT(total_drops, 0u) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, PerturbedGolden,
    ::testing::Values(
        PerturbedCase{"straggler_const", "straggler:node=1,t=100us..2ms,slow=4x"},
        PerturbedCase{"straggler_square",
                      "straggler:node=0,t=0..,slow=3x,profile=square,period=300us"},
        PerturbedCase{"straggler_ramp", "straggler:node=all,t=0..3ms,slow=6x,profile=ramp"},
        PerturbedCase{"degraded_links", "link:latency=4x,bw=0.25,jitter=2us"},
        PerturbedCase{"mpi_stalls", "mpistall:node=1,t=100us..,stall=150us,period=800us"},
        PerturbedCase{"everything",
                      "straggler:node=1,t=50us..1ms,slow=4x;"
                      "link:src=0,dst=1,latency=2x,jitter=1us;"
                      "mpistall:node=0,t=200us..3ms,stall=100us,period=600us"},
        // Loss drops frames on the wire; the reliable transport's
        // retransmission must deliver the exact same committed set.
        PerturbedCase{"loss_one_link",
                      "loss:src=0,dst=1,rate=0.25,class=data",
                      /*ckpt_every=*/0, /*expect_restore=*/false, /*expect_drops=*/true},
        PerturbedCase{"loss_all_links",
                      "loss:src=all,dst=all,rate=0.15",
                      /*ckpt_every=*/0, /*expect_restore=*/false, /*expect_drops=*/true},
        // A crash rewinds the cluster to the last GVT-aligned checkpoint;
        // the replay must reconverge on the oracle's committed set.
        PerturbedCase{"crash_restore",
                      "crash:node=1,t=500us,down=300us",
                      /*ckpt_every=*/3, /*expect_restore=*/true},
        // Recovery traffic itself rides lossy links.
        PerturbedCase{"crash_lossy",
                      "loss:src=all,dst=all,rate=0.1;crash:node=1,t=500us,down=300us",
                      /*ckpt_every=*/3, /*expect_restore=*/true, /*expect_drops=*/true}),
    [](const ::testing::TestParamInfo<PerturbedCase>& info) { return info.param.name; });

}  // namespace
}  // namespace cagvt::core
