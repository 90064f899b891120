// Outcome-invariance for overload protection: `--flow=bounded` moves
// unprocessed events (cancelback), delays execution (throttle), and forces
// extra GVT rounds — none of which may change WHAT is computed. Every GVT
// algorithm under a budget tight enough to drive red pressure must commit
// exactly the sequential oracle's event set, byte-identical to the same
// run with `--flow=off`. The interaction tests pin the two hardest
// compositions: every subset of {flow, lb, crash recovery} x GVT kind x
// MPI placement (parked events are checkpoint state) and the real-thread backend's
// fence-signaled pressure path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/simulation.hpp"
#include "exec/backend.hpp"
#include "fault/fault_parse.hpp"
#include "flow/flow_config.hpp"
#include "lb/lb_config.hpp"
#include "models/hotspot_phold.hpp"
#include "models/phold.hpp"
#include "models/registry.hpp"
#include "pdes/seqref.hpp"
#include "util/config.hpp"

namespace cagvt::core {
namespace {

SimulationConfig flow_config() {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 6;
  cfg.end_vt = 20.0;
  cfg.gvt_interval = 12;  // long interval: speculation actually builds up
  cfg.seed = 31;
  return cfg;
}

/// Hotspot PHOLD on a thin-event profile: rollback-heavy, pool-hungry.
models::HotspotPholdParams adversarial_params() {
  models::HotspotPholdParams params;
  params.base.regional_pct = 0.2;
  params.base.remote_pct = 0.1;
  params.base.epg_units = 500;
  params.hotspot_pct = 0.2;
  params.zipf_s = 1.1;
  params.hot_cost = 6.0;
  return params;
}

TEST(FlowGoldenMatrix, BoundedMatchesOffAndOracleAcrossGvtKinds) {
  const SimulationConfig base = flow_config();
  const pdes::LpMap map = Simulation::make_map(base);
  const models::HotspotPholdModel model(map, adversarial_params());

  pdes::SequentialReference ref(model, map, {.end_vt = base.end_vt, .seed = base.seed});
  ref.run();
  ASSERT_GT(ref.committed(), 100u);

  std::uint64_t total_cancelbacks = 0;
  std::uint64_t total_throttles = 0;
  for (const GvtKind kind :
       {GvtKind::kBarrier, GvtKind::kMattern, GvtKind::kControlledAsync,
        GvtKind::kEpoch}) {
    SimulationConfig off = base;
    off.gvt = kind;
    Simulation off_sim(off, model);
    const SimulationResult r_off = off_sim.run(120.0);
    ASSERT_TRUE(r_off.completed) << to_string(kind) << "/off";

    // A budget well below the unconstrained peak, so relief must engage.
    SimulationConfig bounded = off;
    bounded.flow = flow::parse_flow("bounded,mem=32,clamp=2");
    Simulation bounded_sim(bounded, model);
    const SimulationResult r = bounded_sim.run(120.0);
    const std::string where = std::string(to_string(kind)) + "/bounded";
    ASSERT_TRUE(r.completed) << where;

    // Identical outcomes: same committed set, same final LP states — both
    // against the oracle and against the unconstrained run.
    EXPECT_EQ(r.events.committed, ref.committed()) << where;
    EXPECT_EQ(r.committed_fingerprint, ref.fingerprint()) << where;
    EXPECT_EQ(r.state_hash, ref.state_hash()) << where;
    EXPECT_EQ(r.committed_fingerprint, r_off.committed_fingerprint) << where;
    EXPECT_EQ(r.state_hash, r_off.state_hash) << where;

    // --flow=off reports no flow activity at all (zero-cost off).
    EXPECT_EQ(r_off.flow_cancelbacks, 0u) << to_string(kind);
    EXPECT_EQ(r_off.flow_throttle_engagements, 0u) << to_string(kind);
    EXPECT_EQ(r_off.flow_forced_rounds, 0u) << to_string(kind);
    // ...but still measures the pool (the A10 unbounded-growth evidence).
    EXPECT_GT(r_off.peak_event_pool, 0u) << to_string(kind);

    // Ledger sanity: every release/absorption traces back to a cancelback.
    // (Events parked in the run's final rounds may legitimately still be
    // parked at completion when their timestamps lie beyond end_vt, so this
    // is >=, not ==.)
    EXPECT_GE(r.flow_cancelbacks, r.flow_releases + r.flow_absorbed_antis) << where;
    total_cancelbacks += r.flow_cancelbacks;
    total_throttles += r.flow_throttle_engagements;
  }
  // The matrix must actually exercise the relief paths (a budget that never
  // fires would vacuously pass everything above).
  EXPECT_GT(total_cancelbacks, 0u);
  EXPECT_GT(total_throttles, 0u);
}

TEST(FlowGoldenMatrix, BoundedRunsAreBitReproducible) {
  const SimulationConfig base = flow_config();
  const pdes::LpMap map = Simulation::make_map(base);
  const models::HotspotPholdModel model(map, adversarial_params());

  SimulationConfig cfg = base;
  cfg.gvt = GvtKind::kControlledAsync;
  cfg.flow = flow::parse_flow("bounded,mem=64");
  Simulation sim(cfg, model);
  const SimulationResult first = sim.run(120.0);
  const SimulationResult second = sim.run(120.0);
  ASSERT_TRUE(first.completed);
  EXPECT_EQ(first.committed_fingerprint, second.committed_fingerprint);
  EXPECT_EQ(first.state_hash, second.state_hash);
  EXPECT_EQ(first.events.processed, second.events.processed);
  EXPECT_EQ(first.flow_cancelbacks, second.flow_cancelbacks);
  EXPECT_EQ(first.flow_forced_rounds, second.flow_forced_rounds);
}

TEST(FlowGoldenMatrix, MemSqueezeDrivesReliefUnderFlow) {
  // A mid-run `mem:` squeeze narrows the effective budget below the static
  // one; the squeeze window must produce relief activity that the same run
  // without the fault does not, and outcomes must match the oracle anyway.
  const SimulationConfig base = flow_config();
  const pdes::LpMap map = Simulation::make_map(base);
  const models::HotspotPholdModel model(map, adversarial_params());
  pdes::SequentialReference ref(model, map, {.end_vt = base.end_vt, .seed = base.seed});
  ref.run();

  SimulationConfig cfg = base;
  cfg.gvt = GvtKind::kMattern;
  cfg.flow = flow::parse_flow("bounded,mem=4096");  // wide: squeeze does the work
  Simulation calm_sim(cfg, model);
  const SimulationResult calm = calm_sim.run(120.0);
  ASSERT_TRUE(calm.completed);

  cfg.faults = fault::parse_fault_schedule("mem:worker=all,budget=48,t=20us..");
  Simulation squeezed_sim(cfg, model);
  const SimulationResult squeezed = squeezed_sim.run(120.0);
  ASSERT_TRUE(squeezed.completed);
  EXPECT_EQ(squeezed.committed_fingerprint, ref.fingerprint());
  EXPECT_EQ(squeezed.state_hash, ref.state_hash());
  EXPECT_GT(squeezed.flow_throttle_engagements, 0u);
  EXPECT_GE(squeezed.flow_cancelbacks, calm.flow_cancelbacks);
}

TEST(FlowGoldenMatrix, CancelbackComposesWithCrashRecovery) {
  // The controllers all ride the same GVT round, so their compositions are
  // where the round lifecycle is stressed hardest: parked events are the
  // ONLY copy of their event (checkpoint state a crash must rewind), a
  // forced flow round can chase a migration fence, and the inline MPI
  // agent of combined/everywhere placements must not deposit inside a
  // quiesced round. Every non-empty subset of {flow, lb, crash recovery},
  // under every GVT kind and MPI placement, must reconverge on the
  // oracle's committed set.
  enum : unsigned { kFlow = 1, kLb = 2, kCrash = 4 };
  for (const MpiPlacement placement :
       {MpiPlacement::kDedicated, MpiPlacement::kCombined, MpiPlacement::kEverywhere}) {
    // Combined and everywhere run one more worker per node than dedicated,
    // so the LP map, the model and the oracle are per placement.
    SimulationConfig base = flow_config();
    base.mpi = placement;
    const pdes::LpMap map = Simulation::make_map(base);
    const models::HotspotPholdModel model(map, adversarial_params());
    pdes::SequentialReference ref(model, map, {.end_vt = base.end_vt, .seed = base.seed});
    ref.run();

    for (const GvtKind kind : {GvtKind::kBarrier, GvtKind::kMattern,
                               GvtKind::kControlledAsync, GvtKind::kEpoch}) {
      for (unsigned mask = 1; mask <= (kFlow | kLb | kCrash); ++mask) {
        SimulationConfig cfg = base;
        cfg.gvt = kind;
        std::string where = std::string(to_string(kind)) + "/" +
                            std::string(to_string(placement));
        if (mask & kFlow) {
          cfg.flow = flow::parse_flow("bounded,mem=32,clamp=2");
          where += "/flow";
        }
        if (mask & kLb) {
          cfg.lb = lb::parse_lb("roughness");
          where += "/lb";
        }
        if (mask & kCrash) {
          cfg.ckpt_every = 3;
          cfg.faults = fault::parse_fault_schedule("crash:node=1,t=500us,down=300us");
          where += "/crash";
        }
        Simulation sim(cfg, model);
        const SimulationResult r = sim.run(180.0);
        ASSERT_TRUE(r.completed) << where;
        if (mask & kCrash) {
          EXPECT_GE(r.restores, 1u) << where;
        }
        EXPECT_EQ(r.events.committed, ref.committed()) << where;
        EXPECT_EQ(r.committed_fingerprint, ref.fingerprint()) << where;
        EXPECT_EQ(r.state_hash, ref.state_hash()) << where;
      }
    }
  }
}

TEST(FlowGoldenMatrix, ForcedRoundsNeverOutnumberRounds) {
  // `phold_cluster --nodes=2 --end=20 --flow=bounded,mem=32,clamp=2` with
  // the CLI's defaults. Red pressure raises a forced-round request on
  // nearly every round here; a request that never got a round of its own
  // must not count as one.
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 7;
  cfg.lps_per_worker = 32;
  cfg.end_vt = 20.0;
  apply_gvt_spec(cfg, "ca-gvt");
  cfg.gvt_interval = 12;
  cfg.ca_efficiency_threshold = 0.8;
  cfg.batch = 4;
  cfg.seed = 1;
  cfg.flow = flow::parse_flow("bounded,mem=32,clamp=2");
  const pdes::LpMap map = Simulation::make_map(cfg);
  const char* const argv[] = {"phold_cluster"};
  const auto model = models::make_model("phold", Options::parse(1, argv), map, cfg.end_vt);

  Simulation sim(cfg, *model);
  const SimulationResult r = sim.run(120.0);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.flow_forced_rounds, 0u);
  EXPECT_LE(r.flow_forced_rounds, r.gvt_rounds);
}

// Named for the TSan CI lane (-R ...|FlowThreadsTest): the threads-backend
// pressure path — per-worker throttles and red-pressure fence announces —
// must be data-race-free and outcome-invariant, and the throttle must
// actually engage (a run with the clamp disconnected commits the same).
TEST(FlowThreadsTest, ThreadsBackendBoundedMatchesOracle) {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 6;
  cfg.end_vt = 20.0;
  cfg.gvt_interval = 12;
  cfg.seed = 31;
  cfg.flow = flow::parse_flow("bounded,mem=32,clamp=2");

  const pdes::LpMap map = Simulation::make_map(cfg);
  models::PholdParams params;
  params.regional_pct = 0.3;
  params.remote_pct = 0.1;
  params.epg_units = 500;
  const models::PholdModel model(map, params);
  pdes::SequentialReference ref(model, map, {.end_vt = cfg.end_vt, .seed = cfg.seed});
  ref.run();
  ASSERT_GT(ref.committed(), 100u);

  for (const GvtKind kind :
       {GvtKind::kBarrier, GvtKind::kMattern, GvtKind::kControlledAsync,
        GvtKind::kEpoch}) {
    cfg.gvt = kind;
    const SimulationResult r =
        exec::run_simulation(cfg, model, exec::BackendKind::kThreads, 120.0);
    ASSERT_TRUE(r.completed) << to_string(kind);
    EXPECT_EQ(r.events.committed, ref.committed()) << to_string(kind);
    EXPECT_EQ(r.committed_fingerprint, ref.fingerprint()) << to_string(kind);
    EXPECT_EQ(r.state_hash, ref.state_hash()) << to_string(kind);
    EXPECT_GT(r.peak_event_pool, 0u) << to_string(kind);
    EXPECT_GT(r.flow_throttle_engagements, 0u) << to_string(kind);
    // A forced round is one a red announce opened, as on the coroutine
    // backend: never more of them than rounds.
    EXPECT_LE(r.flow_forced_rounds, r.gvt_rounds) << to_string(kind);
  }
}

}  // namespace
}  // namespace cagvt::core
