// Golden-model equivalence for the conservative executors: --sync=cmb and
// --sync=window must commit exactly the sequential oracle's event set —
// same committed count, same order-independent fingerprint, same final LP
// states — across the model registry, every MPI placement, and every GVT
// algorithm (window mode uses the GVT reduction as its window-advance
// barrier, so all three kinds must work). Conservative execution must also
// be provably conservative: zero rollbacks, ever.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "cons/cons_config.hpp"
#include "core/simulation.hpp"
#include "models/registry.hpp"
#include "pdes/seqref.hpp"

namespace cagvt::core {
namespace {

struct ConsCase {
  const char* name;
  const char* model;
  const char* options;
};

// ctest names each discovered case after the printed parameter. Without a
// printer gtest dumps the struct's bytes, and these are string pointers, so
// the name would change with the load address from one run to the next.
void PrintTo(const ConsCase& c, std::ostream* os) { *os << c.model << ' ' << c.options; }

class ConservativeGolden : public ::testing::TestWithParam<ConsCase> {};

SimulationConfig golden_config() {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 4;
  cfg.end_vt = 20.0;
  cfg.gvt_interval = 6;
  cfg.seed = 31;
  return cfg;
}

TEST_P(ConservativeGolden, MatchesOracleAcrossPlacements) {
  const ConsCase c = GetParam();
  const SimulationConfig base = golden_config();

  // Placement x sync matrix; the GVT kind rotates with the placement so the
  // sweep touches all three algorithms without cubing the run count (the
  // dedicated kind x sync cross is in GvtKindsDriveBothExecutors below).
  // Each placement is its own cluster shape (dedicated reserves one thread
  // per node for MPI), so the oracle is rebuilt per placement.
  const MpiPlacement placements[] = {MpiPlacement::kDedicated, MpiPlacement::kCombined,
                                     MpiPlacement::kEverywhere};
  const GvtKind kinds[] = {GvtKind::kBarrier, GvtKind::kMattern, GvtKind::kControlledAsync};
  for (int p = 0; p < 3; ++p) {
    SimulationConfig shape = base;
    shape.mpi = placements[p];
    const pdes::LpMap map = Simulation::make_map(shape);
    const auto model =
        models::make_model(c.model, Options::parse_kv(c.options), map, base.end_vt);
    pdes::SequentialReference ref(*model, map, {.end_vt = base.end_vt, .seed = base.seed});
    ref.run();
    ASSERT_GT(ref.committed(), 50u);

    for (const cons::SyncKind sync : {cons::SyncKind::kCmb, cons::SyncKind::kWindow}) {
      SimulationConfig cfg = shape;
      cfg.gvt = kinds[p];
      cfg.sync.kind = sync;
      const std::string where = std::string(c.name) + "/" +
                                std::string(to_string(cfg.mpi)) + "/" +
                                cons::to_string(sync);
      Simulation sim(cfg, *model);
      const SimulationResult r = sim.run(120.0);
      ASSERT_TRUE(r.completed) << where;
      EXPECT_EQ(r.events.rolled_back, 0u) << where;
      EXPECT_EQ(r.events.committed, ref.committed()) << where;
      EXPECT_EQ(r.committed_fingerprint, ref.fingerprint()) << where;
      EXPECT_EQ(r.state_hash, ref.state_hash()) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ConservativeGolden,
    ::testing::Values(
        ConsCase{"phold", "phold", "min-delay=0.5,remote=0.1,regional=0.3,epg=500"},
        ConsCase{"mixed", "mixed-phold",
                 "comp-min-delay=0.5,comm-min-delay=0.4,x=10,y=15"},
        ConsCase{"imbalanced", "imbalanced-phold",
                 "min-delay=0.5,hot-fraction=0.5,hot-factor=3,epg=500"},
        ConsCase{"hotspot", "hotspot-phold",
                 "min-delay=0.5,hotspot-pct=0.3,zipf-s=1.2,epg=500"}),
    [](const ::testing::TestParamInfo<ConsCase>& info) { return info.param.name; });

TEST(ConservativeGolden, GvtKindsDriveBothExecutors) {
  // Every GVT algorithm that can double as the window-advance barrier does,
  // and none may disturb CMB; every valid (kind, sync) pair must hit the
  // oracle (epoch runs CMB only — see the skip below).
  const SimulationConfig base = golden_config();
  const pdes::LpMap map = Simulation::make_map(base);
  const auto model = models::make_model(
      "phold", Options::parse_kv("min-delay=0.5,remote=0.1,regional=0.3,epg=500"), map,
      base.end_vt);
  pdes::SequentialReference ref(*model, map, {.end_vt = base.end_vt, .seed = base.seed});
  ref.run();

  for (const GvtKind kind :
       {GvtKind::kBarrier, GvtKind::kMattern, GvtKind::kControlledAsync,
        GvtKind::kEpoch}) {
    for (const cons::SyncKind sync : {cons::SyncKind::kCmb, cons::SyncKind::kWindow}) {
      // epoch+window is rejected by SimulationConfig::validate (the window
      // advances through synchronous GVT rounds, which the pipeline cannot
      // offer); the rejection itself is pinned in cons_config_test.
      if (kind == GvtKind::kEpoch && sync == cons::SyncKind::kWindow) continue;
      SimulationConfig cfg = base;
      cfg.gvt = kind;
      cfg.sync.kind = sync;
      const std::string where =
          std::string(to_string(kind)) + "/" + cons::to_string(sync);
      Simulation sim(cfg, *model);
      const SimulationResult first = sim.run(120.0);
      const SimulationResult second = sim.run(120.0);
      ASSERT_TRUE(first.completed) << where;
      EXPECT_EQ(first.events.rolled_back, 0u) << where;
      EXPECT_EQ(first.committed_fingerprint, ref.fingerprint()) << where;
      EXPECT_EQ(first.state_hash, ref.state_hash()) << where;
      // Conservative runs are bit-reproducible like everything else.
      EXPECT_EQ(first.committed_fingerprint, second.committed_fingerprint) << where;
      EXPECT_EQ(first.events.processed, second.events.processed) << where;
    }
  }
}

TEST(ConservativeGolden, NarrowWindowStillMatchesOracle) {
  // A window much narrower than the lookahead just means more GVT rounds;
  // correctness must be unaffected.
  SimulationConfig cfg = golden_config();
  cfg.sync = cons::parse_cons("window,window=0.1");
  const pdes::LpMap map = Simulation::make_map(cfg);
  const auto model = models::make_model(
      "phold", Options::parse_kv("min-delay=0.5,regional=0.3,epg=500"), map, cfg.end_vt);
  pdes::SequentialReference ref(*model, map, {.end_vt = cfg.end_vt, .seed = cfg.seed});
  ref.run();

  Simulation sim(cfg, *model);
  const SimulationResult r = sim.run(120.0);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.events.rolled_back, 0u);
  EXPECT_EQ(r.committed_fingerprint, ref.fingerprint());
}

TEST(ConservativeGolden, CmbSoakRunsLongWithoutDeadlock) {
  // Deadlock/livelock regression net for the null-message protocol: a long
  // horizon, more workers, and cross-node traffic give the request/reply
  // ladder thousands of chances to wedge. Completion within the wall cap IS
  // the assertion; the oracle match rules out silent corner-cutting.
  SimulationConfig cfg = golden_config();
  cfg.nodes = 3;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 3;
  cfg.end_vt = 120.0;
  cfg.sync.kind = cons::SyncKind::kCmb;
  const pdes::LpMap map = Simulation::make_map(cfg);
  const auto model = models::make_model(
      "phold", Options::parse_kv("min-delay=0.3,remote=0.2,regional=0.3,epg=200"), map,
      cfg.end_vt);
  pdes::SequentialReference ref(*model, map, {.end_vt = cfg.end_vt, .seed = cfg.seed});
  ref.run();
  ASSERT_GT(ref.committed(), 1000u);

  Simulation sim(cfg, *model);
  const SimulationResult r = sim.run(300.0);
  ASSERT_TRUE(r.completed) << "CMB deadlocked or livelocked before end_vt";
  EXPECT_EQ(r.events.rolled_back, 0u);
  EXPECT_EQ(r.events.committed, ref.committed());
  EXPECT_EQ(r.committed_fingerprint, ref.fingerprint());
  EXPECT_EQ(r.state_hash, ref.state_hash());
  // Suppression sanity at scale: traffic exists (nulls are demanded), and
  // total control traffic stays within the ladder bound — each worker pair
  // climbs at most end_vt/lookahead steps of one null each, plus a small
  // constant of demand registrations per blocking episode. Broadcast CMB
  // (one null to every peer per tick) would blow far past this.
  EXPECT_GT(r.cons_req_msgs, 0u);
  EXPECT_GT(r.cons_null_msgs, 0u);
  const pdes::LpMap soak_map = Simulation::make_map(cfg);
  const double pairs =
      static_cast<double>(soak_map.total_workers()) * (soak_map.total_workers() - 1);
  const double ladder_steps = cfg.end_vt / 0.3;  // end_vt / min-delay
  EXPECT_LT(static_cast<double>(r.cons_null_msgs + r.cons_req_msgs),
            2.0 * pairs * (ladder_steps + 2.0));
}

}  // namespace
}  // namespace cagvt::core
