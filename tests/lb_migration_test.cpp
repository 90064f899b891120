// Golden correctness for dynamic LP migration: moving LPs between workers
// at GVT fences changes WHERE events execute, never WHAT commits. Every
// model x GVT-algorithm x {static, migrating} cell must commit exactly
// the sequential oracle's event set and leave the LPs in the oracle's
// final state — migration is placement-only. On top of the golden matrix:
// bit-identical reruns (the coroutine substrate stays deterministic with
// the balancer on) and migration x crash-recovery (a checkpoint restore
// rewinds the owner table together with the kernels).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/simulation.hpp"
#include "fault/fault_parse.hpp"
#include "lb/lb_config.hpp"
#include "models/registry.hpp"
#include "pdes/seqref.hpp"

namespace cagvt::core {
namespace {

// Aggressive policy so the small test cluster actually migrates: low
// trigger, no cooldown. Correctness must hold for ANY parameter choice.
constexpr const char* kAggressiveLb = "roughness,trigger=0.3,cooldown=1";

SimulationConfig small_config() {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 6;
  cfg.end_vt = 30.0;
  cfg.seed = 31;
  return cfg;
}

struct MigrationCase {
  const char* name;
  const char* model;
  /// Skewed workloads must actually migrate (summed across GVT kinds).
  bool expect_migrations = false;
};

// ctest names each discovered case after the printed parameter; without a
// printer it ends in a dump of the struct's raw bytes.
void PrintTo(const MigrationCase& c, std::ostream* os) {
  *os << c.model << (c.expect_migrations ? " migrates" : "");
}

class MigrationGolden : public ::testing::TestWithParam<MigrationCase> {};

TEST_P(MigrationGolden, PlacementOnlyAcrossAlgorithmsAndPolicies) {
  SimulationConfig cfg = small_config();
  const pdes::LpMap map = Simulation::make_map(cfg);
  const auto model =
      models::make_model(GetParam().model, Options::parse_kv(""), map, cfg.end_vt);

  pdes::SequentialReference ref(*model, map, {.end_vt = cfg.end_vt, .seed = cfg.seed});
  ref.run();
  ASSERT_GT(ref.committed(), 100u);

  std::uint64_t total_migrations = 0;
  for (const GvtKind kind :
       {GvtKind::kBarrier, GvtKind::kMattern, GvtKind::kControlledAsync,
        GvtKind::kEpoch}) {
    for (const bool migrate : {false, true}) {
      cfg.gvt = kind;
      cfg.lb = migrate ? lb::parse_lb(kAggressiveLb) : lb::LbConfig{};
      Simulation sim(cfg, *model);
      const SimulationResult r = sim.run(120.0);
      const std::string cell = std::string(GetParam().name) + "/" +
                               std::string(to_string(kind)) +
                               (migrate ? "/lb" : "/static");
      ASSERT_TRUE(r.completed) << cell;
      EXPECT_EQ(r.events.committed, ref.committed()) << cell;
      EXPECT_EQ(r.committed_fingerprint, ref.fingerprint()) << cell;
      EXPECT_EQ(r.state_hash, ref.state_hash()) << cell;
      if (migrate) {
        total_migrations += r.lb_migrations;
      } else {
        EXPECT_EQ(r.lb_migrations, 0u) << cell;
        EXPECT_EQ(r.owner_table_version, 0u) << cell;
      }
    }
  }
  if (GetParam().expect_migrations) {
    EXPECT_GT(total_migrations, 0u) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, MigrationGolden,
    ::testing::Values(MigrationCase{"phold", "phold"},
                      MigrationCase{"imbalanced", "imbalanced-phold",
                                    /*expect_migrations=*/true},
                      MigrationCase{"hotspot", "hotspot-phold",
                                    /*expect_migrations=*/true}),
    [](const ::testing::TestParamInfo<MigrationCase>& info) { return info.param.name; });

TEST(MigrationDeterminism, RerunsAreBitIdentical) {
  SimulationConfig cfg = small_config();
  cfg.gvt = GvtKind::kMattern;
  cfg.lb = lb::parse_lb(kAggressiveLb);
  const pdes::LpMap map = Simulation::make_map(cfg);
  const auto model =
      models::make_model("imbalanced-phold", Options::parse_kv(""), map, cfg.end_vt);

  SimulationResult runs[2];
  for (SimulationResult& r : runs) {
    Simulation sim(cfg, *model);
    r = sim.run(120.0);
    ASSERT_TRUE(r.completed);
    ASSERT_GT(r.lb_migrations, 0u);
  }
  EXPECT_EQ(runs[0].committed_fingerprint, runs[1].committed_fingerprint);
  EXPECT_EQ(runs[0].state_hash, runs[1].state_hash);
  EXPECT_EQ(runs[0].events.committed, runs[1].events.committed);
  EXPECT_EQ(runs[0].events.rolled_back, runs[1].events.rolled_back);
  EXPECT_EQ(runs[0].gvt_rounds, runs[1].gvt_rounds);
  EXPECT_EQ(runs[0].lb_migrations, runs[1].lb_migrations);
  EXPECT_EQ(runs[0].lb_migration_rounds, runs[1].lb_migration_rounds);
  EXPECT_EQ(runs[0].lb_forwards, runs[1].lb_forwards);
  EXPECT_EQ(runs[0].owner_table_version, runs[1].owner_table_version);
  EXPECT_DOUBLE_EQ(runs[0].wall_seconds, runs[1].wall_seconds);
}

TEST(MigrationRecovery, CrashRestoreRewindsOwnerTableWithTheKernels) {
  SimulationConfig cfg = small_config();
  cfg.gvt = GvtKind::kMattern;
  cfg.lb = lb::parse_lb(kAggressiveLb);
  cfg.ckpt_every = 3;
  cfg.faults = fault::parse_fault_schedule("crash:node=1,t=500us,down=300us");
  const pdes::LpMap map = Simulation::make_map(cfg);
  const auto model =
      models::make_model("imbalanced-phold", Options::parse_kv(""), map, cfg.end_vt);

  pdes::SequentialReference ref(*model, map, {.end_vt = cfg.end_vt, .seed = cfg.seed});
  ref.run();

  Simulation sim(cfg, *model);
  const SimulationResult r = sim.run(120.0);
  ASSERT_TRUE(r.completed);
  // The schedule must exercise both subsystems: migrations before and
  // after a real checkpoint restore. A restore rewinds the owner table to
  // the checkpoint's version (its snapshot is captured with the kernel
  // slices); stale-epoch events surviving the rewind would break the
  // fingerprint below.
  EXPECT_GE(r.restores, 1u);
  EXPECT_GT(r.lb_migrations, 0u);
  EXPECT_EQ(r.events.committed, ref.committed());
  EXPECT_EQ(r.committed_fingerprint, ref.fingerprint());
  EXPECT_EQ(r.state_hash, ref.state_hash());
}

}  // namespace
}  // namespace cagvt::core
