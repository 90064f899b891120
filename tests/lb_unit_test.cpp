// Unit coverage for the dynamic LP migration subsystem: the versioned
// owner table, the --lb configuration DSL, the kernel's LP extract/install
// packaging, the surplus-positive accounting that absorbs the FIFO splits
// a migration fence introduces, and the threads backend's rejection of
// --lb.
#include <gtest/gtest.h>

#include <stdexcept>

#include "exec/backend.hpp"
#include "lb/lb_config.hpp"
#include "models/phold.hpp"
#include "pdes/kernel.hpp"
#include "pdes/mapping.hpp"
#include "test_model.hpp"

namespace cagvt::pdes {
namespace {

using testing::TestModel;
using testing::TestModelCfg;

Event positive(double ts, std::uint64_t uid, LpId src, LpId dst) {
  Event e;
  e.recv_ts = ts;
  e.send_ts = 0;
  e.uid = uid;
  e.src_lp = src;
  e.dst_lp = dst;
  return e;
}

// --- OwnerTable -----------------------------------------------------------

TEST(OwnerTableTest, InitializesToStaticPlacement) {
  const LpMap map(2, 2, 3);
  const OwnerTable owners(map);
  EXPECT_EQ(owners.version(), 0u);
  for (LpId lp = 0; lp < map.total_lps(); ++lp) {
    EXPECT_EQ(owners.worker_of(lp), map.worker_of(lp));
    EXPECT_EQ(owners.node_of(lp), map.node_of(lp));
  }
  for (int w = 0; w < map.total_workers(); ++w)
    EXPECT_EQ(owners.lp_count_of(w), map.lps_per_worker());
}

TEST(OwnerTableTest, BatchBumpsVersionOnce) {
  const LpMap map(1, 3, 4);
  OwnerTable owners(map);
  const Migration moves[] = {{.lp = 0, .src_worker = 0, .dst_worker = 2},
                             {.lp = 5, .src_worker = 1, .dst_worker = 2}};
  owners.apply(moves);
  EXPECT_EQ(owners.version(), 1u);
  EXPECT_EQ(owners.moves_applied(), 2u);
  EXPECT_EQ(owners.worker_of(0), 2);
  EXPECT_EQ(owners.worker_of(5), 2);
  EXPECT_EQ(owners.lp_count_of(0), 3);
  EXPECT_EQ(owners.lp_count_of(1), 3);
  EXPECT_EQ(owners.lp_count_of(2), 6);
  owners.apply({});  // empty batch is not an epoch boundary
  EXPECT_EQ(owners.version(), 1u);
}

TEST(OwnerTableTest, SnapshotRestoreRewindsPlacementAndVersion) {
  const LpMap map(1, 2, 2);
  OwnerTable owners(map);
  const OwnerTable::Snapshot snap = owners.snapshot();
  const Migration move{.lp = 1, .src_worker = 0, .dst_worker = 1};
  owners.apply({&move, 1});
  ASSERT_EQ(owners.version(), 1u);
  ASSERT_EQ(owners.worker_of(1), 1);

  owners.restore(snap);
  EXPECT_EQ(owners.version(), 0u);
  EXPECT_EQ(owners.worker_of(1), 0);
  EXPECT_EQ(owners.lp_count_of(0), 2);
  EXPECT_EQ(owners.lp_count_of(1), 2);
}

TEST(OwnerTableDeathTest, WrongSourceAborts) {
  const LpMap map(1, 2, 2);
  OwnerTable owners(map);
  const Migration bogus{.lp = 0, .src_worker = 1, .dst_worker = 0};
  EXPECT_DEATH(owners.apply({&bogus, 1}), "migration source does not own");
}

// --- LbConfig DSL ---------------------------------------------------------

TEST(LbConfigTest, ParsesOffAndDefaults) {
  EXPECT_FALSE(lb::parse_lb("off").enabled());
  EXPECT_FALSE(lb::parse_lb("").enabled());
  const lb::LbConfig cfg = lb::parse_lb("roughness");
  EXPECT_TRUE(cfg.enabled());
  EXPECT_DOUBLE_EQ(cfg.trigger, 0.5);
  EXPECT_EQ(cfg.budget, 8);
  EXPECT_EQ(cfg.cooldown, 2);
}

TEST(LbConfigTest, ParsesParameters) {
  const lb::LbConfig cfg =
      lb::parse_lb("roughness,trigger=0.8,budget=4,cooldown=3,ewma=0.5,min-lps=2");
  EXPECT_DOUBLE_EQ(cfg.trigger, 0.8);
  EXPECT_EQ(cfg.budget, 4);
  EXPECT_EQ(cfg.cooldown, 3);
  EXPECT_DOUBLE_EQ(cfg.ewma, 0.5);
  EXPECT_EQ(cfg.min_lps, 2);
  EXPECT_NE(lb::to_string(cfg).find("roughness"), std::string::npos);
}

TEST(LbConfigTest, RejectsBadInput) {
  EXPECT_THROW(lb::parse_lb("magic"), std::invalid_argument);
  EXPECT_THROW(lb::parse_lb("off,budget=2"), std::invalid_argument);
  EXPECT_THROW(lb::parse_lb("roughness,nope=1"), std::invalid_argument);
  EXPECT_THROW(lb::parse_lb("roughness,trigger=-1"), std::invalid_argument);
  EXPECT_THROW(lb::parse_lb("roughness,budget=0"), std::invalid_argument);
  EXPECT_THROW(lb::parse_lb("roughness,ewma=1.5"), std::invalid_argument);
}

// --- Kernel extract/install ----------------------------------------------

TEST(KernelMigrationTest, ExtractInstallRoundtripMovesFullLpState) {
  const LpMap map(1, 2, 2);  // worker 0: LPs 0,1; worker 1: LPs 2,3
  TestModelCfg mcfg;
  mcfg.generate = false;
  const TestModel model(map, mcfg);
  const KernelConfig kcfg{.end_vt = 100, .seed = 1, .dynamic_placement = true};
  ThreadKernel src(model, map, 0, kcfg);
  ThreadKernel dst(model, map, 1, kcfg);
  src.init();
  dst.init();

  // Process LP1's start event and leave one event pending for it.
  ASSERT_TRUE(src.process_next().processed);  // LP0@1.0
  ASSERT_TRUE(src.process_next().processed);  // LP1@1.25
  src.deposit(positive(5.0, 77, /*src=*/2, /*dst=*/1));
  const std::uint64_t moved_hash = ThreadKernel::lp_state_hash(1, src.lp_state(1));

  ThreadKernel::LpPackage pkg = src.extract_lp(1);
  EXPECT_EQ(pkg.lp, 1);
  EXPECT_EQ(pkg.history.size(), 1u);
  ASSERT_EQ(pkg.pending.size(), 1u);
  EXPECT_EQ(pkg.pending[0].uid, 77u);
  EXPECT_GT(pkg.bytes(), 0);
  EXPECT_FALSE(src.owns_lp(1));
  EXPECT_EQ(src.pending_size(), 0u);

  dst.install_lp(std::move(pkg));
  EXPECT_TRUE(dst.owns_lp(1));
  EXPECT_EQ(dst.lp_count(), 3);
  EXPECT_DOUBLE_EQ(dst.lp_lvt(1), 1.25);
  EXPECT_EQ(dst.lp_history_size(1), 1u);
  EXPECT_EQ(ThreadKernel::lp_state_hash(1, dst.lp_state(1)), moved_hash);
  EXPECT_EQ(dst.owned_lps(), (std::vector<LpId>{1, 2, 3}));

  // The moved pending event is processable at the destination.
  ASSERT_TRUE(dst.process_next().processed);  // LP2@1.0 start
  ASSERT_TRUE(dst.process_next().processed);  // LP3@1.25 start
  const Outcome moved = dst.process_next();
  ASSERT_TRUE(moved.processed);
  EXPECT_DOUBLE_EQ(dst.lp_lvt(1), 5.0);
}

TEST(KernelMigrationTest, DuplicatePendingPositiveParksAsSurplus) {
  const LpMap map(1, 2, 2);
  TestModelCfg mcfg;
  mcfg.generate = false;
  mcfg.start_event = false;
  const TestModel model(map, mcfg);
  ThreadKernel kernel(model, map, 0,
                      {.end_vt = 100, .seed = 1, .dynamic_placement = true});
  kernel.init();

  const Event e = positive(1.0, 42, /*src=*/2, /*dst=*/1);
  kernel.deposit(e);
  kernel.deposit(e);  // detoured original + regenerated direct copy
  EXPECT_EQ(kernel.pending_size(), 1u);
  EXPECT_EQ(kernel.stats().migration_reorders, 1u);

  // The in-flight anti of the rolled-back copy consumes the surplus; the
  // live copy stays pending.
  const Outcome first_anti = kernel.deposit(e.make_anti());
  EXPECT_TRUE(first_anti.annihilated);
  EXPECT_EQ(kernel.pending_size(), 1u);
  const Outcome second_anti = kernel.deposit(e.make_anti());
  EXPECT_TRUE(second_anti.annihilated);
  EXPECT_EQ(kernel.pending_size(), 0u);
  EXPECT_EQ(kernel.stats().annihilated_pending, 1u);
}

TEST(KernelMigrationTest, DuplicateOfProcessedEventParksAsSurplus) {
  const LpMap map(1, 2, 2);
  TestModelCfg mcfg;
  mcfg.generate = false;
  mcfg.start_event = false;
  const TestModel model(map, mcfg);
  ThreadKernel kernel(model, map, 0,
                      {.end_vt = 100, .seed = 1, .dynamic_placement = true});
  kernel.init();

  const Event e = positive(1.0, 42, /*src=*/2, /*dst=*/1);
  kernel.deposit(e);
  ASSERT_TRUE(kernel.process_next().processed);
  ASSERT_EQ(kernel.lp_history_size(1), 1u);

  // Duplicate whose key equals the newest processed record: no rollback.
  const Outcome dup = kernel.deposit(e);
  EXPECT_FALSE(dup.was_straggler);
  EXPECT_EQ(dup.rolled_back, 0);
  EXPECT_EQ(kernel.lp_history_size(1), 1u);

  // Its pair's anti consumes the surplus and leaves the processed record.
  const Outcome anti = kernel.deposit(e.make_anti());
  EXPECT_TRUE(anti.annihilated);
  EXPECT_EQ(anti.rolled_back, 0);
  EXPECT_EQ(kernel.lp_history_size(1), 1u);
}

TEST(KernelMigrationTest, DuplicateStragglerRollsBackButKeepsProcessedCopy) {
  const LpMap map(1, 2, 2);
  TestModelCfg mcfg;
  mcfg.generate = false;
  mcfg.start_event = false;
  const TestModel model(map, mcfg);
  ThreadKernel kernel(model, map, 0,
                      {.end_vt = 100, .seed = 1, .dynamic_placement = true});
  kernel.init();

  const Event first = positive(1.0, 41, /*src=*/2, /*dst=*/1);
  const Event second = positive(2.0, 43, /*src=*/2, /*dst=*/1);
  kernel.deposit(first);
  kernel.deposit(second);
  ASSERT_TRUE(kernel.process_next().processed);
  ASSERT_TRUE(kernel.process_next().processed);

  // A duplicate of the older processed event looks like a straggler; the
  // rollback finds its processed twin and keeps it in place.
  const Outcome dup = kernel.deposit(first);
  EXPECT_TRUE(dup.was_straggler);
  EXPECT_EQ(dup.rolled_back, 1);  // only the t=2.0 event was undone
  EXPECT_EQ(kernel.lp_history_size(1), 1u);
  EXPECT_EQ(kernel.pending_size(), 1u);  // t=2.0 re-pending

  const Outcome anti = kernel.deposit(first.make_anti());
  EXPECT_TRUE(anti.annihilated);
  EXPECT_EQ(anti.rolled_back, 0);  // consumed the surplus, not the record
  EXPECT_EQ(kernel.lp_history_size(1), 1u);
}

TEST(KernelMigrationTest, AntiOvertakingItsPositiveBecomesEarlyAnti) {
  const LpMap map(1, 2, 2);
  TestModelCfg mcfg;
  mcfg.generate = false;
  mcfg.start_event = false;
  const TestModel model(map, mcfg);
  ThreadKernel kernel(model, map, 0,
                      {.end_vt = 100, .seed = 1, .dynamic_placement = true});
  kernel.init();

  kernel.deposit(positive(1.0, 41, /*src=*/2, /*dst=*/1));
  kernel.deposit(positive(2.0, 43, /*src=*/2, /*dst=*/1));
  ASSERT_TRUE(kernel.process_next().processed);
  ASSERT_TRUE(kernel.process_next().processed);

  // An anti for a positive still in flight on the forwarding detour: the
  // rollback is spurious but safe, and the anti waits as an early anti.
  const Event late = positive(1.5, 99, /*src=*/2, /*dst=*/1);
  const Outcome anti = kernel.deposit(late.make_anti());
  EXPECT_FALSE(anti.annihilated);
  EXPECT_EQ(anti.rolled_back, 1);  // t=2.0 undone and re-pending
  EXPECT_GE(kernel.stats().migration_reorders, 1u);

  const Outcome pos = kernel.deposit(late);
  EXPECT_TRUE(pos.annihilated);
  EXPECT_EQ(kernel.stats().annihilated_early, 1u);

  // The rolled-back t=2.0 event replays; the cancelled pair never runs.
  ASSERT_TRUE(kernel.process_next().processed);
  EXPECT_FALSE(kernel.process_next().processed);
  EXPECT_EQ(kernel.lp_history_size(1), 2u);
}

TEST(KernelMigrationTest, SurplusTravelsWithTheMigratingLp) {
  const LpMap map(1, 2, 2);
  TestModelCfg mcfg;
  mcfg.generate = false;
  mcfg.start_event = false;
  const TestModel model(map, mcfg);
  const KernelConfig kcfg{.end_vt = 100, .seed = 1, .dynamic_placement = true};
  ThreadKernel src(model, map, 0, kcfg);
  ThreadKernel dst(model, map, 1, kcfg);
  src.init();
  dst.init();

  const Event e = positive(1.0, 42, /*src=*/2, /*dst=*/1);
  src.deposit(e);
  src.deposit(e);  // surplus copy

  ThreadKernel::LpPackage pkg = src.extract_lp(1);
  ASSERT_EQ(pkg.surplus.size(), 1u);
  EXPECT_EQ(pkg.surplus[0].first, 42u);
  EXPECT_EQ(pkg.surplus[0].second, 1);

  dst.install_lp(std::move(pkg));
  const Outcome anti = dst.deposit(e.make_anti());
  EXPECT_TRUE(anti.annihilated);  // surplus consumed at the new owner
  EXPECT_EQ(dst.pending_size(), 1u);
}

TEST(KernelMigrationTest, SnapshotRestoreCarriesSurplus) {
  const LpMap map(1, 1, 2);
  TestModelCfg mcfg;
  mcfg.generate = false;
  mcfg.start_event = false;
  const TestModel model(map, mcfg);
  ThreadKernel kernel(model, map, 0,
                      {.end_vt = 100, .seed = 1, .dynamic_placement = true});
  kernel.init();

  const Event e = positive(1.0, 42, /*src=*/1, /*dst=*/0);
  kernel.deposit(e);
  kernel.deposit(e);
  const ThreadKernel::Snapshot snap = kernel.snapshot();

  // Consume the surplus, then rewind: the anti must consume it again.
  ASSERT_TRUE(kernel.deposit(e.make_anti()).annihilated);
  ASSERT_EQ(kernel.pending_size(), 1u);
  kernel.restore(snap);
  const Outcome anti = kernel.deposit(e.make_anti());
  EXPECT_TRUE(anti.annihilated);
  EXPECT_EQ(kernel.pending_size(), 1u);
}

// --- threads backend rejection -------------------------------------------

TEST(ThreadsBackendTest, RejectsDynamicMigration) {
  core::SimulationConfig cfg;
  cfg.nodes = 1;
  cfg.threads_per_node = 2;
  cfg.lps_per_worker = 2;
  cfg.end_vt = 5.0;
  cfg.lb = lb::parse_lb("roughness");
  const LpMap map = core::Simulation::make_map(cfg);
  const models::PholdModel model(map, {});
  try {
    exec::run_simulation(cfg, model, exec::BackendKind::kThreads);
    FAIL() << "threads backend accepted --lb";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "dynamic LP migration (--lb) runs at simulated-clock GVT "
                 "fences and is not supported with --backend=threads");
  }
}

}  // namespace
}  // namespace cagvt::pdes
