// Full-stack integration: the complete virtual cluster (workers, MPI
// threads, network, GVT algorithms) must commit exactly the event set the
// sequential reference computes, for every algorithm and MPI placement.
#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "models/phold.hpp"
#include "pdes/seqref.hpp"

namespace cagvt::core {
namespace {

SimulationConfig small_config() {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 4;
  cfg.end_vt = 20.0;
  cfg.gvt_interval = 8;
  cfg.seed = 42;
  return cfg;
}

models::PholdParams default_phold() {
  models::PholdParams p;
  p.remote_pct = 0.10;
  p.regional_pct = 0.30;
  p.epg_units = 2000;
  return p;
}

struct RefResult {
  std::uint64_t committed;
  std::uint64_t fingerprint;
};

RefResult sequential_reference(const SimulationConfig& cfg, const models::PholdParams& params) {
  const pdes::LpMap map = Simulation::make_map(cfg);
  models::PholdModel model(map, params);
  pdes::SequentialReference ref(model, map, {.end_vt = cfg.end_vt, .seed = cfg.seed});
  ref.run();
  return {ref.committed(), ref.fingerprint()};
}

SimulationResult run_cluster(const SimulationConfig& cfg, const models::PholdParams& params) {
  const pdes::LpMap map = Simulation::make_map(cfg);
  models::PholdModel model(map, params);
  Simulation sim(cfg, model);
  return sim.run(/*max_wall_seconds=*/120.0);
}

TEST(SimulationTest, MatternDedicatedMatchesReference) {
  SimulationConfig cfg = small_config();
  cfg.gvt = GvtKind::kMattern;
  const auto params = default_phold();
  const SimulationResult result = run_cluster(cfg, params);
  const RefResult ref = sequential_reference(cfg, params);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.events.committed, ref.committed);
  EXPECT_EQ(result.committed_fingerprint, ref.fingerprint);
  EXPECT_GT(result.gvt_rounds, 0u);
  EXPECT_GT(result.final_gvt, cfg.end_vt);
  EXPECT_GT(result.committed_rate, 0.0);
  EXPECT_EQ(result.sync_rounds, 0u);  // plain Mattern never synchronizes
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  SimulationConfig cfg = small_config();
  cfg.gvt = GvtKind::kMattern;
  const auto params = default_phold();
  const SimulationResult a = run_cluster(cfg, params);
  const SimulationResult b = run_cluster(cfg, params);
  EXPECT_EQ(a.events.committed, b.events.committed);
  EXPECT_EQ(a.events.processed, b.events.processed);
  EXPECT_EQ(a.events.rolled_back, b.events.rolled_back);
  EXPECT_EQ(a.committed_fingerprint, b.committed_fingerprint);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.gvt_rounds, b.gvt_rounds);
  EXPECT_EQ(a.gvt_trace, b.gvt_trace);
}

TEST(SimulationTest, GvtTraceIsMonotone) {
  SimulationConfig cfg = small_config();
  cfg.gvt = GvtKind::kMattern;
  const SimulationResult result = run_cluster(cfg, default_phold());
  ASSERT_GT(result.gvt_trace.size(), 1u);
  for (std::size_t i = 1; i < result.gvt_trace.size(); ++i)
    EXPECT_GE(result.gvt_trace[i], result.gvt_trace[i - 1]);
}

struct ClusterCase {
  GvtKind gvt;
  MpiPlacement mpi;
  int nodes;
  int threads;
  double remote;
  double regional;
  std::uint64_t seed;
};

// ctest names each discovered case after the printed parameter; without a
// printer it ends in a dump of the struct's raw bytes.
void PrintTo(const ClusterCase& c, std::ostream* os) {
  *os << to_string(c.gvt) << ' ' << to_string(c.mpi) << " nodes=" << c.nodes
      << " threads=" << c.threads << " remote=" << c.remote << " regional=" << c.regional
      << " seed=" << c.seed;
}

class ClusterSweep : public ::testing::TestWithParam<ClusterCase> {};

TEST_P(ClusterSweep, MatchesSequentialReference) {
  const ClusterCase c = GetParam();
  SimulationConfig cfg = small_config();
  cfg.gvt = c.gvt;
  cfg.mpi = c.mpi;
  cfg.nodes = c.nodes;
  cfg.threads_per_node = c.threads;
  cfg.seed = c.seed;
  models::PholdParams params = default_phold();
  params.remote_pct = c.remote;
  params.regional_pct = c.regional;

  const SimulationResult result = run_cluster(cfg, params);
  const RefResult ref = sequential_reference(cfg, params);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.events.committed, ref.committed);
  EXPECT_EQ(result.committed_fingerprint, ref.fingerprint);
  EXPECT_GT(result.gvt_rounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndPlacements, ClusterSweep,
    ::testing::Values(
        ClusterCase{GvtKind::kBarrier, MpiPlacement::kDedicated, 2, 3, 0.1, 0.3, 1},
        ClusterCase{GvtKind::kBarrier, MpiPlacement::kCombined, 2, 2, 0.1, 0.3, 2},
        ClusterCase{GvtKind::kBarrier, MpiPlacement::kEverywhere, 2, 2, 0.1, 0.3, 3},
        ClusterCase{GvtKind::kMattern, MpiPlacement::kDedicated, 2, 3, 0.1, 0.3, 4},
        ClusterCase{GvtKind::kMattern, MpiPlacement::kCombined, 2, 2, 0.1, 0.3, 5},
        ClusterCase{GvtKind::kMattern, MpiPlacement::kEverywhere, 2, 2, 0.1, 0.3, 6},
        ClusterCase{GvtKind::kControlledAsync, MpiPlacement::kDedicated, 2, 3, 0.1, 0.3, 7},
        ClusterCase{GvtKind::kControlledAsync, MpiPlacement::kCombined, 2, 2, 0.1, 0.3, 8},
        ClusterCase{GvtKind::kBarrier, MpiPlacement::kDedicated, 1, 3, 0.0, 0.4, 9},
        ClusterCase{GvtKind::kMattern, MpiPlacement::kDedicated, 1, 3, 0.0, 0.4, 10},
        ClusterCase{GvtKind::kControlledAsync, MpiPlacement::kDedicated, 1, 3, 0.0, 0.4, 11},
        ClusterCase{GvtKind::kMattern, MpiPlacement::kDedicated, 4, 2, 0.3, 0.2, 12},
        ClusterCase{GvtKind::kBarrier, MpiPlacement::kDedicated, 4, 2, 0.3, 0.2, 13},
        ClusterCase{GvtKind::kControlledAsync, MpiPlacement::kDedicated, 4, 2, 0.3, 0.2, 14},
        ClusterCase{GvtKind::kEpoch, MpiPlacement::kDedicated, 2, 3, 0.1, 0.3, 15},
        ClusterCase{GvtKind::kEpoch, MpiPlacement::kCombined, 2, 2, 0.1, 0.3, 16},
        ClusterCase{GvtKind::kEpoch, MpiPlacement::kEverywhere, 2, 2, 0.1, 0.3, 17},
        ClusterCase{GvtKind::kEpoch, MpiPlacement::kDedicated, 1, 3, 0.0, 0.4, 18},
        ClusterCase{GvtKind::kEpoch, MpiPlacement::kDedicated, 4, 2, 0.3, 0.2, 19}),
    [](const ::testing::TestParamInfo<ClusterCase>& info) {
      const auto& c = info.param;
      return std::string(to_string(c.gvt) == std::string_view("ca-gvt") ? "ca" : to_string(c.gvt)) +
             "_" + std::string(to_string(c.mpi)) + "_n" + std::to_string(c.nodes) + "_s" +
             std::to_string(c.seed);
    });

TEST(SimulationTest, CaGvtSwitchesToSyncUnderHeavyCommunication) {
  SimulationConfig cfg = small_config();
  cfg.gvt = GvtKind::kControlledAsync;
  cfg.nodes = 4;
  cfg.threads_per_node = 3;
  cfg.end_vt = 40.0;
  cfg.gvt_interval = 6;
  models::PholdParams params;
  params.remote_pct = 0.30;  // communication-heavy: efficiency should tank
  params.regional_pct = 0.60;
  params.epg_units = 200;

  const SimulationResult result = run_cluster(cfg, params);
  EXPECT_TRUE(result.completed);
  // The efficiency-triggered SyncFlag must have fired at least once.
  EXPECT_GT(result.sync_rounds, 0u);
  EXPECT_EQ(result.events.committed, sequential_reference(cfg, params).committed);
}

TEST(SimulationTest, PaperScaleSmoke) {
  // The paper's per-node shape (60 threads x 128 LPs per worker) on a
  // 2-node cluster, shortened horizon: exercises wide barriers, large LP
  // maps, and heavy per-node fan-in on the MPI thread.
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 61;
  cfg.lps_per_worker = 128;
  cfg.end_vt = 3.0;
  cfg.gvt_interval = 12;
  cfg.seed = 5;
  models::PholdParams params;
  params.remote_pct = 0.01;
  params.regional_pct = 0.10;
  params.epg_units = 2000;
  const pdes::LpMap map = Simulation::make_map(cfg);
  ASSERT_EQ(map.total_lps(), 2 * 60 * 128);
  models::PholdModel model(map, params);
  Simulation sim(cfg, model);
  const SimulationResult r = sim.run(300.0);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.events.committed, 10000u);
  EXPECT_GT(r.gvt_rounds, 0u);
}

TEST(SimulationTest, InvalidConfigThrows) {
  SimulationConfig cfg = small_config();
  cfg.threads_per_node = 1;  // dedicated placement needs >= 2
  const pdes::LpMap map(1, 1, 1);
  models::PholdModel model(map, {});
  EXPECT_THROW(Simulation(cfg, model), std::invalid_argument);
}

}  // namespace
}  // namespace cagvt::core
