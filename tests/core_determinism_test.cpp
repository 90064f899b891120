// Cross-configuration determinism and equivalence sweep over the model
// registry: each model runs on the full virtual cluster under every GVT
// algorithm; runs are bit-reproducible, and all algorithms commit the same
// event set for a given model.
#include <gtest/gtest.h>

#include <ostream>

#include "core/simulation.hpp"
#include "models/registry.hpp"

namespace cagvt::core {
namespace {

struct ModelCase {
  const char* model;
  const char* options;
};

// ctest names each discovered case after the printed parameter. Without a
// printer gtest dumps the struct's bytes, and these are string pointers, so
// the name would change with the load address from one run to the next.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.model << ' ' << c.options; }

class ModelSweep : public ::testing::TestWithParam<ModelCase> {};

SimulationConfig sweep_config() {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 6;
  cfg.end_vt = 20.0;
  cfg.gvt_interval = 6;
  cfg.seed = 31;
  return cfg;
}

TEST_P(ModelSweep, AlgorithmsAgreeAndRunsAreReproducible) {
  const ModelCase c = GetParam();
  const SimulationConfig cfg = sweep_config();
  const pdes::LpMap map = Simulation::make_map(cfg);
  const Options opts = Options::parse_kv(c.options);
  const auto model = models::make_model(c.model, opts, map, cfg.end_vt);

  std::uint64_t reference_fingerprint = 0;
  std::uint64_t reference_committed = 0;
  for (const GvtKind kind :
       {GvtKind::kBarrier, GvtKind::kMattern, GvtKind::kControlledAsync,
        GvtKind::kEpoch}) {
    SimulationConfig run_cfg = cfg;
    run_cfg.gvt = kind;
    Simulation sim(run_cfg, *model);
    const SimulationResult first = sim.run(120.0);
    const SimulationResult second = sim.run(120.0);

    ASSERT_TRUE(first.completed) << c.model << "/" << to_string(kind);
    // Bit-reproducibility of repeated runs.
    EXPECT_EQ(first.committed_fingerprint, second.committed_fingerprint);
    EXPECT_EQ(first.events.processed, second.events.processed);
    EXPECT_DOUBLE_EQ(first.wall_seconds, second.wall_seconds);

    // Algorithm-independence of the committed event set.
    if (reference_committed == 0) {
      reference_committed = first.events.committed;
      reference_fingerprint = first.committed_fingerprint;
    } else {
      EXPECT_EQ(first.events.committed, reference_committed)
          << c.model << "/" << to_string(kind);
      EXPECT_EQ(first.committed_fingerprint, reference_fingerprint)
          << c.model << "/" << to_string(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ModelSweep,
    ::testing::Values(ModelCase{"phold", "remote=0.1,regional=0.3,epg=500"},
                      ModelCase{"reverse-phold", "remote=0.1,regional=0.3,epg=500"},
                      ModelCase{"mixed-phold", "x=10,y=15"},
                      ModelCase{"imbalanced-phold", "hot-fraction=0.5,hot-factor=3,epg=500"}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      std::string name = info.param.model;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(DeterminismTest, ClampedEpochsCommitTheSameEventsAsUnclampedRuns) {
  // Matrix row for the throttle tier: force the clamp permanently on
  // (threshold 1.0 trips every round, escalate=0 blocks the sync tier) and
  // verify that clamped runs are bit-reproducible and commit exactly what an
  // untriggered run of the same algorithm commits. The clamp may only delay
  // optimistic work, never change its outcome.
  const SimulationConfig cfg = sweep_config();
  const pdes::LpMap map = Simulation::make_map(cfg);
  const auto model = models::make_model(
      "phold", Options::parse_kv("remote=0.1,regional=0.3,epg=500"), map, cfg.end_vt);

  for (const GvtKind kind : {GvtKind::kControlledAsync, GvtKind::kEpoch}) {
    SimulationConfig plain_cfg = cfg;
    plain_cfg.gvt = kind;
    Simulation plain(plain_cfg, *model);
    const SimulationResult want = plain.run(120.0);
    ASSERT_TRUE(want.completed) << to_string(kind);

    SimulationConfig clamped_cfg = plain_cfg;
    clamped_cfg.ca_efficiency_threshold = 1.0;
    clamped_cfg.gvt_escalate_rounds = 0;
    clamped_cfg.gvt_throttle_clamp = 2.0;
    Simulation clamped(clamped_cfg, *model);
    const SimulationResult first = clamped.run(120.0);
    const SimulationResult second = clamped.run(120.0);

    ASSERT_TRUE(first.completed) << to_string(kind);
    EXPECT_EQ(first.sync_rounds, 0u) << to_string(kind);
    EXPECT_GT(first.gvt_throttle_rounds, 0u) << to_string(kind);
    // Bit-reproducibility with the clamp engaged.
    EXPECT_EQ(first.committed_fingerprint, second.committed_fingerprint);
    EXPECT_DOUBLE_EQ(first.wall_seconds, second.wall_seconds);
    // Clamp-independence of the committed event set.
    EXPECT_EQ(first.events.committed, want.events.committed) << to_string(kind);
    EXPECT_EQ(first.committed_fingerprint, want.committed_fingerprint)
        << to_string(kind);
    EXPECT_EQ(first.state_hash, want.state_hash) << to_string(kind);
  }
}

TEST(DeterminismTest, SeedsSelectDistinctWorkloads) {
  // The engine seed keys the initial-event uid chain (and through it every
  // model RNG draw), so different seeds give different — but individually
  // reproducible — workloads.
  SimulationConfig cfg = sweep_config();
  const pdes::LpMap map = Simulation::make_map(cfg);
  const auto model = models::make_model("phold", Options::parse_kv("regional=0.3"), map,
                                        cfg.end_vt);
  cfg.seed = 1;
  Simulation a(cfg, *model);
  cfg.seed = 2;
  Simulation b(cfg, *model);
  const auto ra = a.run(120.0);
  const auto rb = b.run(120.0);
  EXPECT_NE(ra.committed_fingerprint, rb.committed_fingerprint);

  // Independent model seed also perturbs the workload on its own.
  const auto model2 = models::make_model("phold", Options::parse_kv("regional=0.3,model-seed=77"),
                                         map, cfg.end_vt);
  Simulation c(cfg, *model2);
  const auto rc = c.run(120.0);
  EXPECT_NE(rc.committed_fingerprint, rb.committed_fingerprint);
}

}  // namespace
}  // namespace cagvt::core
