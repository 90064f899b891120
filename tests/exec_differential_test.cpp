// Differential oracle harness for the real-thread execution backend.
//
// The coroutine backend (core::Simulation) is the deterministic oracle: its
// virtual cluster runs on one OS thread with simulated time, so every run is
// bit-reproducible. The thread backend (exec::ThreadEngine) races real OS
// threads against each other, so the *order* of processing and the rollback
// counts are nondeterministic — but the committed event set must not be.
// Because model randomness is counter-based on replay-stable uids, any
// correct execution commits exactly the same events and ends in exactly the
// same LP states. These tests diff the order-independent committed-event
// fingerprint, the committed count, and the final-state hash across
//   thread backend  vs  coroutine oracle  vs  sequential reference
// for the full golden matrix (every model x every GVT algorithm), plus the
// alternative MPI placements. Divergence in any committed result is failure;
// divergence in processed/rolled-back counts is expected and not checked.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/simulation.hpp"
#include "exec/backend.hpp"
#include "models/registry.hpp"
#include "pdes/seqref.hpp"

namespace cagvt::exec {
namespace {

using core::GvtKind;
using core::SimulationConfig;
using core::SimulationResult;

struct ModelCase {
  const char* model;
  const char* options;
};

// ctest names each discovered case after the printed parameter. Without a
// printer gtest dumps the struct's bytes, and these are string pointers, so
// the name would change with the binary's layout from one build to the next.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.model << ' ' << c.options; }

// Same golden matrix as core_determinism_test.cpp: small enough to finish in
// milliseconds, large enough to force cross-node traffic and rollbacks.
SimulationConfig golden_config() {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;
  cfg.lps_per_worker = 6;
  cfg.end_vt = 20.0;
  cfg.gvt_interval = 6;
  cfg.seed = 31;
  return cfg;
}

struct Oracle {
  std::uint64_t committed = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t state_hash = 0;
};

// Sequential-reference ground truth for a config+model.
Oracle reference_for(const SimulationConfig& cfg, const pdes::Model& model) {
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  pdes::SequentialReference ref(model, map, {.end_vt = cfg.end_vt, .seed = cfg.seed});
  ref.run();
  return {ref.committed(), ref.fingerprint(), ref.state_hash()};
}

void expect_matches(const SimulationResult& r, const Oracle& want, const std::string& tag) {
  ASSERT_TRUE(r.completed) << tag;
  EXPECT_EQ(r.events.committed, want.committed) << tag;
  EXPECT_EQ(r.committed_fingerprint, want.fingerprint) << tag;
  EXPECT_EQ(r.state_hash, want.state_hash) << tag;
  EXPECT_GT(r.gvt_rounds, 0u) << tag;
}

class GoldenMatrix : public ::testing::TestWithParam<ModelCase> {};

TEST_P(GoldenMatrix, ThreadBackendMatchesCoroOracleAndSeqref) {
  const ModelCase c = GetParam();
  const SimulationConfig cfg = golden_config();
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  const auto model = models::make_model(c.model, Options::parse_kv(c.options), map, cfg.end_vt);
  const Oracle want = reference_for(cfg, *model);
  ASSERT_GT(want.committed, 0u);

  for (const GvtKind kind :
       {GvtKind::kBarrier, GvtKind::kMattern, GvtKind::kControlledAsync,
        GvtKind::kEpoch}) {
    SimulationConfig run_cfg = cfg;
    run_cfg.gvt = kind;
    const std::string tag =
        std::string(c.model) + "/" + std::string(to_string(kind));

    const SimulationResult coro =
        run_simulation(run_cfg, *model, BackendKind::kCoro, 120.0);
    expect_matches(coro, want, tag + "/coro");

    const SimulationResult threads =
        run_simulation(run_cfg, *model, BackendKind::kThreads, 120.0);
    expect_matches(threads, want, tag + "/threads");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, GoldenMatrix,
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

TEST(DifferentialTest, MpiPlacementsAgree) {
  // kCombined and kEverywhere change the messaging topology (no dedicated
  // agent thread -> one more worker per node -> a different LP map), so each
  // placement is diffed against its own sequential reference. The epoch GVT
  // drives its reduction from whatever thread plays MPI agent, so every
  // placement runs under it as well as under the default algorithm.
  for (const core::MpiPlacement mpi :
       {core::MpiPlacement::kDedicated, core::MpiPlacement::kCombined,
        core::MpiPlacement::kEverywhere}) {
    SimulationConfig cfg = golden_config();
    cfg.mpi = mpi;
    const pdes::LpMap map = core::Simulation::make_map(cfg);
    const auto model = models::make_model(
        "phold", Options::parse_kv("remote=0.2,regional=0.3,epg=500"), map, cfg.end_vt);
    const Oracle want = reference_for(cfg, *model);

    for (const GvtKind kind : {cfg.gvt, GvtKind::kEpoch}) {
      SimulationConfig run_cfg = cfg;
      run_cfg.gvt = kind;
      const std::string tag =
          std::string(to_string(mpi)) + "/" + std::string(to_string(kind));
      expect_matches(run_simulation(run_cfg, *model, BackendKind::kCoro, 120.0), want,
                     tag + "/coro");
      expect_matches(run_simulation(run_cfg, *model, BackendKind::kThreads, 120.0), want,
                     tag + "/threads");
    }
  }
}

TEST(DifferentialTest, ClampedEpochsMatchSeqrefOnBothBackends) {
  // Throttle-tier matrix row: threshold 1.0 trips the trigger on every
  // round and escalate=0 pins the policy at the throttle tier, so both
  // backends run the entire simulation with the execution clamp engaged
  // (and zero synchronous rounds). Clamping only delays optimistic work;
  // the committed results must still equal the sequential reference.
  for (const GvtKind kind : {GvtKind::kControlledAsync, GvtKind::kEpoch}) {
    SimulationConfig cfg = golden_config();
    cfg.gvt = kind;
    cfg.ca_efficiency_threshold = 1.0;
    cfg.gvt_escalate_rounds = 0;
    cfg.gvt_throttle_clamp = 2.0;
    const pdes::LpMap map = core::Simulation::make_map(cfg);
    const auto model = models::make_model(
        "phold", Options::parse_kv("remote=0.1,regional=0.3,epg=500"), map, cfg.end_vt);
    const Oracle want = reference_for(cfg, *model);
    const std::string tag = std::string("clamped/") + std::string(to_string(kind));

    const SimulationResult coro =
        run_simulation(cfg, *model, BackendKind::kCoro, 120.0);
    expect_matches(coro, want, tag + "/coro");
    EXPECT_EQ(coro.sync_rounds, 0u) << tag;
    EXPECT_GT(coro.gvt_throttle_rounds, 0u) << tag;

    const SimulationResult threads =
        run_simulation(cfg, *model, BackendKind::kThreads, 120.0);
    expect_matches(threads, want, tag + "/threads");
    EXPECT_GT(threads.gvt_throttle_rounds, 0u) << tag;
    EXPECT_GT(threads.gvt_throttle_engagements, 0u) << tag;
  }
}

TEST(DifferentialTest, ThreadBackendCommittedResultsAreScheduleIndependent) {
  // Back-to-back thread-backend runs interleave differently (real OS
  // scheduling), yet the committed results must be identical every time.
  const SimulationConfig cfg = golden_config();
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  const auto model = models::make_model(
      "phold", Options::parse_kv("remote=0.1,regional=0.3,epg=500"), map, cfg.end_vt);
  const Oracle want = reference_for(cfg, *model);

  for (int run = 0; run < 3; ++run)
    expect_matches(run_simulation(cfg, *model, BackendKind::kThreads, 120.0), want,
                   "run " + std::to_string(run));
}

TEST(DifferentialTest, ThreadBackendRejectsSimulatedTimeOnlyFeatures) {
  // Fault injection, checkpointing and the observability hooks are driven by
  // the simulated clock; the thread backend must refuse them loudly instead
  // of silently ignoring them.
  const SimulationConfig base = golden_config();
  const pdes::LpMap map = core::Simulation::make_map(base);
  const auto model = models::make_model("phold", Options::parse_kv(""), map, base.end_vt);

  SimulationConfig faulty = base;
  faulty.faults.push_back(fault::FaultSpec{});
  EXPECT_THROW(run_simulation(faulty, *model, BackendKind::kThreads, 120.0),
               std::invalid_argument);

  SimulationConfig ckpt = base;
  ckpt.ckpt_every = 2;
  EXPECT_THROW(run_simulation(ckpt, *model, BackendKind::kThreads, 120.0),
               std::invalid_argument);

  SimulationConfig traced = base;
  traced.obs.trace = true;
  EXPECT_THROW(run_simulation(traced, *model, BackendKind::kThreads, 120.0),
               std::invalid_argument);

  // Conservative synchronization lives on the coroutine backend's simulated
  // transport (single cluster-wide controller, no locks).
  SimulationConfig conservative = base;
  conservative.sync.kind = cons::SyncKind::kCmb;
  EXPECT_THROW(run_simulation(conservative, *model, BackendKind::kThreads, 120.0),
               std::invalid_argument);
}

TEST(DifferentialTest, BackendNamesParse) {
  EXPECT_EQ(backend_from("coro"), BackendKind::kCoro);
  EXPECT_EQ(backend_from("coroutine"), BackendKind::kCoro);
  EXPECT_EQ(backend_from("threads"), BackendKind::kThreads);
  EXPECT_EQ(backend_from("thread"), BackendKind::kThreads);
  EXPECT_THROW(backend_from("fibers"), std::invalid_argument);
  EXPECT_EQ(to_string(BackendKind::kCoro), "coro");
  EXPECT_EQ(to_string(BackendKind::kThreads), "threads");
}

}  // namespace
}  // namespace cagvt::exec
