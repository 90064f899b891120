// Idle polls change no result (DESIGN §14 "Idle polls"). A fault-free run
// skips the worker and MPI-agent passes whose step guards are all false;
// a run with a fault engine keeps every pass. A straggler window that
// opens long after the run ends creates the fault engine without touching
// a single cost, so the same configuration runs once polled and once with
// every pass, and both must produce the same schedule: the same processed
// and rolled-back counts, GVT rounds, simulated wall time, efficiency,
// committed fingerprint and state hash. A guard that says `false` where
// its step would act (or a skip credit that differs from what the step
// counts) shows up here as a difference or a run that never completes.
//
// The matrix covers every GVT kind under each MPI placement, plus the
// controllers that run inside the worker loop (flow) or at its rounds (lb,
// checkpoints). --sync=window rejects --fault; ConsLoopPendingTest covers
// its loop hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "models/registry.hpp"
#include "util/config.hpp"

namespace cagvt::core {
namespace {

/// Opens after any run of this size has ended (they take milliseconds).
constexpr const char* kLateStraggler = "--fault=straggler:node=0,slow=2x,t=1000s..";

/// Build and run a configuration from phold_cluster-style flags.
SimulationResult run_cli(const std::string& flags) {
  std::vector<std::string> words{"idle_poll_equivalence", "--nodes=4", "--threads=4",
                                 "--lps=8", "--end=40"};
  std::istringstream in(flags);
  for (std::string word; in >> word;) words.push_back(word);
  std::vector<const char*> argv;
  for (const std::string& word : words) argv.push_back(word.c_str());
  const Options opts = Options::parse(static_cast<int>(argv.size()), argv.data());

  SimulationConfig cfg;
  cfg.nodes = static_cast<int>(opts.get_int("nodes", 0));
  cfg.threads_per_node = static_cast<int>(opts.get_int("threads", 0));
  cfg.lps_per_worker = static_cast<int>(opts.get_int("lps", 0));
  cfg.end_vt = opts.get_double("end", 0);
  apply_gvt_spec(cfg, opts.get_string("gvt", "ca-gvt"));
  cfg.mpi = mpi_placement_from(opts.get_string("mpi", "dedicated"));
  apply_fault_options(cfg, opts);
  apply_lb_options(cfg, opts);
  apply_flow_options(cfg, opts);
  const pdes::LpMap map = Simulation::make_map(cfg);
  const auto model = models::make_model(opts.get_string("model", "phold"), opts, map, cfg.end_vt);
  EXPECT_TRUE(opts.unused_keys().empty()) << flags;
  // A stalled run polls until this simulated cap; the ctest TIMEOUT bounds
  // the host time that takes.
  return Simulation(cfg, *model).run(/*max_wall_seconds=*/1.0);
}

struct Variant {
  const char* name;
  const char* flags;
};
void PrintTo(const Variant& variant, std::ostream* os) { *os << variant.name; }
using Case = std::tuple<std::string, Variant>;  // --gvt, the other flags

class IdlePollEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(IdlePollEquivalenceTest, PolledRunMatchesEveryPassRun) {
  const auto& [gvt, variant] = GetParam();
  const std::string flags = "--gvt=" + gvt + " " + variant.flags;
  const SimulationResult polled = run_cli(flags);
  const SimulationResult every_pass = run_cli(flags + " " + kLateStraggler);
  ASSERT_TRUE(polled.completed) << flags;
  ASSERT_TRUE(every_pass.completed) << flags;
  EXPECT_EQ(every_pass.fault_activations, 0u);
  EXPECT_GT(polled.events.processed, 0u);

  EXPECT_EQ(polled.events.processed, every_pass.events.processed);
  EXPECT_EQ(polled.events.rolled_back, every_pass.events.rolled_back);
  EXPECT_EQ(polled.gvt_rounds, every_pass.gvt_rounds);
  EXPECT_EQ(polled.wall_seconds, every_pass.wall_seconds);
  EXPECT_EQ(polled.efficiency, every_pass.efficiency);
  EXPECT_EQ(polled.committed_fingerprint, every_pass.committed_fingerprint);
  EXPECT_EQ(polled.state_hash, every_pass.state_hash);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IdlePollEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(std::string("barrier"), std::string("mattern"), std::string("ca-gvt"),
                          std::string("epoch")),
        ::testing::Values(Variant{"dedicated", "--mpi=dedicated"},
                          Variant{"combined", "--mpi=combined"},
                          Variant{"everywhere", "--mpi=everywhere"},
                          Variant{"controllers", "--model=imbalanced-phold --lb=roughness "
                                                 "--flow=bounded,mem=64 --ckpt-every=3"})),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param).name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace cagvt::core
