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
//
// A guard change that moves both kinds of run alike keeps them equal, so
// the polled run's schedule is also pinned (kPinned): simulated wall time
// (exact), GVT and synchronous rounds, processed and rolled-back events. A
// change that moves the schedule on purpose refreshes the pins: the test
// prints each moved case's actual row in table syntax, ready to replace the
// old one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
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

/// One case's polled schedule.
struct Pinned {
  const char* name;  // the case's name, as the suite prints it
  double wall_seconds;
  std::uint64_t gvt_rounds;
  std::uint64_t sync_rounds;
  std::uint64_t processed;
  std::uint64_t rolled_back;
};

/// The polled runs' schedules (refreshed from the rows the test prints).
constexpr Pinned kPinned[] = {
    {"barrier_dedicated", 0.0074105050000000004, 9, 0, 5567, 1766},
    {"barrier_combined", 0.0063834600000000005, 9, 0, 7223, 2099},
    {"barrier_everywhere", 0.0064230550000000004, 8, 0, 6704, 1580},
    {"barrier_controllers", 0.033699362000000004, 64, 0, 5333, 1532},
    {"mattern_dedicated", 0.0044694600000000006, 7, 0, 4900, 1099},
    {"mattern_combined", 0.0058447850000000008, 7, 0, 7689, 2565},
    {"mattern_everywhere", 0.0050489050000000002, 6, 0, 6963, 1839},
    {"mattern_controllers", 0.019881045, 42, 23, 5366, 1565},
    {"ca_gvt_dedicated", 0.0046096000000000002, 11, 1, 4420, 619},
    {"ca_gvt_combined", 0.0056280000000000002, 12, 0, 6355, 1231},
    {"ca_gvt_everywhere", 0.0050051050000000001, 11, 0, 5895, 771},
    {"ca_gvt_controllers", 0.020932267000000001, 50, 31, 4762, 961},
    {"epoch_dedicated", 0.0042699830000000006, 37, 1, 4428, 627},
    {"epoch_combined", 0.0060204220000000001, 46, 4, 6088, 964},
    {"epoch_everywhere", 0.005498803, 43, 5, 6078, 954},
    {"epoch_controllers", 0.022560657000000001, 77, 52, 4670, 869},
};

/// A row of kPinned in table syntax, wall time to the last bit.
std::string to_row(const Pinned& pin) {
  std::ostringstream row;
  row << std::setprecision(17) << "{\"" << pin.name << "\", " << pin.wall_seconds << ", "
      << pin.gvt_rounds << ", " << pin.sync_rounds << ", " << pin.processed << ", "
      << pin.rolled_back << "},";
  return row.str();
}

std::string case_name(const std::string& gvt, const char* variant) {
  std::string name = gvt + "_" + variant;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
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

  const std::string name = case_name(gvt, variant.name);
  const Pinned actual{name.c_str(),       polled.wall_seconds,      polled.gvt_rounds,
                      polled.sync_rounds, polled.events.processed, polled.events.rolled_back};
  const auto pin = std::find_if(std::begin(kPinned), std::end(kPinned),
                                [&](const Pinned& p) { return name == p.name; });
  ASSERT_NE(pin, std::end(kPinned)) << "no pinned schedule; add the row\n    " << to_row(actual);
  const bool same = actual.wall_seconds == pin->wall_seconds &&
                    actual.gvt_rounds == pin->gvt_rounds &&
                    actual.sync_rounds == pin->sync_rounds && actual.processed == pin->processed &&
                    actual.rolled_back == pin->rolled_back;
  EXPECT_TRUE(same) << "the schedule moved; if on purpose, replace the pinned row\n    "
                    << to_row(*pin) << "\nwith\n    " << to_row(actual);
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
      return case_name(std::get<0>(info.param), std::get<1>(info.param).name);
    });

}  // namespace
}  // namespace cagvt::core
