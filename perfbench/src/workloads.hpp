// The host-time benchmark's workloads: four configurations of the virtual
// cluster, each chosen to load a different layer of the simulator. The
// measured layer shares behind each choice are in perfbench/README.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "pdes/mapping.hpp"
#include "pdes/model.hpp"

namespace perfbench {

/// kSmoke shrinks every workload's virtual horizon five-fold and its
/// ensemble to two members so the smoke test runs all of them in seconds;
/// the cluster shape is unchanged.
enum class Size { kFull, kSmoke };

struct Workload {
  std::string_view name;
  /// The seed claims are first measured on, and a held-out seed that is
  /// only used to re-check them. The oracle gate must pass on both.
  std::uint64_t default_seed;
  std::uint64_t heldout_seed;
  /// Simulations per run: one run's seed expands into this many member
  /// seeds (member_seed), so a run reports medians over an ensemble of
  /// trajectories instead of one seed's luck.
  int members;

  int nodes;
  int threads_per_node;
  int lps_per_worker;
  cagvt::core::GvtKind gvt;
  double end_vt;
  std::string_view model;
  /// Registry options without the seed; the run's model seed is written to
  /// every key in `seed_keys`.
  std::string_view model_options;
  std::vector<std::string_view> seed_keys;
  /// Turns on the controllers (lb, flow, recovery); null leaves them off.
  void (*controllers)(cagvt::core::SimulationConfig&) = nullptr;
};

const std::vector<Workload>& workloads();

/// Null when `name` is not a workload.
const Workload* find_workload(std::string_view name);

/// What the program builds before it simulates: the validated config, the
/// LP map and the model. The map lives on the heap because the model keeps
/// a reference to it.
struct Prepared {
  cagvt::core::SimulationConfig cfg;
  std::unique_ptr<cagvt::pdes::LpMap> map;
  std::unique_ptr<cagvt::pdes::Model> model;
};

/// Seed of ensemble member `k` of a run with seed `seed`; member 0 runs
/// `seed` itself.
std::uint64_t member_seed(std::uint64_t seed, int k);

/// Ensemble size of `workload` at `size`.
int members(const Workload& workload, Size size);

/// The program's set-up for one simulation of `workload`: `seed` sets both
/// the engine seed and the model seed.
Prepared setup(const Workload& workload, std::uint64_t seed, Size size);

}  // namespace perfbench
