#include "workloads.hpp"

#include <string>

#include "core/simulation.hpp"
#include "flow/flow_config.hpp"
#include "lb/lb_config.hpp"
#include "models/registry.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace perfbench {

using cagvt::core::GvtKind;
using cagvt::core::SimulationConfig;

const std::vector<Workload>& workloads() {
  // Why each workload was chosen, with its measured layer shares, is in
  // perfbench/README.md. Ensemble sizes keep one pass near 8-10 host seconds.
  static const std::vector<Workload> all = {
      // Substrate-bound: metasim dispatch, vmpi/shm transport, tree reduction.
      {"comm-epoch32", 1, 1009, 12, 32, 7, 16, GvtKind::kEpoch, 6.0, "phold",
       "regional=0.9,remote=0.1,epg=5000", {"model-seed"}},
      // Kernel-bound: ~100% efficient, few messages per event.
      {"comp-dense8", 1, 2003, 12, 8, 7, 512, GvtKind::kMattern, 4.0, "phold",
       "regional=0.1,remote=0.01,epg=10000", {"model-seed"}},
      // The paper's Figure 10: phases drive the async/throttle/sync policy.
      {"mixed-ca8", 1, 3001, 9, 8, 7, 16, GvtKind::kControlledAsync, 75.0, "mixed-phold",
       "x=10,y=15", {"comp-model-seed", "comm-model-seed"}},
      // The only workload running the controllers and the round fence.
      {"imbalance-ctl", 1, 4001, 30, 4, 4, 16, GvtKind::kMattern, 30.0, "imbalanced-phold",
       "epg=500,regional=0.2,remote=0.1,hot-fraction=0.25,hot-factor=3", {"model-seed"},
       [](SimulationConfig& cfg) {
         cfg.lb = cagvt::lb::parse_lb("roughness");
         cfg.flow = cagvt::flow::parse_flow("bounded,mem=256");
         cfg.ckpt_every = 8;
       }},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::uint64_t member_seed(std::uint64_t seed, int k) {
  return k == 0 ? seed : cagvt::hash_combine(seed, static_cast<std::uint64_t>(k));
}

int members(const Workload& workload, Size size) {
  return size == Size::kSmoke ? 2 : workload.members;
}

Prepared setup(const Workload& workload, std::uint64_t seed, Size size) {
  Prepared p;
  SimulationConfig& cfg = p.cfg;
  cfg.nodes = workload.nodes;
  cfg.threads_per_node = workload.threads_per_node;
  cfg.lps_per_worker = workload.lps_per_worker;
  cfg.gvt = workload.gvt;
  cfg.end_vt = size == Size::kSmoke ? workload.end_vt / 5 : workload.end_vt;
  // The CLI defaults (examples/phold_cluster.cpp) the workloads were sized with.
  cfg.mpi = cagvt::core::MpiPlacement::kDedicated;
  cfg.gvt_interval = 12;
  cfg.batch = 4;
  cfg.ca_efficiency_threshold = 0.8;
  cfg.seed = seed;
  if (workload.controllers != nullptr) workload.controllers(cfg);
  cfg.validate();

  // The model's randomness is keyed separately from the engine's; both
  // follow the run's seed. Shifted so the option parser's int64 holds it.
  const std::uint64_t model_seed = cagvt::hash_combine(seed, 0x9E1D) >> 2;
  std::string options(workload.model_options);
  for (const std::string_view key : workload.seed_keys)
    options += "," + std::string(key) + "=" + std::to_string(model_seed);

  p.map = std::make_unique<cagvt::pdes::LpMap>(cagvt::core::Simulation::make_map(cfg));
  p.model = cagvt::models::make_model(workload.model, cagvt::Options::parse_kv(options),
                                      *p.map, cfg.end_vt);
  return p;
}

}  // namespace perfbench
