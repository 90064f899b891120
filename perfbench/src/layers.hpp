// Per-layer probes of the traced run: isolated loops over the metasim and
// net public APIs sized to a workload's cluster, and a Time Warp kernel
// replay that drives the pdes layer without the virtual cluster.
#pragma once

#include <cstdint>

#include "workloads.hpp"

namespace perfbench {

/// Host nanoseconds per operation of the metasim substrate.
struct MetasimCosts {
  double resume_ns = 0;    // one Process resumption after co_await delay()
  double callback_ns = 0;  // one Engine::call_at dispatch
  double subcall_ns = 0;   // one nested co_await of a Process (frame alloc)
  double lock_ns = 0;      // one contended Mutex acquisition + handoff
  double barrier_ns = 0;   // one Barrier arrival
};

/// Loops with `nodes` x `threads_per_node` simulated threads; locks and
/// barriers are per node, as in the virtual cluster.
MetasimCosts probe_metasim(int nodes, int threads_per_node);

/// Host nanoseconds per operation of the virtual MPI fabric.
struct NetCosts {
  double send_ns = 0;       // one isend plus its share of the inbox drain
  double allreduce_ns = 0;  // one all-reduce over every rank
};

/// Loops over a Fabric with `cfg.nodes` ranks. The all-reduce runs on the
/// tree when the config's GVT does (epoch, or --tree-arity > 0), flat
/// otherwise.
NetCosts probe_net(const cagvt::core::SimulationConfig& cfg);

/// The kernel replay: every ThreadKernel of the workload driven
/// round-robin on one host thread, external events delivered in FIFO order,
/// fossil collection at the minimum of pending and in-flight timestamps.
struct ReplayResult {
  std::uint64_t committed = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t state_hash = 0;
  std::uint64_t processed = 0;
  std::uint64_t deposits = 0;
  double process_ns = 0;  // host ns per process_next() that ran a handler
  double deposit_ns = 0;  // host ns per deposit()
  double fossil_s = 0;    // host seconds in fossil_collect()
};

ReplayResult replay_kernels(const Prepared& prepared);

}  // namespace perfbench
