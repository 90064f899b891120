// Deterministic fault-injection engine for the virtual cluster.
//
// Holds a validated perturbation schedule (FaultSpecs) and answers the
// hot-path queries the substrate interposes on its cost lookups:
//
//   * scale_cpu / scale_cpu_at    — straggler CPU slowdown of a node at the
//                                   current simulated time, or at a given
//                                   instant (EPG, engine and MPI CPU costs
//                                   multiply by it);
//   * link_latency / scale_transmit — per-link latency inflation (+ jitter
//                                   from the counter-based RNG) and
//                                   bandwidth reduction on the wire;
//   * mpi_stall_until             — end of the MPI-progress stall pulse a
//                                   node's MPI agent is currently inside.
//
// Everything is a pure function of (schedule, fault seed, query point), so
// replays are byte-identical: jitter draws come from CounterRng keyed by
// (fault seed, spec index, link) with a per-link draw counter, never from
// global state. Window edges are additionally announced as scheduled
// metasim *daemon* events that emit fault_on/fault_off trace records and
// bump metrics — visible in Perfetto/CSV exports without ever extending or
// perturbing the run itself.
//
// When no faults are configured the subsystem is not instantiated at all
// (every interposition site is a null-pointer branch), so fault-free runs
// are bit-identical to builds without the subsystem.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_spec.hpp"
#include "metasim/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cagvt::fault {

class FaultEngine {
 public:
  /// `specs` are validated; `seed` keys all jitter draws; `nodes` is the
  /// cluster size (used to expand "all nodes" targets and size RNG state).
  FaultEngine(std::vector<FaultSpec> specs, std::uint64_t seed, int nodes);

  FaultEngine(const FaultEngine&) = delete;
  FaultEngine& operator=(const FaultEngine&) = delete;

  /// Bind the time source and schedule the window-edge daemon events.
  /// `trace` / `metrics` may be null (or disabled); call once, before run.
  void arm(metasim::Engine& engine, obs::TraceRecorder* trace,
           obs::MetricsRegistry* metrics);

  // --- hot-path queries (valid after arm) --------------------------------
  /// Combined CPU-cost multiplier of `node` at instant `t` (>= 1).
  double cpu_factor_at(int node, metasim::SimTime t) const;
  /// `cost` charged by `node` at instant `t`: scaled by cpu_factor_at,
  /// rounded to integer nanoseconds. A folded lock hold
  /// (metasim::Mutex::lock_then) prices its work ahead of the clock.
  metasim::SimTime scale_cpu_at(int node, metasim::SimTime cost, metasim::SimTime t) const;
  /// The same at the current time.
  metasim::SimTime scale_cpu(int node, metasim::SimTime cost) const {
    return scale_cpu_at(node, cost, now());
  }
  /// One-way latency of link (src, dst) after inflation + jitter.
  /// Non-const: jitter draws advance the link's deterministic counter.
  metasim::SimTime link_latency(int src, int dst, metasim::SimTime base);
  /// Wire occupancy of a frame on (src, dst) after bandwidth reduction.
  metasim::SimTime scale_transmit(int src, int dst, metasim::SimTime base) const;
  /// If `node`'s MPI agent is inside a stall pulse now, the pulse's end
  /// time; otherwise 0.
  metasim::SimTime mpi_stall_until(int node) const;
  /// Should a frame of `cls` on (src, dst) be lost on the wire right now?
  /// Deterministic coin-flip from the spec's counter-RNG stream (rate=1 in
  /// a bounded window = blackout). Non-const: flips advance the counter.
  bool drop_frame(int src, int dst, FrameClass cls);
  /// Is `node` inside a crash window right now?
  bool node_down(int node) const;
  /// End of the crash window `node` is currently inside (0 if up).
  metasim::SimTime node_restart_at(int node) const;
  /// Smallest event-pool budget an active `mem:` squeeze imposes on global
  /// `worker` right now (specs with worker=-1 match every worker); 0 = no
  /// squeeze active. Memory-bounded optimism (src/flow) caps the worker's
  /// effective budget at min(configured budget, this value).
  std::int64_t mem_budget(int worker) const;

  /// Does the schedule contain loss or crash specs? Those require the
  /// sequence-numbered reliable transport (net/reliable.hpp); without them
  /// the fabric keeps its zero-overhead fire-and-forget path.
  bool needs_reliable_transport() const {
    for (const FaultSpec& spec : specs_)
      if (spec.kind == FaultKind::kLoss || spec.kind == FaultKind::kCrash) return true;
    return false;
  }

  // --- inspection ---------------------------------------------------------
  const std::vector<FaultSpec>& specs() const { return specs_; }
  /// Window activations announced so far (square waves / stall pulses
  /// count each cycle).
  std::uint64_t activations() const { return activations_; }
  std::uint64_t jitter_draws() const { return jitter_draws_; }
  /// Frames dropped on the wire by loss specs (crash drops are counted by
  /// the transport, which knows the frame's size and class).
  std::uint64_t frames_dropped() const { return frames_dropped_; }

 private:
  metasim::SimTime now() const;
  double factor_at(const FaultSpec& spec, metasim::SimTime t) const;
  bool link_matches(const FaultSpec& spec, int src, int dst) const;
  /// Schedule the next on/off edge of spec `index`; `cycle` counts square
  /// wave / stall pulses within the window.
  void schedule_edge(std::size_t index, metasim::SimTime when, bool on,
                     std::uint64_t cycle);
  void announce(const FaultSpec& spec, std::size_t index, bool on);

  std::vector<FaultSpec> specs_;
  std::uint64_t seed_;
  int nodes_;
  metasim::Engine* engine_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;

  // Per-node straggler / stall spec indices so unaffected nodes pay one
  // empty-vector check per query.
  std::vector<std::vector<std::size_t>> stragglers_by_node_;
  std::vector<std::vector<std::size_t>> stalls_by_node_;
  std::vector<std::size_t> link_specs_;
  std::vector<std::size_t> loss_specs_;
  std::vector<std::vector<std::size_t>> crashes_by_node_;
  std::vector<std::size_t> mem_specs_;

  // Draw state: per spec, per (src, dst) pair, the next counter of its
  // CounterRng stream (link jitter and loss coin-flips share the layout;
  // the key differs by spec index so the streams never collide).
  std::vector<std::vector<std::uint64_t>> jitter_counters_;

  obs::CounterHandle activations_metric_;
  obs::CounterHandle deactivations_metric_;
  obs::CounterHandle drops_metric_;
  std::uint64_t activations_ = 0;
  std::uint64_t jitter_draws_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace cagvt::fault
