#include "fault/fault_engine.hpp"

#include <cmath>

#include "fault/fault_parse.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cagvt::fault {

using metasim::SimTime;

FaultEngine::FaultEngine(std::vector<FaultSpec> specs, std::uint64_t seed, int nodes)
    : specs_(std::move(specs)), seed_(seed), nodes_(nodes) {
  CAGVT_CHECK(nodes >= 1);
  stragglers_by_node_.resize(static_cast<std::size_t>(nodes));
  stalls_by_node_.resize(static_cast<std::size_t>(nodes));
  crashes_by_node_.resize(static_cast<std::size_t>(nodes));
  jitter_counters_.resize(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    FaultSpec& spec = specs_[i];
    spec.validate(i);
    // Targets must name real cluster members; a typo'd node id would
    // otherwise silently perturb nothing (or, for crash, never restart).
    const auto check_target = [&](int id, const char* what) {
      if (id >= nodes)
        throw std::invalid_argument(
            "fault spec #" + std::to_string(i + 1) + " (" + describe(spec) + "): " +
            what + "=" + std::to_string(id) + " is outside the cluster (" +
            std::to_string(nodes) + " nodes, ids 0.." + std::to_string(nodes - 1) + ")");
    };
    check_target(spec.node, "node");
    check_target(spec.src, "src");
    check_target(spec.dst, "dst");
    switch (spec.kind) {
      case FaultKind::kStraggler:
        for (int n = 0; n < nodes; ++n)
          if (spec.node < 0 || spec.node == n)
            stragglers_by_node_[static_cast<std::size_t>(n)].push_back(i);
        break;
      case FaultKind::kMpiStall:
        for (int n = 0; n < nodes; ++n)
          if (spec.node < 0 || spec.node == n)
            stalls_by_node_[static_cast<std::size_t>(n)].push_back(i);
        break;
      case FaultKind::kLinkDegrade:
        link_specs_.push_back(i);
        if (spec.jitter > 0)
          jitter_counters_[i].assign(
              static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes), 0);
        break;
      case FaultKind::kLoss:
        loss_specs_.push_back(i);
        jitter_counters_[i].assign(
            static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes), 0);
        break;
      case FaultKind::kCrash:
        // Programmatic specs may carry only (start, down); derive the
        // window end the parser would have (the ctor owns its copy).
        spec.end = spec.window_end();
        crashes_by_node_[static_cast<std::size_t>(spec.node)].push_back(i);
        break;
      case FaultKind::kMemSqueeze:
        // Worker targets are global worker indices, validated against the
        // cluster's worker count by SimulationConfig::validate (the engine
        // only knows nodes).
        mem_specs_.push_back(i);
        break;
    }
  }
}

SimTime FaultEngine::now() const { return engine_ != nullptr ? engine_->now() : 0; }

double FaultEngine::factor_at(const FaultSpec& spec, SimTime t) const {
  if (t < spec.start || t >= spec.end) return 1.0;
  switch (spec.profile) {
    case FaultProfile::kConstant:
      return spec.slow;
    case FaultProfile::kSquareWave:
      return (t - spec.start) % spec.period < spec.period / 2 ? spec.slow : 1.0;
    case FaultProfile::kRamp:
      return 1.0 + (spec.slow - 1.0) * static_cast<double>(t - spec.start) /
                       static_cast<double>(spec.end - spec.start);
  }
  return 1.0;
}

double FaultEngine::cpu_factor_at(int node, SimTime t) const {
  const auto& affecting = stragglers_by_node_[static_cast<std::size_t>(node)];
  if (affecting.empty()) return 1.0;
  double factor = 1.0;
  for (const std::size_t i : affecting) factor *= factor_at(specs_[i], t);
  return factor;
}

SimTime FaultEngine::scale_cpu_at(int node, SimTime cost, SimTime t) const {
  const double factor = cpu_factor_at(node, t);
  if (factor == 1.0) return cost;
  return static_cast<SimTime>(std::llround(static_cast<double>(cost) * factor));
}

bool FaultEngine::link_matches(const FaultSpec& spec, int src, int dst) const {
  return (spec.src < 0 || spec.src == src) && (spec.dst < 0 || spec.dst == dst);
}

SimTime FaultEngine::link_latency(int src, int dst, SimTime base) {
  SimTime latency = base;
  const SimTime t = now();
  for (const std::size_t i : link_specs_) {
    const FaultSpec& spec = specs_[i];
    if (t < spec.start || t >= spec.end || !link_matches(spec, src, dst)) continue;
    latency = static_cast<SimTime>(
                  std::llround(static_cast<double>(latency) * spec.latency_factor)) +
              spec.latency_add;
    if (spec.jitter > 0) {
      // One deterministic draw per frame from the link's private stream:
      // replays with the same fault seed reproduce identical jitter, and
      // a different fault seed yields a different perturbation stream.
      auto& counter = jitter_counters_[i][static_cast<std::size_t>(src) *
                                              static_cast<std::size_t>(nodes_) +
                                          static_cast<std::size_t>(dst)];
      CounterRng rng(hash_combine(hash_combine(seed_, i),
                                  static_cast<std::uint64_t>(src) * 8192 +
                                      static_cast<std::uint64_t>(dst)),
                     counter);
      latency += static_cast<SimTime>(
          rng.next_below(static_cast<std::uint64_t>(spec.jitter) + 1));
      counter = rng.counter();
      ++jitter_draws_;
    }
  }
  return latency;
}

SimTime FaultEngine::scale_transmit(int src, int dst, SimTime base) const {
  SimTime occupancy = base;
  const SimTime t = now();
  for (const std::size_t i : link_specs_) {
    const FaultSpec& spec = specs_[i];
    if (t < spec.start || t >= spec.end || !link_matches(spec, src, dst)) continue;
    if (spec.bandwidth < 1.0)
      occupancy = static_cast<SimTime>(
          std::llround(static_cast<double>(occupancy) / spec.bandwidth));
  }
  return occupancy;
}

SimTime FaultEngine::mpi_stall_until(int node) const {
  const auto& affecting = stalls_by_node_[static_cast<std::size_t>(node)];
  if (affecting.empty()) return 0;
  const SimTime t = now();
  SimTime until = 0;
  for (const std::size_t i : affecting) {
    const FaultSpec& spec = specs_[i];
    if (t < spec.start || t >= spec.end) continue;
    SimTime pulse_start = spec.start;
    if (spec.period > 0)
      pulse_start += (t - spec.start) / spec.period * spec.period;
    SimTime pulse_end = pulse_start + spec.stall;
    if (pulse_end > spec.end) pulse_end = spec.end;
    if (t >= pulse_start && t < pulse_end && pulse_end > until) until = pulse_end;
  }
  return until;
}

bool FaultEngine::drop_frame(int src, int dst, FrameClass cls) {
  if (loss_specs_.empty()) return false;
  const SimTime t = now();
  for (const std::size_t i : loss_specs_) {
    const FaultSpec& spec = specs_[i];
    if (t < spec.start || t >= spec.end || !link_matches(spec, src, dst)) continue;
    if (spec.loss_class != FrameClass::kAll && spec.loss_class != cls) continue;
    if (spec.rate >= 1.0) {
      ++frames_dropped_;
      drops_metric_.inc();
      return true;
    }
    // One deterministic coin per frame from the link's private stream, same
    // keying discipline as jitter draws: replays with the same fault seed
    // drop the exact same frames.
    auto& counter = jitter_counters_[i][static_cast<std::size_t>(src) *
                                            static_cast<std::size_t>(nodes_) +
                                        static_cast<std::size_t>(dst)];
    CounterRng rng(hash_combine(hash_combine(seed_, i),
                                static_cast<std::uint64_t>(src) * 8192 +
                                    static_cast<std::uint64_t>(dst)),
                   counter);
    const bool drop = rng.next_double() < spec.rate;
    counter = rng.counter();
    if (drop) {
      ++frames_dropped_;
      drops_metric_.inc();
      return true;
    }
  }
  return false;
}

bool FaultEngine::node_down(int node) const { return node_restart_at(node) != 0; }

std::int64_t FaultEngine::mem_budget(int worker) const {
  if (mem_specs_.empty()) return 0;
  const SimTime t = now();
  std::int64_t budget = 0;
  for (const std::size_t i : mem_specs_) {
    const FaultSpec& spec = specs_[i];
    if (t < spec.start || t >= spec.end) continue;
    if (spec.worker >= 0 && spec.worker != worker) continue;
    if (budget == 0 || spec.budget < budget) budget = spec.budget;
  }
  return budget;
}

SimTime FaultEngine::node_restart_at(int node) const {
  const auto& affecting = crashes_by_node_[static_cast<std::size_t>(node)];
  if (affecting.empty()) return 0;
  const SimTime t = now();
  SimTime restart = 0;
  for (const std::size_t i : affecting) {
    const FaultSpec& spec = specs_[i];
    if (t >= spec.start && t < spec.end && spec.end > restart) restart = spec.end;
  }
  return restart;
}

void FaultEngine::announce(const FaultSpec& spec, std::size_t index, bool on) {
  if (on) {
    ++activations_;
    activations_metric_.inc();
  } else {
    deactivations_metric_.inc();
  }
  if (trace_ == nullptr) return;
  if (spec.kind == FaultKind::kCrash) {
    // Crashes get their own record kind (the recovery pipeline's first
    // event); the off edge is the restart, whose restore record comes from
    // the recovery manager once state is actually reloaded.
    if (on)
      trace_->crash(spec.node, spec.end, static_cast<std::uint64_t>(index));
    else
      trace_->fault_off(spec.node, "crash", static_cast<std::uint64_t>(index));
    return;
  }
  const char* kind = to_string(spec.kind).data();  // to_string returns literals
  const double magnitude = spec.kind == FaultKind::kStraggler      ? spec.slow
                           : spec.kind == FaultKind::kLinkDegrade ? spec.latency_factor
                           : spec.kind == FaultKind::kLoss        ? spec.rate
                           : spec.kind == FaultKind::kMemSqueeze
                               ? static_cast<double>(spec.budget)
                               : 0.0;
  const int target =
      spec.kind == FaultKind::kLinkDegrade || spec.kind == FaultKind::kLoss ? spec.src
                                                                            : spec.node;
  // One record per affected node so each node's Perfetto track shows its
  // own perturbation window.
  for (int n = 0; n < nodes_; ++n) {
    if (target >= 0 && target != n) continue;
    if (on)
      trace_->fault_on(n, kind, magnitude, static_cast<std::uint64_t>(index));
    else
      trace_->fault_off(n, kind, static_cast<std::uint64_t>(index));
  }
}

void FaultEngine::schedule_edge(std::size_t index, SimTime when, bool on,
                                std::uint64_t cycle) {
  const FaultSpec& spec = specs_[index];
  if (when >= spec.end && !(when == spec.end && !on)) return;
  engine_->call_at_daemon(when, [this, index, on, cycle] {
    const FaultSpec& s = specs_[index];
    announce(s, index, on);
    const bool pulsed = (s.kind == FaultKind::kStraggler &&
                         s.profile == FaultProfile::kSquareWave) ||
                        (s.kind == FaultKind::kMpiStall && s.period > 0);
    if (on) {
      // Schedule the matching deactivation edge.
      SimTime off_at = s.end;
      if (s.kind == FaultKind::kStraggler && s.profile == FaultProfile::kSquareWave)
        off_at = s.start + static_cast<SimTime>(cycle) * s.period + s.period / 2;
      else if (s.kind == FaultKind::kMpiStall)
        off_at = s.start + static_cast<SimTime>(cycle) * s.period + s.stall;
      if (off_at > s.end) off_at = s.end;
      if (off_at != metasim::kTimeNever) schedule_edge(index, off_at, false, cycle);
    } else if (pulsed) {
      // Schedule the next cycle's activation, if it still fits the window.
      const SimTime next_on = s.start + static_cast<SimTime>(cycle + 1) * s.period;
      if (next_on < s.end) schedule_edge(index, next_on, true, cycle + 1);
    }
  });
}

void FaultEngine::arm(metasim::Engine& engine, obs::TraceRecorder* trace,
                      obs::MetricsRegistry* metrics) {
  CAGVT_CHECK_MSG(engine_ == nullptr, "FaultEngine armed twice");
  engine_ = &engine;
  trace_ = trace;
  if (metrics != nullptr) {
    activations_metric_ = metrics->counter("fault.activations");
    deactivations_metric_ = metrics->counter("fault.deactivations");
    drops_metric_ = metrics->counter("fault.frames_dropped");
  }
  for (std::size_t i = 0; i < specs_.size(); ++i)
    schedule_edge(i, specs_[i].start, /*on=*/true, /*cycle=*/0);
}

}  // namespace cagvt::fault
