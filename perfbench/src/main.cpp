// Host-time benchmark runner: one workload, one seed, one process.
//
//   perfbench --workload=comm-epoch32 --seed=1 --seconds=15 --trace=0
//   perfbench --list            # workloads with their default/held-out seeds
//
// The run's seed expands into the workload's ensemble of member seeds
// (workloads.hpp). Every simulation runs serially on the deterministic
// coroutine backend through exec::run_simulation. Before any timed run,
// the sequential reference (pdes::SequentialReference) gives each member
// the committed count, fingerprint and state hash its runs must reproduce;
// a member's first run fixes the simulated counters its later runs must
// repeat exactly. A run that is incomplete, disagrees with the oracle or
// drifts counts as failed.
//
// --trace=0 measures the end-to-end metrics with instrumentation off.
// --trace=1 is the separate traced run of member 0: isolated metasim/net
// loops, the seqref and a kernel replay for the pdes layer, alternating
// untraced and traced (cfg.obs) simulations, and the simulated counters.
// --size=smoke shrinks the workload for the smoke test.
//
// The last line of stdout is the JSON result:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "exec/backend.hpp"
#include "layers.hpp"
#include "pdes/seqref.hpp"
#include "timing.hpp"
#include "util/config.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using cagvt::core::SimulationResult;

constexpr int kSetupsPerBatch = 40;
constexpr int kMinRunsPerMember = 2;
constexpr int kMinTracedPairs = 3;
/// Upper edge of kernel.rollback_depth, registered over [0, 64) in
/// core/node_runtime.cpp. The snapshot carries bucket counts but not the
/// range, so this must be kept equal to the registration there.
constexpr double kDepthHistHi = 64;

struct Oracle {
  std::uint64_t committed = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t state_hash = 0;
};

/// Every simulated (deterministic) output of a run. Two runs of one config
/// and seed must agree on all of them, bit for bit.
struct Counters {
  std::vector<std::uint64_t> ints;
  std::vector<double> reals;
  std::vector<double> gvt_trace;
  bool operator==(const Counters&) const = default;
};

Counters counters_of(const SimulationResult& r) {
  const auto& e = r.events;
  return {{e.processed, e.committed, e.rolled_back, e.rollback_episodes, e.primary_rollbacks,
           e.secondary_rollbacks, e.stragglers, e.events_generated, e.antimessages_emitted,
           e.annihilated_pending, e.annihilated_early, e.local_cancellations,
           e.migration_reorders, e.cancelled_back, e.max_history, e.pool_peak, r.gvt_rounds,
           r.sync_rounds, r.gvt_throttle_rounds, r.gvt_throttle_engagements, r.regional_msgs,
           r.remote_msgs, r.net_frames, r.tree_frames, r.checkpoints, r.restores,
           r.lb_migrations, r.lb_migration_rounds, r.lb_forwards, r.owner_table_version,
           r.flow_cancelbacks, r.flow_releases, r.flow_storms, r.flow_throttle_engagements,
           r.flow_forced_rounds, r.flow_absorbed_antis, r.peak_event_pool,
           r.committed_fingerprint, r.state_hash},
          {r.wall_seconds, r.committed_rate, r.efficiency, r.final_gvt, r.gvt_round_seconds,
           r.gvt_block_seconds, r.lock_wait_seconds, r.avg_lvt_disparity,
           r.last_global_efficiency, r.avg_lvt_roughness},
          r.gvt_trace};
}

/// One simulation of a run's ensemble: its inputs, the oracle every run of
/// it must reproduce, its first run's results and the host time of each run.
struct Member {
  Prepared prep;
  Oracle oracle;
  double seqref_s = 0;
  std::optional<SimulationResult> first;
  std::vector<double> run_s;
};

Member prepare_member(const Workload& workload, std::uint64_t seed, Size size) {
  Member m;
  m.prep = setup(workload, seed, size);
  pin_to_fastest_cpu();
  const double t0 = now_seconds();
  cagvt::pdes::SequentialReference ref(*m.prep.model, *m.prep.map,
                                       {.end_vt = m.prep.cfg.end_vt, .seed = m.prep.cfg.seed});
  ref.run();
  m.seqref_s = now_seconds() - t0;
  m.oracle = {ref.committed(), ref.fingerprint(), ref.state_hash()};
  return m;
}

/// The oracle gate and the exact-counter check, with the attempt tally.
class Gate {
 public:
  /// Check one run of `m` against its oracle and, after its first run,
  /// against the first run's simulated counters.
  void check(Member& m, const SimulationResult& r, const std::string& what) {
    const char* why = nullptr;
    if (!r.completed) {
      why = "incomplete";
    } else if (r.events.committed != m.oracle.committed) {
      why = "committed count differs from seqref";
    } else if (r.committed_fingerprint != m.oracle.fingerprint) {
      why = "fingerprint differs from seqref";
    } else if (r.state_hash != m.oracle.state_hash) {
      why = "state hash differs from seqref";
    } else if (!m.first) {
      m.first = r;
    } else if (counters_of(r) != counters_of(*m.first)) {
      why = "simulated counters differ from the first run";
    }
    record(why, what);
  }

  /// A kernel replay must commit exactly what the seqref commits.
  void check_replay(const Oracle& oracle, const ReplayResult& r) {
    const bool ok = r.committed == oracle.committed && r.fingerprint == oracle.fingerprint &&
                    r.state_hash == oracle.state_hash;
    record(ok ? nullptr : "kernel replay differs from seqref", "replay");
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  void record(const char* why, const std::string& what) {
    ++attempted_;
    if (why == nullptr) return;
    ++failed_;
    std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), why);
  }

  int attempted_ = 0;
  int failed_ = 0;
};

/// Metrics in print order, each with its unit.
class Report {
 public:
  void add(const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "FAILED metric %s is not finite\n", name);
      finite_ = false;
      value = 0;
    }
    metrics_.push_back({name, value, unit});
  }

  void print(const Gate& gate) const {
    const bool correct = finite_ && gate.failed() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
                correct ? "true" : "false", gate.attempted(), gate.failed());
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name, metrics_[i].value, metrics_[i].unit);
    std::printf("}}\n");
  }

 private:
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  bool finite_ = true;
};

struct TimedRun {
  SimulationResult result;
  double seconds = 0;
};

TimedRun simulate(const Prepared& p, bool traced) {
  cagvt::core::SimulationConfig cfg = p.cfg;
  cfg.obs.trace = traced;
  cfg.obs.metrics = traced;
  pin_to_fastest_cpu();
  const double t0 = now_seconds();
  SimulationResult r = cagvt::exec::run_simulation(cfg, *p.model, cagvt::exec::BackendKind::kCoro);
  return {std::move(r), now_seconds() - t0};
}

/// The process's resident high-water mark (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Starts a new peak-RSS window: hands the heap freed so far back to the
/// kernel, then resets VmHWM to the current resident size.
void reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool written = f != nullptr && std::fputs("5", f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !written)
    throw std::runtime_error("cannot reset the peak RSS through /proc/self/clear_refs");
}

/// Median of the registry's histogram, interpolated inside its bucket.
double histogram_p50(const cagvt::obs::MetricsSnapshot& snap, const std::string& name) {
  const double count = snap.value(name + ".count");
  if (count <= 0) return 0;
  int buckets = 0;
  while (snap.values.count(name + ".bucket" + std::to_string(buckets))) ++buckets;
  const double width = kDepthHistHi / buckets;
  double below = 0;
  for (int b = 0; b < buckets; ++b) {
    const double in = snap.value(name + ".bucket" + std::to_string(b));
    if (below + in >= count / 2) {
      const double p50 = width * (b + (count / 2 - below) / in);
      return std::clamp(p50, snap.value(name + ".min"), snap.value(name + ".max"));
    }
    below += in;
  }
  return snap.value(name + ".max");
}

void summarize(const char* label, const std::vector<double>& seconds) {
  std::fprintf(stderr, "%-10s n=%zu  median %.4g s  q1 %.4g s  q3 %.4g s\n", label,
               seconds.size(), median(seconds), quantile(seconds, 0.25),
               quantile(seconds, 0.75));
}

/// --trace=0: every end-to-end metric, as medians over the ensemble.
void measure_end_to_end(const Workload& workload, std::uint64_t seed, Size size,
                        double seconds, Gate& gate, Report& report) {
  // Set-up takes microseconds. Each one is timed on its own, a batch of
  // them before every simulation so that they spread over the whole run,
  // and the fastest is reported: like a run, a set-up is only ever slowed
  // by the host. The first set-up warms allocators.
  std::vector<double> setup_s;
  setup(workload, seed, size);

  // Every member's oracle, outside every timed region. The peak-RSS window
  // then starts over, so that peak_rss_mb is set by the simulations and the
  // ensemble's resident maps and models, not by the oracle runs.
  std::vector<Member> ensemble;
  for (int k = 0; k < members(workload, size); ++k)
    ensemble.push_back(prepare_member(workload, member_seed(seed, k), size));
  const double oracle_peak_mb = peak_rss_mb();
  reset_peak_rss();

  // Passes over the ensemble until `seconds` have passed and every member
  // ran at least twice, its runs seconds apart.
  const double deadline = now_seconds() + seconds;
  const std::size_t min_runs = kMinRunsPerMember * ensemble.size();
  for (std::size_t i = 0; i < min_runs || now_seconds() < deadline; ++i) {
    for (int j = 0; j < kSetupsPerBatch; ++j) {
      const double t0 = now_seconds();
      setup(workload, seed, size);
      setup_s.push_back(now_seconds() - t0);
    }

    Member& m = ensemble[i % ensemble.size()];
    const TimedRun t = simulate(m.prep, false);
    m.run_s.push_back(t.seconds);
    gate.check(m, t.result, "member " + std::to_string(i % ensemble.size()) + " run " +
                                std::to_string(m.run_s.size()));
  }

  std::vector<double> host_rate;
  std::vector<double> sim_rate;
  std::vector<double> efficiency;
  std::vector<double> all_runs;
  for (const Member& m : ensemble) {
    if (!m.first) continue;
    std::fprintf(stderr, "member seed=%llu committed=%llu processed=%llu fastest=%.4f s of %zu\n",
                 static_cast<unsigned long long>(m.prep.cfg.seed),
                 static_cast<unsigned long long>(m.oracle.committed),
                 static_cast<unsigned long long>(m.first->events.processed), fastest(m.run_s),
                 m.run_s.size());
    host_rate.push_back(static_cast<double>(m.oracle.committed) / fastest(m.run_s));
    sim_rate.push_back(m.first->committed_rate);
    efficiency.push_back(m.first->efficiency);
    all_runs.insert(all_runs.end(), m.run_s.begin(), m.run_s.end());
  }
  if (host_rate.empty()) host_rate = sim_rate = efficiency = all_runs = {0};
  summarize("run", all_runs);
  summarize("setup", setup_s);
  const double sim_peak_mb = peak_rss_mb();
  std::fprintf(stderr, "peak rss: oracle %.2f MB, simulations %.2f MB\n", oracle_peak_mb,
               sim_peak_mb);
  report.add("host_ev_per_s", median(host_rate), "1/s");
  report.add("setup_s", fastest(setup_s), "s");
  report.add("peak_rss_mb", sim_peak_mb, "MB");
  report.add("sim_ev_per_s", median(sim_rate), "1/s");
  report.add("sim_efficiency", median(efficiency), "ratio");
}

/// --trace=1: every per-layer metric, from member 0 of the ensemble.
void measure_layers(const Workload& workload, std::uint64_t seed, Size size, double seconds,
                    Gate& gate, Report& report) {
  Member member = prepare_member(workload, seed, size);
  const Prepared& prep = member.prep;
  const MetasimCosts metasim = probe_metasim(prep.cfg.nodes, prep.cfg.threads_per_node);
  const NetCosts net = probe_net(prep.cfg);
  const ReplayResult replay = replay_kernels(prep);
  gate.check_replay(member.oracle, replay);

  // Untraced and traced simulations alternate so both see the same host.
  // The registry needs a traced result; the counters are equal in all runs.
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  SimulationResult last;
  const double deadline = now_seconds() + seconds;
  while (static_cast<int>(traced_s.size()) < kMinTracedPairs || now_seconds() < deadline) {
    const std::string pair = std::to_string(traced_s.size() + 1);
    const TimedRun plain = simulate(prep, false);
    gate.check(member, plain.result, "untraced run " + pair);
    plain_s.push_back(plain.seconds);
    TimedRun traced = simulate(prep, true);
    gate.check(member, traced.result, "traced run " + pair);
    traced_s.push_back(traced.seconds);
    last = std::move(traced.result);
  }
  summarize("untraced", plain_s);
  summarize("traced", traced_s);

  const auto& e = last.events;
  const double run_s = fastest(plain_s);
  const double processed = static_cast<double>(e.processed);
  const cagvt::obs::MetricsSnapshot registry = last.metrics->snapshot();
  const auto count = [&](const char* name, std::uint64_t value) {
    report.add(name, static_cast<double>(value), "count");
  };

  report.add("metasim.resume_ns", metasim.resume_ns, "ns");
  report.add("metasim.callback_ns", metasim.callback_ns, "ns");
  report.add("metasim.subcall_ns", metasim.subcall_ns, "ns");
  report.add("metasim.lock_ns", metasim.lock_ns, "ns");
  report.add("metasim.barrier_ns", metasim.barrier_ns, "ns");

  report.add("net.send_ns", net.send_ns, "ns");
  report.add("net.allreduce_ns", net.allreduce_ns, "ns");
  count("net.regional_msgs", last.regional_msgs);
  count("net.remote_msgs", last.remote_msgs);
  count("net.frames", last.net_frames);
  count("net.tree_frames", last.tree_frames);
  report.add("net.lock_wait_s", last.lock_wait_seconds, "s");

  report.add("pdes.seqref_ns",
             member.seqref_s * 1e9 / static_cast<double>(member.oracle.committed), "ns");
  report.add("pdes.process_ns", replay.process_ns, "ns");
  report.add("pdes.deposit_ns", replay.deposit_ns, "ns");
  report.add("pdes.fossil_s", replay.fossil_s, "s");
  count("pdes.processed", e.processed);
  count("pdes.rolled_back", e.rolled_back);
  count("pdes.rollback_episodes", e.rollback_episodes);
  count("pdes.secondary_rollbacks", e.secondary_rollbacks);
  count("pdes.antimessages", e.antimessages_emitted);
  count("pdes.stragglers", e.stragglers);
  count("pdes.peak_event_pool", last.peak_event_pool);

  report.add("core.host_ns_per_processed", run_s * 1e9 / processed, "ns");
  report.add("core.kernel_share", replay.process_ns * 1e-9 * processed / run_s, "ratio");
  count("gvt.rounds", last.gvt_rounds);
  count("gvt.sync_rounds", last.sync_rounds);
  count("gvt.throttle_rounds", last.gvt_throttle_rounds);
  count("gvt.throttle_engagements", last.gvt_throttle_engagements);
  report.add("gvt.block_s", last.gvt_block_seconds, "s");
  report.add("gvt.round_s", last.gvt_round_seconds, "s");
  report.add("gvt.lvt_disparity", last.avg_lvt_disparity, "vt");

  count("lb.migrations", last.lb_migrations);
  count("lb.forwards", last.lb_forwards);
  count("flow.storms", last.flow_storms);
  count("flow.throttle_engagements", last.flow_throttle_engagements);
  count("flow.cancelbacks", last.flow_cancelbacks);
  count("recovery.checkpoints", last.checkpoints);

  report.add("obs.overhead_frac", fastest(traced_s) / run_s - 1, "ratio");
  report.add("gvt.tier.async", registry.value("gvt.tier.async"), "count");
  report.add("gvt.tier.throttle", registry.value("gvt.tier.throttle"), "count");
  report.add("gvt.tier.sync", registry.value("gvt.tier.sync"), "count");
  report.add("kernel.rollback_depth.p50", histogram_p50(registry, "kernel.rollback_depth"),
             "count");
  report.add("kernel.rollback_depth.max", registry.value("kernel.rollback_depth.max"), "count");
}

int run(const cagvt::Options& opts) {
  if (opts.get_bool("list", false)) {
    for (const Workload& w : workloads())
      std::printf("%s %llu %llu\n", std::string(w.name).c_str(),
                  static_cast<unsigned long long>(w.default_seed),
                  static_cast<unsigned long long>(w.heldout_seed));
    return 0;
  }
  const std::string name = opts.get_string("workload", "");
  const Workload* workload = find_workload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'; see --list\n", name.c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const double seconds = opts.get_double("seconds", 15);
  const bool traced = opts.get_int("trace", 0) != 0;
  const std::string size_name = opts.get_string("size", "full");
  if (size_name != "full" && size_name != "smoke") {
    std::fprintf(stderr, "--size must be full or smoke\n");
    return 2;
  }
  const Size size = size_name == "smoke" ? Size::kSmoke : Size::kFull;
  for (const auto& key : opts.unused_keys()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 2;
  }

  std::fprintf(stderr, "%s seed=%llu size=%s trace=%d\n", name.c_str(),
               static_cast<unsigned long long>(seed), size_name.c_str(), traced ? 1 : 0);
  Gate gate;
  Report report;
  if (traced)
    measure_layers(*workload, seed, size, seconds, gate, report);
  else
    measure_end_to_end(*workload, seed, size, seconds, gate, report);
  report.print(gate);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) try {
  return perfbench::run(cagvt::Options::parse(argc, argv));
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
