// Full-featured CLI for the CA-GVT simulator: run any model on any cluster
// configuration and print the paper's metrics.
//
//   phold_cluster --nodes=8 --threads=7 --lps=16 --gvt=ca-gvt
//                 --mpi=dedicated --regional=0.9 --remote=0.1 --epg=5000
//
// Options (defaults in parentheses):
//   --nodes N          cluster nodes (8)
//   --threads N        hardware threads per node incl. MPI thread (7)
//   --lps N            LPs per worker thread (32)
//   --end T            virtual end time (50)
//   --gvt SPEC         barrier | mattern | ca-gvt | epoch (ca-gvt), with
//                      optional trigger-policy parameters:
//                        --gvt=epoch,escalate=3,clamp=4
//                      escalate=K   tripped rounds before a quiesced sync
//                                   round/epoch (0 = never escalate)
//                      clamp=C      throttle-tier execution bound GVT + C
//                      (the release hysteresis is fixed: two calm rounds
//                      at threshold + 0.05, queue EWMA weight 0.5)
//   --tree-arity N     fan-in of the tree all-reduce used by collectives;
//                      0 keeps flat reductions except for --gvt=epoch,
//                      which autotunes the arity from the cluster cost
//                      model (0)
//   --mpi NAME         dedicated | combined | everywhere (dedicated)
//   --backend NAME     coro | threads (coro). 'coro' is the deterministic
//                      coroutine substrate with simulated time; 'threads'
//                      maps every worker onto a real OS thread (committed
//                      results are identical, timing metrics are real and
//                      faults/checkpoints/tracing are unavailable)
//   --interval N       GVT interval in loop iterations (12)
//   --threshold X      CA-GVT efficiency threshold (0.8)
//   --batch N          events per worker-loop iteration (4)
//   --seed N           engine seed (1)
//   --model NAME       a registered model (phold); --help lists them all
//   model parameters   --remote --regional --epg --mean-delay --min-delay
//                      --x --y (mixed), --hot-fraction --hot-factor
//                      (imbalanced), --hotspot-pct --zipf-s --hot-cost
//                      (hotspot)
//   --sync MODE        optimistic (default) | cmb | window[,window=W]
//                      conservative execution; cmb/window need a model with
//                      positive lookahead (e.g. --min-delay=0.5) and reject
//                      --lb / --fault / --ckpt-every / --backend=threads
//   --flow MODE        off (default) | bounded[,mem=M,storm=S,clamp=C]
//                      overload protection: per-worker event-pool budget M
//                      (cancelback relief + forced fossil rounds past it),
//                      rollback-storm detection at secondary fraction S,
//                      adaptive GVT+C execution clamp; rejects --sync.
//                      Squeeze budgets mid-run with
//                        --fault 'mem:worker=0,budget=256,t=1ms..3ms'
//   --fault SCHED      fault-injection schedule (';'-separated specs), e.g.
//                        --fault 'straggler:node=3,t=2ms..6ms,slow=4x'
//                        --fault 'link:src=0,dst=1,latency=4x,jitter=2us'
//                        --fault 'mpistall:node=2,t=1ms..,stall=200us,period=1ms'
//                        --fault 'loss:src=0,dst=1,rate=0.2,t=1ms..4ms,class=data'
//                        --fault 'crash:node=1,t=2ms,down=1ms'
//                      see src/fault/fault_parse.hpp for the full DSL
//   --fault-seed N     seed for the perturbation RNG streams
//   --ckpt-every N     write a GVT-aligned checkpoint every N rounds (0=off;
//                      crash recovery always has the initial checkpoint)
//   --lb SPEC          dynamic LP migration: off (default) or
//                        --lb roughness
//                        --lb 'roughness,trigger=0.5,budget=8,cooldown=2'
//                      see src/lb/lb_config.hpp for every parameter
//   --trace            print the GVT trace
//   --trace-out FILE   write a Chrome trace-event JSON (Perfetto) trace
//   --trace-csv FILE   write the structured trace as CSV
//   --metrics-out FILE write the metrics snapshot as CSV
//   --verbose          info-level logging, plus "host work" and "peak rss"
//                      result lines
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "exec/backend.hpp"
#include "fault/fault_parse.hpp"
#include "models/registry.hpp"
#include "obs/export.hpp"
#include "util/config.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

using namespace cagvt;

namespace {

/// This process's resident high-water mark (VmHWM) in MB, or -1 where
/// /proc/self/status does not report one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  return -1;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts = Options::parse(argc, argv);
  if (opts.get_bool("help", false) || opts.get_bool("h", false)) {
    std::printf("usage: phold_cluster [--option[=value] ...]\n\n"
                "Cluster shape : --nodes --threads --lps --mpi --backend\n"
                "Run control   : --end --gvt --tree-arity --interval --threshold --batch --seed\n"
                "Faults        : --fault --fault-seed --ckpt-every\n"
                "Load balance  : --lb off|roughness[,trigger=X,budget=N,cooldown=N,\n"
                "                   ewma=X,min-lps=N]\n"
                "Conservative  : --sync optimistic|cmb|window[,window=W]\n"
                "                   (cmb/window need positive lookahead, e.g. --min-delay=0.5)\n"
                "Overload      : --flow off|bounded[,mem=M,storm=S,clamp=C]\n"
                "Observability : --trace --trace-out --trace-csv --metrics-out --verbose\n"
                "\nRegistered models (--model NAME):\n");
    for (const std::string& name : models::model_names())
      std::printf("  %s\n", name.c_str());
    std::printf("\nSee the header of examples/phold_cluster.cpp for defaults and the\n"
                "full option reference.\n");
    return 0;
  }
  if (opts.get_bool("verbose", false)) set_log_level(LogLevel::kInfo);

  core::SimulationConfig cfg;
  cfg.nodes = static_cast<int>(opts.get_int("nodes", 8));
  cfg.threads_per_node = static_cast<int>(opts.get_int("threads", 7));
  cfg.lps_per_worker = static_cast<int>(opts.get_int("lps", 32));
  cfg.end_vt = opts.get_double("end", 50.0);
  core::apply_gvt_spec(cfg, opts.get_string("gvt", "ca-gvt"));
  cfg.mpi = core::mpi_placement_from(opts.get_string("mpi", "dedicated"));
  cfg.gvt_interval = static_cast<int>(opts.get_int("interval", 12));
  cfg.ca_efficiency_threshold = opts.get_double("threshold", 0.8);
  cfg.ca_queue_threshold = static_cast<int>(opts.get_int("ca-queue", cfg.ca_queue_threshold));
  cfg.gvt_tree_arity = static_cast<int>(opts.get_int("tree-arity", cfg.gvt_tree_arity));
  cfg.batch = static_cast<int>(opts.get_int("batch", 4));
  cfg.combined_mpi_poll_period =
      static_cast<int>(opts.get_int("mpi-poll-period", cfg.combined_mpi_poll_period));
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  core::apply_cluster_overrides(cfg.cluster, opts);
  core::apply_fault_options(cfg, opts);
  core::apply_lb_options(cfg, opts);
  core::apply_sync_options(cfg, opts);
  core::apply_flow_options(cfg, opts);
  // Before make_map, which assumes a valid cluster shape.
  cfg.validate();

  const std::string trace_out = opts.get_string("trace-out", "");
  const std::string trace_csv = opts.get_string("trace-csv", "");
  const std::string metrics_out = opts.get_string("metrics-out", "");
  cfg.obs.trace = !trace_out.empty() || !trace_csv.empty();
  cfg.obs.metrics = !metrics_out.empty();

  const exec::BackendKind backend = exec::backend_from(opts.get_string("backend", "coro"));
  const std::string model_name = opts.get_string("model", "phold");
  const pdes::LpMap map = core::Simulation::make_map(cfg);
  const auto model = models::make_model(model_name, opts, map, cfg.end_vt);

  const bool trace = opts.get_bool("trace", false);
  for (const auto& key : opts.unused_keys())
    std::fprintf(stderr, "warning: unused option --%s\n", key.c_str());

  std::printf("cluster : %d nodes x %d threads (%s MPI), %d LPs/worker, %d total LPs\n",
              cfg.nodes, cfg.threads_per_node, std::string(to_string(cfg.mpi)).c_str(),
              cfg.lps_per_worker, map.total_lps());
  std::printf("run     : model=%s gvt=%s backend=%s interval=%d end_vt=%.1f seed=%llu\n",
              model_name.c_str(), std::string(to_string(cfg.gvt)).c_str(),
              std::string(to_string(backend)).c_str(), cfg.gvt_interval, cfg.end_vt,
              static_cast<unsigned long long>(cfg.seed));
  for (const auto& spec : cfg.faults)
    std::printf("fault   : %s\n", fault::describe(spec).c_str());
  if (cfg.lb.enabled())
    std::printf("lb      : %s\n", lb::to_string(cfg.lb).c_str());
  if (cfg.sync.enabled())
    std::printf("sync    : %s\n", cons::to_string(cfg.sync).c_str());
  if (cfg.flow.enabled())
    std::printf("flow    : %s\n", flow::to_string(cfg.flow).c_str());

  const core::SimulationResult r = exec::run_simulation(cfg, *model, backend);

  std::printf("\n-- results ----------------------------------------------------\n");
  std::printf("committed events    : %llu\n",
              static_cast<unsigned long long>(r.events.committed));
  std::printf("committed fp / state: %016llx / %016llx\n",
              static_cast<unsigned long long>(r.committed_fingerprint),
              static_cast<unsigned long long>(r.state_hash));
  std::printf("committed rate      : %s events/s\n", format_si(r.committed_rate).c_str());
  std::printf("efficiency          : %.2f%%\n", r.efficiency * 100);
  std::printf("wall clock          : %.4f s (%s)\n", r.wall_seconds,
              backend == exec::BackendKind::kThreads ? "real" : "simulated");
  std::printf("processed / rolled  : %llu / %llu (%llu rollback episodes)\n",
              static_cast<unsigned long long>(r.events.processed),
              static_cast<unsigned long long>(r.events.rolled_back),
              static_cast<unsigned long long>(r.events.rollback_episodes));
  std::printf("stragglers / antis  : %llu / %llu\n",
              static_cast<unsigned long long>(r.events.stragglers),
              static_cast<unsigned long long>(r.events.antimessages_emitted));
  std::printf("messages            : %llu regional, %llu remote (%llu net frames)\n",
              static_cast<unsigned long long>(r.regional_msgs),
              static_cast<unsigned long long>(r.remote_msgs),
              static_cast<unsigned long long>(r.net_frames));
  std::printf("GVT rounds          : %llu (%llu synchronous, %llu throttled), spanning %.4f s\n",
              static_cast<unsigned long long>(r.gvt_rounds),
              static_cast<unsigned long long>(r.sync_rounds),
              static_cast<unsigned long long>(r.gvt_throttle_rounds), r.gvt_round_seconds);
  std::printf("GVT block time      : %.4f thread-seconds\n", r.gvt_block_seconds);
  std::printf("lock wait time      : %.4f thread-seconds\n", r.lock_wait_seconds);
  std::printf("LVT disparity       : %.4f (avg per-round stddev)\n", r.avg_lvt_disparity);
  if (!cfg.faults.empty())
    std::printf("fault activations   : %llu (%llu jitter draws)\n",
                static_cast<unsigned long long>(r.fault_activations),
                static_cast<unsigned long long>(r.fault_jitter_draws));
  if (r.retransmits + r.acks_sent + r.frames_dropped + r.down_drops > 0)
    std::printf("reliable transport  : %llu dropped (%llu at down nodes), %llu retransmits, "
                "%llu acks, %llu dups\n",
                static_cast<unsigned long long>(r.frames_dropped),
                static_cast<unsigned long long>(r.down_drops),
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.acks_sent),
                static_cast<unsigned long long>(r.duplicates_dropped));
  if (r.checkpoints + r.restores > 0)
    std::printf("recovery            : %llu checkpoints, %llu restores, %.4f s recovering\n",
                static_cast<unsigned long long>(r.checkpoints),
                static_cast<unsigned long long>(r.restores), r.recovery_seconds);
  if (cfg.lb.enabled())
    std::printf("load balance        : %llu migrations over %llu rounds, %llu forwards, "
                "roughness %.4f, owner table v%u\n",
                static_cast<unsigned long long>(r.lb_migrations),
                static_cast<unsigned long long>(r.lb_migration_rounds),
                static_cast<unsigned long long>(r.lb_forwards), r.avg_lvt_roughness,
                r.owner_table_version);
  if (cfg.sync.enabled())
    std::printf("conservative        : %llu nulls, %llu requests, utilization %.4f, "
                "null ratio %.4f, horizon width %.4f\n",
                static_cast<unsigned long long>(r.cons_null_msgs),
                static_cast<unsigned long long>(r.cons_req_msgs), r.cons_utilization,
                r.cons_null_ratio, r.cons_horizon_width);
  if (opts.get_bool("verbose", false)) {
    std::printf("host work           : %llu dispatches, %llu polls resumed, %llu slept, "
                "%llu wakes, %llu passes credited, %llu queue peak\n",
                static_cast<unsigned long long>(r.host_work.dispatches),
                static_cast<unsigned long long>(r.host_work.polls_resumed),
                static_cast<unsigned long long>(r.host_work.polls_slept),
                static_cast<unsigned long long>(r.host_work.wakes),
                static_cast<unsigned long long>(r.host_work.passes_credited),
                static_cast<unsigned long long>(r.host_work.queue_peak));
    if (const double peak_mb = peak_rss_mb(); peak_mb >= 0)
      std::printf("peak rss            : %.2f MB (VmHWM)\n", peak_mb);
  }
  std::printf("peak event pool     : %llu events/worker\n",
              static_cast<unsigned long long>(r.peak_event_pool));
  if (cfg.flow.enabled())
    std::printf("overload protection : %llu cancelbacks (%llu released, %llu antis absorbed), "
                "%llu storms, %llu throttle engagements, %llu forced rounds\n",
                static_cast<unsigned long long>(r.flow_cancelbacks),
                static_cast<unsigned long long>(r.flow_releases),
                static_cast<unsigned long long>(r.flow_absorbed_antis),
                static_cast<unsigned long long>(r.flow_storms),
                static_cast<unsigned long long>(r.flow_throttle_engagements),
                static_cast<unsigned long long>(r.flow_forced_rounds));
  std::printf("final GVT           : %.3f%s\n", r.final_gvt, r.completed ? "" : "  [INCOMPLETE]");

  if (trace) {
    std::printf("\n-- GVT trace --------------------------------------------------\n");
    for (std::size_t i = 0; i < r.gvt_trace.size(); ++i)
      std::printf("round %3zu: %.4f\n", i + 1, r.gvt_trace[i]);
  }

  bool export_ok = true;
  if (!trace_out.empty() && r.trace) {
    if (obs::write_chrome_trace(*r.trace, trace_out)) {
      std::printf("trace (Perfetto)    : %s (%zu records, %llu dropped)\n",
                  trace_out.c_str(), r.trace->records().size(),
                  static_cast<unsigned long long>(r.trace->dropped()));
    } else {
      std::fprintf(stderr, "error: could not write %s\n", trace_out.c_str());
      export_ok = false;
    }
  }
  if (!trace_csv.empty() && r.trace) {
    if (obs::write_trace_csv(*r.trace, trace_csv)) {
      std::printf("trace (CSV)         : %s\n", trace_csv.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", trace_csv.c_str());
      export_ok = false;
    }
  }
  if (!metrics_out.empty() && r.metrics) {
    if (obs::write_metrics_csv(r.metrics->snapshot(), metrics_out)) {
      std::printf("metrics (CSV)       : %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", metrics_out.c_str());
      export_ok = false;
    }
  }
  if (!export_ok) return 1;
  return r.completed ? 0 : 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
