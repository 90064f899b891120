// Demonstrates CA-GVT's adaptivity on the paper's mixed 10-15 model: the
// workload alternates computation-dominated and communication-dominated
// phases, and CA-GVT switches between asynchronous and synchronous rounds
// as measured efficiency crosses the threshold — ending up faster than
// both pure algorithms.
//
//   ./build/examples/adaptive_demo [--nodes=8] [--threshold=0.8]
//                                  [--trace-out=ca.json] [--metrics-out=ca.csv]
//                                  [--fault 'straggler:node=1,slow=3x']
//
// --trace-out writes the CA-GVT run's structured trace as Chrome
// trace-event JSON (open in ui.perfetto.dev); --metrics-out writes the
// run's metrics snapshot as CSV. --fault/--fault-seed perturb the cluster
// (see src/fault/fault_parse.hpp) — handy for watching CA-GVT fall back to
// synchronous rounds when a straggler drags efficiency below threshold.
#include <cstdio>
#include <exception>
#include <string>

#include "core/experiment.hpp"
#include "fault/fault_parse.hpp"
#include "obs/export.hpp"
#include "util/config.hpp"

using namespace cagvt;

int main(int argc, char** argv) try {
  const Options opts = Options::parse(argc, argv);
  const int nodes = static_cast<int>(opts.get_int("nodes", 8));
  const double threshold = opts.get_double("threshold", 0.8);
  const std::string trace_out = opts.get_string("trace-out", "");
  const std::string metrics_out = opts.get_string("metrics-out", "");

  core::SimulationConfig cfg = core::scaled_config(nodes, core::bench_scale_from_env());
  cfg.end_vt = 150.0;  // long enough for each phase's dynamics to develop
  cfg.ca_efficiency_threshold = threshold;
  cfg.obs.trace = !trace_out.empty();
  cfg.obs.metrics = !metrics_out.empty();
  core::apply_fault_options(cfg, opts);
  cfg.validate();  // before run_mixed builds the LP map for this shape

  std::printf("Mixed 10-15 PHOLD model on %d nodes (CA threshold %.0f%%)\n", nodes,
              threshold * 100);
  for (const auto& spec : cfg.faults)
    std::printf("fault: %s\n", fault::describe(spec).c_str());
  std::printf("phases: 10%% of the run computation-dominated, 15%% communication-"
              "dominated, repeating\n\n");

  double rates[3] = {0, 0, 0};
  int i = 0;
  for (const core::GvtKind kind :
       {core::GvtKind::kMattern, core::GvtKind::kBarrier, core::GvtKind::kControlledAsync}) {
    cfg.gvt = kind;
    const core::SimulationResult r = core::run_mixed(cfg, 10, 15);
    rates[i++] = r.committed_rate;
    std::printf("%-9s: %s\n", std::string(to_string(kind)).c_str(),
                core::describe(r).c_str());

    // Export the CA-GVT run — it is the one whose mode switches the demo
    // is about.
    if (kind == core::GvtKind::kControlledAsync) {
      if (!trace_out.empty() && r.trace) {
        if (obs::write_chrome_trace(*r.trace, trace_out)) {
          std::printf("  trace  -> %s (%zu records, %llu dropped)\n", trace_out.c_str(),
                      r.trace->records().size(),
                      static_cast<unsigned long long>(r.trace->dropped()));
        } else {
          std::fprintf(stderr, "error: could not write %s\n", trace_out.c_str());
          return 1;
        }
      }
      if (!metrics_out.empty() && r.metrics) {
        if (obs::write_metrics_csv(r.metrics->snapshot(), metrics_out)) {
          std::printf("  metrics -> %s\n", metrics_out.c_str());
        } else {
          std::fprintf(stderr, "error: could not write %s\n", metrics_out.c_str());
          return 1;
        }
      }
    }
  }

  std::printf("\nCA-GVT vs Mattern: %+.1f%%   CA-GVT vs Barrier: %+.1f%%\n",
              (rates[2] / rates[0] - 1) * 100, (rates[2] / rates[1] - 1) * 100);
  std::printf("(paper, Figure 10: CA-GVT beats Mattern by 8.3%% and Barrier by 6.4%%)\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
