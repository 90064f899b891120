// The one bench harness: every figure, table and ablation binary declares
// its points as a table and hands it to run_figure_main.
//
// A series is one google-benchmark family (a legend entry: a GVT algorithm,
// an MPI placement, a sync mode, ...): a name, its argument names, one
// argument tuple per point, the closure that runs the simulation at a
// tuple, and the counters function that exports the result. The simulator
// is deterministic, so each point runs exactly once (Iterations(1)); the
// paper's metrics are exported as benchmark counters (export_counters):
//
//   rate_events_s   committed event rate (the y-axis of Figures 3-12)
//   efficiency_pct  committed / processed
//   rollbacks       events undone
//   gvt_rounds / sync_rounds
//   sim_wall_s      simulated wall-clock duration of the run
//
// A series that reports more (abl08's migrations, abl10's event pool, ...)
// passes its own counters function, usually export_counters plus extras.
//
// The whole table is computed on first use through core::run_parallel,
// outside google-benchmark's timed loop, so the real_time and cpu_time
// fields of every BENCH_*.json time a table lookup, not a simulation.
// Host time belongs to perfbench/; scripts/check_bench_baselines.py
// ignores both fields.
//
// CAGVT_BENCH_SCALE scales the per-node thread/LP counts (see
// core/experiment.hpp); the default finishes the whole bench suite in
// minutes.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/experiment.hpp"

namespace cagvt::bench {

using benchmark::State;
using core::GvtKind;
using core::MpiPlacement;
using core::SimulationConfig;
using core::SimulationResult;
using core::Workload;

inline SimulationConfig figure_config(int nodes) {
  return core::scaled_config(nodes, core::bench_scale_from_env());
}

inline void export_counters(State& state, const SimulationResult& r) {
  state.counters["rate_events_s"] = r.committed_rate;
  state.counters["efficiency_pct"] = r.efficiency * 100.0;
  state.counters["rollbacks"] = static_cast<double>(r.events.rolled_back);
  state.counters["gvt_rounds"] = static_cast<double>(r.gvt_rounds);
  state.counters["sync_rounds"] = static_cast<double>(r.sync_rounds);
  state.counters["sim_wall_s"] = r.wall_seconds;
  state.counters["lvt_disparity"] = r.avg_lvt_disparity;
  state.counters["completed"] = r.completed ? 1 : 0;
  state.counters["gvt_rounds_per_s"] =
      r.wall_seconds > 0 ? static_cast<double>(r.gvt_rounds) / r.wall_seconds : 0;
  state.counters["tree_frames"] = static_cast<double>(r.tree_frames);
}

/// One point's benchmark arguments, in the series' arg_names order.
using Args = std::vector<std::int64_t>;
using Counters = std::function<void(State&, const SimulationResult&)>;

/// One curve of a figure. Points are named like google-benchmark's
/// ArgNames/Args registration: `BM_FlowOff/budget:256/squeeze:0/iterations:1`,
/// or `BM_CaComp/iterations:1` for a series of one argument-less point.
struct Series {
  std::string name;
  std::vector<std::string> arg_names;
  std::vector<Args> points;
  std::function<SimulationResult(const Args&)> run;
  Counters counters = export_counters;
};

/// Every combination of one value per axis, the first axis varying fastest
/// (google-benchmark's ArgsProduct order). product({{1, 2, 4, 8}}) is a
/// one-argument sweep; product({}) is the single argument-less point.
inline std::vector<Args> product(const std::vector<Args>& axes) {
  std::vector<Args> points = {Args{}};
  for (const Args& axis : axes) {
    std::vector<Args> next;
    for (const std::int64_t value : axis) {
      for (Args point : points) {
        point.push_back(value);
        next.push_back(std::move(point));
      }
    }
    points = std::move(next);
  }
  return points;
}

/// The node counts on the paper's x-axis (Figures 3-12).
inline const std::vector<Args> kPaperNodes = product({{1, 2, 4, 8}});

/// Main entry for every bench binary: registers every point of every
/// series as a one-iteration benchmark, computes the WHOLE result table on
/// first use via core::run_parallel (every point is an independent
/// simulation, so the table saturates the host's cores instead of running
/// serially), exports each point's counters in registration order, and
/// writes the JSON report to BENCH_<figure>.json through bench_json.hpp.
/// Listing benchmarks (--benchmark_list_tests) never runs a simulation.
inline int run_figure_main(int argc, char** argv, const char* figure,
                           std::vector<Series> series) {
  struct Table {
    std::once_flag once;
    std::vector<Series> series;
    std::vector<SimulationResult> results;
  };
  auto table = std::make_shared<Table>();
  table->series = std::move(series);
  const auto compute = [table] {
    std::vector<std::function<SimulationResult()>> runs;
    for (const Series& s : table->series)
      for (const Args& point : s.points) runs.push_back([&s, &point] { return s.run(point); });
    table->results = core::run_parallel(std::move(runs));
  };
  std::size_t idx = 0;
  for (const Series& s : table->series) {
    for (const Args& point : s.points) {
      benchmark::RegisterBenchmark(
          s.name.c_str(),
          [table, compute, &s, idx](State& state) {
            std::call_once(table->once, compute);
            for (auto _ : state) {
              // The simulator is deterministic and already ran in compute();
              // the counters below are the product, not the loop timing.
            }
            s.counters(state, table->results[idx]);
          })
          ->ArgNames(s.arg_names)
          ->Args(point)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
      ++idx;
    }
  }
  return run_with_json_baseline(argc, argv, figure);
}

}  // namespace cagvt::bench
