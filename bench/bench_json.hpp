// Machine-readable bench baselines.
//
// Bench binaries write their full google-benchmark JSON report to
// BENCH_<figure>.json alongside the console output, so CI and
// scripts/bench_to_csv.py can diff the numbers across commits without
// scraping console text. Implemented by injecting --benchmark_out flags
// ahead of the user's arguments (an explicit --benchmark_out on the
// command line still wins). Control via environment:
//
//   CAGVT_BENCH_JSON_DIR   output directory (default: current directory)
//   CAGVT_BENCH_JSON=0     disable the file entirely
//
// run_figure_main (figure_common.hpp) calls run_with_json_baseline as
// the binary's main.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace cagvt::bench {

inline int run_with_json_baseline(int argc, char** argv, const char* figure) {
  std::string out_flag;
  const char* toggle = std::getenv("CAGVT_BENCH_JSON");
  if (toggle == nullptr || std::string(toggle) != "0") {
    const char* dir = std::getenv("CAGVT_BENCH_JSON_DIR");
    out_flag = "--benchmark_out=" + std::string(dir != nullptr ? dir : ".") +
               "/BENCH_" + figure + ".json";
  }

  std::string format_flag = "--benchmark_out_format=json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  if (!out_flag.empty()) {
    // Before the user's flags: google-benchmark keeps the last occurrence,
    // so an explicit --benchmark_out on the command line overrides ours.
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int injected_argc = static_cast<int>(args.size());

  benchmark::Initialize(&injected_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(injected_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace cagvt::bench
