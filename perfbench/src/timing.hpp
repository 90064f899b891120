// Host-time helpers: a steady clock, order statistics, and the choice of
// CPU for the next timed section.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

namespace perfbench {

inline double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0,1] of `values` (which must be
/// non-empty).
inline double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// The host time of a run repeated seconds apart: its fastest repeat. On a
/// shared host, slow phases last seconds and only ever add time, so the
/// minimum is the repeat least disturbed by other tenants.
inline double fastest(const std::vector<double>& seconds) {
  return *std::min_element(seconds.begin(), seconds.end());
}

/// Host seconds of a short branchy loop over a cache-resident binary heap,
/// the kind of work the simulator's event queues do (about a millisecond).
inline double probe_cpu_seconds() {
  static const std::vector<double> keys = [] {
    std::vector<double> v(1 << 14);
    std::uint64_t x = 88172645463325252ULL;  // xorshift64
    for (double& key : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      key = static_cast<double>(x >> 11);
    }
    return v;
  }();
  const double t0 = now_seconds();
  std::priority_queue<double> heap;
  for (const double key : keys) {
    heap.push(key);
    if (heap.size() > 4096) heap.pop();
  }
  const double seconds = now_seconds() - t0;
  volatile double sink = heap.top();
  (void)sink;
  return seconds;
}

/// Pins the calling thread to the CPU, among those the process started
/// with, that runs the probe fastest right now. On a shared host each vCPU
/// is slowed by other tenants in phases of its own, and a thread left where
/// the scheduler puts it can spend a whole run on a slowed one; the work
/// stays serial either way.
inline void pin_to_fastest_cpu() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> all;
    if (sched_getaffinity(0, sizeof set, &set) != 0) return all;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) all.push_back(c);
    return all;
  }();
  const auto pin = [](int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
  };
  if (cpus.size() < 2) return;
  int best = -1;
  double best_s = std::numeric_limits<double>::infinity();
  for (const int cpu : cpus) {
    if (!pin(cpu)) continue;
    probe_cpu_seconds();  // the first pass after a move warms the caches
    const double s = probe_cpu_seconds();
    if (s < best_s) {
      best_s = s;
      best = cpu;
    }
  }
  if (best >= 0) pin(best);
}

}  // namespace perfbench
