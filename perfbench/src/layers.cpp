#include "layers.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "metasim/engine.hpp"
#include "metasim/process.hpp"
#include "metasim/sync.hpp"
#include "net/vmpi.hpp"
#include "pdes/kernel.hpp"
#include "timing.hpp"

namespace perfbench {
namespace {

namespace ms = cagvt::metasim;
using Fabric = cagvt::net::Fabric<int>;

/// Operations per probe run, and probe runs per reported median.
constexpr int kProbeOps = 200'000;
constexpr int kProbeRuns = 5;

/// Median host ns per operation over kProbeRuns fresh runs of `probe`,
/// which builds its own engine, runs it, and returns {seconds, operations}.
double median_ns_per_op(const std::function<std::pair<double, double>()>& probe) {
  std::vector<double> ns;
  for (int i = 0; i < kProbeRuns; ++i) {
    pin_to_fastest_cpu();
    const auto [seconds, ops] = probe();
    ns.push_back(seconds * 1e9 / ops);
  }
  return median(ns);
}

double timed_run(ms::Engine& engine) {
  const double t0 = now_seconds();
  engine.run();
  return now_seconds() - t0;
}

ms::Process delay_loop(int rounds) {
  for (int i = 0; i < rounds; ++i) co_await ms::delay(1);
}

ms::Process leaf() { co_return; }

ms::Process subcall_loop(int rounds) {
  for (int i = 0; i < rounds; ++i) co_await leaf();
}

ms::Process lock_loop(ms::Mutex* mutex, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await mutex->lock();
    co_await ms::delay(1);
    mutex->unlock();
  }
}

ms::Process barrier_loop(ms::Barrier* barrier, int rounds) {
  for (int i = 0; i < rounds; ++i) (void)co_await barrier->arrive();
}

/// A callback that re-schedules itself `left` times.
struct Chain {
  ms::Engine* engine;
  int left;
  void fire() {
    if (--left > 0) engine->call_at(engine->now() + 1, [this] { fire(); });
  }
};

ms::Process send_loop(Fabric* fabric, int rank, int rounds) {
  const int dst = (rank + 1) % fabric->nranks();
  int received = 0;
  for (int i = 0; i < rounds; ++i) {
    co_await fabric->isend(rank, dst, 64, i);
    while (fabric->inbox(rank).try_recv()) ++received;
  }
  // Every rank receives exactly `rounds` messages from its predecessor.
  for (; received < rounds; ++received) (void)co_await fabric->inbox(rank).recv();
}

ms::Process flat_allreduce_loop(Fabric* fabric, int rank, int rounds) {
  for (int i = 0; i < rounds; ++i)
    (void)co_await fabric->allreduce_min(static_cast<double>(rank + i));
}

ms::Process tree_allreduce_loop(Fabric* fabric, int rank, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    cagvt::net::TreeVal value;
    value.min_a = static_cast<double>(rank + i);
    (void)co_await fabric->tree_allreduce(rank, value);
  }
}

}  // namespace

MetasimCosts probe_metasim(int nodes, int threads_per_node) {
  const int threads = nodes * threads_per_node;
  const int rounds = std::max(1, kProbeOps / threads);
  const double ops = static_cast<double>(threads) * rounds;
  MetasimCosts c;
  c.resume_ns = median_ns_per_op([&] {
    ms::Engine engine;
    for (int t = 0; t < threads; ++t) ms::spawn(engine, delay_loop(rounds));
    return std::pair{timed_run(engine), ops};
  });
  c.callback_ns = median_ns_per_op([&] {
    ms::Engine engine;
    std::vector<Chain> chains(static_cast<std::size_t>(threads), Chain{&engine, rounds});
    for (Chain& chain : chains) engine.call_at(0, [&chain] { chain.fire(); });
    return std::pair{timed_run(engine), ops};
  });
  c.subcall_ns = median_ns_per_op([&] {
    ms::Engine engine;
    for (int t = 0; t < threads; ++t) ms::spawn(engine, subcall_loop(rounds));
    return std::pair{timed_run(engine), ops};
  });
  c.lock_ns = median_ns_per_op([&] {
    ms::Engine engine;
    std::vector<std::unique_ptr<ms::Mutex>> locks;
    for (int n = 0; n < nodes; ++n) {
      locks.push_back(std::make_unique<ms::Mutex>(engine, 1, 1));
      for (int t = 0; t < threads_per_node; ++t)
        ms::spawn(engine, lock_loop(locks.back().get(), rounds));
    }
    return std::pair{timed_run(engine), ops};
  });
  c.barrier_ns = median_ns_per_op([&] {
    ms::Engine engine;
    std::vector<std::unique_ptr<ms::Barrier>> barriers;
    for (int n = 0; n < nodes; ++n) {
      barriers.push_back(std::make_unique<ms::Barrier>(engine, threads_per_node, 1));
      for (int t = 0; t < threads_per_node; ++t)
        ms::spawn(engine, barrier_loop(barriers.back().get(), rounds));
    }
    return std::pair{timed_run(engine), ops};
  });
  return c;
}

NetCosts probe_net(const cagvt::core::SimulationConfig& cfg) {
  const int ranks = cfg.nodes;
  const bool tree = cfg.gvt_tree_arity > 0 || cfg.gvt == cagvt::core::GvtKind::kEpoch;
  const int arity = cfg.gvt_tree_arity > 0
                        ? cfg.gvt_tree_arity
                        : cagvt::core::autotune_tree_arity(cfg.nodes, cfg.cluster);
  const int rounds = std::max(1, kProbeOps / ranks);
  NetCosts c;
  c.send_ns = median_ns_per_op([&] {
    ms::Engine engine;
    Fabric fabric(engine, cfg.cluster, ranks);
    for (int r = 0; r < ranks; ++r) ms::spawn(engine, send_loop(&fabric, r, rounds));
    return std::pair{timed_run(engine), static_cast<double>(ranks) * rounds};
  });
  c.allreduce_ns = median_ns_per_op([&] {
    ms::Engine engine;
    Fabric fabric(engine, cfg.cluster, ranks);
    if (tree) fabric.enable_tree(arity);
    for (int r = 0; r < ranks; ++r)
      ms::spawn(engine, tree ? tree_allreduce_loop(&fabric, r, rounds)
                             : flat_allreduce_loop(&fabric, r, rounds));
    return std::pair{timed_run(engine), static_cast<double>(rounds)};
  });
  return c;
}

ReplayResult replay_kernels(const Prepared& prepared) {
  using cagvt::pdes::Event;
  using cagvt::pdes::ThreadKernel;
  const cagvt::core::SimulationConfig& cfg = prepared.cfg;
  const cagvt::pdes::LpMap& map = *prepared.map;
  const int workers = map.total_workers();
  // Kernel passes between fossil collections.
  constexpr int kFossilEvery = 8;

  std::vector<std::unique_ptr<ThreadKernel>> kernels;
  for (int w = 0; w < workers; ++w) {
    kernels.push_back(std::make_unique<ThreadKernel>(
        *prepared.model, map, w, cagvt::pdes::KernelConfig{.end_vt = cfg.end_vt, .seed = cfg.seed}));
    kernels.back()->init();
  }
  // One FIFO per destination kernel keeps every (sender, receiver) stream in
  // send order, which anti-message annihilation relies on.
  std::vector<std::deque<Event>> inbox(static_cast<std::size_t>(workers));
  const auto route = [&](const std::vector<Event>& external) {
    for (const Event& e : external)
      inbox[static_cast<std::size_t>(map.worker_of(e.dst_lp))].push_back(e);
  };

  ReplayResult r;
  pin_to_fastest_cpu();
  double process_s = 0;
  double deposit_s = 0;
  for (long pass = 1;; ++pass) {
    bool busy = false;
    for (int w = 0; w < workers; ++w) {
      ThreadKernel& kernel = *kernels[static_cast<std::size_t>(w)];
      auto& box = inbox[static_cast<std::size_t>(w)];
      if (!box.empty()) {
        busy = true;
        const double t0 = now_seconds();
        while (!box.empty()) {
          const Event e = box.front();
          box.pop_front();
          route(kernel.deposit(e).external);
          ++r.deposits;
        }
        deposit_s += now_seconds() - t0;
      }
      const double t0 = now_seconds();
      for (int b = 0; b < cfg.batch; ++b) {
        const cagvt::pdes::Outcome out = kernel.process_next();
        if (!out.processed) break;
        route(out.external);
        ++r.processed;
        busy = true;
      }
      process_s += now_seconds() - t0;
    }
    if (!busy) break;
    if (pass % kFossilEvery == 0) {
      const double t0 = now_seconds();
      double gvt = cagvt::pdes::kVtInfinity;
      for (auto& kernel : kernels) gvt = std::min(gvt, kernel->local_min_ts());
      for (const auto& box : inbox)
        for (const Event& e : box) gvt = std::min(gvt, e.recv_ts);
      for (auto& kernel : kernels) kernel->fossil_collect(gvt);
      r.fossil_s += now_seconds() - t0;
    }
  }
  for (auto& kernel : kernels) {
    kernel->final_commit();
    r.committed += kernel->stats().committed;
    r.fingerprint += kernel->committed_fingerprint();
    r.state_hash += kernel->state_hash();
  }
  r.process_ns = r.processed > 0 ? process_s * 1e9 / static_cast<double>(r.processed) : 0;
  r.deposit_ns = r.deposits > 0 ? deposit_s * 1e9 / static_cast<double>(r.deposits) : 0;
  return r;
}

}  // namespace perfbench
