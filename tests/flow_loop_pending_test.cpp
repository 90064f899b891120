// Idle-poll soundness of the loop hooks' predicates (DESIGN §14 "Idle
// polls"). A worker pass whose hooks all answer RoundHook::loop_pending ==
// false is skipped without running batch_tick / batch_release; only
// skip_tick runs. So whenever a hook says false, the tick with nothing
// processed and the release that follows must change nothing: no message
// out, and the same tier, bound, engagements, parked set and report.
//
// A seeded driver walks a small cluster's workers through deposits, busy
// batches, cancelbacks, parked releases and GVT rounds (with fossil
// collection at the true minimum), and checks every worker's answer after
// every step: pool sizes cross the budget watermarks, clamps engage,
// slide and release, and parked events age past their hold while their
// destinations are green, yellow or red.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cons/cons_config.hpp"
#include "cons/controller.hpp"
#include "core/node_runtime.hpp"
#include "core/recovery.hpp"
#include "core/simulation.hpp"
#include "flow/controller.hpp"
#include "flow/flow_config.hpp"
#include "test_model.hpp"
#include "util/rng.hpp"

namespace cagvt::core {
namespace {

SimulationConfig mini_config() {
  SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 3;  // two workers per node + the MPI thread
  cfg.lps_per_worker = 4;
  cfg.end_vt = 1e6;  // the driver, not the horizon, ends the walk
  cfg.flow = flow::parse_flow("bounded,mem=16,clamp=2");
  return cfg;
}

/// A cluster's workers without the engine loop: every node's WorkerCtx
/// around one services bundle, kernels initialized, so a test can drive
/// hooks by hand. Every LP schedules its follow-up to itself, so no event
/// leaves its worker unless the driver moves it.
struct MiniCluster {
  MiniCluster()
      : cfg(mini_config()),
        map(Simulation::make_map(cfg)),
        owners(map),
        model(map, {.stride = static_cast<int>(map.total_lps())}),
        fabric(engine, cfg.cluster, cfg.nodes),
        services{.engine = engine, .fabric = fabric, .cfg = cfg, .map = map,
                 .owners = owners, .model = model, .profiler = profiler, .trace = trace,
                 .metrics = metrics, .faults = nullptr, .hooks = {}} {
    workers.resize(static_cast<std::size_t>(map.total_workers()));
    for (int n = 0; n < cfg.nodes; ++n) {
      nodes.push_back(std::make_unique<NodeRuntime>(services, n));
      for (auto& worker : nodes.back()->workers()) {
        worker->kernel.init();
        workers[static_cast<std::size_t>(worker->global_worker)] = worker.get();
      }
    }
  }

  SimulationConfig cfg;
  pdes::LpMap map;
  pdes::OwnerTable owners;
  pdes::testing::TestModel model;
  metasim::Engine engine;
  Fabric fabric;
  ClusterProfiler profiler;
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  ClusterServices services;
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  std::vector<WorkerCtx*> workers;  // by global worker index
};

/// Everything a flow tick or release could change, as the controller
/// shows it: per-worker bounds and parked sets, the round request, the
/// trace (a tier change always records flow_pressure) and every report
/// field and gauge.
struct FlowState {
  std::vector<double> bounds;
  std::vector<std::vector<std::uint64_t>> parked;
  bool requested = false;
  std::size_t trace_records = 0;
  std::map<std::string, double> report;

  bool operator==(const FlowState&) const = default;
};

FlowState capture(const flow::Controller& ctl, const obs::TraceRecorder& trace, int workers) {
  FlowState s;
  for (int w = 0; w < workers; ++w) {
    s.bounds.push_back(ctl.exec_bound(w));
    WorkerSnapshot snap;
    ctl.save_state(w, snap);
    std::vector<std::uint64_t> uids;
    for (const pdes::Event& e : snap.parked) uids.push_back(e.uid);
    s.parked.push_back(std::move(uids));
  }
  s.requested = ctl.round_requested();
  s.trace_records = trace.records().size();
  SimulationResult result;
  obs::MetricsRegistry metrics(true);
  ctl.report(result, metrics);
  s.report = metrics.snapshot().values;
  s.report["peak_event_pool"] = static_cast<double>(result.peak_event_pool);
  return s;
}

/// Drives one flow::Controller over a MiniCluster. Messages move
/// synchronously: a cancelback parks at its source at once, a released
/// event is deposited at its destination at once, so the true GVT is the
/// minimum over the kernels and the parked sets.
class FlowDriver {
 public:
  FlowDriver(MiniCluster& cluster, flow::Controller& ctl, std::uint64_t seed)
      : c_(cluster), ctl_(ctl), rng_(seed) {
    for (WorkerCtx* worker : c_.workers) ctl_.attach(*worker);
  }

  void step() {
    const std::uint64_t op = rng_.next_below(8);
    WorkerCtx& worker = pick();
    if (op < 3) {
      deposit(worker, 1 + static_cast<int>(rng_.next_below(6)));
    } else if (op < 6) {
      busy_pass(worker);
    } else {
      gvt_round();
    }
  }

  /// The idle-pass check on every worker; a worker whose hook cannot rule
  /// the pass out runs it half of the time.
  void check_idle(const obs::TraceRecorder& trace) {
    for (WorkerCtx* worker : c_.workers) {
      if (ctl_.loop_pending(*worker)) {
        ++pending_;
        if (rng_.next_below(2) == 0) run_hooks(*worker, 0);
        continue;
      }
      ++idle_;
      if (std::isfinite(ctl_.exec_bound(worker->global_worker))) ++idle_clamped_;
      if (ctl_.min_ts(worker->global_worker) != pdes::kVtInfinity) ++idle_parked_;
      const int n = static_cast<int>(c_.workers.size());
      const FlowState before = capture(ctl_, trace, n);
      std::vector<pdes::Event> out;
      ctl_.batch_tick(*worker, 0, out);
      EXPECT_TRUE(out.empty()) << "batch_tick sent on a pass loop_pending ruled out";
      ctl_.batch_release(*worker, out);
      EXPECT_TRUE(out.empty()) << "batch_release released on a pass loop_pending ruled out";
      EXPECT_TRUE(capture(ctl_, trace, n) == before)
          << "state changed on a pass loop_pending ruled out (worker "
          << worker->global_worker << ", round " << round_ << ")";
    }
  }

  std::uint64_t idle() const { return idle_; }
  std::uint64_t pending() const { return pending_; }
  std::uint64_t idle_clamped() const { return idle_clamped_; }
  std::uint64_t idle_parked() const { return idle_parked_; }

 private:
  WorkerCtx& pick() { return *c_.workers[rng_.next_below(c_.workers.size())]; }

  /// `count` events from other workers' LPs onto `worker`'s LPs, at or
  /// above GVT (cancelback candidates).
  void deposit(WorkerCtx& worker, int count) {
    const int lps = c_.map.lps_per_worker();
    for (int i = 0; i < count; ++i) {
      int src_worker = static_cast<int>(rng_.next_below(c_.workers.size() - 1));
      if (src_worker >= worker.global_worker) ++src_worker;
      pdes::Event e;
      e.recv_ts = gvt_ + 8.0 * rng_.next_double();
      e.send_ts = gvt_;
      e.uid = 0xF10'0000'0000ULL + ++uid_;
      e.src_lp = c_.map.lp_of(src_worker, static_cast<int>(rng_.next_below(lps)));
      e.dst_lp = c_.map.lp_of(worker.global_worker, static_cast<int>(rng_.next_below(lps)));
      (void)worker.kernel.deposit(e);  // rollback antis would go to LPs that never saw them
    }
  }

  /// A batch under the worker's flow bound, then its hook steps.
  void busy_pass(WorkerCtx& worker) {
    int processed = 0;
    const int batch = 1 + static_cast<int>(rng_.next_below(6));
    for (int b = 0; b < batch; ++b) {
      if (!worker.kernel.process_next_bounded(ctl_.exec_bound(worker.global_worker)).processed)
        break;
      ++processed;
    }
    run_hooks(worker, processed);
  }

  void run_hooks(WorkerCtx& worker, int processed) {
    std::vector<pdes::Event> out;
    ctl_.batch_tick(worker, processed, out);
    for (const pdes::Event& e : out) {
      EXPECT_EQ(e.kind, pdes::MsgKind::kCancelback);
      WorkerCtx& source = *c_.workers[static_cast<std::size_t>(c_.owners.worker_of(e.src_lp))];
      EXPECT_TRUE(ctl_.consume(source, e));
    }
    out.clear();
    ctl_.batch_release(worker, out);
    for (const pdes::Event& e : out)
      (void)c_.workers[static_cast<std::size_t>(c_.owners.worker_of(e.dst_lp))]->kernel.deposit(e);
  }

  /// A GVT round at the true minimum: open, adopt on every worker, fossil
  /// collect.
  void gvt_round() {
    RoundOpen open;
    ctl_.open_round(++round_, open);
    double gvt = pdes::kVtInfinity;
    for (WorkerCtx* worker : c_.workers)
      gvt = std::min({gvt, worker->kernel.local_min_ts(), ctl_.min_ts(worker->global_worker)});
    ASSERT_NE(gvt, pdes::kVtInfinity);  // every LP always holds its next event
    ASSERT_GE(gvt, gvt_);
    gvt_ = gvt;
    for (WorkerCtx* worker : c_.workers) {
      ctl_.adopt(round_, *worker, gvt_);
      worker->kernel.fossil_collect(gvt_);
    }
  }

  MiniCluster& c_;
  flow::Controller& ctl_;
  Xoshiro256StarStar rng_;
  double gvt_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t uid_ = 0;
  std::uint64_t idle_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t idle_clamped_ = 0;
  std::uint64_t idle_parked_ = 0;
};

TEST(FlowLoopPendingTest, RuledOutPassesChangeNothing) {
  std::uint64_t idle = 0;
  std::uint64_t pending = 0;
  std::uint64_t idle_clamped = 0;
  std::uint64_t idle_parked = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    MiniCluster cluster;
    obs::TraceRecorder trace(true);
    flow::Controller ctl(cluster.cfg.flow, cluster.map.total_workers(), nullptr, &trace);
    FlowDriver driver(cluster, ctl, seed);
    for (int i = 0; i < 400; ++i) {
      driver.step();
      driver.check_idle(trace);
      if (::testing::Test::HasFailure()) FAIL() << "seed " << seed << ", step " << i;
    }
    idle += driver.idle();
    pending += driver.pending();
    idle_clamped += driver.idle_clamped();
    idle_parked += driver.idle_parked();
  }
  // Not vacuous: both answers occur, and ruled-out passes include workers
  // under an engaged clamp and workers holding parked events.
  EXPECT_GT(idle, 1000u);
  EXPECT_GT(pending, 1000u);
  EXPECT_GT(idle_clamped, 100u);
  EXPECT_GT(idle_parked, 100u);
}

// --- cons --------------------------------------------------------------------

/// Everything the cons controller reports, plus every worker's bound.
std::map<std::string, double> cons_state(const cons::Controller& ctl, int workers) {
  SimulationResult result;
  obs::MetricsRegistry metrics(true);
  ctl.report(result, metrics);
  std::map<std::string, double> s = metrics.snapshot().values;
  for (int w = 0; w < workers; ++w) s["bound." + std::to_string(w)] = ctl.bound(w);
  return s;
}

TEST(ConsLoopPendingTest, WindowIdleTickIsItsSkipCredit) {
  // Two window controllers in lockstep; on idle passes one runs the tick
  // with nothing processed, the other takes the skip_tick credit. They must
  // stay indistinguishable.
  MiniCluster cluster;
  const int n = cluster.map.total_workers();
  const cons::ConsConfig cfg = cons::parse_cons("window,window=0.5");
  cons::Controller ticked(cfg, cluster.map, 1.0, cluster.cfg.end_vt);
  cons::Controller skipped(cfg, cluster.map, 1.0, cluster.cfg.end_vt);
  Xoshiro256StarStar rng(7);
  std::uint64_t round = 0;
  double gvt = 0;
  std::uint64_t idle = 0;
  for (int i = 0; i < 2000; ++i) {
    WorkerCtx& worker = *cluster.workers[rng.next_below(cluster.workers.size())];
    std::vector<pdes::Event> out;
    switch (rng.next_below(3)) {
      case 0: {  // a busy batch
        int processed = 0;
        while (processed < 3 &&
               worker.kernel.process_next_bounded(ticked.exec_bound(worker.global_worker))
                   .processed)
          ++processed;
        ticked.batch_tick(worker, processed, out);
        skipped.batch_tick(worker, processed, out);
        break;
      }
      case 1:  // a round
        ++round;
        gvt += 0.25;
        for (WorkerCtx* w : cluster.workers) {
          ticked.adopt(round, *w, gvt);
          skipped.adopt(round, *w, gvt);
        }
        break;
      default:  // an idle pass
        ASSERT_FALSE(skipped.loop_pending(worker));
        ++idle;
        ticked.batch_tick(worker, 0, out);
        skipped.skip_tick(worker);
        break;
    }
    EXPECT_TRUE(out.empty()) << "window mode sends no control messages";
    ASSERT_EQ(cons_state(ticked, n), cons_state(skipped, n)) << "step " << i;
  }
  EXPECT_GT(idle, 500u);
  EXPECT_LT(cons_state(ticked, n).at("cons.utilization"), 1.0);  // idle ticks counted
}

TEST(ConsLoopPendingTest, CmbKeepsEveryPass) {
  MiniCluster cluster;
  const cons::Controller cmb(cons::parse_cons("cmb"), cluster.map, 1.0, cluster.cfg.end_vt);
  for (WorkerCtx* worker : cluster.workers) EXPECT_TRUE(cmb.loop_pending(*worker));
}

}  // namespace
}  // namespace cagvt::core
