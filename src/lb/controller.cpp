#include "lb/controller.hpp"

#include <algorithm>
#include <cmath>

#include "core/node_runtime.hpp"
#include "core/simulation.hpp"
#include "util/assert.hpp"

namespace cagvt::lb {

Controller::Controller(const LbConfig& cfg, pdes::OwnerTable& owners,
                       obs::MetricsRegistry& metrics, obs::TraceRecorder* trace)
    : cfg_(cfg),
      owners_(owners),
      trace_(trace),
      kernels_(static_cast<std::size_t>(owners.map().total_workers()), nullptr),
      migrations_metric_(metrics.counter("lb.migrations")),
      migration_rounds_metric_(metrics.counter("lb.migration_rounds")),
      forwards_metric_(metrics.counter("lb.forwards")),
      roughness_metric_(metrics.gauge("lb.roughness")),
      roughness_ewma_metric_(metrics.gauge("lb.roughness_ewma")) {
  CAGVT_CHECK(cfg.enabled());
}

void Controller::attach(core::WorkerCtx& worker) {
  const int gw = worker.global_worker;
  CAGVT_CHECK(gw >= 0 && gw < static_cast<int>(kernels_.size()));
  CAGVT_CHECK_MSG(kernels_[static_cast<std::size_t>(gw)] == nullptr,
                  "worker registered twice with the lb controller");
  kernels_[static_cast<std::size_t>(gw)] = &worker.kernel;
}

void Controller::adopt(std::uint64_t round, core::WorkerCtx& worker, double gvt) {
  const int total = static_cast<int>(kernels_.size());
  RoundObs& obs = observations_[round];
  if (obs.lvt.empty()) obs.lvt.assign(static_cast<std::size_t>(total), pdes::kVtInfinity);
  obs.lvt[static_cast<std::size_t>(worker.global_worker)] = worker.kernel.local_min_ts();
  obs.gvt = gvt;
  for (const auto& [lp, work] : worker.kernel.drain_lp_work()) {
    double& w = work_ewma_[lp];
    w = cfg_.ewma * work + (1.0 - cfg_.ewma) * w;
  }
  if (++obs.reported == total) {
    finalize_round(round, obs);
    observations_.erase(round);
  }
}

void Controller::finalize_round(std::uint64_t round, const RoundObs& obs) {
  // Time-horizon width (Shchur & Novotny): the population stddev of the
  // worker LVT surface. Idle workers (infinite LVT) sit above any horizon
  // and are excluded from the width but count as migration destinations.
  double sum = 0, sum_sq = 0;
  int finite = 0;
  for (const double lvt : obs.lvt) {
    if (!std::isfinite(lvt)) continue;
    sum += lvt;
    sum_sq += lvt * lvt;
    ++finite;
  }
  const double mean = finite >= 1 ? sum / finite : 0.0;
  const double width =
      finite >= 2 ? std::sqrt(std::max(0.0, sum_sq / finite - mean * mean)) : 0.0;
  ++rounds_finalized_;
  width_sum_ += width;
  ++warmup_rounds_;

  const double a = cfg_.ewma;
  width_ewma_ = warmup_rounds_ == 1 ? width : a * width + (1.0 - a) * width_ewma_;
  if (std::isfinite(obs.gvt)) {
    if (have_prev_gvt_) {
      const double advance = std::max(0.0, obs.gvt - prev_gvt_);
      advance_ewma_ =
          warmup_rounds_ == 2 ? advance : a * advance + (1.0 - a) * advance_ewma_;
    }
    prev_gvt_ = obs.gvt;
    have_prev_gvt_ = true;
  }

  bool triggered = false;
  const bool cooled =
      !migrated_once_ ||
      round >= last_migration_round_ +
                   static_cast<std::uint64_t>(cfg_.cooldown) * backoff_;
  if (warmup_rounds_ >= 3 && pending_plan_.empty() && cooled && finite >= 1 &&
      width_ewma_ > cfg_.trigger * std::max(advance_ewma_, 1e-9)) {
    plan_moves(round, obs, mean, width);
    triggered = !pending_plan_.empty();
    if (triggered) {
      if (width_at_last_plan_ >= 0 && width_ewma_ >= 0.95 * width_at_last_plan_) {
        backoff_ = std::min<std::uint64_t>(backoff_ * 2, 64);
      } else {
        backoff_ = 1;
      }
      width_at_last_plan_ = width_ewma_;
    }
  }

  roughness_metric_.set(width);
  roughness_ewma_metric_.set(width_ewma_);
  if (trace_ != nullptr) trace_->lb_roughness(round, width, width_ewma_, triggered);
}

void Controller::plan_moves(std::uint64_t round, const RoundObs& obs, double mean,
                            double width) {
  const int total = static_cast<int>(kernels_.size());

  // Laggards drag the horizon down from below the band; leaders (including
  // idle workers) pull from above and have capacity to absorb load.
  std::vector<int> laggards, leaders;
  for (int w = 0; w < total; ++w) {
    const double lvt = obs.lvt[static_cast<std::size_t>(w)];
    if (std::isfinite(lvt) && lvt < mean - 0.5 * width) laggards.push_back(w);
    if (!std::isfinite(lvt) || lvt > mean + 0.5 * width) leaders.push_back(w);
  }
  const auto lvt_of = [&obs](int w) { return obs.lvt[static_cast<std::size_t>(w)]; };
  std::sort(laggards.begin(), laggards.end(), [&](int x, int y) {
    return lvt_of(x) != lvt_of(y) ? lvt_of(x) < lvt_of(y) : x < y;
  });
  // Leaders ascending: the preferred destination is the worker *closest
  // above* the band, not the extreme leader. A migrated LP's pending
  // events carry timestamps near its laggard's LVT; landing them on the
  // farthest-ahead worker turns every one into a maximal straggler and
  // the fence into a rollback shock. The just-above-band leader has spare
  // capacity with the smallest horizon gap to bridge.
  std::sort(leaders.begin(), leaders.end(), [&](int x, int y) {
    return lvt_of(x) != lvt_of(y) ? lvt_of(x) < lvt_of(y) : x < y;
  });
  if (laggards.empty() || leaders.empty()) {
    // Degenerate band (width ~ 0 relative to the trigger): fall back to the
    // extreme pair so a persistently triggered balancer still acts.
    int lo = -1, hi = -1;
    for (int w = 0; w < total; ++w) {
      if (lo < 0 || lvt_of(w) < lvt_of(lo)) lo = w;
      if (hi < 0 || lvt_of(w) > lvt_of(hi)) hi = w;
    }
    if (lo == hi || lvt_of(lo) == lvt_of(hi)) return;
    laggards.assign(1, lo);
    leaders.assign(1, hi);
  }

  // Greedy-deep allocation with a sticky destination per laggard: the
  // worst laggard spends as much of the budget as it can, and everything
  // it sheds lands on ONE leader. LPs that live together talk the most
  // (block-local PHOLD traffic, Zipf hot sets) — scattering one worker's
  // LPs across many destinations converts that affinity into cross-worker
  // rollback chains, while moving a cohort together keeps it local at the
  // destination. With min-lps=0 and budget >= the block size this is
  // whole-worker evacuation (the repair for a degraded host).
  int remaining = cfg_.budget;
  // Re-moving an LP that migrated recently un-does a placement the
  // estimators have not yet caught up with; hold each LP down for two
  // cooldown windows after a move.
  const std::uint64_t hold = 2 * static_cast<std::uint64_t>(cfg_.cooldown);
  std::size_t next_leader = 0;
  for (const int src : laggards) {
    if (remaining <= 0) break;
    const int avail = owners_.lp_count_of(src) - cfg_.min_lps -
                      // LPs already claimed from src earlier in this plan
                      static_cast<int>(std::count_if(
                          pending_plan_.begin(), pending_plan_.end(),
                          [src](const pdes::Migration& m) { return m.src_worker == src; }));
    int take = std::min(avail, remaining);
    if (take <= 0) continue;
    const int dst = leaders[next_leader % leaders.size()];

    // Shed the hottest LPs first (work EWMA, lp id as deterministic tie).
    std::vector<pdes::LpId> lps = kernels_[static_cast<std::size_t>(src)]->owned_lps();
    const auto heat = [this](pdes::LpId lp) {
      const auto it = work_ewma_.find(lp);
      return it != work_ewma_.end() ? it->second : 0.0;
    };
    std::sort(lps.begin(), lps.end(), [&](pdes::LpId x, pdes::LpId y) {
      return heat(x) != heat(y) ? heat(x) > heat(y) : x < y;
    });
    bool shed_any = false;
    for (const pdes::LpId lp : lps) {
      if (take <= 0) break;
      const auto moved = last_moved_round_.find(lp);
      if (moved != last_moved_round_.end() && round < moved->second + hold) continue;
      pending_plan_.push_back({lp, src, dst});
      last_moved_round_[lp] = round;
      shed_any = true;
      --take;
      --remaining;
    }
    if (shed_any) ++next_leader;
  }
}

void Controller::open_round(std::uint64_t round, core::RoundOpen& open) {
  if (open.plan == core::RoundPlan::kRestore) return;
  const auto [it, inserted] = plans_.try_emplace(round);
  if (inserted && !pending_plan_.empty()) {
    it->second = std::move(pending_plan_);
    pending_plan_.clear();
    last_migration_round_ = round;
    migrated_once_ = true;
  }
  open.moves = !it->second.empty();
}

metasim::Process Controller::migrate(core::WorkerCtx& worker, std::uint64_t round) {
  const std::vector<pdes::Migration>& plan = plans_.at(round);
  const core::NodeRuntime& node = worker.node;
  const auto& spec = node.cfg().cluster;
  int moved = 0;       // LPs this worker packs (out) or installs (in)
  int cross_node = 0;  // ... of which cross the network
  for (const pdes::Migration& m : plan) {
    if (m.src_worker != worker.global_worker && m.dst_worker != worker.global_worker) continue;
    ++moved;
    if (node.map().node_of_worker(m.src_worker) != node.map().node_of_worker(m.dst_worker))
      ++cross_node;
  }
  if (moved > 0) {
    metasim::SimTime cost =
        spec.migrate_base + spec.migrate_per_lp * static_cast<metasim::SimTime>(moved);
    cost += (spec.net_latency + spec.transmit_time(spec.migrate_msg_bytes)) *
            static_cast<metasim::SimTime>(cross_node);
    co_await metasim::delay(node.cpu(cost));
  }
  // The cluster-wide last arrival moves the LPs and bumps the table.
  if (++fence_arrivals_[round] < static_cast<int>(kernels_.size())) co_return;
  fence_arrivals_.erase(round);
  for (const pdes::Migration& m : plan) {
    pdes::ThreadKernel* src = kernels_[static_cast<std::size_t>(m.src_worker)];
    pdes::ThreadKernel* dst = kernels_[static_cast<std::size_t>(m.dst_worker)];
    CAGVT_CHECK(src != nullptr && dst != nullptr);
    pdes::ThreadKernel::LpPackage pkg = src->extract_lp(m.lp);
    const std::int64_t bytes = pkg.bytes();
    dst->install_lp(std::move(pkg));
    if (trace_ != nullptr)
      trace_->lb_migrate(round, static_cast<std::uint64_t>(m.lp), m.src_worker,
                         m.dst_worker, bytes);
    migrations_metric_.inc();
  }
  owners_.apply(plan);
  migrations_ += plan.size();
  ++migration_rounds_;
  migration_rounds_metric_.inc();
}

void Controller::on_restore() {
  observations_.clear();
  pending_plan_.clear();
  fence_arrivals_.clear();
  work_ewma_.clear();
  last_moved_round_.clear();
  backoff_ = 1;
  width_at_last_plan_ = -1.0;
  width_ewma_ = 0;
  advance_ewma_ = 0;
  have_prev_gvt_ = false;
  warmup_rounds_ = 0;
}

void Controller::note_forward() {
  ++forwards_;
  forwards_metric_.inc();
}

void Controller::report(core::SimulationResult& result, obs::MetricsRegistry& metrics) const {
  result.lb_migrations = migrations_;
  result.lb_migration_rounds = migration_rounds_;
  result.lb_forwards = forwards_;
  result.avg_lvt_roughness =
      rounds_finalized_ > 0 ? width_sum_ / static_cast<double>(rounds_finalized_) : 0.0;
  metrics.gauge("run.lb_migrations").set(static_cast<double>(result.lb_migrations));
  metrics.gauge("run.lb_migration_rounds").set(static_cast<double>(result.lb_migration_rounds));
  metrics.gauge("run.lb_forwards").set(static_cast<double>(result.lb_forwards));
  metrics.gauge("run.lvt_roughness").set(result.avg_lvt_roughness);
}

}  // namespace cagvt::lb
