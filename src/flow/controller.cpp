#include "flow/controller.hpp"

#include <algorithm>

#include "core/node_runtime.hpp"
#include "core/recovery.hpp"
#include "core/simulation.hpp"
#include "util/assert.hpp"

namespace cagvt::flow {

Controller::Controller(const FlowConfig& cfg, int workers, const fault::FaultEngine* faults,
                       obs::TraceRecorder* trace)
    : cfg_(cfg),
      faults_(faults),
      throttles_(static_cast<std::size_t>(workers), WorkerThrottle(cfg)),
      parked_(static_cast<std::size_t>(workers)),
      trace_(trace) {
  CAGVT_CHECK_MSG(cfg_.enabled(), "flow::Controller built with --flow=off");
  CAGVT_CHECK(workers > 0);
}

void Controller::attach(core::WorkerCtx& worker) {
  throttles_[static_cast<std::size_t>(worker.global_worker)].attach(worker.kernel);
}

std::uint64_t Controller::pool_of(const core::WorkerCtx& worker) {
  return worker.kernel.pending_size() + worker.kernel.live_history();
}

std::uint64_t Controller::budget(int worker) const {
  const std::int64_t squeeze = faults_ != nullptr ? faults_->mem_budget(worker) : 0;
  return static_cast<std::uint64_t>(squeeze > 0 ? std::min(cfg_.mem, squeeze) : cfg_.mem);
}

bool Controller::releasable(const Parked& p) const {
  return last_round_ - p.round >= kMaxHoldRounds || p.dest_worker < 0 ||
         throttles_[static_cast<std::size_t>(p.dest_worker)].tier() == core::PressureTier::kGreen;
}

bool Controller::loop_pending(const core::WorkerCtx& worker) const {
  // Each clause is a change batch_tick(worker, 0, ...) or batch_release
  // would make: a new pool peak, a red tick (counted, then relief), a tier
  // change or clamp move, a parked event to re-deliver.
  const int gw = worker.global_worker;
  const WorkerThrottle& throttle = throttles_[static_cast<std::size_t>(gw)];
  const std::uint64_t pool = pool_of(worker);
  if (pool > peak_pool_ || throttle.tier() == core::PressureTier::kRed ||
      throttle.classify_acts(pool, budget(gw)))
    return true;
  const std::deque<Parked>& parked = parked_[static_cast<std::size_t>(gw)];
  return std::any_of(parked.begin(), parked.end(),
                     [this](const Parked& p) { return releasable(p); });
}

void Controller::batch_tick(core::WorkerCtx& worker, int /*processed*/,
                            std::vector<pdes::Event>& out) {
  const int gw = worker.global_worker;
  WorkerThrottle& throttle = throttles_[static_cast<std::size_t>(gw)];
  const std::size_t pending = worker.kernel.pending_size();
  const std::uint64_t pool = pool_of(worker);
  if (pool > peak_pool_) peak_pool_ = pool;

  const core::FlowPressurePolicy policy{budget(gw)};
  const core::PressureTier before = throttle.tier();
  const core::PressureTier tier = throttle.classify(pool, policy.budget);
  if (tier != before) {
    // Other workers' parked events may have become releasable.
    wake_threads();
    if (trace_ != nullptr)
      trace_->flow_pressure(gw,
                            static_cast<std::uint64_t>(std::max<std::int64_t>(last_round_, 0)),
                            static_cast<int>(tier), static_cast<std::int64_t>(pool),
                            static_cast<std::int64_t>(policy.budget));
  }
  if (tier != core::PressureTier::kRed) return;

  ++red_ticks_;
  if (!round_inflight_ && !round_requested_) {
    round_requested_ = true;
    wake_threads();  // every node's interval clock reads the request
  }
  // Relief quota: enough of the furthest-ahead pending events to bring the
  // pool down to the release watermark. History drains via the forced
  // fossil-collection round, not via cancelback.
  const std::uint64_t target = policy.release_target();
  const std::uint64_t excess = pool > target ? pool - target : 0;
  const auto quota =
      static_cast<std::size_t>(std::min<std::uint64_t>(excess, static_cast<std::uint64_t>(pending)));
  if (quota == 0) return;
  const pdes::OwnerTable& owners = worker.node.owners();
  out = worker.kernel.extract_cancelback(
      quota, [&](const pdes::Event& e) { return owners.worker_of(e.src_lp) != gw; });
  if (out.empty()) return;
  cancelbacks_ += out.size();
  if (trace_ != nullptr)
    trace_->flow_cancelback(gw, static_cast<std::uint64_t>(std::max<std::int64_t>(last_round_, 0)),
                            static_cast<std::int64_t>(out.size()));
  for (pdes::Event& event : out) event.kind = pdes::MsgKind::kCancelback;
}

bool Controller::consume(core::WorkerCtx& worker, const pdes::Event& event) {
  if (event.kind != pdes::MsgKind::kCancelback) return false;
  Parked parked;
  parked.event = event;
  parked.event.kind = pdes::MsgKind::kEvent;
  parked.event.anti = false;
  parked.dest_worker = worker.node.owners().worker_of(event.dst_lp);
  parked.round = last_round_;
  parked_[static_cast<std::size_t>(worker.global_worker)].push_back(parked);
  return true;
}

pdes::VirtualTime Controller::min_ts(int worker) const {
  pdes::VirtualTime min = pdes::kVtInfinity;
  for (const Parked& p : parked_[static_cast<std::size_t>(worker)])
    min = std::min(min, p.event.recv_ts);
  return min;
}

bool Controller::absorb_anti(int worker, const pdes::Event& anti) {
  std::deque<Parked>& parked = parked_[static_cast<std::size_t>(worker)];
  for (auto it = parked.begin(); it != parked.end(); ++it) {
    if (it->event.uid == anti.uid) {
      parked.erase(it);
      ++absorbed_antis_;
      return true;
    }
  }
  return false;
}

void Controller::batch_release(core::WorkerCtx& worker, std::vector<pdes::Event>& out) {
  std::deque<Parked>& parked = parked_[static_cast<std::size_t>(worker.global_worker)];
  if (parked.empty()) return;
  std::size_t released = 0;
  std::deque<Parked> keep;
  while (!parked.empty()) {
    Parked p = std::move(parked.front());
    parked.pop_front();
    if (released < kReleaseBatch && releasable(p)) {
      out.push_back(p.event);
      ++released;
    } else {
      keep.push_back(std::move(p));
    }
  }
  parked = std::move(keep);
  releases_ += released;
}

void Controller::open_round(std::uint64_t /*round*/, core::RoundOpen& /*open*/) {
  // Keep the request visible: every NODE begins its own round, and all of
  // them must see the trigger or the forced round would stall waiting for
  // peers still on their interval clocks. The request clears when the
  // round is adopted. A request counts as a forced round once a round
  // opens on it.
  if (round_requested_ && !round_inflight_) {
    round_inflight_ = true;
    ++forced_rounds_;
  }
}

void Controller::adopt(std::uint64_t round_number, core::WorkerCtx& worker, double gvt) {
  const auto round = static_cast<std::int64_t>(round_number);
  if (round > last_round_) {
    last_round_ = round;
    wake_threads();  // parked events' holds may have expired
    if (round_inflight_) {  // the forced round has been adopted
      round_inflight_ = false;
      round_requested_ = false;
    }
  }

  WorkerThrottle& throttle = throttles_[static_cast<std::size_t>(worker.global_worker)];
  if (throttle.adopt(gvt) && trace_ != nullptr) {
    const StormDetector& det = throttle.storm();
    trace_->flow_storm(worker.global_worker, static_cast<std::uint64_t>(std::max<std::int64_t>(round, 0)),
                       det.storming(), det.secondary_fraction(), det.depth_ewma());
  }
}

void Controller::save_state(int worker, core::WorkerSnapshot& snap) const {
  const std::deque<Parked>& parked = parked_[static_cast<std::size_t>(worker)];
  snap.parked.reserve(parked.size());
  for (const Parked& p : parked) snap.parked.push_back(p.event);
}

void Controller::load_state(int worker, const core::WorkerSnapshot& snap) {
  std::deque<Parked>& dst = parked_[static_cast<std::size_t>(worker)];
  dst.clear();
  for (const pdes::Event& e : snap.parked) {
    Parked p;
    p.event = e;
    p.dest_worker = -1;   // pressure state is stale: release promptly
    p.round = last_round_;
    dst.push_back(p);
  }
}

void Controller::report(core::SimulationResult& result, obs::MetricsRegistry& metrics) const {
  result.flow_cancelbacks = cancelbacks_;
  result.flow_releases = releases_;
  for (const WorkerThrottle& throttle : throttles_) {
    result.flow_storms += throttle.storm().storms();
    result.flow_throttle_engagements += throttle.engagements();
  }
  result.flow_forced_rounds = forced_rounds_;
  result.flow_absorbed_antis = absorbed_antis_;
  // The controller's tick-sampled peak is finer than the kernels'
  // round-sampled one; report the larger.
  result.peak_event_pool = std::max(result.peak_event_pool, peak_pool_);
  metrics.gauge("flow.cancelbacks").set(static_cast<double>(result.flow_cancelbacks));
  metrics.gauge("flow.releases").set(static_cast<double>(result.flow_releases));
  metrics.gauge("flow.storms").set(static_cast<double>(result.flow_storms));
  metrics.gauge("flow.throttle_engagements")
      .set(static_cast<double>(result.flow_throttle_engagements));
  metrics.gauge("flow.forced_rounds").set(static_cast<double>(result.flow_forced_rounds));
  metrics.gauge("flow.absorbed_antis").set(static_cast<double>(result.flow_absorbed_antis));
  metrics.gauge("flow.red_ticks").set(static_cast<double>(red_ticks_));
}

void Controller::on_restore() {
  for (WorkerThrottle& throttle : throttles_) throttle.reset();
  round_requested_ = false;
  round_inflight_ = false;
}

}  // namespace cagvt::flow
