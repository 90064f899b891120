#include "flow/controller.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace cagvt::flow {

Controller::Controller(const FlowConfig& cfg, int workers,
                       const fault::FaultEngine* faults)
    : cfg_(cfg),
      workers_(workers),
      faults_(faults),
      tier_(static_cast<std::size_t>(workers), core::PressureTier::kGreen),
      quota_(static_cast<std::size_t>(workers), 0),
      detectors_(static_cast<std::size_t>(workers), StormDetector(cfg.storm)),
      clamps_(static_cast<std::size_t>(workers)),
      gvt_(static_cast<std::size_t>(workers), 0.0),
      parked_(static_cast<std::size_t>(workers)) {
  CAGVT_CHECK_MSG(cfg_.enabled(), "flow::Controller built with --flow=off");
  CAGVT_CHECK(workers_ > 0);
  policy_.budget = static_cast<std::uint64_t>(cfg_.mem);
}

std::int64_t Controller::budget(int worker) const {
  std::int64_t budget = cfg_.mem;
  if (faults_ != nullptr) {
    const std::int64_t squeeze = faults_->mem_budget(worker);
    if (squeeze > 0) budget = std::min(budget, squeeze);
  }
  return budget;
}

core::PressureTier Controller::on_tick(int worker, std::size_t pending,
                                       std::size_t history) {
  const std::size_t w = static_cast<std::size_t>(worker);
  const std::uint64_t pool = pending + history;
  if (pool > peak_pool_) peak_pool_ = pool;

  core::FlowPressurePolicy policy = policy_;
  policy.budget = static_cast<std::uint64_t>(budget(worker));
  const core::PressureTier tier = policy.classify(pool);

  if (tier != tier_[w]) {
    tier_[w] = tier;
    if (trace_ != nullptr)
      trace_->flow_pressure(worker, static_cast<std::uint64_t>(std::max<std::int64_t>(last_round_, 0)),
                            static_cast<int>(tier), static_cast<std::int64_t>(pool),
                            static_cast<std::int64_t>(policy.budget));
  }

  // Engage the throttle the moment pressure appears — waiting for the next
  // round adoption would let speculation overshoot the budget by a whole
  // round's worth of history. (An engaged clamp already covers gvt_[w] +
  // clamp, so the slide is a no-op.)
  if (tier != core::PressureTier::kGreen && clamps_[w].engage(gvt_[w], cfg_.clamp))
    ++throttle_engagements_;

  if (tier == core::PressureTier::kRed) {
    ++red_ticks_;
    // Relief quota: enough of the furthest-ahead pending events to bring
    // the pool down to the release watermark. History drains via the
    // forced fossil-collection round, not via cancelback.
    const std::uint64_t target = policy.release_target();
    const std::uint64_t excess = pool > target ? pool - target : 0;
    quota_[w] = static_cast<std::size_t>(
        std::min<std::uint64_t>(excess, static_cast<std::uint64_t>(pending)));
    if (!round_requested_ && !round_inflight_) {
      round_requested_ = true;
      ++forced_rounds_;
    }
  } else {
    quota_[w] = 0;
  }
  return tier;
}

void Controller::on_cancelback(int worker, const pdes::Event& event,
                               int dest_worker) {
  const std::size_t w = static_cast<std::size_t>(worker);
  Parked parked;
  parked.event = event;
  parked.event.kind = pdes::MsgKind::kEvent;
  parked.event.anti = false;
  parked.dest_worker = dest_worker;
  parked.round = last_round_;
  parked_[w].push_back(parked);
}

void Controller::note_cancelback(int worker, std::size_t count) {
  if (count == 0) return;
  cancelbacks_ += count;
  if (trace_ != nullptr)
    trace_->flow_cancelback(worker,
                            static_cast<std::uint64_t>(std::max<std::int64_t>(last_round_, 0)),
                            static_cast<std::int64_t>(count));
}

pdes::VirtualTime Controller::parked_min(int worker) const {
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

void Controller::release(int worker, std::vector<pdes::Event>& out) {
  std::deque<Parked>& parked = parked_[static_cast<std::size_t>(worker)];
  if (parked.empty()) return;
  std::size_t released = 0;
  std::deque<Parked> keep;
  while (!parked.empty()) {
    Parked p = std::move(parked.front());
    parked.pop_front();
    const bool hold_expired = last_round_ - p.round >= kMaxHoldRounds;
    const bool dest_calm =
        p.dest_worker < 0 ||
        tier_[static_cast<std::size_t>(p.dest_worker)] == core::PressureTier::kGreen;
    if (released < kReleaseBatch && (dest_calm || hold_expired)) {
      out.push_back(p.event);
      ++released;
    } else {
      keep.push_back(std::move(p));
    }
  }
  parked = std::move(keep);
  releases_ += released;
}

void Controller::note_rollback(int worker, std::uint64_t depth, bool secondary) {
  detectors_[static_cast<std::size_t>(worker)].note(depth, secondary);
}

void Controller::note_round_begin() {
  // Keep the request visible: every NODE begins its own round, and all of
  // them must see the trigger or the forced round would stall waiting for
  // peers still on their interval clocks. The request clears when the
  // round is adopted (on_gvt).
  if (round_requested_) round_inflight_ = true;
}

void Controller::on_gvt(std::int64_t round, int worker, pdes::VirtualTime gvt) {
  const std::size_t w = static_cast<std::size_t>(worker);
  gvt_[w] = gvt;
  if (round > last_round_) {
    last_round_ = round;
    if (round_inflight_) {  // the forced round has been adopted
      round_inflight_ = false;
      round_requested_ = false;
    }
  }

  StormDetector& det = detectors_[w];
  const bool was_storming = det.storming();
  det.fold_round();
  if (det.storming() != was_storming && trace_ != nullptr)
    trace_->flow_storm(worker, static_cast<std::uint64_t>(std::max<std::int64_t>(round, 0)),
                       det.storming(), det.secondary_fraction(), det.depth_ewma());

  // Throttle: engage/refresh the horizon clamp while the worker is either
  // storming or above green pressure; release after calm rounds.
  const bool stressed = det.storming() || tier_[w] != core::PressureTier::kGreen;
  if (clamps_[w].step(stressed, gvt, cfg_.clamp)) ++throttle_engagements_;
}

std::vector<pdes::Event> Controller::parked_events(int worker) const {
  std::vector<pdes::Event> out;
  const std::deque<Parked>& parked = parked_[static_cast<std::size_t>(worker)];
  out.reserve(parked.size());
  for (const Parked& p : parked) out.push_back(p.event);
  return out;
}

void Controller::restore_parked(int worker, const std::vector<pdes::Event>& parked) {
  std::deque<Parked>& dst = parked_[static_cast<std::size_t>(worker)];
  dst.clear();
  for (const pdes::Event& e : parked) {
    Parked p;
    p.event = e;
    p.dest_worker = -1;   // pressure state is stale: release promptly
    p.round = last_round_;
    dst.push_back(p);
  }
}

void Controller::on_restore() {
  std::fill(tier_.begin(), tier_.end(), core::PressureTier::kGreen);
  std::fill(quota_.begin(), quota_.end(), 0);
  for (cons::Clamp& clamp : clamps_) clamp.release();
  for (StormDetector& det : detectors_) det.reset();
  round_requested_ = false;
  round_inflight_ = false;
}

std::uint64_t Controller::storms() const {
  std::uint64_t total = 0;
  for (const StormDetector& det : detectors_) total += det.storms();
  return total;
}

}  // namespace cagvt::flow
