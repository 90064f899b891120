#include "cons/controller.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/node_runtime.hpp"
#include "core/simulation.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cagvt::cons {

using pdes::kVtInfinity;
using pdes::VirtualTime;

Controller::Controller(const ConsConfig& cfg, const pdes::LpMap& map, VirtualTime lookahead,
                       VirtualTime end_vt)
    : cfg_(cfg), map_(map), la_(lookahead), end_vt_(end_vt), workers_(map.total_workers()) {
  CAGVT_CHECK(cfg.enabled());
  if (!(la_ > 0)) {
    throw std::invalid_argument(
        std::string("--sync=") + to_string(cfg_.kind) +
        " requires a model with strictly positive lookahead, but the model reports " +
        std::to_string(la_) +
        " (zero-lookahead models deadlock under conservative synchronization; "
        "PHOLD-family models take min-delay=<t> to declare one)");
  }
  // An input clock c is the sender's guarantee "my future events have
  // recv_ts > c". Before anything is processed every event is strictly
  // above the lookahead, so c = lookahead is a valid starting guarantee.
  clocks_.assign(static_cast<std::size_t>(workers_) * workers_, la_);
  requested_.assign(clocks_.size(), -kVtInfinity);
  deferred_.assign(clocks_.size(), -kVtInfinity);
  advertised_.assign(clocks_.size(), la_);
  min_clock_.assign(static_cast<std::size_t>(workers_), workers_ > 1 ? la_ : kVtInfinity);
  window_.engage(0, std::min(cfg_.window, la_));
}

VirtualTime Controller::bound(int worker) const {
  return cfg_.kind == SyncKind::kWindow ? window_.bound() : min_clock_[worker];
}

pdes::Event Controller::make_control(pdes::MsgKind kind, int from_worker, int to_worker,
                                     VirtualTime ts) {
  pdes::Event e;
  e.recv_ts = ts;
  e.send_ts = ts;
  e.uid = hash_combine(0xC0'25'00ULL, ++ctl_uid_seq_);
  e.src_lp = map_.lp_of(from_worker, 0);
  e.dst_lp = map_.lp_of(to_worker, 0);
  e.kind = kind;
  return e;
}

void Controller::recompute_min_clock(int worker) {
  VirtualTime m = kVtInfinity;
  for (int s = 0; s < workers_; ++s) {
    if (s == worker) continue;
    m = std::min(m, clocks_[idx(worker, s)]);
  }
  min_clock_[worker] = m;
}

void Controller::on_control(int worker, const pdes::Event& event) {
  CAGVT_CHECK_MSG(cfg_.kind == SyncKind::kCmb, "control message outside cmb mode");
  const int sender = map_.worker_of(event.src_lp);
  CAGVT_ASSERT(sender >= 0 && sender < workers_ && sender != worker);
  if (event.kind == pdes::MsgKind::kNull) {
    // Per worker-pair FIFO means every event the sender emitted before this
    // guarantee has already been delivered, so adopting it is safe.
    VirtualTime& clock = clocks_[idx(worker, sender)];
    if (event.recv_ts > clock) {
      clock = event.recv_ts;
      recompute_min_clock(worker);
    }
    // A request is a standing registration: the sender keeps our demand on
    // record (deferred_) and re-advertises as its guarantee grows, so we
    // only clear — and thereby allow a re-request — once the demand is
    // actually met. Re-requesting after every partial null would double
    // the ladder's traffic for nothing.
    if (clock >= requested_[idx(worker, sender)])
      requested_[idx(worker, sender)] = -kVtInfinity;
    return;
  }
  CAGVT_CHECK_MSG(event.kind == pdes::MsgKind::kNullRequest, "unknown control message kind");
  // Only record the demand; the reply happens on our next tick() so all
  // sends originate from the worker's own coroutine.
  VirtualTime& x = deferred_[idx(worker, sender)];
  x = std::max(x, event.recv_ts);
}

void Controller::request_up_to(int worker, VirtualTime x, std::vector<pdes::Event>& out) {
  for (int s = 0; s < workers_; ++s) {
    if (s == worker) continue;
    if (clocks_[idx(worker, s)] >= x) continue;
    if (requested_[idx(worker, s)] >= x) continue;  // demand already registered
    out.push_back(make_control(pdes::MsgKind::kNullRequest, worker, s, x));
    requested_[idx(worker, s)] = x;
    ++req_msgs_;
  }
}

void Controller::tick(int worker, VirtualTime pending_min, int processed,
                      std::vector<pdes::Event>& out) {
  ++ticks_total_;
  if (processed > 0) {
    ++ticks_active_;
    events_processed_ += static_cast<std::uint64_t>(processed);
  }
  if (cfg_.kind != SyncKind::kCmb) return;

  // The guarantee this worker can give right now: it will never send an
  // event with recv_ts <= G. Its future sends stem from events it has yet
  // to execute, all of which sit at or above L (pending set) or strictly
  // above L (future arrivals, by the input-clock guarantees), and every
  // send adds strictly more than the lookahead.
  const VirtualTime L = std::min(pending_min, min_clock_[worker]);
  const VirtualTime G = L + la_;

  // The demand this tick wants registered upstream: the max over every
  // unsatisfiable deferred demand (reduced by one lookahead hop) and the
  // worker's own blocked timestamp. Coalesced so each channel sees at most
  // one request per tick, carrying the dominating demand.
  VirtualTime want = -kVtInfinity;

  for (int r = 0; r < workers_; ++r) {
    VirtualTime& x = deferred_[idx(worker, r)];
    if (x == -kVtInfinity) continue;
    if (G >= x) {
      out.push_back(make_control(pdes::MsgKind::kNull, worker, r, G));
      ++null_msgs_;
      advertised_[idx(worker, r)] = G;
      x = -kVtInfinity;
      continue;
    }
    // Cannot satisfy the demand in full yet. If this worker is itself idle,
    // advertise whatever guarantee it DOES have (when it grew since the
    // last advertisement): two mutually-blocked workers then ratchet each
    // other's clocks up by one lookahead per exchange — the classic CMB
    // ladder — instead of deadlocking on suppressed requests. Busy workers
    // skip the partial (their guarantee rises every batch; flooding the
    // requester with increments it cannot act on is exactly the null storm
    // suppression exists to avoid). L is monotone (arrivals land strictly
    // above the min input clock), so a grown G never retracts an earlier
    // guarantee.
    if (processed == 0 && G > advertised_[idx(worker, r)]) {
      out.push_back(make_control(pdes::MsgKind::kNull, worker, r, G));
      ++null_msgs_;
      advertised_[idx(worker, r)] = G;
    }
    // And propagate the demand upstream, reduced by one lookahead hop, to
    // whichever input clocks cap our own guarantee.
    want = std::max(want, x - la_);
  }

  // Blocked: real work below the horizon but outside the safety bound, and
  // this batch executed nothing. Demand guarantees up to the blocked
  // timestamp — registering the full target up front lets the upstream
  // worker serve the whole climb from one request.
  if (processed == 0 && pending_min <= end_vt_ && pending_min > min_clock_[worker])
    want = std::max(want, pending_min);

  if (want > -kVtInfinity) request_up_to(worker, want, out);
}

void Controller::adopt(std::uint64_t round_number, core::WorkerCtx& worker, double gvt) {
  const auto round = static_cast<std::int64_t>(round_number);
  const VirtualTime lvt = worker.kernel.local_min_ts();
  if (cfg_.kind == SyncKind::kWindow) {
    // Safe because window rounds are fully synchronous: gvt is the true
    // global minimum with nothing in transit, and events generated inside
    // [gvt, gvt + lookahead] land strictly above the new bound.
    window_.engage(gvt, std::min(cfg_.window, la_));
    wake_threads();  // every worker's execution bound moved
  }
  if (lvt == kVtInfinity) return;  // drained worker: no horizon sample
  if (round != horizon_round_) {
    if (horizon_seen_ > 0) {
      horizon_width_sum_ += horizon_max_ - horizon_min_;
      ++horizon_rounds_;
    }
    horizon_round_ = round;
    horizon_min_ = lvt;
    horizon_max_ = lvt;
    horizon_seen_ = 1;
    return;
  }
  horizon_min_ = std::min(horizon_min_, lvt);
  horizon_max_ = std::max(horizon_max_, lvt);
  ++horizon_seen_;
}

void Controller::batch_tick(core::WorkerCtx& worker, int processed,
                            std::vector<pdes::Event>& out) {
  tick(worker.global_worker, worker.kernel.local_min_ts(), processed, out);
}

bool Controller::consume(core::WorkerCtx& worker, const pdes::Event& event) {
  if (event.kind != pdes::MsgKind::kNull && event.kind != pdes::MsgKind::kNullRequest)
    return false;
  on_control(worker.global_worker, event);
  return true;
}

void Controller::report(core::SimulationResult& result, obs::MetricsRegistry& metrics) const {
  result.cons_null_msgs = null_msgs_;
  result.cons_req_msgs = req_msgs_;
  result.cons_utilization = utilization();
  result.cons_null_ratio = null_ratio();
  result.cons_horizon_width = avg_horizon_width();
  metrics.gauge("cons.null_msgs").set(static_cast<double>(result.cons_null_msgs));
  metrics.gauge("cons.req_msgs").set(static_cast<double>(result.cons_req_msgs));
  metrics.gauge("cons.utilization").set(result.cons_utilization);
  metrics.gauge("cons.null_ratio").set(result.cons_null_ratio);
  metrics.gauge("cons.horizon_width").set(result.cons_horizon_width);
}

double Controller::utilization() const {
  if (ticks_total_ == 0) return 0;
  return static_cast<double>(ticks_active_) / static_cast<double>(ticks_total_);
}

double Controller::null_ratio() const {
  const double events = static_cast<double>(std::max<std::uint64_t>(events_processed_, 1));
  return static_cast<double>(null_msgs_ + req_msgs_) / events;
}

double Controller::avg_horizon_width() const {
  double sum = horizon_width_sum_;
  std::uint64_t rounds = horizon_rounds_;
  if (horizon_seen_ > 0) {  // fold in the still-open round
    sum += horizon_max_ - horizon_min_;
    ++rounds;
  }
  return rounds == 0 ? 0 : sum / static_cast<double>(rounds);
}

}  // namespace cagvt::cons
