#include "pdes/kernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace cagvt::pdes {

ThreadKernel::ThreadKernel(const Model& model, const LpMap& map, int worker, KernelConfig cfg)
    : model_(model),
      map_(map),
      worker_(worker),
      cfg_(cfg),
      home_first_(map.first_lp_of_worker(worker)),
      home_slot_(static_cast<std::size_t>(map.lps_per_worker())) {
  CAGVT_CHECK(worker >= 0 && worker < map.total_workers());
  lps_.reserve(static_cast<std::size_t>(map.lps_per_worker()));
  for (int k = 0; k < map.lps_per_worker(); ++k) lps_.emplace_back(map.lp_of(worker, k), Lp{});
  reindex();
}

void ThreadKernel::reindex() {
  std::fill(home_slot_.begin(), home_slot_.end(), -1);
  for (std::size_t i = 0; i < lps_.size(); ++i) {
    const auto offset =
        static_cast<std::size_t>(static_cast<std::int64_t>(lps_[i].first) - home_first_);
    if (offset < home_slot_.size()) home_slot_[offset] = static_cast<std::int32_t>(i);
  }
}

void ThreadKernel::init() {
  const std::size_t state_size = model_.state_size();
  for (auto& [lp_id, lp] : lps_) {
    lp.state.assign(state_size, std::byte{0});
    InlineVec<Event, 2> initial;
    EventSink sink(lp_id, 0.0, hash_combine(cfg_.seed, static_cast<std::uint64_t>(lp_id)),
                   initial);
    model_.init_lp(lp_id, {lp.state.data(), lp.state.size()}, sink);
    for (std::size_t i = 0; i < initial.size(); ++i) {
      CAGVT_CHECK_MSG(initial[i].dst_lp == lp_id, "initial events must target their own LP");
      pending_.push(initial[i]);
      ++stats_.events_generated;
    }
  }
}

std::uint64_t ThreadKernel::commit_fingerprint(const Event& e) {
  return hash_combine(hash_combine(e.uid, std::bit_cast<std::uint64_t>(e.recv_ts)),
                      static_cast<std::uint64_t>(e.dst_lp));
}

std::uint64_t ThreadKernel::lp_state_hash(LpId lp, std::span<const std::byte> state) {
  std::uint64_t h = hash_combine(static_cast<std::uint64_t>(lp),
                                 static_cast<std::uint64_t>(state.size()));
  for (const std::byte b : state) h = hash_combine(h, static_cast<std::uint64_t>(b));
  return h;
}

std::uint64_t ThreadKernel::state_hash() const {
  std::uint64_t total = 0;
  for (const auto& [lp_id, lp] : lps_)
    total += lp_state_hash(lp_id, {lp.state.data(), lp.state.size()});
  return total;
}

Outcome ThreadKernel::deposit(const Event& event) {
  CAGVT_CHECK_MSG(owns(event.dst_lp), "message routed to the wrong kernel");
  Outcome out;
  apply(event, out);
  drain_queue(out);
  return out;
}

Outcome ThreadKernel::process_next() { return process_next_bounded(kVtInfinity); }

Outcome ThreadKernel::process_next_bounded(VirtualTime bound) {
  Outcome out;
  const auto ev = pending_.pop_next(std::min(bound, cfg_.end_vt));
  if (!ev) return out;

  Lp& lp = lp_ref(ev->dst_lp);
  CAGVT_ASSERT(key_of(*ev) > lp.last_processed);

  ProcessedRecord rec;
  rec.event = *ev;
  if (!model_.supports_reverse()) {
    rec.pre_state.assign(lp.state.data(), lp.state.size());
  }
  EventSink sink(ev->dst_lp, ev->recv_ts, ev->uid, rec.outputs);
  model_.handle_event({lp.state.data(), lp.state.size()}, *ev, sink);

  out.processed = true;
  out.cost_units = model_.cost_units(*ev);
  lp.window_work += out.cost_units;
  ++stats_.processed;
  stats_.events_generated += rec.outputs.size();
  lp.last_processed = key_of(*ev);
  lp.lvt = ev->recv_ts;

  lp.history.push_back(std::move(rec));
  if (++live_history_ > stats_.max_history) stats_.max_history = live_history_;

  const ProcessedRecord& recorded = lp.history.back();
  for (std::size_t i = 0; i < recorded.outputs.size(); ++i)
    route_or_queue(recorded.outputs[i], out);

  drain_queue(out);
  return out;
}

void ThreadKernel::drain_queue(Outcome& out) {
  // apply() may append more work while we iterate; index loop tolerates
  // reallocation. Entries are copied out because apply() can reallocate.
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Event e = queue_[i];
    apply(e, out);
  }
  queue_.clear();
}

void ThreadKernel::route_or_queue(const Event& event, Outcome& out) {
  if (owns(event.dst_lp)) {
    if (event.anti) ++stats_.local_cancellations;
    queue_.push_back(event);
    return;
  }
  if (event.anti) {
    ++stats_.antimessages_emitted;
    ++out.antimessages;
  }
  out.external.push_back(event);
}

void ThreadKernel::apply(const Event& event, Outcome& out) {
  if (event.anti) {
    apply_anti(event, out);
  } else {
    apply_positive(event, out);
  }
}

void ThreadKernel::apply_positive(const Event& event, Outcome& out) {
  // GVT safety net: a message below the last fossil-collection horizon
  // means the GVT algorithm computed a value that was not a true lower
  // bound on in-transit timestamps. Abort loudly instead of corrupting.
  CAGVT_CHECK_MSG(event.recv_ts >= last_fossil_gvt_,
                  "GVT violation: positive message below fossil horizon");
  if (early_antis_.erase(event.uid) > 0) {
    ++stats_.annihilated_early;
    out.annihilated = true;
    return;
  }
  if (cfg_.dynamic_placement && pending_.contains(event.uid)) {
    // Redundant copy of a still-pending positive (the original detoured via
    // the old owner while a regenerated twin took the direct path). Hold it
    // aside: an anti for the pair is in flight and will consume it.
    add_surplus(event);
    return;
  }
  Lp& lp = lp_ref(event.dst_lp);
  if (cfg_.dynamic_placement && key_of(event) == lp.last_processed) {
    add_surplus(event);  // redundant copy of the newest processed event
    return;
  }
  if (key_of(event) < lp.last_processed) {
    // Straggler: undo optimistic work past its timestamp, then enqueue it.
    ++stats_.stragglers;
    ++stats_.primary_rollbacks;
    ++stats_.rollback_episodes;
    const int undone_before = out.rolled_back;
    const bool duplicate =
        rollback(lp, key_of(event), /*annihilate_target=*/false, out);
    note_rollback(event.dst_lp, out.rolled_back - undone_before, /*secondary=*/false);
    out.was_straggler = true;
    if (duplicate) {
      // The "straggler" is a redundant copy of an event that is still
      // processed (left in place by the rollback); hold it for its anti.
      add_surplus(event);
      return;
    }
  }
  pending_.push(event);
}

void ThreadKernel::apply_anti(const Event& event, Outcome& out) {
  CAGVT_CHECK_MSG(event.recv_ts >= last_fossil_gvt_,
                  "GVT violation: anti-message below fossil horizon");
  if (consume_surplus(event.uid)) {
    out.annihilated = true;
    return;
  }
  if (pending_.cancel(event.uid)) {
    ++stats_.annihilated_pending;
    out.annihilated = true;
    return;
  }
  Lp& lp = lp_ref(event.dst_lp);
  if (key_of(event) <= lp.last_processed) {
    // The positive twin was already executed: roll back to (and including)
    // it. Transport FIFO guarantees the twin did arrive before this anti —
    // except across a migration fence's path split, where the anti can
    // overtake a forwarded positive even after the LP processed past it.
    ++stats_.secondary_rollbacks;
    ++stats_.rollback_episodes;
    const int undone_before = out.rolled_back;
    const bool found = rollback(lp, key_of(event), /*annihilate_target=*/true, out);
    note_rollback(event.dst_lp, out.rolled_back - undone_before, /*secondary=*/true);
    if (found) {
      out.annihilated = true;
      return;
    }
    // Target not processed after all: the rollback rewound past the anti's
    // timestamp (spurious but safe) and the positive is still in flight on
    // the forwarding detour; wait for it below.
    ++stats_.migration_reorders;
  }
  // Anti overtook its positive (across distinct transport paths).
  early_antis_.emplace(event.uid, event.dst_lp);
}

bool ThreadKernel::rollback(Lp& lp, EventKey target, bool annihilate_target, Outcome& out) {
  bool target_found = false;
  while (!lp.history.empty()) {
    ProcessedRecord& rec = lp.history.back();
    const EventKey k = key_of(rec.event);
    if (k < target) break;
    const bool is_target = (k == target);
    if (is_target && !annihilate_target) {
      // A "straggler" whose key equals a processed record is a redundant
      // copy of that record's event (keys embed the uid, and uids determine
      // content) — only possible when a migration fence split the sender's
      // FIFO stream. Keep the processed copy; the caller parks the
      // duplicate for its in-flight anti.
      CAGVT_CHECK_MSG(cfg_.dynamic_placement,
                      "straggler key collides with a processed event");
      target_found = true;
      break;
    }

    // Undo: invert the state mutation (reverse computation when the model
    // supports it, checkpoint restore otherwise) and cancel everything
    // this handler execution sent.
    if (model_.supports_reverse()) {
      model_.reverse_event({lp.state.data(), lp.state.size()}, rec.event);
    } else {
      CAGVT_ASSERT(rec.pre_state.size() == lp.state.size());
      for (std::size_t i = 0; i < lp.state.size(); ++i) lp.state[i] = rec.pre_state[i];
    }
    for (std::size_t i = 0; i < rec.outputs.size(); ++i)
      route_or_queue(rec.outputs[i].make_anti(), out);

    if (!is_target) {
      pending_.push(rec.event);  // will be re-executed after the straggler
    }
    lp.history.pop_back();
    --live_history_;
    ++stats_.rolled_back;
    ++out.rolled_back;
    if (is_target) {
      target_found = true;
      break;
    }
  }
  CAGVT_CHECK_MSG(!annihilate_target || target_found || cfg_.dynamic_placement || cfg_.cancelback,
                  "anti-message target missing from history (transport order violated)");
  if (lp.history.empty()) {
    lp.last_processed = EventKey{};
    lp.lvt = 0;
  } else {
    lp.last_processed = key_of(lp.history.back().event);
    lp.lvt = lp.history.back().event.recv_ts;
  }
  return target_found;
}

void ThreadKernel::add_surplus(const Event& event) {
  CAGVT_ASSERT(cfg_.dynamic_placement);
  SurplusPositive& s = surplus_[event.uid];
  s.lp = event.dst_lp;
  ++s.count;
  ++stats_.migration_reorders;
}

bool ThreadKernel::consume_surplus(std::uint64_t uid) {
  if (surplus_.empty()) return false;
  const auto it = surplus_.find(uid);
  if (it == surplus_.end()) return false;
  if (--it->second.count == 0) surplus_.erase(it);
  return true;
}

void ThreadKernel::note_rollback(LpId lp, int depth, bool secondary) {
  rollback_depth_.observe(static_cast<double>(depth));
  if (rollback_hook_) rollback_hook_(static_cast<std::uint64_t>(depth), secondary);
  if (trace_ != nullptr)
    trace_->rollback(obs_node_, obs_worker_, static_cast<std::uint64_t>(lp), depth,
                     secondary ? "anti" : "straggler");
}

std::uint64_t ThreadKernel::fossil_collect(VirtualTime gvt) {
  CAGVT_CHECK_MSG(gvt >= last_fossil_gvt_, "GVT went backwards");
  last_fossil_gvt_ = gvt;
  std::uint64_t newly_committed = 0;
  for (auto& [lp_id, lp] : lps_) {
    while (!lp.history.empty() && lp.history.front().event.recv_ts < gvt) {
      committed_fingerprint_ += commit_fingerprint(lp.history.front().event);
      lp.history.pop_front();
      --live_history_;
      ++newly_committed;
    }
  }
  stats_.committed += newly_committed;
  // final_commit()'s infinite horizon is excluded: it runs outside the
  // simulation and an inf timestamp would not serialize as JSON.
  if (trace_ != nullptr && std::isfinite(gvt))
    trace_->fossil(obs_node_, obs_worker_, gvt,
                   static_cast<std::int64_t>(newly_committed));
  return newly_committed;
}

std::int64_t ThreadKernel::Snapshot::bytes() const {
  std::size_t total = lps.size() * sizeof(Lp) + pending.size() * sizeof(Event) +
                      early_antis.size() * (sizeof(std::uint64_t) + sizeof(LpId)) +
                      surplus.size() * (sizeof(std::uint64_t) + sizeof(SurplusPositive));
  for (const auto& [lp_id, lp] : lps)
    total += lp.state.size() + lp.history.size() * sizeof(ProcessedRecord);
  return static_cast<std::int64_t>(total);
}

ThreadKernel::Snapshot ThreadKernel::snapshot() const {
  CAGVT_CHECK_MSG(queue_.empty(), "checkpoint mid-cascade");
  Snapshot snap;
  snap.lps = lps_;
  snap.pending = pending_;
  snap.early_antis = early_antis_;
  snap.surplus = surplus_;
  snap.last_fossil_gvt = last_fossil_gvt_;
  snap.stats = stats_;
  snap.committed_fingerprint = committed_fingerprint_;
  snap.live_history = live_history_;
  return snap;
}

void ThreadKernel::restore(const Snapshot& snap) {
  CAGVT_CHECK_MSG(queue_.empty(), "restore mid-cascade");
  // The snapshot's LP set replaces this kernel's wholesale: with dynamic
  // migration the checkpointed ownership may differ from the current one,
  // and the owner table is rewound to the same cut by the recovery layer.
  lps_ = snap.lps;
  reindex();
  pending_ = snap.pending;
  early_antis_ = snap.early_antis;
  surplus_ = snap.surplus;
  last_fossil_gvt_ = snap.last_fossil_gvt;
  stats_ = snap.stats;
  committed_fingerprint_ = snap.committed_fingerprint;
  live_history_ = snap.live_history;
}

std::int64_t ThreadKernel::LpPackage::bytes() const {
  return static_cast<std::int64_t>(sizeof(Lp) + data.state.size() +
                                   data.history.size() * sizeof(ProcessedRecord) +
                                   pending.size() * sizeof(Event) +
                                   early_antis.size() * sizeof(std::uint64_t) +
                                   surplus.size() * (sizeof(std::uint64_t) + sizeof(int)));
}

ThreadKernel::LpPackage ThreadKernel::extract_lp(LpId lp) {
  CAGVT_CHECK_MSG(queue_.empty(), "migration mid-cascade");
  const int slot = slot_of(lp);
  CAGVT_CHECK_MSG(slot >= 0, "extracting an LP this kernel does not own");
  const auto it = lps_.begin() + slot;
  LpPackage pkg;
  pkg.lp = lp;
  pkg.data = std::move(it->second);
  lps_.erase(it);
  reindex();
  live_history_ -= pkg.data.history.size();
  pkg.pending = pending_.extract_lp(lp);
  for (auto ea = early_antis_.begin(); ea != early_antis_.end();) {
    if (ea->second == lp) {
      pkg.early_antis.push_back(ea->first);
      ea = early_antis_.erase(ea);
    } else {
      ++ea;
    }
  }
  std::sort(pkg.early_antis.begin(), pkg.early_antis.end());
  for (auto sp = surplus_.begin(); sp != surplus_.end();) {
    if (sp->second.lp == lp) {
      pkg.surplus.emplace_back(sp->first, sp->second.count);
      sp = surplus_.erase(sp);
    } else {
      ++sp;
    }
  }
  std::sort(pkg.surplus.begin(), pkg.surplus.end());
  return pkg;
}

void ThreadKernel::install_lp(LpPackage&& pkg) {
  CAGVT_CHECK_MSG(queue_.empty(), "migration mid-cascade");
  auto it = lower_bound_lp(lps_, pkg.lp);
  CAGVT_CHECK_MSG(it == lps_.end() || it->first != pkg.lp,
                  "installing an LP this kernel already owns");
  it = lps_.emplace(it, pkg.lp, std::move(pkg.data));
  reindex();
  live_history_ += it->second.history.size();
  if (live_history_ > stats_.max_history) stats_.max_history = live_history_;
  for (const Event& e : pkg.pending) pending_.push(e);
  for (const std::uint64_t uid : pkg.early_antis) early_antis_.emplace(uid, pkg.lp);
  for (const auto& [uid, count] : pkg.surplus)
    surplus_.emplace(uid, SurplusPositive{pkg.lp, count});
}

std::vector<std::pair<LpId, double>> ThreadKernel::drain_lp_work() {
  std::vector<std::pair<LpId, double>> work;
  work.reserve(lps_.size());
  for (auto& [lp_id, lp] : lps_) {
    work.emplace_back(lp_id, lp.window_work);
    lp.window_work = 0;
  }
  return work;
}

std::vector<LpId> ThreadKernel::owned_lps() const {
  std::vector<LpId> out;
  out.reserve(lps_.size());
  for (const auto& [lp_id, lp] : lps_) out.push_back(lp_id);
  return out;
}

}  // namespace cagvt::pdes
