#include "metasim/engine.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace cagvt::metasim {

Engine::~Engine() {
  // Destroy every adopted coroutine frame that has not already completed.
  // Frames use final_suspend = suspend_always, so handles stay valid until
  // explicitly destroyed and double-destroy cannot happen here.
  for (auto handle : frames_) {
    if (handle) handle.destroy();
  }
}

std::uint32_t Engine::add_owner() {
  CAGVT_CHECK_MSG(owner_seq_.size() < (std::size_t{1} << (64 - kSeqBits)), "too many owners");
  owner_seq_.push_back(0);
  return static_cast<std::uint32_t>(owner_seq_.size() - 1);
}

void Engine::push_callback(SimTime when, std::uint32_t owner, std::function<void()> fn,
                           bool daemon) {
  assert_owner();
  CAGVT_CHECK_MSG(when >= now_, "cannot schedule into the simulated past");
  std::uint32_t slot;
  if (free_callbacks_.empty()) {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  push(Entry{when, next_key(owner), 0, slot, Kind::kCallback, daemon});
  if (!daemon) ++live_count_;
}

void Engine::call_at(SimTime when, std::uint32_t owner, std::function<void()> fn) {
  push_callback(when, owner, std::move(fn), /*daemon=*/false);
}

void Engine::call_at_daemon(SimTime when, std::uint32_t owner, std::function<void()> fn) {
  push_callback(when, owner, std::move(fn), /*daemon=*/true);
}

void Engine::resume_at(SimTime when, std::coroutine_handle<> handle, std::uint32_t owner) {
  assert_owner();
  CAGVT_CHECK_MSG(when >= now_, "cannot schedule into the simulated past");
  CAGVT_ASSERT(handle);
  push(Entry{when, next_key(owner), reinterpret_cast<std::uint64_t>(handle.address()), 0,
              Kind::kResume, /*daemon=*/false});
  ++live_count_;
}

std::uint32_t Engine::add_poller(IdlePoller& poller, SimTime period, std::uint32_t owner) {
  assert_owner();
  CAGVT_CHECK_MSG(period > 0, "an idle poll needs a positive period");
  CAGVT_CHECK(owner < owner_seq_.size());
  Poller& record = pollers_.emplace_back();
  record.poller = &poller;
  record.period = period;
  record.owner = owner;
  return static_cast<std::uint32_t>(pollers_.size() - 1);
}

void Engine::poll_at(SimTime when, std::coroutine_handle<> handle, std::uint32_t poller) {
  assert_owner();
  CAGVT_CHECK_MSG(when >= now_, "cannot schedule into the simulated past");
  CAGVT_ASSERT(handle && poller < pollers_.size() && !pollers_[poller].polling);
  Poller& record = pollers_[poller];
  record.polling = true;
  record.handle = handle;
  record.next_at = when;
  queue_poll(poller, when);
  ++live_count_;
}

void Engine::queue_poll(std::uint32_t poller, SimTime when) {
  Poller& record = pollers_[poller];
  record.queued_at = when;
  push(Entry{when, next_key(record.owner), ++record.ticket, poller, Kind::kPoll,
              /*daemon=*/false});
}

void Engine::wake(std::uint32_t poller) {
  CAGVT_ASSERT(poller < pollers_.size());
  Poller& record = pollers_[poller];
  if (!record.polling) return;
  // The first grid instant whose pass follows this dispatch: past now, or
  // at now if that pass is still to come. It is, unless an entry of a later
  // owner has run at this instant: that entry was queued when the pass's
  // poll was, so the poll, the earlier of the two, ran before it.
  SimTime at = record.next_at;
  if (at <= now_) {
    at += (now_ - at) / record.period * record.period;
    if (at < now_ || record.owner <= instant_last_owner_) at += record.period;
  }
  if (record.queued_at <= at) return;  // an earlier pass is queued already
  queue_poll(poller, at);
  ++work_.wakes;
}

void Engine::wake_all() {
  for (std::uint32_t poller = 0; poller < pollers_.size(); ++poller) wake(poller);
}

void Engine::credit(Poller& poller, std::uint64_t passes) {
  poller.poller->skip_passes(passes);
  work_.passes_credited += passes;
}

void Engine::dispatch_poll(std::uint32_t id) {
  Poller& record = pollers_[id];
  record.queued_at = kTimeNever;
  // The passes slept through since the last credit would all have skipped.
  if (const auto slept = static_cast<std::uint64_t>((now_ - record.next_at) / record.period);
      slept > 0)
    credit(record, slept);
  if (record.poller->pass_pending()) {
    record.polling = false;
    --live_count_;
    ++work_.polls_resumed;
    record.handle.resume();
    return;
  }
  credit(record, 1);
  ++work_.polls_slept;
  record.next_at = now_ + record.period;
  if (const std::uint64_t due = record.poller->passes_to_due(); due > 0)
    queue_poll(id, record.next_at + static_cast<SimTime>(due - 1) * record.period);
}

void Engine::settle(SimTime until) {
  if (until == kTimeNever) return;
  // The clock ends at the last of those polls; each sleeper's passes up
  // to `until` are credited there.
  for (const Poller& record : pollers_)
    if (record.polling && record.next_at <= until)
      now_ = std::max(now_, until - (until - record.next_at) % record.period);
  for (Poller& record : pollers_) {
    if (!record.polling || record.next_at > until) continue;
    const auto passes = static_cast<std::uint64_t>((until - record.next_at) / record.period) + 1;
    record.next_at += static_cast<SimTime>(passes) * record.period;
    credit(record, passes);
  }
}

bool Engine::empty() const {
  for (const Poller& record : pollers_)
    if (record.polling) return false;
  return queue_.empty();
}

SimTime Engine::run(SimTime until) {
  assert_owner();
  stopped_ = false;
  // Stop as soon as only daemon events remain: they are instrumentation,
  // and dispatching them would advance the clock past the last real work.
  // A polling poller is live work, asleep or not.
  while (live_count_ > 0 && !stopped_) {
    while (!queue_.empty() && stale(queue_.top())) queue_.pop();
    if (queue_.empty() || queue_.top().when > until) {
      settle(until);
      break;
    }
    // Copy out before pop: the continuation may push new entries.
    const Entry entry = queue_.top();
    queue_.pop();
    CAGVT_ASSERT(entry.when >= now_);
    current_owner_ = static_cast<std::uint32_t>(entry.key >> kSeqBits);
    instant_last_owner_ = entry.when == now_ ? std::max(instant_last_owner_, current_owner_)
                                             : current_owner_;
    now_ = entry.when;
    ++work_.dispatches;
    switch (entry.kind) {
      case Kind::kPoll: dispatch_poll(entry.index); break;
      case Kind::kResume:
        --live_count_;
        std::coroutine_handle<>::from_address(reinterpret_cast<void*>(entry.word)).resume();
        break;
      case Kind::kCallback: {
        if (!entry.daemon) --live_count_;
        // Move the callback out and free its slot first: it may schedule
        // callbacks of its own, which reuse the slot or grow the slab.
        const std::function<void()> fn = std::exchange(callbacks_[entry.index], nullptr);
        free_callbacks_.push_back(entry.index);
        fn();
        break;
      }
    }
    if (pending_exception_) {
      std::exception_ptr e = pending_exception_;
      pending_exception_ = nullptr;
      current_owner_ = 0;
      std::rethrow_exception(e);
    }
  }
  current_owner_ = 0;
  return now_;
}

}  // namespace cagvt::metasim
