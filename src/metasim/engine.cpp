#include "metasim/engine.hpp"

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

void Engine::push_callback(SimTime when, std::function<void()> fn, bool daemon) {
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
  queue_.push(Entry{when, seq_++, nullptr, slot, daemon});
  if (!daemon) ++live_count_;
}

void Engine::call_at(SimTime when, std::function<void()> fn) {
  push_callback(when, std::move(fn), /*daemon=*/false);
}

void Engine::call_at_daemon(SimTime when, std::function<void()> fn) {
  push_callback(when, std::move(fn), /*daemon=*/true);
}

void Engine::resume_at(SimTime when, std::coroutine_handle<> handle) {
  assert_owner();
  CAGVT_CHECK_MSG(when >= now_, "cannot schedule into the simulated past");
  CAGVT_ASSERT(handle);
  queue_.push(Entry{when, seq_++, handle, 0, /*daemon=*/false});
  ++live_count_;
}

std::uint32_t Engine::add_poller(IdlePoller& owner, SimTime period) {
  assert_owner();
  CAGVT_CHECK_MSG(period > 0, "an idle poll needs a positive period");
  std::uint32_t lane = 0;
  while (lane < lanes_.size() && lanes_[lane].period != period) ++lane;
  if (lane == lanes_.size()) lanes_.push_back(Lane{period, {}});
  pollers_.push_back(Poller{&owner, lane});
  return static_cast<std::uint32_t>(pollers_.size() - 1);
}

void Engine::poll_at(SimTime when, std::coroutine_handle<> handle, std::uint32_t poller) {
  assert_owner();
  CAGVT_CHECK_MSG(when >= now_, "cannot schedule into the simulated past");
  CAGVT_ASSERT(handle && poller < pollers_.size());
  push_poll(when, handle, poller);
}

void Engine::push_poll(SimTime when, std::coroutine_handle<> handle, std::uint32_t poller) {
  const Entry entry{when, seq_++, handle, poller, /*daemon=*/false, /*poll=*/true};
  // The new entry has the largest seq so far, so it keeps the lane sorted
  // unless it lands before the lane's back; such a push goes to the heap.
  Lane& lane = lanes_[pollers_[poller].lane];
  if (lane.empty() || lane.items.back().when <= when) {
    lane.items.push_back(entry);
  } else {
    queue_.push(entry);
  }
  ++live_count_;
}

void Engine::Lane::pop() {
  if (++head == items.size()) {
    items.clear();
    head = 0;
  } else if (head >= 64 && 2 * head >= items.size()) {
    items.erase(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

bool Engine::empty() const {
  if (!queue_.empty()) return false;
  for (const Lane& lane : lanes_)
    if (!lane.empty()) return false;
  return true;
}

SimTime Engine::run(SimTime until) {
  assert_owner();
  stopped_ = false;
  // Stop as soon as only daemon events remain: they are instrumentation,
  // and dispatching them would advance the clock past the last real work.
  while (live_count_ > 0 && !stopped_) {
    // The earliest of the heap top and the lane fronts. Live entries
    // remain, so at least one source is non-empty.
    Lane* source = nullptr;
    const Entry* next = queue_.empty() ? nullptr : &queue_.top();
    for (Lane& lane : lanes_)
      if (!lane.empty() && (next == nullptr || earlier(lane.front(), *next))) {
        next = &lane.front();
        source = &lane;
      }
    // Copy out before pop: the continuation may push new entries.
    const Entry entry = *next;
    if (entry.when > until) break;
    if (source != nullptr) {
      source->pop();
    } else {
      queue_.pop();
    }
    if (!entry.daemon) --live_count_;
    CAGVT_ASSERT(entry.when >= now_);
    now_ = entry.when;
    ++dispatched_;
    if (entry.poll) {
      const Poller poller = pollers_[entry.callback];  // the owner may add pollers
      if (poller.owner->pass_pending()) {
        entry.handle.resume();
      } else {
        poller.owner->skip_pass();
        ++skipped_;
        push_poll(now_ + lanes_[poller.lane].period, entry.handle, entry.callback);
      }
    } else if (entry.handle) {
      entry.handle.resume();
    } else {
      // Move the callback out and free its slot first: it may schedule
      // callbacks of its own, which reuse the slot or grow the slab.
      const std::function<void()> fn = std::exchange(callbacks_[entry.callback], nullptr);
      free_callbacks_.push_back(entry.callback);
      fn();
    }
    if (pending_exception_) {
      std::exception_ptr e = pending_exception_;
      pending_exception_ = nullptr;
      std::rethrow_exception(e);
    }
  }
  return now_;
}

}  // namespace cagvt::metasim
