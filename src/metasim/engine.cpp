#include "metasim/engine.hpp"

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

SimTime Engine::run(SimTime until) {
  assert_owner();
  stopped_ = false;
  // Stop as soon as only daemon events remain: they are instrumentation,
  // and dispatching them would advance the clock past the last real work.
  while (live_count_ > 0 && !stopped_) {
    // Copy out before pop: the continuation may push new entries.
    const Entry entry = queue_.top();
    if (entry.when > until) break;
    queue_.pop();
    if (!entry.daemon) --live_count_;
    CAGVT_ASSERT(entry.when >= now_);
    now_ = entry.when;
    ++dispatched_;
    if (entry.handle) {
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
