// Coroutine processes: the simulated threads of the virtual cluster.
//
// A `Process` is a C++20 coroutine that models one hardware thread (or any
// other active entity). Simulated work is expressed by awaiting timed
// primitives:
//
//   Process worker(Ctx& ctx) {
//     co_await delay(microseconds(1));     // burn simulated CPU time
//     co_await ctx.queue_lock.lock();      // contended shared-memory lock
//     ...
//     co_await ctx.node_barrier.arrive();  // pthread-style barrier
//     co_await subroutine(ctx);            // nested call, same thread
//   }
//
// Processes are either *spawned* as root actors (ownership transfers to the
// Engine, which destroys still-suspended frames at teardown) or awaited as
// subroutines (the child runs on the awaiting thread's timeline and the
// parent resumes when it finishes; exceptions propagate to the parent).
//
// A subroutine call allocates a frame, and the cluster makes several per
// message (send, enqueue, outcome handling). Frames therefore come from a
// thread-local free list per size class (FramePool, frame_pool.hpp), not
// from malloc.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

#include "metasim/engine.hpp"
#include "metasim/frame_pool.hpp"
#include "metasim/time.hpp"
#include "util/assert.hpp"

namespace cagvt::metasim {

class [[nodiscard]] Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    Engine* engine = nullptr;
    /// The tie-break owner of this thread's resumptions (Engine::add_owner),
    /// fixed at spawn; a subroutine runs under its caller's.
    std::uint32_t owner = 0;
    std::coroutine_handle<> continuation;  // parent frame, for subroutine calls
    std::exception_ptr exception;
    bool detached = false;

    /// Frames come from the thread's FramePool (frame_pool.hpp).
    static void* operator new(std::size_t size) { return FramePool::allocate(size); }
    static void operator delete(void* frame, std::size_t size) noexcept {
      FramePool::deallocate(frame, size);
    }

    Process get_return_object() { return Process{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        auto& p = h.promise();
        // Subroutine: transfer control back to the awaiting parent.
        // Root actor: park at the final suspend point; the Engine destroys
        // the frame at teardown.
        if (p.continuation) return p.continuation;
        return std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}

    void unhandled_exception() {
      if (continuation) {
        exception = std::current_exception();
      } else {
        CAGVT_CHECK_MSG(engine != nullptr, "exception in unstarted process");
        engine->set_pending_exception(std::current_exception());
      }
    }
  };

  Process(Process&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process& operator=(Process&&) = delete;
  ~Process() {
    if (handle_) handle_.destroy();
  }

  /// Awaiting a Process runs it as a subroutine of the awaiting process.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle child;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle parent) noexcept {
        child.promise().engine = parent.promise().engine;
        child.promise().owner = parent.promise().owner;
        child.promise().continuation = parent;
        return child;  // symmetric transfer: start the child immediately
      }
      void await_resume() const {
        if (child.promise().exception) std::rethrow_exception(child.promise().exception);
      }
    };
    return Awaiter{handle_};
  }

 private:
  friend void spawn(Engine& engine, Process process, SimTime start_delay, std::uint32_t owner);
  explicit Process(Handle handle) : handle_(handle) {}
  Handle release() { return std::exchange(handle_, {}); }

  Handle handle_;
};

/// Resume `handle` at `when` as an entry of its process's owner: the call
/// every awaitable makes for the waiter it wakes.
inline void resume_at(Engine& engine, SimTime when, Process::Handle handle) {
  engine.resume_at(when, handle, handle.promise().owner);
}

/// Start `process` as a root actor at now() + start_delay under tie-break
/// owner `owner` (Engine::add_owner). The Engine takes ownership of the
/// coroutine frame.
inline void spawn(Engine& engine, Process process, SimTime start_delay, std::uint32_t owner) {
  Process::Handle handle = process.release();
  handle.promise().engine = &engine;
  handle.promise().owner = owner;
  handle.promise().detached = true;
  engine.adopt_frame(handle);
  resume_at(engine, engine.now() + start_delay, handle);
}

/// The same under a new owner of its own.
inline void spawn(Engine& engine, Process process, SimTime start_delay = 0) {
  spawn(engine, std::move(process), start_delay, engine.add_owner());
}

/// co_await delay(ns): burn simulated time on this thread. A zero delay
/// still yields: continuations at the same timestamp that order before
/// this thread's owner run first, and this owner's entries already queued
/// there too.
struct DelayAwaiter {
  SimTime amount;
  bool await_ready() const noexcept { return false; }
  void await_suspend(Process::Handle h) const {
    resume_at(*h.promise().engine, h.promise().engine->now() + amount, h);
  }
  void await_resume() const noexcept {}
};

inline DelayAwaiter delay(SimTime amount) {
  CAGVT_ASSERT(amount >= 0);
  return DelayAwaiter{amount};
}

/// co_await idle_poll(poller): end a pass that found nothing to do, like
/// delay(period) with the poller's registered period, but as an idle poll
/// (Engine::poll_at): later passes that would find nothing either are
/// skipped without resuming this coroutine.
struct IdlePollAwaiter {
  std::uint32_t poller;
  bool await_ready() const noexcept { return false; }
  void await_suspend(Process::Handle h) const {
    Engine* engine = h.promise().engine;
    engine->poll_at(engine->now() + engine->poll_period(poller), h, poller);
  }
  void await_resume() const noexcept {}
};

inline IdlePollAwaiter idle_poll(std::uint32_t poller) { return IdlePollAwaiter{poller}; }

/// co_await yield(): reschedule at the current time, behind this owner's
/// already-queued continuations and ahead of later owners'.
///
/// These co_await points are the cooperative backend's ONLY interleaving
/// mechanism: between two of them a simulated thread runs exclusively, so
/// code on this substrate may treat that span as atomic. The real-thread
/// backend (src/exec) has no such spans — workers run preemptively and
/// synchronize through mutex-guarded inboxes plus an atomic GVT fence
/// (exec/gvt_fence.hpp) instead of yield-point hand-offs. Anything that
/// relies on yield-point atomicity must therefore stay out of code shared
/// with the thread backend (the pdes kernel is shared and single-owner;
/// the core worker loops are cooperative-only).
inline DelayAwaiter yield() { return DelayAwaiter{0}; }

}  // namespace cagvt::metasim
