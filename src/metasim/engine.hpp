// Deterministic discrete-event engine for the virtual cluster.
//
// The engine dispatches timed continuations in (time, sequence) order, so a
// given program produces bit-identical schedules on every run. Continuations
// are either coroutine resumptions (simulated threads — see process.hpp) or
// plain callbacks (e.g. network message delivery).
//
// A third kind, the idle poll (poll_at), serves processes that spend most
// passes polling for work and finding none. It sits in the order exactly
// where the process's next resumption would, but on dispatch the engine
// first asks the owner (IdlePoller::pass_pending) whether that pass would
// do anything. If not, it credits the pass (IdlePoller::skip_pass) and
// re-arms the poll one period later with the next sequence number — the
// same single entry the pass itself would have scheduled — without
// resuming the coroutine. Every (time, sequence) pair, and so every tie,
// is what the resumed pass would have produced. Polls of one period are
// pushed in time order, so each period keeps its own sorted FIFO lane
// beside the heap, and dispatch takes the earliest of the heap top and the
// lane fronts. DESIGN §14 "Idle polls" has the exactness argument.
//
// Concurrency contract: an Engine and everything scheduled on it belong to
// exactly ONE OS thread — the one that constructed it. "Parallelism" on
// this substrate is cooperative: simulated threads interleave at co_await
// yield points, and the GVT algorithms cut consistent states by counting
// those cooperative hand-offs. The real-thread execution backend
// (src/exec) deliberately does NOT reuse this engine: it replaces yield
// points with an atomic GVT fence over std::barrier, and the differential
// tests (tests/exec_differential_test.cpp) check the two executions commit
// identical results. The owner-thread assertions below turn any accidental
// cross-thread use of the cooperative engine into an immediate failure
// instead of a data race.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "metasim/time.hpp"
#include "util/assert.hpp"

namespace cagvt::metasim {

/// Owner of idle polls (Engine::poll_at): the process they resume, seen
/// from the engine.
class IdlePoller {
 public:
  /// Would the pass dispatched now do anything besides re-arming its poll?
  /// A wrong `true` only costs a resumption; a wrong `false` skips real
  /// work, so an answer must mirror the pass step by step.
  virtual bool pass_pending() = 0;
  /// The engine skipped one pass: apply the pass's own bookkeeping.
  virtual void skip_pass() = 0;

 protected:
  ~IdlePoller() = default;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated wall-clock time.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when` (>= now). Dispatch order
  /// between equal times is FIFO by scheduling order.
  void call_at(SimTime when, std::function<void()> fn);
  void call_after(SimTime delay, std::function<void()> fn) { call_at(now_ + delay, std::move(fn)); }

  /// Daemon variant: like call_at, but the event does not keep the engine
  /// alive — run() returns (without advancing the clock) once only daemon
  /// events remain. Background instrumentation (e.g. fault-window edges)
  /// uses this so a run's duration is decided solely by real work.
  void call_at_daemon(SimTime when, std::function<void()> fn);

  /// Schedule a coroutine resumption (used by awaitables).
  void resume_at(SimTime when, std::coroutine_handle<> handle);

  /// Register an idle-poll owner whose polls re-arm every `period` (> 0);
  /// returns the id poll_at takes. Owners with one period share a lane.
  std::uint32_t add_poller(IdlePoller& owner, SimTime period);
  SimTime poll_period(std::uint32_t poller) const {
    return lanes_[pollers_[poller].lane].period;
  }

  /// Schedule `handle`'s next pass as an idle poll of `poller` at `when`.
  /// Dispatch resumes it only once the owner reports the pass pending;
  /// until then each dispatch skips one pass and re-arms at +period.
  void poll_at(SimTime when, std::coroutine_handle<> handle, std::uint32_t poller);

  /// Run until the event queue drains, `stop()` is called, or simulated
  /// time would exceed `until`. Returns the time of the last dispatched
  /// event. Rethrows any exception escaping a coroutine or callback.
  SimTime run(SimTime until = kTimeNever);

  /// Halt the dispatch loop after the current continuation returns.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  bool empty() const;
  std::uint64_t dispatched() const { return dispatched_; }
  /// Idle-poll dispatches that skipped their pass (counted in dispatched()).
  std::uint64_t skipped() const { return skipped_; }

  /// Internal: processes register their root handles so frames suspended at
  /// teardown are destroyed (see process.hpp).
  void adopt_frame(std::coroutine_handle<> handle) { frames_.push_back(handle); }

  /// Internal: coroutine promises park escaped exceptions here; run()
  /// rethrows them.
  void set_pending_exception(std::exception_ptr e) { pending_exception_ = e; }

  /// Debug-build guard for the single-thread contract above: scheduling
  /// into or running an engine from a thread other than its constructor's
  /// is a bug (use the src/exec thread backend for real parallelism).
  void assert_owner() const { CAGVT_ASSERT(std::this_thread::get_id() == owner_); }

 private:
  /// One queued continuation, 32 bytes and trivially copyable. A coroutine
  /// resumption (every delay, barrier release and lock hand-off) carries
  /// its handle; a callback carries its index in callbacks_; an idle poll
  /// carries its handle and its poller id in `callback`.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::coroutine_handle<> handle;  // null for a callback
    std::uint32_t callback = 0;      // callbacks_ slot, or pollers_ id of a poll
    bool daemon = false;
    bool poll = false;
  };
  static_assert(sizeof(Entry) == 32 && std::is_trivially_copyable_v<Entry>);
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const { return earlier(b, a); }
  };

  struct Poller {
    IdlePoller* owner;
    std::uint32_t lane;  // lanes_ index; the lane's period is the poller's
  };
  /// FIFO of idle polls sorted by (when, seq): a vector consumed from
  /// `head`, compacted once the consumed prefix outweighs the rest.
  struct Lane {
    SimTime period;
    std::vector<Entry> items;
    std::size_t head = 0;
    bool empty() const { return head == items.size(); }
    const Entry& front() const { return items[head]; }
    void pop();
  };

  void push_callback(SimTime when, std::function<void()> fn, bool daemon);
  void push_poll(SimTime when, std::coroutine_handle<> handle, std::uint32_t poller);

  std::thread::id owner_ = std::this_thread::get_id();
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t live_count_ = 0;  // queued non-daemon events
  bool stopped_ = false;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Poller> pollers_;
  std::vector<Lane> lanes_;
  /// Slab of pending callbacks. A dispatched slot goes on free_callbacks_
  /// before its callback runs, so callbacks it schedules can reuse it;
  /// callbacks still pending at teardown are destroyed with the engine.
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_callbacks_;
  std::vector<std::coroutine_handle<>> frames_;
  std::exception_ptr pending_exception_;
};

}  // namespace cagvt::metasim
