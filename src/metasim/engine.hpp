// Deterministic discrete-event engine for the virtual cluster.
//
// The engine dispatches timed continuations in (time, owner, owner-local
// sequence) order, so a given program produces bit-identical schedules on
// every run. Continuations are either coroutine resumptions (simulated
// threads — see process.hpp) or plain callbacks (e.g. network message
// delivery).
//
// Owners break ties. Every entry belongs to an owner: a resumption to the
// process it wakes (a process gets its owner id at spawn), a callback to
// the owner its scheduler names — in the cluster, the node or link it
// belongs to — or, when it names none, to the owner of the dispatch that
// schedules it. Equal-time entries run in owner order, and one owner's
// entries in the order they were scheduled. So the moment an entry was
// scheduled moves it only among its own owner's entries at that instant:
// a process has one pending resumption at a time, and delaying when it is
// scheduled reorders nothing else. Owner ids are dense, handed out by
// add_owner in call order (the cluster allocates them node-major).
//
// A third kind, the idle poll (poll_at), serves processes that spend most
// passes polling for work and finding none. It sits in the order exactly
// where the process's next resumption would, but on dispatch the engine
// first asks the poller (IdlePoller::pass_pending) whether that pass would
// do anything. If not, the poller sleeps: the engine credits the pass
// (IdlePoller::skip_passes) and queues nothing. Its passes stay on their
// grid, `period` apart from the skipped one, and are credited in bulk when
// the next poll is dispatched. A write to state the poller's pass reads
// calls wake(poller), which queues the poll at the first of its grid
// passes still ahead of the writing dispatch (one at this instant only if
// no later owner has run here yet): the first pass that would have seen
// the write. A pass the poller's own credits make pending
// (IdlePoller::passes_to_due) is queued when the poller falls asleep. A
// sleeping poller keeps run() going like the polls it stands for, up to
// `until`. DESIGN §14 "Idle polls" has the exactness argument.
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
#include <limits>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "metasim/time.hpp"
#include "util/assert.hpp"

namespace cagvt::metasim {

/// The process behind idle polls (Engine::poll_at), seen from the engine.
class IdlePoller {
 public:
  /// Would the pass dispatched now do anything besides re-arming its poll?
  /// A wrong `true` only costs a resumption; a wrong `false` skips real
  /// work, so an answer must mirror the pass step by step.
  virtual bool pass_pending() = 0;
  /// The engine skipped `passes` (>= 1) passes in a row: apply their own
  /// bookkeeping, as that many skipped passes would have.
  virtual void skip_passes(std::uint64_t passes) = 0;
  /// Asked as the poller falls asleep, its skipped pass credited: in how
  /// many passes (1 = the next) would a guard that reads its own credits
  /// hold, if nothing wakes it first? 0: never.
  virtual std::uint64_t passes_to_due() const { return 0; }

 protected:
  ~IdlePoller() = default;
};

/// What the engine did on the host, for runs to report: deterministic, so
/// a change to it is exact (unlike host time).
struct HostWork {
  std::uint64_t dispatches = 0;       // entries dispatched, polls included
  std::uint64_t polls_resumed = 0;    // polls that resumed their process
  std::uint64_t polls_slept = 0;      // polls that skipped their pass and slept
  std::uint64_t wakes = 0;            // wake() calls that queued a poll
  std::uint64_t passes_credited = 0;  // skipped passes credited in all
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated wall-clock time.
  SimTime now() const { return now_; }

  /// A new tie-break owner: the next dense id. Owner 0 exists from the
  /// start; it owns what is scheduled outside any dispatch.
  std::uint32_t add_owner();
  /// The owner of the entry being dispatched (0 outside run()).
  std::uint32_t current_owner() const { return current_owner_; }

  /// Schedule `fn` to run at absolute time `when` (>= now) as an entry of
  /// `owner`. Equal times dispatch in owner order, and one owner's entries
  /// in scheduling order.
  void call_at(SimTime when, std::uint32_t owner, std::function<void()> fn);
  /// The same, owned by the dispatch that schedules it (current_owner).
  void call_at(SimTime when, std::function<void()> fn) {
    call_at(when, current_owner_, std::move(fn));
  }
  void call_after(SimTime delay, std::function<void()> fn) { call_at(now_ + delay, std::move(fn)); }

  /// Daemon variant: like call_at, but the event does not keep the engine
  /// alive — run() returns (without advancing the clock) once only daemon
  /// events remain. Background instrumentation (e.g. fault-window edges)
  /// uses this so a run's duration is decided solely by real work.
  void call_at_daemon(SimTime when, std::uint32_t owner, std::function<void()> fn);
  void call_at_daemon(SimTime when, std::function<void()> fn) {
    call_at_daemon(when, current_owner_, std::move(fn));
  }

  /// Schedule a coroutine resumption of `owner`'s process (used by
  /// awaitables; see metasim::resume_at in process.hpp).
  void resume_at(SimTime when, std::coroutine_handle<> handle, std::uint32_t owner);

  /// Register an idle poller whose passes are `period` (> 0) apart, as
  /// entries of `owner`, its process's owner; returns the id poll_at takes.
  std::uint32_t add_poller(IdlePoller& poller, SimTime period, std::uint32_t owner);
  SimTime poll_period(std::uint32_t poller) const { return pollers_[poller].period; }

  /// Schedule `handle`'s next pass as an idle poll of `poller` at `when`.
  /// Dispatch resumes it only once the poller reports the pass pending;
  /// until then the poller sleeps between wakes.
  void poll_at(SimTime when, std::coroutine_handle<> handle, std::uint32_t poller);

  /// State a guard of `poller`'s pass reads has changed in the dispatch
  /// running now: if it sleeps, queue its first pass after this dispatch.
  void wake(std::uint32_t poller);
  /// wake() every poller.
  void wake_all();

  /// Run until the event queue drains, `stop()` is called, or simulated
  /// time would exceed `until`. Returns the time of the last dispatched
  /// event. Rethrows any exception escaping a coroutine or callback.
  SimTime run(SimTime until = kTimeNever);

  /// Halt the dispatch loop after the current continuation returns.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  bool empty() const;
  std::uint64_t dispatched() const { return work_.dispatches; }
  const HostWork& host_work() const { return work_; }

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
  /// An entry's tie-break key: its owner above its owner-local sequence.
  static constexpr int kSeqBits = 40;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

  enum class Kind : std::uint8_t { kResume, kCallback, kPoll };

  /// One queued continuation, 32 bytes and trivially copyable. A coroutine
  /// resumption (every delay, barrier release and lock hand-off) carries
  /// its frame address; a callback carries its index in callbacks_; an idle
  /// poll carries its poller id and the ticket that keeps it current.
  struct Entry {
    SimTime when;
    std::uint64_t key;    // owner << kSeqBits | owner-local sequence
    std::uint64_t word;   // kResume: frame address; kPoll: ticket
    std::uint32_t index;  // kCallback: callbacks_ slot; kPoll: pollers_ id
    Kind kind;
    bool daemon;
  };
  static_assert(sizeof(Entry) == 32 && std::is_trivially_copyable_v<Entry>);
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.key > b.key;
    }
  };
  /// The next key of `owner`.
  std::uint64_t next_key(std::uint32_t owner) {
    CAGVT_ASSERT(owner < owner_seq_.size() && owner_seq_[owner] <= kSeqMask);
    return (std::uint64_t{owner} << kSeqBits) | owner_seq_[owner]++;
  }

  /// A poller's grid and sleep state. While its process waits in poll_at
  /// (`polling`), it is either asleep or has exactly one current poll
  /// queued, the entry whose ticket matches; a wake that moves the poll
  /// earlier bumps the ticket, and dispatch drops the stale entry.
  struct Poller {
    IdlePoller* poller = nullptr;
    SimTime period = 0;
    std::uint32_t owner = 0;  // its process's owner
    bool polling = false;
    std::coroutine_handle<> handle;  // the waiting process
    SimTime next_at = 0;             // first pass not yet credited
    SimTime queued_at = kTimeNever;  // its current poll, or kTimeNever asleep
    std::uint64_t ticket = 0;
  };

  void push_callback(SimTime when, std::uint32_t owner, std::function<void()> fn, bool daemon);
  /// Make `poller`'s current poll the one at `when`.
  void queue_poll(std::uint32_t poller, SimTime when);
  /// Dispatch a current poll: credit the passes slept since next_at, then
  /// resume or skip the one at now.
  void dispatch_poll(std::uint32_t id);
  /// Credit `passes` skipped passes of `poller`.
  void credit(Poller& poller, std::uint64_t passes);
  /// No entry runs at or before `until`: the sleepers' polls up to it
  /// would all skip. Credit them and move the clock to the last one.
  void settle(SimTime until);
  bool stale(const Entry& entry) const {
    return entry.kind == Kind::kPoll && pollers_[entry.index].ticket != entry.word;
  }

  std::thread::id owner_ = std::this_thread::get_id();
  SimTime now_ = 0;
  /// Per owner, the next owner-local sequence number.
  std::vector<std::uint64_t> owner_seq_ = {0};
  std::uint32_t current_owner_ = 0;
  /// The largest owner dispatched at now_ so far (wake's test).
  std::uint32_t instant_last_owner_ = 0;
  HostWork work_;
  /// Queued non-daemon entries, counting a polling poller once however
  /// many of its entries are queued (stale ones count nothing).
  std::uint64_t live_count_ = 0;
  bool stopped_ = false;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Poller> pollers_;
  /// Slab of pending callbacks. A dispatched slot goes on free_callbacks_
  /// before its callback runs, so callbacks it schedules can reuse it;
  /// callbacks still pending at teardown are destroyed with the engine.
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_callbacks_;
  std::vector<std::coroutine_handle<>> frames_;
  std::exception_ptr pending_exception_;
};

}  // namespace cagvt::metasim
