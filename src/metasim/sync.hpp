// Timed synchronization primitives for simulated threads.
//
// These model the cost structure of their real counterparts on a many-core
// node:
//
//  * Barrier        — pthread_barrier_t: all parties block; release happens
//                     at max(arrival) + release_cost (fan-in/fan-out of the
//                     barrier tree).
//  * ReduceBarrier  — barrier + all-reduce, the PthreadBarrierSum /
//                     PthreadBarrierMin primitives of the paper's Alg. 1.
//  * Mutex          — contended shared-memory lock: FIFO handoff, a fixed
//                     acquire cost (CAS + fence) and a handoff cost (cache
//                     line bounce) per contended transfer. Wait time is the
//                     contention model — threads queue in simulated time
//                     exactly as they would on hardware. lock_then folds the
//                     work done under the lock into the acquisition: one
//                     resumption instead of one per step.
//  * Trigger        — level-triggered event for "wait until X" patterns.
//
// All primitives keep counters so experiments can report time lost to
// synchronization (the paper quotes, e.g., seconds spent in the Barrier GVT
// function).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "metasim/process.hpp"

namespace cagvt::metasim {

/// Cyclic barrier over a fixed number of parties.
class Barrier {
 public:
  /// `release_cost` is charged between the last arrival and the release of
  /// every waiter (all waiters resume at the same timestamp).
  Barrier(Engine& engine, int parties, SimTime release_cost = 0)
      : engine_(engine), parties_(parties), release_cost_(release_cost) {
    CAGVT_CHECK(parties >= 1);
    waiting_.reserve(static_cast<std::size_t>(parties));
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  struct [[nodiscard]] Awaiter {
    Barrier* barrier;
    Process::Handle handle{};
    SimTime arrived_at = 0;
    int arrival_index = -1;

    bool await_ready() const noexcept { return false; }
    void await_suspend(Process::Handle h) {
      handle = h;
      arrived_at = barrier->engine_.now();
      barrier->on_arrive(this);
    }
    /// Returns the 0-based arrival index within this generation (the last
    /// arriver gets parties-1), useful for "one thread does X" patterns.
    int await_resume() const noexcept { return arrival_index; }
  };

  /// co_await barrier.arrive() -> arrival index.
  Awaiter arrive() { return Awaiter{this}; }

  int parties() const { return parties_; }
  std::uint64_t generations() const { return generations_; }
  /// Sum over all waiters of (release time - arrival time): the total
  /// simulated thread-time lost blocking at this barrier.
  SimTime total_block_time() const { return total_block_time_; }

 private:
  void on_arrive(Awaiter* awaiter) {
    awaiter->arrival_index = static_cast<int>(waiting_.size());
    waiting_.push_back(awaiter);
    if (static_cast<int>(waiting_.size()) < parties_) return;
    const SimTime release_at = engine_.now() + release_cost_;
    for (Awaiter* w : waiting_) {
      total_block_time_ += release_at - w->arrived_at;
      resume_at(engine_, release_at, w->handle);
    }
    waiting_.clear();
    ++generations_;
  }

  Engine& engine_;
  int parties_;
  SimTime release_cost_;
  std::vector<Awaiter*> waiting_;
  std::uint64_t generations_ = 0;
  SimTime total_block_time_ = 0;
};

/// Barrier that additionally all-reduces a value contributed by each party.
/// This is the paper's PthreadBarrierSum / PthreadBarrierMin primitive.
template <typename T>
class ReduceBarrier {
 public:
  using Op = T (*)(T, T);

  ReduceBarrier(Engine& engine, int parties, Op op, T identity, SimTime release_cost = 0)
      : engine_(engine),
        parties_(parties),
        op_(op),
        identity_(identity),
        accumulator_(identity),
        release_cost_(release_cost) {
    CAGVT_CHECK(parties >= 1);
    waiting_.reserve(static_cast<std::size_t>(parties));
  }

  ReduceBarrier(const ReduceBarrier&) = delete;
  ReduceBarrier& operator=(const ReduceBarrier&) = delete;

  struct [[nodiscard]] Awaiter {
    ReduceBarrier* barrier;
    T contribution;
    T result{};
    Process::Handle handle{};
    SimTime arrived_at = 0;

    bool await_ready() const noexcept { return false; }
    void await_suspend(Process::Handle h) {
      handle = h;
      arrived_at = barrier->engine_.now();
      barrier->on_arrive(this);
    }
    /// Returns the reduction over all parties' contributions.
    T await_resume() const noexcept { return result; }
  };

  /// co_await rb.arrive(value) -> reduced value across all parties.
  Awaiter arrive(T value) { return Awaiter{this, value}; }

  std::uint64_t generations() const { return generations_; }
  SimTime total_block_time() const { return total_block_time_; }

 private:
  void on_arrive(Awaiter* awaiter) {
    accumulator_ = op_(accumulator_, awaiter->contribution);
    waiting_.push_back(awaiter);
    if (static_cast<int>(waiting_.size()) < parties_) return;
    const SimTime release_at = engine_.now() + release_cost_;
    const T final_value = accumulator_;
    for (Awaiter* w : waiting_) {
      w->result = final_value;
      total_block_time_ += release_at - w->arrived_at;
      resume_at(engine_, release_at, w->handle);
    }
    waiting_.clear();
    accumulator_ = identity_;
    ++generations_;
  }

  Engine& engine_;
  int parties_;
  Op op_;
  T identity_;
  T accumulator_;
  SimTime release_cost_;
  std::vector<Awaiter*> waiting_;
  std::uint64_t generations_ = 0;
  SimTime total_block_time_ = 0;
};

/// FIFO mutex with a hardware-flavoured cost model. Uncontended acquire
/// costs `acquire_cost` (CAS + fence); a contended handoff additionally
/// costs `handoff_cost` (cache-line transfer to the next waiter). Queueing
/// delay under contention emerges from the simulation itself.
///
/// lock_then(hold) folds the holder's first stretch of lock-held work into
/// the acquisition: `hold(acquired_at)` runs once, when the lock is granted
/// to this waiter (at the lock call when it is free, inside the releasing
/// unlock() on a handoff), does the work and returns its simulated cost;
/// the waiter then resumes once, at acquired_at + cost, still holding the
/// lock. That is one dispatch where `co_await lock(); co_await delay(...)`
/// loops take one per step. A hold may touch only state this lock guards,
/// and schedules nothing: it may run inside another thread's dispatch, and
/// before the instant it stands for (DESIGN §14 "Folded lock holds").
class Mutex {
 public:
  explicit Mutex(Engine& engine, SimTime acquire_cost = 0, SimTime handoff_cost = 0)
      : engine_(engine), acquire_cost_(acquire_cost), handoff_cost_(handoff_cost) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  struct [[nodiscard]] Awaiter {
    Mutex* mutex;
    /// lock_then's hold, type-erased; null for lock().
    SimTime (*hold)(Awaiter&, SimTime acquired_at) = nullptr;
    Process::Handle handle{};
    SimTime arrived_at = 0;

    bool await_ready() const noexcept { return false; }
    void await_suspend(Process::Handle h) {
      handle = h;
      arrived_at = mutex->engine_.now();
      mutex->on_lock(this);
    }
    void await_resume() const noexcept {}
  };

  template <typename Hold>
  struct [[nodiscard]] HoldAwaiter : Awaiter {
    HoldAwaiter(Mutex* m, Hold h) : Awaiter{m, &run}, fn(std::move(h)) {}
    static SimTime run(Awaiter& self, SimTime acquired_at) {
      return static_cast<HoldAwaiter&>(self).fn(acquired_at);
    }
    Hold fn;
  };

  /// co_await mutex.lock(); ... mutex.unlock();
  Awaiter lock() { return Awaiter{this}; }

  /// co_await mutex.lock_then([&](SimTime acquired_at) { ...; return cost; });
  /// ... mutex.unlock();
  template <typename Hold>
  HoldAwaiter<Hold> lock_then(Hold hold) {
    return HoldAwaiter<Hold>(this, std::move(hold));
  }

  void unlock() {
    CAGVT_CHECK_MSG(held_, "unlock of a mutex that is not held");
    if (waiters_.empty()) {
      held_ = false;
      return;
    }
    Awaiter* next = waiters_.front();
    waiters_.pop_front();
    const SimTime release_at = engine_.now() + handoff_cost_;
    total_wait_time_ += release_at - next->arrived_at;
    grant(*next, release_at);
  }

  bool held() const { return held_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contended_acquisitions() const { return contended_; }
  SimTime total_wait_time() const { return total_wait_time_; }

 private:
  void on_lock(Awaiter* awaiter) {
    ++acquisitions_;
    if (!held_) {
      held_ = true;
      grant(*awaiter, engine_.now() + acquire_cost_);
      return;
    }
    ++contended_;
    waiters_.push_back(awaiter);
  }

  /// The lock is `awaiter`'s from `acquired_at`: run its hold, if any, and
  /// resume it when the hold's work is done.
  void grant(Awaiter& awaiter, SimTime acquired_at) {
    const SimTime cost = awaiter.hold != nullptr ? awaiter.hold(awaiter, acquired_at) : 0;
    CAGVT_ASSERT(cost >= 0);
    resume_at(engine_, acquired_at + cost, awaiter.handle);
  }

  Engine& engine_;
  SimTime acquire_cost_;
  SimTime handoff_cost_;
  bool held_ = false;
  std::deque<Awaiter*> waiters_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
  SimTime total_wait_time_ = 0;
};

/// RAII guard for Mutex: co_await with a structured unlock.
///   { auto guard = co_await hold(mutex); ... }  // unlock at scope exit
class [[nodiscard]] MutexGuard {
 public:
  explicit MutexGuard(Mutex& mutex) : mutex_(&mutex) {}
  MutexGuard(MutexGuard&& other) noexcept : mutex_(std::exchange(other.mutex_, nullptr)) {}
  MutexGuard(const MutexGuard&) = delete;
  MutexGuard& operator=(const MutexGuard&) = delete;
  MutexGuard& operator=(MutexGuard&&) = delete;
  ~MutexGuard() {
    if (mutex_) mutex_->unlock();
  }

 private:
  Mutex* mutex_;
};

/// Level-triggered event: waiters block until set() is called; once set,
/// wait() completes immediately until reset().
class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(engine) {}

  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  struct [[nodiscard]] Awaiter {
    Trigger* trigger;
    bool await_ready() const noexcept { return trigger->set_; }
    void await_suspend(Process::Handle h) { trigger->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Awaiter wait() { return Awaiter{this}; }

  /// Fire the trigger: all current waiters resume at now(); subsequent
  /// wait() calls complete immediately until reset().
  void set() {
    set_ = true;
    for (auto handle : waiters_) resume_at(engine_, engine_.now(), handle);
    waiters_.clear();
  }

  void reset() { set_ = false; }

 private:
  Engine& engine_;
  bool set_ = false;
  std::vector<Process::Handle> waiters_;
};

}  // namespace cagvt::metasim
