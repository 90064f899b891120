// Barrier / ReduceBarrier / Mutex / Trigger timing and ordering semantics.
#include "metasim/sync.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace cagvt::metasim {
namespace {

TEST(BarrierTest, ReleasesAllAtMaxArrivalPlusCost) {
  Engine engine;
  Barrier barrier(engine, 3, /*release_cost=*/7);
  std::vector<SimTime> released;
  auto party = [&](SimTime arrive_delay) -> Process {
    co_await delay(arrive_delay);
    co_await barrier.arrive();
    released.push_back(engine.now());
  };
  spawn(engine, party(10));
  spawn(engine, party(30));
  spawn(engine, party(20));
  engine.run();
  ASSERT_EQ(released.size(), 3u);
  for (SimTime t : released) EXPECT_EQ(t, 37);  // max(10,20,30) + 7
  EXPECT_EQ(barrier.generations(), 1u);
  // Block time: (37-10) + (37-20) + (37-30) = 27+17+7 = 51.
  EXPECT_EQ(barrier.total_block_time(), 51);
}

TEST(BarrierTest, ArrivalIndexIdentifiesLastArriver) {
  Engine engine;
  Barrier barrier(engine, 2);
  int late_index = -1, early_index = -1;
  auto party = [&](SimTime d, int& out) -> Process {
    co_await delay(d);
    out = co_await barrier.arrive();
  };
  spawn(engine, party(1, early_index));
  spawn(engine, party(2, late_index));
  engine.run();
  EXPECT_EQ(early_index, 0);
  EXPECT_EQ(late_index, 1);
}

TEST(BarrierTest, CyclicReuseAcrossGenerations) {
  Engine engine;
  Barrier barrier(engine, 2, 1);
  std::vector<SimTime> times;
  auto party = [&](SimTime step) -> Process {
    for (int round = 0; round < 3; ++round) {
      co_await delay(step);
      co_await barrier.arrive();
      times.push_back(engine.now());
    }
  };
  spawn(engine, party(5));
  spawn(engine, party(10));
  engine.run();
  // Rounds complete at max-arrival + 1 each: 11, 22, 33.
  EXPECT_EQ(times, (std::vector<SimTime>{11, 11, 22, 22, 33, 33}));
  EXPECT_EQ(barrier.generations(), 3u);
}

int64_t sum_op(int64_t a, int64_t b) { return a + b; }
int64_t min_op(int64_t a, int64_t b) { return a < b ? a : b; }

TEST(ReduceBarrierTest, SumAcrossParties) {
  Engine engine;
  ReduceBarrier<int64_t> rb(engine, 3, sum_op, 0);
  std::vector<int64_t> results;
  auto party = [&](int64_t value) -> Process {
    results.push_back(co_await rb.arrive(value));
  };
  spawn(engine, party(4));
  spawn(engine, party(-9));
  spawn(engine, party(5));
  engine.run();
  EXPECT_EQ(results, (std::vector<int64_t>{0, 0, 0}));
}

TEST(ReduceBarrierTest, MinResetsBetweenGenerations) {
  Engine engine;
  ReduceBarrier<int64_t> rb(engine, 2, min_op, std::numeric_limits<int64_t>::max());
  std::vector<int64_t> results;
  auto party = [&](int64_t first, int64_t second) -> Process {
    results.push_back(co_await rb.arrive(first));
    results.push_back(co_await rb.arrive(second));
  };
  spawn(engine, party(10, 3));
  spawn(engine, party(7, 8));
  engine.run();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], 7);
  EXPECT_EQ(results[1], 7);
  EXPECT_EQ(results[2], 3);
  EXPECT_EQ(results[3], 3);
}

TEST(MutexTest, UncontendedAcquirePaysAcquireCost) {
  Engine engine;
  Mutex mutex(engine, /*acquire_cost=*/5, /*handoff_cost=*/3);
  SimTime acquired_at = -1;
  auto locker = [&]() -> Process {
    co_await mutex.lock();
    acquired_at = engine.now();
    mutex.unlock();
  };
  spawn(engine, locker());
  engine.run();
  EXPECT_EQ(acquired_at, 5);
  EXPECT_EQ(mutex.acquisitions(), 1u);
  EXPECT_EQ(mutex.contended_acquisitions(), 0u);
}

TEST(MutexTest, ContendedWaitersAreServedFifoWithHandoffCost) {
  Engine engine;
  Mutex mutex(engine, 0, /*handoff_cost=*/2);
  std::vector<std::pair<int, SimTime>> acquired;
  auto locker = [&](int id, SimTime arrive, SimTime hold) -> Process {
    co_await delay(arrive);
    co_await mutex.lock();
    acquired.emplace_back(id, engine.now());
    co_await delay(hold);
    mutex.unlock();
  };
  spawn(engine, locker(1, 0, 100));
  spawn(engine, locker(2, 10, 50));
  spawn(engine, locker(3, 20, 50));
  engine.run();
  ASSERT_EQ(acquired.size(), 3u);
  EXPECT_EQ(acquired[0], (std::pair<int, SimTime>{1, 0}));
  EXPECT_EQ(acquired[1], (std::pair<int, SimTime>{2, 102}));   // 0+100 hold + 2 handoff
  EXPECT_EQ(acquired[2], (std::pair<int, SimTime>{3, 154}));   // 102+50 + 2
  EXPECT_EQ(mutex.contended_acquisitions(), 2u);
  // Wait time: waiter 2 waited 102-10 = 92; waiter 3 waited 154-20 = 134.
  EXPECT_EQ(mutex.total_wait_time(), 226);
}

TEST(MutexTest, GuardUnlocksAtScopeExit) {
  Engine engine;
  Mutex mutex(engine);
  SimTime second_acquired = -1;
  auto first = [&]() -> Process {
    {
      co_await mutex.lock();
      MutexGuard guard(mutex);
      co_await delay(10);
    }
    co_await delay(100);
  };
  auto second = [&]() -> Process {
    co_await delay(1);
    co_await mutex.lock();
    second_acquired = engine.now();
    mutex.unlock();
  };
  spawn(engine, first());
  spawn(engine, second());
  engine.run();
  EXPECT_EQ(second_acquired, 10);  // released by the guard, not 110
}

TEST(MutexDeathTest, UnlockWithoutHoldAborts) {
  Engine engine;
  Mutex mutex(engine);
  EXPECT_DEATH(mutex.unlock(), "not held");
}

TEST(MutexTest, LockThenRunsTheHoldAtTheGrantAndResumesOnce) {
  Engine engine;
  Mutex mutex(engine, /*acquire_cost=*/5, /*handoff_cost=*/3);
  std::vector<std::pair<SimTime, SimTime>> holds;  // (engine now, acquired_at)
  std::vector<SimTime> resumed;
  auto locker = [&](SimTime arrive, SimTime cost) -> Process {
    co_await delay(arrive);
    co_await mutex.lock_then([&, cost](SimTime acquired_at) {
      holds.emplace_back(engine.now(), acquired_at);
      return cost;
    });
    resumed.push_back(engine.now());
    mutex.unlock();
  };
  spawn(engine, locker(0, 100));
  spawn(engine, locker(10, 7));
  engine.run();
  // Free at 0: the hold runs at the lock call. Handed off by the unlock at
  // 105: the hold runs there, for the instant 108 it is granted at.
  EXPECT_EQ(holds, (std::vector<std::pair<SimTime, SimTime>>{{0, 5}, {105, 108}}));
  EXPECT_EQ(resumed, (std::vector<SimTime>{105, 115}));
  EXPECT_EQ(mutex.total_wait_time(), 98);
  // Two starts, two delays, one resumption per lock_then.
  EXPECT_EQ(engine.dispatched(), 6u);
}

/// One acquisition of a seeded mutex program: arrive `gap` after the
/// previous release, then hold the lock for `steps` (each priced at the
/// instant it starts).
struct Acquisition {
  SimTime gap;
  std::vector<SimTime> steps;
};

/// A step's cost when it starts at `t`: varies with t, so a step priced at
/// the wrong instant moves the schedule.
SimTime step_cost(SimTime step, SimTime t) { return step + (t % 7) * (step % 3); }

/// "<what> p<process>@<t>", built by appends (GCC 12 at -O3 can report a
/// false -Wrestrict inside std::string operator+ chains).
std::string record(const char* what, std::size_t process, SimTime t) {
  std::string text = what;
  text += " p";
  text += std::to_string(process);
  text += '@';
  text += std::to_string(t);
  return text;
}

struct MutexRun {
  std::vector<std::vector<SimTime>> acquired;  // per process, each grant instant
  std::vector<std::vector<SimTime>> released;  // per process, each unlock instant
  std::vector<std::string> log;                // every unlock and exit, in order
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  SimTime wait = 0;
  bool operator==(const MutexRun&) const = default;
};

/// Run `plan` (one acquisition list per process, plus an observer that
/// only ticks) with every hold written as lock() then delay() steps, or
/// folded into lock_then.
MutexRun run_mutex_plan(const std::vector<std::vector<Acquisition>>& plan, bool folded) {
  Engine engine;
  Mutex mutex(engine, /*acquire_cost=*/2, /*handoff_cost=*/3);
  MutexRun run;
  run.acquired.resize(plan.size());
  run.released.resize(plan.size());
  auto process = [&](std::size_t p) -> Process {
    for (const Acquisition& a : plan[p]) {
      co_await delay(a.gap);
      if (folded) {
        co_await mutex.lock_then([&](SimTime acquired_at) {
          run.acquired[p].push_back(acquired_at);
          SimTime at = acquired_at;
          for (const SimTime step : a.steps) at += step_cost(step, at);
          return at - acquired_at;
        });
      } else {
        co_await mutex.lock();
        run.acquired[p].push_back(engine.now());
        for (const SimTime step : a.steps) co_await delay(step_cost(step, engine.now()));
      }
      run.released[p].push_back(engine.now());
      run.log.push_back(record("unlock", p, engine.now()));
      mutex.unlock();
    }
    run.log.push_back(record("exit", p, engine.now()));
  };
  auto observer = [&]() -> Process {
    for (int i = 0; i < 40; ++i) {
      co_await delay(11);
      run.log.push_back(record(mutex.held() ? "observer, held" : "observer, free", 0,
                               engine.now()));
    }
  };
  for (std::size_t p = 0; p < plan.size(); ++p) spawn(engine, process(p));
  spawn(engine, observer());
  engine.run();
  run.acquisitions = mutex.acquisitions();
  run.contended = mutex.contended_acquisitions();
  run.wait = mutex.total_wait_time();
  return run;
}

TEST(MutexTest, FoldedHoldsScheduleLikeTheLoopsTheyReplace) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Xoshiro256StarStar rng(seed);
    std::vector<std::vector<Acquisition>> plan(3 + rng.next_below(4));
    for (auto& acquisitions : plan) {
      acquisitions.resize(2 + rng.next_below(6));
      for (Acquisition& a : acquisitions) {
        a.gap = static_cast<SimTime>(rng.next_below(20));
        a.steps.resize(rng.next_below(5));  // an empty hold is a plain lock
        for (SimTime& step : a.steps) step = static_cast<SimTime>(rng.next_below(12));
      }
    }
    const MutexRun loops = run_mutex_plan(plan, /*folded=*/false);
    const MutexRun folded = run_mutex_plan(plan, /*folded=*/true);
    EXPECT_EQ(folded.acquired, loops.acquired);
    EXPECT_EQ(folded.released, loops.released);
    EXPECT_EQ(folded.log, loops.log);
    EXPECT_EQ(folded.acquisitions, loops.acquisitions);
    EXPECT_EQ(folded.contended, loops.contended);
    EXPECT_EQ(folded.wait, loops.wait);
    EXPECT_GT(loops.contended, 0u);
  }
}

TEST(TriggerTest, WaitersResumeOnSet) {
  Engine engine;
  Trigger trigger(engine);
  std::vector<SimTime> woke;
  auto waiter = [&]() -> Process {
    co_await trigger.wait();
    woke.push_back(engine.now());
  };
  spawn(engine, waiter());
  spawn(engine, waiter());
  engine.call_at(25, [&] { trigger.set(); });
  engine.run();
  EXPECT_EQ(woke, (std::vector<SimTime>{25, 25}));
}

TEST(TriggerTest, SetThenWaitCompletesImmediately) {
  Engine engine;
  Trigger trigger(engine);
  trigger.set();
  SimTime woke = -1;
  auto waiter = [&]() -> Process {
    co_await delay(5);
    co_await trigger.wait();
    woke = engine.now();
  };
  spawn(engine, waiter());
  engine.run();
  EXPECT_EQ(woke, 5);
}

TEST(TriggerTest, ResetRearmsTheTrigger) {
  Engine engine;
  Trigger trigger(engine);
  trigger.set();
  trigger.reset();
  bool woke = false;
  auto waiter = [&]() -> Process {
    co_await trigger.wait();
    woke = true;
  };
  spawn(engine, waiter());
  engine.run(50);
  EXPECT_FALSE(woke);
  trigger.set();
  engine.run();
  EXPECT_TRUE(woke);
}

}  // namespace
}  // namespace cagvt::metasim
