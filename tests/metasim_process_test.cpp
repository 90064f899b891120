// Coroutine process semantics: delays, spawn ordering, subroutine calls,
// exception propagation, frame cleanup.
#include "metasim/process.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace cagvt::metasim {
namespace {

Process record_times(Engine& engine, std::vector<SimTime>& out, int steps, SimTime step) {
  for (int i = 0; i < steps; ++i) {
    co_await delay(step);
    out.push_back(engine.now());
  }
}

TEST(ProcessTest, DelayAdvancesSimTime) {
  Engine engine;
  std::vector<SimTime> times;
  spawn(engine, record_times(engine, times, 3, 100));
  engine.run();
  EXPECT_EQ(times, (std::vector<SimTime>{100, 200, 300}));
}

TEST(ProcessTest, SpawnStartDelayOffsetsTimeline) {
  Engine engine;
  std::vector<SimTime> times;
  spawn(engine, record_times(engine, times, 2, 10), /*start_delay=*/1000);
  engine.run();
  EXPECT_EQ(times, (std::vector<SimTime>{1010, 1020}));
}

TEST(ProcessTest, TwoProcessesInterleaveDeterministically) {
  Engine engine;
  std::vector<std::pair<int, SimTime>> log;
  auto actor = [&](int id, SimTime step) -> Process {
    for (int i = 0; i < 3; ++i) {
      co_await delay(step);
      log.emplace_back(id, engine.now());
    }
  };
  spawn(engine, actor(1, 10));
  spawn(engine, actor(2, 15));
  engine.run();
  // At t=30 both are due. Process 2's resume was scheduled first (at t=15
  // vs t=20), but ties go by owner, and process 1 was spawned first, so it
  // runs first: when a resume was scheduled never reorders a tie.
  const std::vector<std::pair<int, SimTime>> expected{
      {1, 10}, {2, 15}, {1, 20}, {1, 30}, {2, 30}, {2, 45}};
  EXPECT_EQ(log, expected);
}

Process leaf(Engine& engine, std::vector<SimTime>& out) {
  co_await delay(5);
  out.push_back(engine.now());
}

Process caller(Engine& engine, std::vector<SimTime>& out) {
  co_await delay(1);
  co_await leaf(engine, out);  // subroutine: runs on this thread's timeline
  co_await leaf(engine, out);
  out.push_back(engine.now());
}

TEST(ProcessTest, SubroutineRunsInline) {
  Engine engine;
  std::vector<SimTime> times;
  spawn(engine, caller(engine, times));
  engine.run();
  EXPECT_EQ(times, (std::vector<SimTime>{6, 11, 11}));
}

Process nested_thrower() {
  co_await yield();
  throw std::runtime_error("inner failure");
}

Process outer_catcher(bool& caught) {
  try {
    co_await nested_thrower();
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(ProcessTest, SubroutineExceptionPropagatesToParent) {
  Engine engine;
  bool caught = false;
  spawn(engine, outer_catcher(caught));
  engine.run();
  EXPECT_TRUE(caught);
}

Process root_thrower() {
  co_await yield();
  throw std::logic_error("root failure");
}

TEST(ProcessTest, RootExceptionEscapesFromRun) {
  Engine engine;
  spawn(engine, root_thrower());
  EXPECT_THROW(engine.run(), std::logic_error);
}

struct DtorCounter {
  int* count;
  explicit DtorCounter(int* c) : count(c) {}
  ~DtorCounter() { ++*count; }
  DtorCounter(const DtorCounter&) = delete;
  DtorCounter& operator=(const DtorCounter&) = delete;
};

Process parked_forever(int* dtor_count) {
  DtorCounter guard(dtor_count);
  co_await delay(kTimeNever / 2);  // never reached within the test window
}

TEST(ProcessTest, SuspendedFramesAreDestroyedAtEngineTeardown) {
  int dtor_count = 0;
  {
    Engine engine;
    spawn(engine, parked_forever(&dtor_count));
    engine.run(100);  // process still parked
    EXPECT_EQ(dtor_count, 0);
  }
  EXPECT_EQ(dtor_count, 1);  // frame (and its locals) destroyed with engine
}

TEST(ProcessTest, YieldRunsBehindAlreadyScheduledWork) {
  // The yielder's owner already has a callback queued at t=0 when it
  // yields, so that runs first; a later owner's entry at t=0 runs after.
  Engine engine;
  std::vector<int> order;
  auto yielder = [&]() -> Process {
    order.push_back(1);
    co_await yield();
    order.push_back(3);
  };
  const std::uint32_t owner = engine.add_owner();
  const std::uint32_t later = engine.add_owner();
  engine.call_at(0, later, [&] { order.push_back(4); });
  spawn(engine, yielder(), 0, owner);
  engine.call_at(0, owner, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace cagvt::metasim
