// Engine dispatch order, time monotonicity, stop/run-until semantics.
#include "metasim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "metasim/process.hpp"

namespace cagvt::metasim {
namespace {

TEST(EngineTest, DispatchesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.call_at(30, [&] { order.push_back(3); });
  engine.call_at(10, [&] { order.push_back(1); });
  engine.call_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
  EXPECT_EQ(engine.dispatched(), 3u);
}

TEST(EngineTest, EqualTimesDispatchFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) engine.call_at(5, [&order, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, CallbacksMayScheduleMore) {
  Engine engine;
  std::vector<SimTime> times;
  std::function<void()> reschedule = [&] {
    times.push_back(engine.now());
    if (times.size() < 5) engine.call_after(7, reschedule);
  };
  engine.call_at(0, reschedule);
  engine.run();
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 0; i < times.size(); ++i)
    EXPECT_EQ(times[i], static_cast<SimTime>(7 * i));
}

TEST(EngineTest, RunUntilStopsBeforeLaterEvents) {
  Engine engine;
  int ran = 0;
  engine.call_at(10, [&] { ++ran; });
  engine.call_at(100, [&] { ++ran; });
  engine.run(50);
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(engine.empty());
  engine.run();
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, StopHaltsDispatch) {
  Engine engine;
  int ran = 0;
  engine.call_at(1, [&] {
    ++ran;
    engine.stop();
  });
  engine.call_at(2, [&] { ++ran; });
  engine.run();
  EXPECT_EQ(ran, 1);
  engine.run();  // resumes from where it stopped
  EXPECT_EQ(ran, 2);
}

TEST(EngineTest, CallAfterUsesCurrentTime) {
  Engine engine;
  SimTime observed = -1;
  engine.call_at(40, [&] { engine.call_after(2, [&] { observed = engine.now(); }); });
  engine.run();
  EXPECT_EQ(observed, 42);
}

TEST(EngineTest, ExceptionFromCallbackPropagates) {
  Engine engine;
  engine.call_at(1, [&] {
    engine.set_pending_exception(std::make_exception_ptr(std::runtime_error("boom")));
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

Process record(std::vector<std::string>* order, std::string name) {
  order->push_back(std::move(name));
  co_return;
}

TEST(EngineTest, EqualTimeEntriesOfEveryKindDispatchInSchedulingOrder) {
  // Coroutine resumptions and callbacks (live or daemon) share one
  // (time, sequence) order: kind never reorders equal-time entries.
  Engine engine;
  std::vector<std::string> order;
  engine.call_at(5, [&] { order.push_back("call-0"); });
  spawn(engine, record(&order, "resume-1"), 5);  // resume_at(5, ...)
  engine.call_at_daemon(5, [&] { order.push_back("daemon-2"); });
  engine.call_at(5, [&] { order.push_back("call-3"); });
  spawn(engine, record(&order, "resume-4"), 5);
  engine.call_at(4, [&] { order.push_back("early"); });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "call-0", "resume-1", "daemon-2",
                                             "call-3", "resume-4"}));
  EXPECT_EQ(engine.dispatched(), 6u);
}

TEST(EngineTest, CallbacksSchedulingCallbacksReuseSlotsInOrder) {
  // Each dispatched callback frees its slab slot before it runs, so the
  // callbacks it schedules reuse slots while older ones are still pending.
  // Order must stay (time, scheduling order) throughout.
  Engine engine;
  std::vector<std::string> order;
  struct Fan {
    Engine* engine;
    std::vector<std::string>* order;
    void operator()(const std::string& name, int depth) const {
      order->push_back(name);
      if (depth == 0) return;
      const Fan self = *this;
      // Two at the same time (behind everything queued at now), one later.
      for (const char* tag : {"a", "b"})
        engine->call_at(engine->now(), [self, name, tag, depth] { self(name + tag, depth - 1); });
      engine->call_at(engine->now() + 1, [self, name, depth] { self(name + "L", depth - 1); });
    }
  };
  const Fan fan{&engine, &order};
  engine.call_at(0, [fan] { fan("x", 2); });
  engine.call_at(0, [fan] { fan("y", 1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{
                       // t=0
                       "x", "y", "xa", "xb", "ya", "yb", "xaa", "xab", "xba", "xbb",
                       // t=1
                       "xL", "yL", "xaL", "xbL", "xLa", "xLb",
                       // t=2
                       "xLL"}));
  EXPECT_EQ(engine.now(), 2);
}

TEST(EngineTest, CallbackCapturesAreReleasedAfterDispatchAndAtTeardown) {
  auto token = std::make_shared<int>(7);
  {
    Engine engine;
    engine.call_at(1, [token] {});
    engine.call_at(10, [token] {});
    engine.call_at_daemon(20, [token] {});
    EXPECT_EQ(token.use_count(), 4);
    engine.run(5);  // dispatches only the first
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_FALSE(engine.empty());
  }
  // The two still pending died with the engine.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EngineDeathTest, SchedulingInThePastAborts) {
  Engine engine;
  engine.call_at(10, [&] {});
  engine.run();
  EXPECT_DEATH(engine.call_at(5, [] {}), "simulated past");
}

}  // namespace
}  // namespace cagvt::metasim
