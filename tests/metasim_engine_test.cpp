// Engine dispatch order, time monotonicity, stop/run-until semantics, and
// idle polls dispatching exactly like the resumptions they stand for.
#include "metasim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "metasim/process.hpp"
#include "util/rng.hpp"

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

// --- idle polls -------------------------------------------------------------

/// co_await PollAt{offset, poller}: an idle poll at now() + offset, which
/// need not be the poller's period (so it can land below its lane's back).
struct PollAt {
  SimTime offset;
  std::uint32_t poller;
  bool await_ready() const noexcept { return false; }
  void await_suspend(Process::Handle h) const {
    Engine* engine = h.promise().engine;
    engine->poll_at(engine->now() + offset, h, poller);
  }
  void await_resume() const noexcept {}
};

/// A poller with nothing to do until `done`; each skipped pass logs.
struct SleepyPoller final : IdlePoller {
  SleepyPoller(Engine& e, std::vector<std::string>& log, std::string name, SimTime period)
      : engine(e), order(log), tag(std::move(name)), id(e.add_poller(*this, period)) {}
  bool pass_pending() override { return done; }
  void skip_pass() override { order.push_back(tag + "@" + std::to_string(engine.now())); }
  Engine& engine;
  std::vector<std::string>& order;
  std::string tag;
  std::uint32_t id;
  bool done = false;
};

Process sleepy(SleepyPoller& p, SimTime first_offset) {
  co_await PollAt{first_offset, p.id};
  p.order.push_back(p.tag + " exits@" + std::to_string(p.engine.now()));
}

TEST(EngineTest, IdlePollTiesWithCallbacksFollowSchedulingOrder) {
  // A lane entry and heap entries at one instant dispatch by seq: the
  // callback scheduled before the poll runs first, the later one after.
  Engine engine;
  std::vector<std::string> order;
  SleepyPoller p(engine, order, "p", 10);
  engine.call_at(10, [&] { order.push_back("early"); });  // seq 0
  spawn(engine, sleepy(p, 10));                           // seq 1; its poll takes seq 3
  engine.call_at(0, [&] { engine.call_at(10, [&] { order.push_back("late"); }); });  // seq 2
  engine.call_at(15, [&] { p.done = true; });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "p@10", "late", "p exits@20"}));
  EXPECT_EQ(engine.dispatched(), 7u);  // spawn, the t=0 callback, early, poll, late, done, exit
  EXPECT_EQ(engine.skipped(), 1u);
}

TEST(EngineTest, IdlePollBelowItsLaneBackFallsBackToTheHeap) {
  // `b` polls at 5 after `a` filled the shared lane up to 20: that push
  // (and b's re-arm at 15) would unsort the lane, so they take the heap.
  Engine engine;
  std::vector<std::string> order;
  SleepyPoller a(engine, order, "a", 10);
  SleepyPoller b(engine, order, "b", 10);
  spawn(engine, sleepy(a, 20));
  spawn(engine, sleepy(b, 5));
  engine.call_at(32, [&] { a.done = b.done = true; });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"b@5", "b@15", "a@20", "b@25", "a@30",
                                             "b exits@35", "a exits@40"}));
}

TEST(EngineTest, RunUntilStopsOnALaneEntryAndDaemonsDoNotExtendTheRun) {
  Engine engine;
  std::vector<std::string> order;
  SleepyPoller p(engine, order, "p", 5);
  spawn(engine, sleepy(p, 5));
  engine.call_at_daemon(100, [&] { order.push_back("daemon"); });
  EXPECT_EQ(engine.run(12), 10);  // the next entry, p's poll at 15, is past 12
  EXPECT_EQ(order, (std::vector<std::string>{"p@5", "p@10"}));
  EXPECT_EQ(engine.dispatched(), 3u);
  EXPECT_EQ(engine.skipped(), 2u);
  EXPECT_FALSE(engine.empty());
  p.done = true;
  EXPECT_EQ(engine.run(), 15);  // only the daemon remains: it never runs
  EXPECT_EQ(order.back(), "p exits@15");
  EXPECT_FALSE(engine.empty());
}

/// One observable step of a PollWorld program.
struct Rec {
  SimTime now;
  int who;  // a poller, or one of the kDriver/kCallback/kDaemon/kRun tracks
  std::uint64_t value;
  bool operator==(const Rec&) const = default;
};

/// A seeded program: pollers of two periods that get work from a driver
/// process and from callbacks (which also flip each other's predicates),
/// plus a daemon ticker. In kPoll mode idle passes end in idle polls; in
/// kPlain mode each poller runs its idle passes itself, as the resume_at
/// loop the idle poll stands for. Both modes must log one history.
class PollWorld {
 public:
  enum class Mode { kPoll, kPlain };
  static constexpr int kDriver = -1, kCallback = -2, kDaemon = -3, kRun = -4;

  PollWorld(Mode mode, std::uint64_t seed) : mode_(mode), rng_(seed) {
    for (int i = 0; i < 6; ++i) slots_.push_back(std::make_unique<Slot>(*this, i));
  }

  struct Slot final : IdlePoller {
    Slot(PollWorld& w, int index) : world(w), id(index), period(index % 2 == 0 ? 4 : 6) {
      if (w.mode_ == Mode::kPoll) poller = w.engine.add_poller(*this, period);
    }
    bool pass_pending() override { return done || work > 0; }
    void skip_pass() override { ++iterations; }
    PollWorld& world;
    int id;
    SimTime period;
    std::uint32_t poller = 0;
    int work = 0;
    bool done = false;
    std::uint64_t iterations = 0;
  };

  std::vector<Rec> run() {
    for (auto& slot : slots_) spawn(engine, poller_main(*slot), rng_.next_below(3));
    spawn(engine, driver());
    engine.call_at_daemon(3, [this] { daemon_tick(); });
    // Stop at segment edges (often with a lane entry next), then let the
    // run end on its own once only the daemon ticker is left.
    for (SimTime until = 9; until < 200; until += 9) {
      engine.run(until);
      log(kRun, static_cast<std::uint64_t>(engine.now()));
    }
    engine.run();
    log(kRun, static_cast<std::uint64_t>(engine.now()));
    log(kRun, engine.dispatched());
    return log_;
  }

  Engine engine;

 private:
  void log(int who, std::uint64_t value) { log_.push_back({engine.now(), who, value}); }

  Slot& any_slot() { return *slots_[rng_.next_below(slots_.size())]; }

  /// A busy pass's side effects: give work away now or from a callback.
  void act() {
    switch (rng_.next_below(4)) {
      case 0:
        ++any_slot().work;
        break;
      case 1: {
        Slot* target = &any_slot();
        engine.call_at(engine.now() + static_cast<SimTime>(rng_.next_below(8)), [this, target] {
          log(kCallback, static_cast<std::uint64_t>(target->id));
          ++target->work;
        });
        break;
      }
      case 2:
        engine.call_at(engine.now(), [this] {
          log(kCallback, 100);
          engine.call_at(engine.now() + 2, [this] { log(kCallback, 101); });
        });
        break;
      default:
        break;
    }
  }

  Process poller_main(Slot& s) {
    bool polled = false;
    while (true) {
      if (mode_ == Mode::kPlain && polled && !s.pass_pending()) {
        s.skip_pass();
        co_await delay(s.period);
        continue;
      }
      polled = false;
      log(s.id, s.iterations);
      if (s.done) co_return;
      ++s.iterations;
      if (s.work > 0) {
        --s.work;
        act();
        co_await delay(static_cast<SimTime>(rng_.next_below(3)));  // 0 yields
        continue;
      }
      // Nothing to do: mostly one period, sometimes a shorter first poll,
      // which may land below the lane's back.
      const SimTime offset = rng_.next_below(4) == 0
                                 ? static_cast<SimTime>(rng_.next_below(
                                       static_cast<std::uint64_t>(s.period)))
                                 : s.period;
      polled = true;
      if (mode_ == Mode::kPoll) {
        co_await PollAt{offset, s.poller};
      } else {
        co_await delay(offset);
      }
    }
  }

  Process driver() {
    for (int step = 0; step < 60; ++step) {
      co_await delay(static_cast<SimTime>(rng_.next_below(5)));
      log(kDriver, static_cast<std::uint64_t>(step));
      if (rng_.next_below(2) == 0) ++any_slot().work;
      if (rng_.next_below(3) == 0) act();
    }
    for (auto& slot : slots_) {
      Slot* target = slot.get();
      engine.call_at(engine.now() + static_cast<SimTime>(rng_.next_below(12)), [this, target] {
        log(kCallback, 200 + static_cast<std::uint64_t>(target->id));
        target->done = true;
      });
    }
  }

  void daemon_tick() {
    log(kDaemon, 0);
    engine.call_at_daemon(engine.now() + 5, [this] { daemon_tick(); });
  }

  Mode mode_;
  Xoshiro256StarStar rng_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Rec> log_;
};

TEST(EngineTest, IdlePollsDispatchLikeThePlainResumesTheyReplace) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    PollWorld polled(PollWorld::Mode::kPoll, seed);
    PollWorld plain(PollWorld::Mode::kPlain, seed);
    const std::vector<Rec> got = polled.run();
    const std::vector<Rec> want = plain.run();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "record " << i << ": t=" << got[i].now << " who "
                                 << got[i].who << " value " << got[i].value << " vs t="
                                 << want[i].now << " who " << want[i].who << " value "
                                 << want[i].value;
    }
    EXPECT_EQ(polled.engine.dispatched(), plain.engine.dispatched());
    EXPECT_GT(polled.engine.skipped(), 0u);
    EXPECT_EQ(plain.engine.skipped(), 0u);
  }
}

TEST(EngineDeathTest, SchedulingInThePastAborts) {
  Engine engine;
  engine.call_at(10, [&] {});
  engine.run();
  EXPECT_DEATH(engine.call_at(5, [] {}), "simulated past");
}

}  // namespace
}  // namespace cagvt::metasim
