// Engine dispatch order (time, then owner, then scheduling order within an
// owner), time monotonicity, stop/run-until semantics, and idle polls
// dispatching exactly like the resumptions they stand for.
#include "metasim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
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

TEST(EngineTest, EqualTimesDispatchByOwnerThenSchedulingOrder) {
  // Owner 0 exists from the start; two more are added. Entries scheduled
  // owner 2 first still dispatch owner by owner, each in its own order.
  Engine engine;
  const std::uint32_t a = engine.add_owner();
  const std::uint32_t b = engine.add_owner();
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  std::vector<int> order;
  for (int i = 0; i < 9; ++i) {
    const std::uint32_t owner = i % 3 == 0 ? b : i % 3 == 1 ? a : 0;
    engine.call_at(5, owner, [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 5, 8, 1, 4, 7, 0, 3, 6}));
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

TEST(EngineTest, EqualTimeEntriesOfEveryKindDispatchInOwnerOrder) {
  // Coroutine resumptions and callbacks (live or daemon) share one
  // (time, owner, owner-local sequence) order: kind never reorders
  // equal-time entries. Each spawn takes a new owner; callbacks scheduled
  // outside any dispatch belong to owner 0, or to the owner they name.
  Engine engine;
  std::vector<std::string> order;
  engine.call_at(5, [&] { order.push_back("call-0"); });
  spawn(engine, record(&order, "resume-1"), 5);  // owner 1
  engine.call_at_daemon(5, [&] { order.push_back("daemon-2"); });
  engine.call_at(5, 1, [&] { order.push_back("call-3"); });
  spawn(engine, record(&order, "resume-4"), 5);  // owner 2
  engine.call_at(4, 2, [&] { order.push_back("early"); });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "call-0", "daemon-2", "resume-1",
                                             "call-3", "resume-4"}));
  EXPECT_EQ(engine.dispatched(), 6u);
}

TEST(EngineTest, UnownedCallsTakeTheSchedulingDispatchsOwner) {
  // A callback scheduled from a dispatch without naming an owner belongs
  // to that dispatch's owner: here owner 2's, so it runs after owner 1's
  // entry at the same instant although it was scheduled first.
  Engine engine;
  const std::uint32_t one = engine.add_owner();
  const std::uint32_t two = engine.add_owner();
  std::vector<std::string> order;
  engine.call_at(0, two, [&] {
    EXPECT_EQ(engine.current_owner(), two);
    engine.call_at(3, [&] { order.push_back("two's"); });
  });
  engine.call_at(1, one, [&] { engine.call_at(3, [&] { order.push_back("one's"); }); });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"one's", "two's"}));
  EXPECT_EQ(engine.current_owner(), 0u);  // outside run()
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

/// `text`, then `more` and "@<t>" appended: log records are built by
/// appends, because GCC 12 at -O3 can report a false -Wrestrict overlap
/// inside std::string operator+ chains.
std::string stamp(std::string text, std::string_view more, SimTime t) {
  text += more;
  text += '@';
  text += std::to_string(t);
  return text;
}

/// A poller with nothing to do until `done` (or until its `due` skipped
/// pass, when set); each credit logs how many passes it covers.
struct SleepyPoller final : IdlePoller {
  SleepyPoller(Engine& e, std::vector<std::string>& log, std::string name, SimTime period)
      : engine(e),
        order(log),
        tag(std::move(name)),
        owner(e.add_owner()),
        id(e.add_poller(*this, period, owner)) {}
  bool pass_pending() override { return done || (due > 0 && credited == due); }
  void skip_passes(std::uint64_t passes) override {
    credited += passes;
    std::string record = tag;
    record += " x";
    record += std::to_string(passes);
    order.push_back(stamp(std::move(record), "", engine.now()));
  }
  std::uint64_t passes_to_due() const override { return due > credited ? due - credited + 1 : 0; }
  /// The write that ends the wait, and its wake.
  void finish() {
    done = true;
    engine.wake(id);
  }
  Engine& engine;
  std::vector<std::string>& order;
  std::string tag;
  std::uint32_t owner;
  std::uint32_t id;
  bool done = false;
  std::uint64_t due = 0;
  std::uint64_t credited = 0;
};

Process sleepy(SleepyPoller& p, SimTime first_offset) {
  co_await PollAt{first_offset, p.id};
  p.order.push_back(stamp(p.tag, " exits", p.engine.now()));
}

TEST(EngineTest, IdlePollTiesWithCallbacksFollowOwnerOrder) {
  // A poll and callbacks at one instant dispatch by owner: owner 0's two
  // callbacks run before p's poll (owner 1), and an owner after p's runs
  // after it, whenever each was scheduled.
  Engine engine;
  std::vector<std::string> order;
  SleepyPoller p(engine, order, "p", 10);
  const std::uint32_t later = engine.add_owner();
  engine.call_at(10, later, [&] { order.push_back("later owner"); });
  engine.call_at(10, [&] { order.push_back("early"); });
  spawn(engine, sleepy(p, 10), 0, p.owner);
  engine.call_at(0, [&] { engine.call_at(10, [&] { order.push_back("late"); }); });
  engine.call_at(15, [&] { p.finish(); });
  engine.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"early", "late", "p x1@10", "later owner", "p exits@20"}));
  // spawn, the t=0 callback, early, late, poll, later owner, finish, exit
  EXPECT_EQ(engine.dispatched(), 8u);
  EXPECT_EQ(engine.host_work().polls_slept, 1u);
  EXPECT_EQ(engine.host_work().wakes, 1u);
}

TEST(EngineTest, SleepersAreCreditedTheirGridWhenWoken) {
  // `a` sleeps after its pass at 20, `b` after 5, both on a 10 ns grid. A
  // write at 32 wakes both: each resumes at its first pass after 32 and is
  // credited the passes it slept through (b: 15 and 25; a: 30), as if
  // every pass had been polled.
  Engine engine;
  std::vector<std::string> order;
  SleepyPoller a(engine, order, "a", 10);
  SleepyPoller b(engine, order, "b", 10);
  spawn(engine, sleepy(a, 20), 0, a.owner);
  spawn(engine, sleepy(b, 5), 0, b.owner);
  engine.call_at(32, [&] {
    a.finish();
    b.finish();
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"b x1@5", "a x1@20", "b x2@35", "b exits@35",
                                             "a x1@40", "a exits@40"}));
  EXPECT_EQ(engine.host_work().passes_credited, 5u);
  EXPECT_EQ(engine.host_work().polls_slept, 2u);
  EXPECT_EQ(engine.host_work().polls_resumed, 2u);
}

TEST(EngineTest, AWakeAtThePollsOwnInstantFollowsTheOwnersThatRanThere) {
  // q (owner 2) writes at 20, where p (owner 1) has a pass on its grid:
  // p's pass ran before q's entry, so the wake queues p's next pass, at 30,
  // which skips. Owner 0's write at 40 ran before p's pass there, so that
  // pass sees it.
  Engine engine;
  std::vector<std::string> order;
  SleepyPoller p(engine, order, "p", 10);
  const std::uint32_t q = engine.add_owner();
  spawn(engine, sleepy(p, 10), 0, p.owner);
  engine.call_at(20, q, [&] { engine.wake(p.id); });
  engine.call_at(40, 0, [&] { p.finish(); });
  engine.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"p x1@10", "p x1@30", "p x1@30", "p exits@40"}));
  EXPECT_EQ(engine.host_work().wakes, 2u);
}

TEST(EngineTest, APollerDueOnItsOwnCreditsWakesItself) {
  // Pending once three passes have skipped: the polls at 10, 20 and 30
  // skip, and the one at 40, queued as p falls asleep at 10, resumes it.
  Engine engine;
  std::vector<std::string> order;
  SleepyPoller p(engine, order, "p", 10);
  p.due = 3;
  spawn(engine, sleepy(p, 10), 0, p.owner);
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"p x1@10", "p x2@40", "p exits@40"}));
  EXPECT_EQ(engine.host_work().wakes, 0u);
}

TEST(EngineTest, RunUntilCreditsSleepersAndDaemonsDoNotExtendTheRun) {
  Engine engine;
  std::vector<std::string> order;
  SleepyPoller p(engine, order, "p", 5);
  spawn(engine, sleepy(p, 5), 0, p.owner);
  engine.call_at_daemon(100, [&] { order.push_back("daemon"); });
  // p sleeps from its pass at 5; its pass at 10 would be the last before
  // 12, so the run ends there, credited.
  EXPECT_EQ(engine.run(12), 10);
  EXPECT_EQ(order, (std::vector<std::string>{"p x1@5", "p x1@10"}));
  EXPECT_EQ(engine.dispatched(), 2u);
  EXPECT_EQ(engine.host_work().passes_credited, 2u);
  EXPECT_FALSE(engine.empty());
  p.finish();
  EXPECT_EQ(engine.run(), 15);  // only the daemon remains: it never runs
  EXPECT_EQ(order.back(), "p exits@15");
  EXPECT_FALSE(engine.empty());
}

/// One entry the shuffle test schedules up front.
struct Planned {
  enum Kind { kCall, kDaemon, kSpawn, kPoll } kind;
  SimTime when;
};

Process logged(std::vector<std::string>* log, std::string tag, Engine* engine) {
  log->push_back(stamp(std::move(tag), "", engine->now()));
  co_return;
}

Process polled_once(SleepyPoller& p, SimTime offset) {
  co_await PollAt{offset, p.id};
  p.order.push_back(stamp(p.tag, " resumed", p.engine.now()));
}

/// "o<owner>" followed by `more`.
std::string owner_tag(std::size_t owner, std::string_view more) {
  std::string text = "o";
  text += std::to_string(owner);
  text += more;
  return text;
}

/// Schedule every owner's planned entries, interleaving the owners in an
/// order drawn from `seed` (each owner's own entries keep their order),
/// and run: the dispatch log.
std::vector<std::string> run_interleaved(const std::vector<std::vector<Planned>>& plan,
                                         std::uint64_t seed) {
  Engine engine;
  std::vector<std::string> log;
  std::vector<std::uint32_t> owners;
  std::vector<std::unique_ptr<SleepyPoller>> pollers;
  for (std::size_t o = 0; o < plan.size(); ++o) {
    pollers.push_back(
        std::make_unique<SleepyPoller>(engine, log, owner_tag(o, " poll"), 4));
    owners.push_back(pollers.back()->owner);
  }
  std::vector<std::size_t> next(plan.size(), 0);
  Xoshiro256StarStar rng(seed);
  std::size_t left = 0;
  for (const auto& items : plan) left += items.size();
  while (left > 0) {
    std::size_t o = rng.next_below(plan.size());
    while (next[o] == plan[o].size()) o = (o + 1) % plan.size();
    const std::size_t i = next[o]++;
    --left;
    const Planned item = plan[o][i];
    std::string tag = owner_tag(o, "#");
    tag += std::to_string(i);
    switch (item.kind) {
      case Planned::kCall:
        engine.call_at(item.when, owners[o], [&log, &engine, tag] {
          log.push_back(stamp(tag, "", engine.now()));
          // An unowned follow-up belongs to this owner too.
          engine.call_at(engine.now() + 1,
                         [&log, &engine, tag] { log.push_back(stamp(tag, "+1", engine.now())); });
        });
        break;
      case Planned::kDaemon:
        engine.call_at_daemon(item.when, owners[o], [&log, &engine, tag] {
          log.push_back(stamp(tag, " daemon", engine.now()));
        });
        break;
      case Planned::kSpawn:
        spawn(engine, logged(&log, tag, &engine), item.when, owners[o]);
        break;
      case Planned::kPoll:
        // Its first resume at `when` arms a poll 4 later; polls skip until
        // the flag flips at 13.
        spawn(engine, polled_once(*pollers[o], 4), item.when, owners[o]);
        break;
    }
  }
  engine.call_at(13, [&] {
    for (auto& p : pollers) p->finish();
  });
  engine.run();
  return log;
}

TEST(EngineTest, TieOrderIsTheSameWhateverTheSchedulingOrder) {
  // Five owners with resumptions, callbacks (live and daemon, and the
  // unowned follow-ups they schedule) and idle polls, all sharing the
  // instants 1, 5, 6 and 9.
  using P = Planned;
  const std::vector<std::vector<Planned>> plan = {
      {{P::kCall, 5}, {P::kSpawn, 5}, {P::kPoll, 1}, {P::kCall, 9}},
      {{P::kSpawn, 5}, {P::kDaemon, 5}, {P::kCall, 5}},
      {{P::kPoll, 5}, {P::kCall, 1}, {P::kCall, 5}, {P::kDaemon, 9}},
      {{P::kCall, 6}, {P::kCall, 5}, {P::kSpawn, 1}},
      {{P::kPoll, 1}, {P::kSpawn, 6}, {P::kCall, 5}, {P::kCall, 5}},
  };
  const std::vector<std::string> want = run_interleaved(plan, 1);
  ASSERT_FALSE(want.empty());
  for (std::uint64_t seed = 2; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    EXPECT_EQ(run_interleaved(plan, seed), want);
  }
  // At t=5 owner 0's entries run first, its two in scheduling order.
  const auto at5 = std::find_if(want.begin(), want.end(), [](const std::string& rec) {
    return rec.ends_with("@5");
  });
  ASSERT_NE(at5, want.end());
  EXPECT_EQ(*at5, "o0#0@5");
  EXPECT_EQ(*(at5 + 1), "o0#1@5");
  EXPECT_EQ(*(at5 + 2), "o0 poll x1@5");
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
/// plus a daemon ticker. In kPoll mode idle passes end in idle polls, and
/// each write to a poller's predicate wakes it; in kPlain mode each poller
/// runs its idle passes itself, as the resume_at loop the idle poll stands
/// for. The callbacks have an owner of their own, as the cluster's do.
/// Both modes must log one history.
class PollWorld {
 public:
  enum class Mode { kPoll, kPlain };
  static constexpr int kDriver = -1, kCallback = -2, kDaemon = -3, kRun = -4;

  PollWorld(Mode mode, std::uint64_t seed) : mode_(mode), rng_(seed) {
    for (int i = 0; i < 6; ++i) slots_.push_back(std::make_unique<Slot>(*this, i));
  }

  struct Slot final : IdlePoller {
    Slot(PollWorld& w, int index)
        : world(w), id(index), period(index % 2 == 0 ? 4 : 6), owner(w.engine.add_owner()) {
      if (w.mode_ == Mode::kPoll) poller = w.engine.add_poller(*this, period, owner);
    }
    bool pass_pending() override { return done || work > 0; }
    void skip_passes(std::uint64_t passes) override { iterations += passes; }
    PollWorld& world;
    int id;
    SimTime period;
    std::uint32_t owner;
    std::uint32_t poller = 0;
    int work = 0;
    bool done = false;
    std::uint64_t iterations = 0;
  };

  std::vector<Rec> run() {
    for (auto& slot : slots_) spawn(engine, poller_main(*slot), rng_.next_below(3), slot->owner);
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
    return log_;
  }

  Engine engine;

 private:
  void log(int who, std::uint64_t value) { log_.push_back({engine.now(), who, value}); }

  Slot& any_slot() { return *slots_[rng_.next_below(slots_.size())]; }

  /// The writes to a slot's predicate, each with its wake.
  void give(Slot& slot) {
    ++slot.work;
    if (mode_ == Mode::kPoll) engine.wake(slot.poller);
  }
  void finish(Slot& slot) {
    slot.done = true;
    if (mode_ == Mode::kPoll) engine.wake(slot.poller);
  }

  /// A busy pass's side effects: give work away now or from a callback.
  void act() {
    switch (rng_.next_below(4)) {
      case 0:
        give(any_slot());
        break;
      case 1: {
        Slot* target = &any_slot();
        engine.call_at(engine.now() + static_cast<SimTime>(rng_.next_below(8)), callbacks_,
                       [this, target] {
                         log(kCallback, static_cast<std::uint64_t>(target->id));
                         give(*target);
                       });
        break;
      }
      case 2:
        engine.call_at(engine.now(), callbacks_, [this] {
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
        s.skip_passes(1);
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
      if (rng_.next_below(2) == 0) give(any_slot());
      if (rng_.next_below(3) == 0) act();
    }
    for (auto& slot : slots_) {
      Slot* target = slot.get();
      engine.call_at(engine.now() + static_cast<SimTime>(rng_.next_below(12)), callbacks_,
                     [this, target] {
                       log(kCallback, 200 + static_cast<std::uint64_t>(target->id));
                       finish(*target);
                     });
    }
  }

  void daemon_tick() {
    log(kDaemon, 0);
    engine.call_at_daemon(engine.now() + 5, [this] { daemon_tick(); });
  }

  Mode mode_;
  std::uint32_t callbacks_ = engine.add_owner();
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
    EXPECT_LT(polled.engine.dispatched(), plain.engine.dispatched());
    EXPECT_GT(polled.engine.host_work().polls_slept, 0u);
    EXPECT_EQ(plain.engine.host_work().polls_slept, 0u);
  }
}

TEST(EngineDeathTest, SchedulingInThePastAborts) {
  Engine engine;
  engine.call_at(10, [&] {});
  engine.run();
  EXPECT_DEATH(engine.call_at(5, [] {}), "simulated past");
}

TEST(EngineTest, QueuePeakCountsStalePolls) {
  // p falls asleep at 10 with its due pass queued at 40. The write at 15
  // wakes it at 20 and schedules two callbacks: the entry at 40 is stale
  // but stays in the heap until its instant, so four entries are queued.
  Engine engine;
  std::vector<std::string> order;
  SleepyPoller p(engine, order, "p", 10);
  p.due = 3;
  spawn(engine, sleepy(p, 10), 0, p.owner);
  engine.call_at(15, [&] {
    p.finish();
    engine.call_at(50, [] {});
    engine.call_at(60, [] {});
  });
  EXPECT_EQ(engine.run(), 60);
  EXPECT_EQ(order.size(), 2u);  // p's pass at 10 slept; it exits at 20
  EXPECT_EQ(engine.host_work().queue_peak, 4u);
}

}  // namespace
}  // namespace cagvt::metasim
