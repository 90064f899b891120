#include "pdes/pending_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace cagvt::pdes {
namespace {

Event make_event(double ts, std::uint64_t uid, LpId dst = 0) {
  Event e;
  e.recv_ts = ts;
  e.uid = uid;
  e.dst_lp = dst;
  return e;
}

TEST(PendingSetTest, PopsInKeyOrder) {
  PendingSet set;
  set.push(make_event(3.0, 1));
  set.push(make_event(1.0, 2));
  set.push(make_event(2.0, 3));
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 2u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 3u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 1u);
  EXPECT_EQ(set.pop_next(kVtInfinity), std::nullopt);
}

TEST(PendingSetTest, UidBreaksTimestampTies) {
  PendingSet set;
  set.push(make_event(1.0, 9));
  set.push(make_event(1.0, 4));
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 4u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 9u);
}

TEST(PendingSetTest, BoundExcludesLaterEvents) {
  PendingSet set;
  set.push(make_event(5.0, 1));
  EXPECT_EQ(set.pop_next(4.9), std::nullopt);
  EXPECT_EQ(set.min_key()->ts, 5.0);  // still there
  EXPECT_EQ(set.pop_next(5.0)->uid, 1u);
}

TEST(PendingSetTest, CancelRemovesPending) {
  PendingSet set;
  set.push(make_event(1.0, 1));
  set.push(make_event(2.0, 2));
  EXPECT_TRUE(set.cancel(1));
  EXPECT_FALSE(set.cancel(1));   // already gone
  EXPECT_FALSE(set.cancel(99));  // never present
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 2u);
  EXPECT_TRUE(set.empty());
}

TEST(PendingSetTest, CancelUpdatesMinKey) {
  PendingSet set;
  set.push(make_event(1.0, 1));
  set.push(make_event(2.0, 2));
  EXPECT_TRUE(set.cancel(1));
  EXPECT_EQ(set.min_key()->ts, 2.0);
}

TEST(PendingSetTest, SizeTracksLiveEvents) {
  PendingSet set;
  set.push(make_event(1.0, 1));
  set.push(make_event(2.0, 2));
  EXPECT_EQ(set.size(), 2u);
  set.cancel(2);
  EXPECT_EQ(set.size(), 1u);  // tombstone not counted
}

TEST(PendingSetDeathTest, DuplicateUidAborts) {
  PendingSet set;
  set.push(make_event(1.0, 7));
  EXPECT_DEATH(set.push(make_event(2.0, 7)), "duplicate event uid");
}

TEST(PendingSetTest, ExtractLpMovesOnlyThatLpsEvents) {
  PendingSet set;
  set.push(make_event(3.0, 1, /*dst=*/0));
  set.push(make_event(2.0, 2, /*dst=*/1));
  set.push(make_event(1.0, 3, /*dst=*/0));
  const auto moved = set.extract_lp(0);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0].uid, 3u);  // returned in key order
  EXPECT_EQ(moved[1].uid, 1u);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 2u);
}

TEST(PendingSetTest, ExtractLpSkipsTombstones) {
  PendingSet set;
  set.push(make_event(1.0, 1, /*dst=*/0));
  set.push(make_event(2.0, 2, /*dst=*/0));
  set.cancel(1);
  const auto moved = set.extract_lp(0);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].uid, 2u);
  EXPECT_TRUE(set.empty());
}

TEST(PendingSetTest, ExtractLpTakesFirstCopyOfRegeneratedUid) {
  // cancel() leaves a heap tombstone; a rolled-back sender can regenerate
  // the same uid and re-insert, so two heap entries share one live uid.
  // Extraction must keep exactly the first entry in key order (matching
  // pop_next's skip semantics) and drop the stale one.
  PendingSet set;
  set.push(make_event(2.0, 7, /*dst=*/0));
  set.cancel(7);
  set.push(make_event(1.0, 7, /*dst=*/0));
  const auto moved = set.extract_lp(0);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_DOUBLE_EQ(moved[0].recv_ts, 1.0);
  EXPECT_TRUE(set.empty());
}

TEST(PendingSetTest, ExtractLpPreservesOtherLpsAcrossRebuild) {
  PendingSet set;
  set.push(make_event(1.0, 1, /*dst=*/0));
  set.push(make_event(2.0, 2, /*dst=*/1));
  set.push(make_event(3.0, 3, /*dst=*/1));
  set.cancel(3);
  EXPECT_EQ(set.extract_lp(0).size(), 1u);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 2u);
  EXPECT_EQ(set.pop_next(kVtInfinity), std::nullopt);
}

TEST(PendingSetTest, ReinsertAfterCancelIsAllowed) {
  // Rollback reinsertion after an earlier annihilation of a different copy
  // must work: cancel removes the uid from the live set entirely.
  PendingSet set;
  set.push(make_event(1.0, 7));
  set.cancel(7);
  set.push(make_event(1.0, 7));
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 7u);
}

TEST(PendingSetTest, UidZeroIsAnOrdinaryUid) {
  // The flat uid set marks empty slots with 0, so uid 0 lives in a side
  // flag; it must behave like any other uid.
  PendingSet set;
  set.push(make_event(2.0, 0));
  set.push(make_event(1.0, 5));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.cancel(0));
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.cancel(0));
  EXPECT_EQ(set.size(), 1u);
  set.push(make_event(2.0, 0));  // regenerated after its cancel
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 5u);
  EXPECT_EQ(set.pop_next(kVtInfinity)->uid, 0u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.empty());
}

TEST(PendingSetDeathTest, DuplicateUidZeroAborts) {
  PendingSet set;
  set.push(make_event(1.0, 0));
  EXPECT_DEATH(set.push(make_event(1.0, 0)), "duplicate event uid");
}

/// `count` distinct non-zero uids sharing one home slot in a table of
/// `capacity` slots.
std::vector<std::uint64_t> colliding_uids(std::size_t home, std::size_t capacity, int count) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t uid = 1; static_cast<int>(out.size()) < count; ++uid)
    if (UidSet::home(uid, capacity) == home) out.push_back(uid);
  return out;
}

TEST(UidSetTest, EraseFromTheMiddleOfAProbeChainKeepsTheRestReachable) {
  // The last slot's chain wraps around to the front of the table, and a
  // uid homed on slot 0 sits behind it: backward-shift erase must pull the
  // wrapped members back without stranding the neighbour.
  UidSet set;
  ASSERT_TRUE(set.insert(colliding_uids(3, 16, 1)[0]));  // allocate the table
  const std::size_t capacity = set.capacity();
  ASSERT_EQ(capacity, 16u);
  const auto chain = colliding_uids(capacity - 1, capacity, 4);
  const std::uint64_t neighbour = colliding_uids(0, capacity, 1)[0];
  for (const std::uint64_t uid : chain) ASSERT_TRUE(set.insert(uid));
  ASSERT_TRUE(set.insert(neighbour));
  ASSERT_EQ(set.capacity(), capacity);  // still one table: no rehash hid the chain
  EXPECT_EQ(set.size(), 6u);

  EXPECT_TRUE(set.erase(chain[1]));
  EXPECT_FALSE(set.contains(chain[1]));
  for (const std::uint64_t uid : {chain[0], chain[2], chain[3], neighbour})
    EXPECT_TRUE(set.contains(uid)) << uid;
  EXPECT_FALSE(set.erase(chain[1]));

  EXPECT_TRUE(set.erase(chain[0]));
  EXPECT_TRUE(set.erase(chain[3]));
  EXPECT_TRUE(set.contains(chain[2]));
  EXPECT_TRUE(set.contains(neighbour));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_FALSE(set.insert(neighbour));
  EXPECT_TRUE(set.insert(chain[1]));
  EXPECT_EQ(set.size(), 4u);
}

TEST(PendingSetTest, RandomOperationsMatchAReferenceModel) {
  // Seeded random push / cancel / re-push / pop / extract_lp / extract_top
  // sequence, checked after every step against an ordered reference. Each
  // uid has one fixed event (as in the kernel, where a uid determines the
  // event), so a re-push after a cancel regenerates the same key and the
  // heap tombstone and live copy are interchangeable. Over a thousand live
  // uids grow the flat uid set through several tables; uid 0 is in the pool.
  constexpr std::uint64_t kUids = 6000;
  constexpr LpId kLps = 6;
  const auto event_of = [](std::uint64_t uid) {
    const std::uint64_t h = hash_combine(uid, 0x5eed);
    return make_event(static_cast<double>(h % 997) / 8.0, uid, static_cast<LpId>(h % kLps));
  };

  PendingSet set;
  std::set<std::pair<VirtualTime, std::uint64_t>> model;  // live (ts, uid)
  std::map<std::uint64_t, LpId> dst_of;                     // live uid -> lp
  const auto model_erase = [&](const Event& e) {
    model.erase({e.recv_ts, e.uid});
    dst_of.erase(e.uid);
  };
  const auto expect_same = [&](const std::vector<Event>& got,
                               const std::vector<std::pair<VirtualTime, std::uint64_t>>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].recv_ts, want[i].first);
      EXPECT_EQ(got[i].uid, want[i].second);
    }
  };

  Xoshiro256StarStar rng(20);
  std::size_t peak = 0;
  for (int step = 0; step < 40000; ++step) {
    // Per 10000: push (grow for the first half, shrink for the second),
    // cancel 2000, pop 1500, extract_lp 5, extract_top the rest.
    const std::uint64_t push = step < 20000 ? 6000 : 3500;
    const std::uint64_t op = rng.next_below(10000);
    const std::uint64_t uid = rng.next_below(kUids);
    if (op < push) {
      const Event e = event_of(uid);
      if (dst_of.contains(uid)) continue;  // a live duplicate aborts (death test)
      set.push(e);
      model.insert({e.recv_ts, uid});
      dst_of[uid] = e.dst_lp;
    } else if (op < push + 2000) {
      const bool live = dst_of.contains(uid);
      ASSERT_EQ(set.cancel(uid), live) << "step " << step;
      if (live) model_erase(event_of(uid));
    } else if (op < push + 3500) {
      const VirtualTime bound = static_cast<double>(rng.next_below(997)) / 8.0;
      const auto got = set.pop_next(bound);
      if (model.empty() || model.begin()->first > bound) {
        ASSERT_FALSE(got.has_value()) << "step " << step;
      } else {
        ASSERT_TRUE(got.has_value()) << "step " << step;
        EXPECT_EQ(got->uid, model.begin()->second);
        model_erase(*got);
      }
    } else if (op < push + 3505) {
      const auto lp = static_cast<LpId>(rng.next_below(kLps));
      std::vector<std::pair<VirtualTime, std::uint64_t>> want;
      for (const auto& k : model)
        if (dst_of.at(k.second) == lp) want.push_back(k);
      expect_same(set.extract_lp(lp), want);
      for (const auto& k : want) model_erase(event_of(k.second));
    } else {
      const std::size_t max_count = rng.next_below(8);
      const auto eligible = [](const Event& e) { return e.uid % 3 != 0; };
      std::vector<std::pair<VirtualTime, std::uint64_t>> want;
      for (auto it = model.rbegin(); it != model.rend() && want.size() < max_count; ++it)
        if (it->second % 3 != 0) want.push_back(*it);
      expect_same(set.extract_top(max_count, eligible), want);
      for (const auto& k : want) model_erase(event_of(k.second));
    }
    ASSERT_EQ(set.size(), model.size()) << "step " << step;
    const auto min = set.min_key();
    ASSERT_EQ(min.has_value(), !model.empty());
    if (min) {
      EXPECT_EQ(std::make_pair(min->ts, min->uid), *model.begin());
    }
    EXPECT_EQ(set.contains(uid), dst_of.contains(uid));
    peak = std::max(peak, model.size());
  }
  EXPECT_GT(peak, 1000u);  // the uid table grew well past its first size
  while (const auto e = set.pop_next(kVtInfinity)) {
    ASSERT_FALSE(model.empty());
    EXPECT_EQ(e->uid, model.begin()->second);
    model_erase(*e);
  }
  EXPECT_TRUE(model.empty());
}

}  // namespace
}  // namespace cagvt::pdes
