// Pending event set with lazy annihilation.
//
// A min-heap over EventKey plus a live-uid set. Anti-messages cancel
// pending positives in O(1) by removing the uid from the live set; the
// stale heap entry is skipped on a later pop ("tombstoning"), which keeps
// cancellation off the heap's critical path — the same trick ROSS-family
// engines use for their cancel queues.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "pdes/event.hpp"
#include "util/assert.hpp"

namespace cagvt::pdes {

/// Flat set of event uids: open addressing with linear probing over a
/// power-of-two table kept at most half full, and backward-shift erase (no
/// deletion markers, so probe chains never degrade under the pending set's
/// insert/erase churn). A slot holding 0 is empty; since 0 is also a valid
/// uid, its membership lives in a side flag instead of the table.
class UidSet {
 public:
  /// Insert `uid`; false if it was already a member.
  bool insert(std::uint64_t uid) {
    if (uid == 0) return !std::exchange(has_zero_, true);
    if (2 * (used_ + 1) > slots_.size()) grow();
    std::size_t i = home(uid);
    for (; slots_[i] != 0; i = (i + 1) & mask()) {
      if (slots_[i] == uid) return false;
    }
    slots_[i] = uid;
    ++used_;
    return true;
  }

  /// Remove `uid`; false if it was not a member.
  bool erase(std::uint64_t uid) {
    if (uid == 0) return std::exchange(has_zero_, false);
    const std::size_t i = find(uid);
    if (i == kNone) return false;
    erase_slot(i);
    --used_;
    return true;
  }

  bool contains(std::uint64_t uid) const { return uid == 0 ? has_zero_ : find(uid) != kNone; }

  std::size_t size() const { return used_ + (has_zero_ ? 1 : 0); }

  /// Table slots (0 before the first non-zero insert); exposed so tests can
  /// build colliding probe chains with home().
  std::size_t capacity() const { return slots_.size(); }

  /// Home slot of a non-zero `uid` in a table of `capacity` slots.
  static std::size_t home(std::uint64_t uid, std::size_t capacity) {
    // Fibonacci hashing: test uids are small integers, model uids are
    // already hashes; the multiply spreads both over the high bits.
    return static_cast<std::size_t>((uid * 0x9E3779B97F4A7C15ull) >> 32) & (capacity - 1);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(std::uint64_t uid) const { return home(uid, slots_.size()); }

  std::size_t find(std::uint64_t uid) const {
    if (slots_.empty()) return kNone;
    for (std::size_t i = home(uid); slots_[i] != 0; i = (i + 1) & mask()) {
      if (slots_[i] == uid) return i;
    }
    return kNone;
  }

  /// Empty slot `hole` and pull later members of its probe chain back, so
  /// every member stays reachable from its home without a tombstone.
  void erase_slot(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask(); slots_[j] != 0; j = (j + 1) & mask()) {
      // The member at j may fill the hole iff the hole lies on its probe
      // path, i.e. its home is no closer to j than the hole is.
      if (((j - home(slots_[j])) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = 0;
  }

  void grow() {
    std::vector<std::uint64_t> old(std::max(kMinCapacity, 2 * slots_.size()), 0);
    old.swap(slots_);
    for (const std::uint64_t uid : old) {
      if (uid == 0) continue;
      std::size_t i = home(uid);
      while (slots_[i] != 0) i = (i + 1) & mask();
      slots_[i] = uid;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t used_ = 0;  // non-zero members in slots_
  bool has_zero_ = false;
};

class PendingSet {
 public:
  void push(const Event& e) {
    CAGVT_ASSERT(!e.anti);
    const bool inserted = live_.insert(e.uid);
    CAGVT_CHECK_MSG(inserted, "duplicate event uid in pending set");
    heap_.push(e);
  }

  /// Cancel a pending positive by uid. Returns true iff it was pending.
  bool cancel(std::uint64_t uid) { return live_.erase(uid); }

  /// True iff a live positive with this uid is pending.
  bool contains(std::uint64_t uid) const { return live_.contains(uid); }

  /// Smallest live key, or nullopt when empty.
  std::optional<EventKey> min_key() {
    skim();
    if (heap_.empty()) return std::nullopt;
    return key_of(heap_.top());
  }

  /// Pop the smallest live event whose timestamp is <= bound.
  std::optional<Event> pop_next(VirtualTime bound) {
    skim();
    if (heap_.empty() || heap_.top().recv_ts > bound) return std::nullopt;
    Event e = heap_.top();
    heap_.pop();
    live_.erase(e.uid);
    return e;
  }

  bool empty() {
    skim();
    return heap_.empty();
  }

  std::size_t size() const { return live_.size(); }

  /// Remove and return every live event destined for `lp` (used when the
  /// LP migrates to another worker). O(n log n) heap rebuild — migration
  /// happens at GVT fences, far off the event-processing fast path.
  std::vector<Event> extract_lp(LpId lp) {
    std::vector<Event> moved;
    std::vector<Event> kept;
    kept.reserve(live_.size());
    while (!heap_.empty()) {
      const Event& top = heap_.top();
      // Consume the uid on first sight: a cancelled-then-regenerated event
      // shares the heap with its tombstone, and only the first entry in key
      // order is the live one (matching pop_next's skip semantics).
      if (live_.erase(top.uid)) {
        if (top.dst_lp == lp) {
          moved.push_back(top);
        } else {
          kept.push_back(top);
        }
      }
      heap_.pop();
    }
    heap_ = {};
    for (const Event& e : kept) {
      live_.insert(e.uid);
      heap_.push(e);
    }
    return moved;
  }

  /// Remove and return up to `max_count` live events with the *largest*
  /// keys for which `eligible` returns true (cancelback relief hands back
  /// the furthest-ahead speculation first — the events least likely to be
  /// needed soon). Same O(n log n) rebuild as extract_lp; only runs under
  /// red memory pressure, never on the event-processing fast path.
  template <typename Pred>
  std::vector<Event> extract_top(std::size_t max_count, Pred&& eligible) {
    std::vector<Event> all;
    all.reserve(live_.size());
    while (!heap_.empty()) {
      const Event& top = heap_.top();
      // Consume the uid on first sight (see extract_lp).
      if (live_.erase(top.uid)) all.push_back(top);
      heap_.pop();
    }
    heap_ = {};
    // Pops come off the min-heap in ascending key order; walk backwards to
    // take the largest eligible keys.
    std::vector<Event> taken;
    std::vector<Event> kept;
    kept.reserve(all.size());
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
      if (taken.size() < max_count && eligible(*it)) {
        taken.push_back(*it);
      } else {
        kept.push_back(*it);
      }
    }
    for (const Event& e : kept) {
      live_.insert(e.uid);
      heap_.push(e);
    }
    return taken;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return key_of(a) > key_of(b); }
  };

  /// Drop tombstoned entries off the top of the heap.
  void skim() {
    while (!heap_.empty() && !live_.contains(heap_.top().uid)) heap_.pop();
  }

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  UidSet live_;
};

}  // namespace cagvt::pdes
