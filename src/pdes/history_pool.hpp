// HistoryPool: one kernel's processed-event records, shared by its LPs.
//
// Every LP keeps a FIFO of the records it has processed but not yet
// committed: the newest is pushed on process and popped on rollback, the
// oldest is popped on fossil collection. A per-LP container owns heap even
// while empty (a std::deque holds a map and one node), and a per-LP ring
// keeps capacity slack on every LP. Here the records of all the kernel's
// LPs live in one pool instead, and an LP holds only a HistoryFifo: its two
// ends and its length. An LP that has processed nothing owns no storage.
//
// Records are allocated in fixed blocks that never move, so growth copies
// nothing (no transient doubling for the resident high-water mark to
// catch), and a freed record goes on a free list that the next push takes
// first. The pool's capacity is thus the kernel's peak live history,
// rounded up to a block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace cagvt::pdes {

/// One LP's FIFO in a HistoryPool: its oldest and newest record and count.
struct HistoryFifo {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::uint32_t oldest = kNone;
  std::uint32_t newest = kNone;
  std::uint32_t size = 0;

  bool empty() const { return size == 0; }
};

template <typename Record>
class HistoryPool {
 public:
  /// Records per block.
  static constexpr std::size_t kBlockRecords = 32;

  /// Append a record as `fifo`'s newest and return it. A reused record
  /// keeps the previous occupant's contents; the caller overwrites them.
  Record& push_newest(HistoryFifo& fifo) {
    if (free_ == HistoryFifo::kNone) grow();
    const std::uint32_t index = free_;
    Node& node = at(index);
    free_ = node.newer;
    node.older = fifo.newest;
    node.newer = HistoryFifo::kNone;
    if (fifo.empty()) {
      fifo.oldest = index;
    } else {
      at(fifo.newest).newer = index;
    }
    fifo.newest = index;
    ++fifo.size;
    return node.record;
  }

  Record& newest(const HistoryFifo& fifo) {
    CAGVT_ASSERT(!fifo.empty());
    return at(fifo.newest).record;
  }
  const Record& oldest(const HistoryFifo& fifo) const {
    CAGVT_ASSERT(!fifo.empty());
    return at(fifo.oldest).record;
  }

  /// Free `fifo`'s newest record (rollback).
  void pop_newest(HistoryFifo& fifo) {
    CAGVT_ASSERT(!fifo.empty());
    const std::uint32_t index = fifo.newest;
    fifo.newest = at(index).older;
    if (--fifo.size == 0) {
      fifo.oldest = HistoryFifo::kNone;
    } else {
      at(fifo.newest).newer = HistoryFifo::kNone;
    }
    release(index);
  }

  /// Free `fifo`'s oldest record (fossil collection).
  void pop_oldest(HistoryFifo& fifo) {
    CAGVT_ASSERT(!fifo.empty());
    const std::uint32_t index = fifo.oldest;
    fifo.oldest = at(index).newer;
    if (--fifo.size == 0) {
      fifo.newest = HistoryFifo::kNone;
    } else {
      at(fifo.oldest).older = HistoryFifo::kNone;
    }
    release(index);
  }

  /// Call `fn(record)` on each of `fifo`'s records, oldest first.
  template <typename Fn>
  void for_each(const HistoryFifo& fifo, Fn&& fn) const {
    for (std::uint32_t i = fifo.oldest; i != HistoryFifo::kNone; i = at(i).newer)
      fn(at(i).record);
  }

  /// Free every record. Each FIFO into the pool must be dropped with it.
  void clear() {
    free_ = HistoryFifo::kNone;
    for (std::size_t i = capacity(); i-- > 0;) release(static_cast<std::uint32_t>(i));
  }

  /// Records allocated, live and free.
  std::size_t capacity() const { return blocks_.size() * kBlockRecords; }

 private:
  /// A record and its FIFO links; a free node's `newer` is the free list.
  struct Node {
    Record record;
    std::uint32_t older = HistoryFifo::kNone;
    std::uint32_t newer = HistoryFifo::kNone;
  };

  Node& at(std::uint32_t index) { return blocks_[index / kBlockRecords][index % kBlockRecords]; }
  const Node& at(std::uint32_t index) const {
    return blocks_[index / kBlockRecords][index % kBlockRecords];
  }

  void release(std::uint32_t index) {
    at(index).newer = free_;
    free_ = index;
  }

  /// Add a block, its records on the free list lowest first.
  void grow() {
    CAGVT_CHECK_MSG(capacity() + kBlockRecords < HistoryFifo::kNone, "history pool overflow");
    const std::size_t base = capacity();
    blocks_.push_back(std::make_unique<Node[]>(kBlockRecords));
    for (std::size_t i = kBlockRecords; i-- > 0;) release(static_cast<std::uint32_t>(base + i));
  }

  std::vector<std::unique_ptr<Node[]>> blocks_;
  std::uint32_t free_ = HistoryFifo::kNone;
};

}  // namespace cagvt::pdes
