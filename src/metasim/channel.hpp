// Unbounded FIFO channel between simulated threads.
//
// send() is non-blocking and may be called from any context (coroutine or
// plain callback, e.g. a network delivery). recv() suspends the calling
// process until a value is available. Values are handed to waiters in FIFO
// order; the wake-up happens at the send timestamp (the cost of touching
// the queue itself is modelled by the callers via Mutex / explicit delays,
// because different queues in the system have different locking regimes).
#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "metasim/process.hpp"

namespace cagvt::metasim {

template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(engine) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  struct [[nodiscard]] RecvAwaiter {
    Channel* channel;
    std::optional<T> value;

    bool await_ready() {
      if (channel->items_.empty()) return false;
      value = std::move(channel->items_.front());
      channel->items_.pop_front();
      return true;
    }
    void await_suspend(Process::Handle h) {
      channel->waiters_.push_back({this, h});
    }
    T await_resume() {
      CAGVT_CHECK(value.has_value());
      return std::move(*value);
    }
  };

  /// co_await channel.recv() -> T (blocks until a value arrives).
  RecvAwaiter recv() { return RecvAwaiter{this, std::nullopt}; }

  /// Non-blocking receive; returns nullopt when empty.
  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  void send(T value) {
    ++total_sent_;
    for (const std::uint32_t poller : wake_on_send_) engine_.wake(poller);
    if (!waiters_.empty()) {
      auto [awaiter, handle] = waiters_.front();
      waiters_.pop_front();
      awaiter->value = std::move(value);
      resume_at(engine_, engine_.now(), handle);
      return;
    }
    items_.push_back(std::move(value));
  }

  /// Every send wakes idle poller `poller` (Engine::wake): a thread that
  /// polls this channel with try_recv rather than awaiting recv.
  void wake_on_send(std::uint32_t poller) { wake_on_send_.push_back(poller); }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::uint64_t total_sent() const { return total_sent_; }

 private:
  Engine& engine_;
  std::deque<T> items_;
  std::deque<std::pair<RecvAwaiter*, Process::Handle>> waiters_;
  std::vector<std::uint32_t> wake_on_send_;
  std::uint64_t total_sent_ = 0;
};

}  // namespace cagvt::metasim
