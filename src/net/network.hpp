// Point-to-point network model (10 GbE-style).
//
// Each node has one NIC; outgoing frames serialize on the sender's egress
// port (bandwidth sharing emerges from that queueing), then arrive at the
// destination after the one-way latency. Delivery per (src, dst) pair is
// FIFO — the ordering guarantee MPI point-to-point messaging relies on.
//
// The class is templated on the payload so upper layers can ship their own
// message types without type erasure on the hot path.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault_engine.hpp"
#include "metasim/engine.hpp"
#include "net/cluster_spec.hpp"
#include "util/assert.hpp"

namespace cagvt::net {

template <typename Payload>
class Network {
 public:
  using DeliverFn = std::function<void(int src, int dst, Payload payload)>;

  Network(metasim::Engine& engine, const ClusterSpec& spec, int nodes)
      : engine_(engine),
        spec_(spec),
        nodes_(nodes),
        egress_busy_until_(static_cast<std::size_t>(nodes), 0) {
    CAGVT_CHECK(nodes >= 1);
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Upper layer's receive hook (one per fabric; invoked at arrival time).
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Install the fault-injection engine (null = healthy fabric). Degraded
  /// links pay inflated latency, reduced bandwidth, and deterministic
  /// jitter on every frame while a matching fault window is open.
  void set_fault(fault::FaultEngine* faults) { faults_ = faults; }

  /// Inject a frame at the current time; its delivery is an engine entry of
  /// `owner`. The sender's CPU cost is NOT modelled here (the MPI layer
  /// charges it); this models only the wire.
  void transmit(int src, int dst, int bytes, Payload payload, std::uint32_t owner) {
    CAGVT_ASSERT(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_);
    CAGVT_ASSERT(src != dst);
    const metasim::SimTime now = engine_.now();
    auto& busy = egress_busy_until_[static_cast<std::size_t>(src)];
    const metasim::SimTime start = busy > now ? busy : now;
    metasim::SimTime occupancy = spec_.transmit_time(bytes);
    metasim::SimTime latency = spec_.net_latency;
    if (faults_ != nullptr) {
      occupancy = faults_->scale_transmit(src, dst, occupancy);
      latency = faults_->link_latency(src, dst, latency);
    }
    const metasim::SimTime done_sending = start + occupancy;
    busy = done_sending;
    const metasim::SimTime arrival = done_sending + latency;
    ++frames_sent_;
    bytes_sent_ += static_cast<std::uint64_t>(bytes);
    engine_.call_at(arrival, owner, [this, src, dst, p = std::move(payload)]() mutable {
      deliver_(src, dst, std::move(p));
    });
  }

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  int nodes() const { return nodes_; }

 private:
  metasim::Engine& engine_;
  const ClusterSpec& spec_;
  fault::FaultEngine* faults_ = nullptr;
  int nodes_;
  std::vector<metasim::SimTime> egress_busy_until_;
  DeliverFn deliver_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace cagvt::net
