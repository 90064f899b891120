// Wire message types carried by the virtual MPI fabric.
#pragma once

#include <cstdint>
#include <limits>
#include <variant>

#include "core/gvt_policy.hpp"
#include "pdes/event.hpp"

namespace cagvt::core {

/// Mattern's circulating control message (Collect and Broadcast passes),
/// extended with the cumulative event counts CA-GVT's efficiency estimate
/// needs. White-message counting runs as a background MPI reduction (the
/// paper's accumulateMsgCountersAcrossNodes), so the token carries no
/// counters.
struct MatternToken {
  enum class Phase : std::uint8_t {
    kCollect,    // gather min LVT / min red timestamp node by node
    kBroadcast,  // distribute the computed GVT (and CA's next SyncFlag)
  };

  Phase phase = Phase::kCollect;
  std::uint64_t round = 0;
  int visits = 0;  // ring hops completed in the current phase

  // kCollect accumulators.
  double min_lvt = std::numeric_limits<double>::infinity();
  double min_red = std::numeric_limits<double>::infinity();
  DecidedEvents decided;  // round-window decided events (CA-GVT)
  /// Peak MPI queue occupancy observed since the last round (CA-GVT's
  /// second synchrony trigger — paper Section 8).
  std::uint64_t queue_peak = 0;

  // kBroadcast payload.
  double gvt = 0;
  /// CA-GVT's adaptivity verdict for the next round: rank 0 runs the
  /// tiered trigger policy at Collect completion and every rank applies
  /// the broadcast tier (throttle clamp and/or synchronous round).
  SyncTier next_tier = SyncTier::kAsync;
};

/// Everything that traverses the network: individual remote events (the
/// paper's ROSS sends event messages point-to-point) and GVT control
/// traffic. Barrier GVT uses fabric collectives and needs no payload.
using NetMsg = std::variant<pdes::Event, MatternToken>;

}  // namespace cagvt::core
