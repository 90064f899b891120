// Overload-protection configuration (`--flow=off|bounded[,mem=M,storm=S,clamp=C]`).
//
// `off` (the default) is unconstrained Time Warp optimism: event pools and
// state logs grow as far as speculation carries them, and rollback cascades
// run uncontained. `bounded` turns on the three cooperating overload
// mechanisms in flow::Controller: memory-bounded optimism with
// cancelback-style relief, EWMA rollback-storm detection, and adaptive
// per-worker optimism throttling. Flow control never changes simulation
// outcomes — it only moves unprocessed events and delays execution — so
// results are byte-identical with it on or off (the golden matrix pins
// this).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cagvt::flow {

enum class FlowKind { kOff, kBounded };

struct FlowConfig {
  FlowKind kind = FlowKind::kOff;

  /// Per-worker event-pool budget: pending events plus uncommitted history
  /// records. Crossing 75% of it is yellow pressure (throttle); crossing it
  /// is red (cancelback relief + a forced fossil-collection round). A
  /// `mem:` fault spec can squeeze the effective budget below this value.
  std::int64_t mem = 4096;

  /// Storm threshold: the EWMA secondary-rollback fraction (rollbacks
  /// caused by anti-messages rather than stragglers) above which a
  /// rollback cascade is declared a storm and throttling engages.
  double storm = 0.5;

  /// Throttle window W >= 1: while throttled, a worker only executes
  /// events with recv_ts <= last GVT + clamp (the Korniss-Novotny horizon
  /// suppression, applied per worker and self-releasing with hysteresis).
  double clamp = 4.0;

  bool enabled() const { return kind != FlowKind::kOff; }

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const;
};

/// Parse "--flow=" text: "off" or "bounded[,mem=M,storm=S,clamp=C]".
/// Throws std::invalid_argument listing the valid modes on a typo.
FlowConfig parse_flow(std::string_view text);

std::string to_string(const FlowConfig& cfg);
const char* to_string(FlowKind kind);

}  // namespace cagvt::flow
