// Controlled Asynchronous GVT — the paper's Algorithm 3 and primary
// contribution.
//
// CA-GVT is Mattern's algorithm plus three *conditional* synchronization
// points, enabled for a round whenever the globally measured simulation
// efficiency (committed / processed events, gathered by the control
// message) fell below a threshold (paper: 80%) in the previous round:
//
//   1. barrier() before the white->red transition      (Alg. 3 line 4)
//   2. barrier() before contributing LVT/min_red       (Alg. 3 line 14)
//   3. barrier() after fossil collection               (Alg. 3 line 30)
//
// With high efficiency it behaves like pure Mattern (asynchronous, no
// stalls); with low efficiency the barriers align thread progress like
// Barrier GVT, cutting rollbacks. This reproduction interposes a cheaper
// first response before the barriers: the first tripped rounds only clamp
// execution to GVT + gvt_throttle_clamp (SyncTier::kThrottle) while rounds
// stay asynchronous, and the barrier set engages only after the smoothed
// signal stays bad for gvt_escalate_rounds consecutive rounds (see
// CaTriggerPolicy in core/gvt_policy.hpp and DESIGN §13).
// The efficiency bookkeeping itself costs
// a little extra per round (the paper measures GVT rounds ~8% costlier
// than plain Mattern) — modelled by ClusterSpec::ca_round_overhead.
//
// The entire synchronous-round machinery — the barrier insertion points,
// the SyncFlag distribution, and the dedicated MPI thread's barrier
// participation — lives in MatternGvt (checkpoint/restore rounds reuse it
// under every policy), and the tier policy in GvtAlgorithm::decide (engaged
// for this kind by core::tier_policy_from, shared with the epoch GVT and
// the thread backend's fence); this class only charges its cost.
#pragma once

#include "core/mattern_gvt.hpp"

namespace cagvt::core {

class CaGvt final : public MatternGvt {
 public:
  explicit CaGvt(NodeRuntime& node) : MatternGvt(node) {}

 protected:
  metasim::SimTime contribute_overhead() const override {
    return node_.cfg().cluster.ca_round_overhead;
  }
};

}  // namespace cagvt::core
