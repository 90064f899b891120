// Synchronous Barrier GVT — the paper's Algorithm 1.
//
// Every `gvt_interval` worker-loop iterations all threads of the cluster
// stop simulating and run the two-level "stop-synchronize-and-go" round:
//
//   loop:
//     ReadMessages()                         (drain inboxes, may roll back)
//     transitNode  = PthreadBarrierSum(sent - received)   (node level)
//     transitTotal = MpiBarrierSum(transitNode)           (MPI thread)
//     until transitTotal == 0                 (no in-transit messages left)
//   GVT = MpiBarrierMin(PthreadBarrierMin(local virtual position))
//   fossil collect
//
// The cost of the algorithm is the idle time of threads blocked at the
// barriers — measured by the ReduceBarrier/Fabric block-time counters.
#pragma once

#include "core/gvt.hpp"
#include "core/node_runtime.hpp"

namespace cagvt::core {

class BarrierGvt final : public GvtAlgorithm {
 public:
  using GvtAlgorithm::GvtAlgorithm;

  void on_send(WorkerCtx& worker, pdes::Event& event) override {
    // No colouring needed; counting uses the cumulative per-thread
    // sent/received counters maintained by NodeRuntime.
    (void)worker;
    (void)event;
  }
  void on_recv(WorkerCtx& worker, const pdes::Event& event) override {
    (void)worker;
    (void)event;
  }

  metasim::Process worker_tick(WorkerCtx& worker) override;
  metasim::Process agent_tick(WorkerCtx* self) override;
  bool tick_pending(const WorkerCtx& worker, int ahead) const override {
    return round_due(worker, ahead);
  }
  bool agent_pending() const override {
    return node_.cfg().has_dedicated_mpi() && round_active_;
  }
  bool agent_done() const override { return !round_active_; }

  void on_token(const MatternToken& token) override {
    (void)token;
    CAGVT_CHECK_MSG(false, "Barrier GVT uses collectives, not tokens");
  }

 private:
  bool round_active_ = false;

  void close() {
    round_active_ = false;
    close_round(/*tiered=*/false);
  }
};

}  // namespace cagvt::core
