// Conservative synchronization controller: the cluster-wide protocol state
// of `--sync=cmb` and `--sync=window`.
//
// Both modes replace optimism with a per-worker *safety bound*: a worker
// may only execute pending events with recv_ts <= bound(worker), which
// guarantees no straggler can ever arrive below an executed timestamp —
// conservative runs perform provably zero rollbacks.
//
//  * cmb — Chandy-Misra-Bryant null messages with demand-driven
//    suppression. Each worker keeps one input-channel clock per other
//    worker; a clock value c is the sender's guarantee "every event I send
//    from now on has recv_ts strictly greater than c". The bound is the
//    minimum input clock (inclusive: e.ts == bound is safe because future
//    arrivals are strictly above it). Clocks only advance when a null
//    message carries a new guarantee G = L + lookahead, where
//    L = min(sender's pending minimum, sender's own minimum input clock).
//    Nulls are never broadcast: a blocked worker *requests* them
//    (kNullRequest carrying the timestamp X it needs). A request is a
//    standing registration — the receiver records the demand (deferred_)
//    and answers with a null the moment its guarantee covers X; while it
//    cannot, it (a) advertises partial guarantees to the requester as they
//    grow (the classic CMB ladder, needed so mutually-blocked workers
//    ratchet each other up by one lookahead per exchange instead of
//    deadlocking), and (b) propagates the demand upstream with X reduced
//    by the lookahead per hop. The requester never re-requests until the
//    registered demand is met or grows, so steady-state ladder traffic is
//    one null per pair per lookahead step and requests stay a small
//    constant per blocking episode. All traffic is demand-driven: a worker
//    with no recorded demand sends nothing (the tests assert this and the
//    ladder bound).
//
//  * window — a bounded time window advanced by the GVT machinery. Every
//    GVT round runs in its fully synchronous form (all in-flight messages
//    drained — see GvtAlgorithm::open_round), so the reduced value M
//    is the true global minimum unprocessed timestamp with nothing in
//    transit. The next window is then [M, M + min(window, lookahead)]:
//    any event generated inside the window lands strictly above
//    M + lookahead, so nothing processed in it can be contradicted.
//    An asynchronously-reduced GVT would NOT be safe here — a straggler
//    below M + lookahead can still be in flight — which is why window
//    mode forces synchronous rounds regardless of --gvt kind.
//
// Control messages are pdes::Events with kind != kEvent riding the normal
// send/receive path: they pay real transport costs (that is the point of
// the optimistic-vs-conservative crossover) and are colour-stamped and
// transit-counted, so GVT reduction stays correct with them in flight.
// The controller also collects the Kolakowska/Novotny update statistics:
// worker-step utilization, null-message overhead ratio, and the width of
// the time horizon (per-round max-min LVT spread).
//
// Threading: one Controller serves the whole cluster and is only used by
// the coroutine backend, where every worker runs on the single metasim
// engine thread — no locking needed. The real-thread backend rejects
// --sync at construction (exec/thread_engine.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "cons/clamp.hpp"
#include "cons/cons_config.hpp"
#include "core/round_hook.hpp"
#include "pdes/event.hpp"
#include "pdes/mapping.hpp"

namespace cagvt::cons {

class Controller final : public core::RoundHook {
 public:
  /// Throws std::invalid_argument when the model's lookahead is not
  /// strictly positive — conservative synchronization cannot make progress
  /// without it (the classic CMB zero-lookahead deadlock).
  Controller(const ConsConfig& cfg, const pdes::LpMap& map, pdes::VirtualTime lookahead,
             pdes::VirtualTime end_vt);

  // --- round hook: tick, bound and on_control (below) for the hook's worker
  bool in_worker_loop() const override { return true; }
  pdes::VirtualTime exec_bound(int worker) const override { return bound(worker); }
  void batch_tick(core::WorkerCtx& worker, int processed,
                  std::vector<pdes::Event>& out) override;
  /// An idle window tick only counts itself (skip_tick credits the count);
  /// a cmb tick may answer demand, so cmb keeps every pass.
  bool loop_pending(const core::WorkerCtx& /*worker*/) const override {
    return cfg_.kind == SyncKind::kCmb;
  }
  void skip_tick(core::WorkerCtx& /*worker*/) override { ++ticks_total_; }
  /// Advance the window bound and sample the time-horizon width from the
  /// per-worker LVTs.
  void adopt(std::uint64_t round, core::WorkerCtx& worker, double gvt) override;
  /// Consumes null messages and null requests.
  bool consume(core::WorkerCtx& worker, const pdes::Event& event) override;
  void report(core::SimulationResult& result, obs::MetricsRegistry& metrics) const override;

  /// Largest recv_ts `worker` may safely execute (inclusive).
  pdes::VirtualTime bound(int worker) const;

  /// A control message (kNull / kNullRequest) arrived for `worker`. Only
  /// records state; any replies happen on the receiver's next tick().
  void on_control(int worker, const pdes::Event& event);

  /// Called once per worker batch: `pending_min` is the kernel's lowest
  /// pending timestamp (kVtInfinity if none), `processed` the number of
  /// events the batch executed. Appends control messages to send (null
  /// replies, demand requests) to `out`; the caller routes them through
  /// the normal transport.
  void tick(int worker, pdes::VirtualTime pending_min, int processed,
            std::vector<pdes::Event>& out);

  // --- update statistics (Kolakowska & Novotny) ---------------------------
  std::uint64_t null_msgs() const { return null_msgs_; }
  std::uint64_t req_msgs() const { return req_msgs_; }
  /// Fraction of worker steps (ticks) that executed at least one event.
  double utilization() const;
  /// Control messages sent per simulation event executed.
  double null_ratio() const;
  /// Mean per-GVT-round spread max(LVT) - min(LVT) across workers.
  double avg_horizon_width() const;

 private:
  int idx(int worker, int other) const { return worker * workers_ + other; }
  pdes::Event make_control(pdes::MsgKind kind, int from_worker, int to_worker,
                           pdes::VirtualTime ts);
  /// Send kNullRequest(X) to every input channel of `worker` whose clock is
  /// below `x` and has no demand >= x already registered.
  void request_up_to(int worker, pdes::VirtualTime x, std::vector<pdes::Event>& out);
  void recompute_min_clock(int worker);

  ConsConfig cfg_;
  pdes::LpMap map_;
  pdes::VirtualTime la_;
  pdes::VirtualTime end_vt_;
  int workers_;

  // --- CMB state (workers_ x workers_ matrices, row = receiving worker) ---
  std::vector<pdes::VirtualTime> clocks_;     // input-channel guarantees
  std::vector<pdes::VirtualTime> min_clock_;  // cached row minimum = bound
  std::vector<pdes::VirtualTime> requested_;  // max X demanded of each channel
  std::vector<pdes::VirtualTime> deferred_;   // max X requested of me, per requester
  std::vector<pdes::VirtualTime> advertised_; // guarantee last sent, per requester

  // --- window state: always engaged, slid forward by every round ---------
  Clamp window_;

  // --- statistics ---------------------------------------------------------
  std::uint64_t null_msgs_ = 0;
  std::uint64_t req_msgs_ = 0;
  std::uint64_t ticks_total_ = 0;
  std::uint64_t ticks_active_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t ctl_uid_seq_ = 0;
  std::int64_t horizon_round_ = -1;
  pdes::VirtualTime horizon_min_ = 0;
  pdes::VirtualTime horizon_max_ = 0;
  int horizon_seen_ = 0;
  double horizon_width_sum_ = 0;
  std::uint64_t horizon_rounds_ = 0;
};

}  // namespace cagvt::cons
