// Virtual MPI: the cluster's message-passing layer.
//
// Substitutes for mpich-3.3 in the paper's testbed. One rank per node (the
// paper's multithreaded ROSS runs one simulation instance — one MPI rank —
// per KNL node, with a single thread per node making MPI calls).
//
// Semantics modelled:
//  * isend   — sender-side CPU cost (charged to the calling simulated
//              thread), then wire transit via the Network; per-pair FIFO.
//  * inbox   — per-rank receive queue; the receiver charges its own
//              per-message unpack cost when it drains the queue.
//  * barrier / allreduce(sum|min) — collective across ALL ranks with a
//              dissemination-pattern cost; every rank blocks until the last
//              arrival (this wait is exactly the synchronous-GVT idle time
//              the paper measures).
//  * ring    — convenience for Mattern's circulating control message:
//              send to (rank+1) % nranks.
//
// When the fault schedule can drop frames (loss:) or nodes (crash:), the
// fabric runs in RELIABLE mode (enable_reliable): every point-to-point
// payload is wrapped in a sequence-numbered Frame, receivers ack
// cumulatively and deliver exactly-once in-order, and unacked frames are
// retransmitted on a backoff timer with counter-RNG jitter so replays stay
// byte-identical (see net/reliable.hpp). Collectives are modelled as
// reliable — loss applies to point-to-point traffic only. Without loss or
// crash specs the reliable machinery is never engaged and the fabric
// behaves bit-identically to the fire-and-forget original.
//
// Concurrency contract: the fabric, its mailboxes, and every collective
// live entirely inside one metasim::Engine and therefore on one OS thread —
// "per-rank inbox" is a simulated mailbox, not a concurrent queue, and
// needs no locking. The real-thread backend (src/exec) does NOT reuse this
// layer: it replaces the fabric with shared-memory MPSC inboxes
// (exec/mpsc_queue.hpp) and the collectives with a std::barrier-based GVT
// fence, preserving the same per-(src,dst) FIFO delivery guarantee that
// the kernel's anti-message annihilation depends on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "metasim/channel.hpp"
#include "metasim/process.hpp"
#include "metasim/sync.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "net/tree_reduce.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cagvt::net {

template <typename Payload>
class Fabric {
 public:
  using WireFrame = Frame<Payload>;

  Fabric(metasim::Engine& engine, const ClusterSpec& spec, int nranks)
      : engine_(engine),
        spec_(spec),
        nranks_(nranks),
        network_(engine, spec, nranks),
        barrier_(engine, nranks, spec.mpi_collective_cost(nranks)),
        sum_barrier_(engine, nranks, add_i64, 0, spec.mpi_collective_cost(nranks)),
        min_barrier_(engine, nranks, min_f64, std::numeric_limits<double>::infinity(),
                     spec.mpi_collective_cost(nranks)) {
    inboxes_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r)
      inboxes_.push_back(std::make_unique<metasim::Channel<Payload>>(engine));
    network_.set_deliver([this](int src, int dst, WireFrame frame) {
      on_wire_deliver(src, dst, std::move(frame));
    });
  }

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int nranks() const { return nranks_; }

  /// The tie-break owner (metasim::Engine::add_owner) of the engine entries
  /// that act at `rank`: frame deliveries to it, its tree contributions and
  /// its retransmit timers. A rank given none uses the owner of the
  /// dispatch that schedules the entry.
  void set_owner(int rank, std::uint32_t owner) {
    if (owners_.empty()) owners_.assign(static_cast<std::size_t>(nranks_), kNoOwner);
    owners_[static_cast<std::size_t>(rank)] = owner;
  }

  /// Measurement-only trace of isend calls (see obs/trace.hpp); receives
  /// are recorded by whoever drains the inbox and charges the recv cost.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Install the fault-injection engine (null = healthy cluster): straggler
  /// windows multiply the per-message MPI CPU costs of the affected rank,
  /// link windows degrade the wire (see Network::set_fault), loss windows
  /// drop frames, crash windows black-hole all traffic of the down node.
  void set_fault(fault::FaultEngine* faults) {
    faults_ = faults;
    network_.set_fault(faults);
  }

  /// Switch to reliable transport (sequence numbers, acks, retransmit).
  /// `seed` keys the retransmit-backoff jitter draws. Call before any
  /// traffic; required when the fault schedule has loss or crash specs.
  void enable_reliable(std::uint64_t seed) {
    reliable_ = true;
    seed_ = seed;
    const std::size_t links = 2u * static_cast<std::size_t>(nranks_) *
                              static_cast<std::size_t>(nranks_);
    send_streams_.resize(links);
    recv_streams_.resize(links);
    rto_counters_.assign(links, 0);
  }
  bool reliable() const { return reliable_; }

  /// Switch collective traffic onto an explicit reduce-up/broadcast-down
  /// rank tree (net/tree_reduce.hpp) instead of the flat rendezvous
  /// barriers. Hop-by-hop frames replace the single global release: each
  /// partial pays real wire latency per level, but no rank ever waits on a
  /// cluster-wide rendezvous object, and reductions pipeline — wave k+1 can
  /// climb the tree while wave k's broadcast is still descending. Idempotent
  /// for a given arity; call before any collective traffic.
  void enable_tree(int arity) {
    if (tree_enabled_) {
      CAGVT_CHECK_MSG(arity == tree_topo_.arity,
                      "fabric tree already enabled with a different arity");
      return;
    }
    CAGVT_CHECK_MSG(arity >= 2, "tree reduction needs arity >= 2");
    tree_enabled_ = true;
    tree_topo_ = TreeTopology{nranks_, arity};
    tree_reducers_.reserve(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) tree_reducers_.emplace_back(tree_topo_, r);
    tree_waves_.assign(static_cast<std::size_t>(nranks_), 0);
    tree_waiters_.resize(static_cast<std::size_t>(nranks_));
  }
  bool tree_enabled() const { return tree_enabled_; }
  /// Tree frames put on the wire (reduce-up partials + broadcast-down
  /// totals) — the property tests assert the tree actually carried traffic.
  std::uint64_t tree_frames() const { return tree_frames_; }

  /// One rank's entry into a tree all-reduce. Every rank must issue the
  /// same global sequence of tree collectives; calls pair up positionally
  /// by wave number (the reducer buffers skewed arrivals). Resumes with the
  /// full reduction once the broadcast-down reaches this rank.
  struct [[nodiscard]] TreeAwaiter {
    Fabric* fabric;
    int rank;
    TreeVal value;
    std::uint64_t wave = 0;
    TreeVal result{};
    metasim::Process::Handle handle{};
    metasim::SimTime arrived_at = 0;

    bool await_ready() const noexcept { return false; }
    void await_suspend(metasim::Process::Handle h) {
      handle = h;
      arrived_at = fabric->engine_.now();
      fabric->tree_begin(this);
    }
    TreeVal await_resume() const noexcept { return result; }
  };

  TreeAwaiter tree_allreduce(int rank, TreeVal value) {
    CAGVT_CHECK_MSG(tree_enabled_, "tree collective before enable_tree()");
    return TreeAwaiter{this, rank, std::move(value)};
  }

  /// Non-blocking send: charges the sender's per-message CPU cost, then
  /// puts the message on the wire. co_await from the sending MPI thread.
  metasim::Process isend(int src, int dst, int bytes, Payload payload) {
    if (trace_ != nullptr) trace_->mpi_send(src, dst, bytes, "event");
    co_await metasim::delay(cpu_cost(src, spec_.mpi_send_cpu));
    post(src, dst, bytes, StreamClass::kData, std::move(payload));
  }

  /// Control-plane send (GVT tokens): small eager message at priority
  /// service cost.
  metasim::Process isend_control(int src, int dst, int bytes, Payload payload) {
    if (trace_ != nullptr) trace_->mpi_send(src, dst, bytes, "control");
    co_await metasim::delay(cpu_cost(src, spec_.control_send_cpu));
    post(src, dst, bytes, StreamClass::kControl, std::move(payload));
  }

  /// Ring step used by Mattern's control message.
  metasim::Process ring_send(int src, int bytes, Payload payload) {
    return isend_control(src, (src + 1) % nranks_, bytes, std::move(payload));
  }

  /// Receive queue for a rank. The receiving thread should charge
  /// spec().mpi_recv_cpu per message it pops.
  metasim::Channel<Payload>& inbox(int rank) {
    return *inboxes_[static_cast<std::size_t>(rank)];
  }

  /// MPI_Barrier over all ranks. co_await from each rank's MPI thread.
  metasim::Barrier::Awaiter barrier() { return barrier_.arrive(); }

  /// MPI_Allreduce(SUM) over all ranks — the paper's MpiBarrierSum.
  auto allreduce_sum(std::int64_t value) { return sum_barrier_.arrive(value); }

  /// MPI_Allreduce(MIN) over all ranks — the paper's MpiBarrierMin.
  auto allreduce_min(double value) { return min_barrier_.arrive(value); }

  // --- checkpoint / restore hooks (reliable mode) -------------------------
  /// Data-stream cursors of `node` toward every peer, for the checkpoint.
  TransportSnapshot snapshot_transport(int node) const {
    TransportSnapshot snap(static_cast<std::size_t>(nranks_));
    if (!reliable_) return snap;
    for (int p = 0; p < nranks_; ++p) {
      if (p == node) continue;
      snap[static_cast<std::size_t>(p)].send_next =
          send_streams_[idx(StreamClass::kData, node, p)].next_seq;
      snap[static_cast<std::size_t>(p)].recv_expected =
          recv_streams_[idx(StreamClass::kData, p, node)].expected;
    }
    return snap;
  }

  /// Reset `node`'s data plane to the checkpoint cut under a fresh epoch:
  /// outgoing data streams restart at the snapshotted next_seq with an
  /// empty unacked window, incoming ones at the snapshotted expected seq.
  /// Stale in-flight frames and acks (lower epoch) die on arrival. The
  /// control stream is untouched — GVT tokens in flight stay valid. Every
  /// node of a restore round must call this (with the SAME epoch) before
  /// any data traffic resumes; the round's global barrier enforces that.
  void restore_transport(int node, std::uint32_t epoch, const TransportSnapshot& snap) {
    if (!reliable_) return;
    for (int p = 0; p < nranks_; ++p) {
      if (p == node) continue;
      auto& ss = send_streams_[idx(StreamClass::kData, node, p)];
      ss.epoch = epoch;
      ss.next_seq = snap[static_cast<std::size_t>(p)].send_next;
      ss.attempts = 0;
      ss.unacked.clear();
      auto& rs = recv_streams_[idx(StreamClass::kData, p, node)];
      rs.epoch = epoch;
      rs.expected = snap[static_cast<std::size_t>(p)].recv_expected;
      rs.reorder.clear();
    }
  }

  const ClusterSpec& spec() const { return spec_; }
  const Network<WireFrame>& network() const { return network_; }

  /// Total simulated thread-time spent blocked in collectives (the
  /// synchronous-GVT wait the paper reports as "time in the GVT function").
  metasim::SimTime collective_block_time() const {
    return barrier_.total_block_time() + sum_barrier_.total_block_time() +
           min_barrier_.total_block_time() + tree_block_time_;
  }

  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  /// Frames black-holed because an endpoint was inside a crash window.
  std::uint64_t down_drops() const { return down_drops_; }

 private:
  using FrameKind = typename WireFrame::Kind;

  static std::int64_t add_i64(std::int64_t a, std::int64_t b) { return a + b; }
  static double min_f64(double a, double b) { return a < b ? a : b; }

  static constexpr std::uint32_t kNoOwner = ~std::uint32_t{0};

  std::uint32_t owner_of(int rank) const {
    const std::uint32_t owner =
        owners_.empty() ? kNoOwner : owners_[static_cast<std::size_t>(rank)];
    return owner == kNoOwner ? engine_.current_owner() : owner;
  }

  metasim::SimTime cpu_cost(int rank, metasim::SimTime base) const {
    return faults_ == nullptr ? base : faults_->scale_cpu(rank, base);
  }

  /// Flat index of one directed link stream.
  std::size_t idx(StreamClass cls, int src, int dst) const {
    return (cls == StreamClass::kControl
                ? static_cast<std::size_t>(nranks_) * static_cast<std::size_t>(nranks_)
                : 0u) +
           static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks_) +
           static_cast<std::size_t>(dst);
  }

  static fault::FrameClass fault_class(const WireFrame& frame) {
    // Acks travel the control plane regardless of which stream they ack.
    if (frame.kind == FrameKind::kAck || frame.cls == StreamClass::kControl)
      return fault::FrameClass::kControl;
    return fault::FrameClass::kData;
  }

  /// Hand a payload to the transport: sequence + stash it when reliable,
  /// fire-and-forget otherwise.
  void post(int src, int dst, int bytes, StreamClass cls, Payload payload) {
    if (!reliable_) {
      WireFrame frame;
      frame.cls = cls;
      frame.payload = std::move(payload);
      wire_send(src, dst, bytes, std::move(frame));
      return;
    }
    auto& ss = send_streams_[idx(cls, src, dst)];
    const std::uint64_t seq = ss.next_seq++;
    ss.unacked.emplace(
        seq, typename SendStream<Payload>::Pending{bytes, payload, engine_.now(), false});
    WireFrame frame;
    frame.cls = cls;
    frame.reliable = true;
    frame.epoch = ss.epoch;
    frame.seq = seq;
    frame.payload = std::move(payload);
    wire_send(src, dst, bytes, std::move(frame));
    arm_timer(cls, src, dst);
  }

  /// Last stop before the wire: crash windows black-hole the frame, loss
  /// windows flip their deterministic coin.
  void wire_send(int src, int dst, int bytes, WireFrame frame) {
    if (faults_ != nullptr) {
      if (faults_->node_down(src) || faults_->node_down(dst)) {
        ++down_drops_;
        return;
      }
      if (frame.reliable && faults_->drop_frame(src, dst, fault_class(frame))) return;
    }
    network_.transmit(src, dst, bytes, std::move(frame), owner_of(dst));
  }

  /// Schedule `rank`'s contribution into the tree and park the awaiter until
  /// the wave's broadcast-down lands here. The contributor pays the
  /// control-plane send CPU before the partial enters the tree; interior
  /// combining at relay ranks is charged to the wire only (per-hop latency)
  /// — the modelling choice DESIGN §13 documents.
  void tree_begin(TreeAwaiter* awaiter) {
    const int rank = awaiter->rank;
    const std::uint64_t wave = tree_waves_[static_cast<std::size_t>(rank)]++;
    awaiter->wave = wave;
    const bool inserted =
        tree_waiters_[static_cast<std::size_t>(rank)].emplace(wave, awaiter).second;
    CAGVT_CHECK(inserted);
    const TreeVal value = awaiter->value;
    // A live (non-daemon) event: the contribution is real protocol work —
    // every other coroutine may be parked in a barrier waiting for this
    // wave, and a daemon event would let the engine declare the run over.
    engine_.call_at(engine_.now() + cpu_cost(rank, spec_.control_send_cpu), owner_of(rank),
                    [this, rank, wave, value] {
                      tree_emit(tree_reducer(rank).contribute(wave, value));
                      tree_maybe_resume(rank, wave);
                    });
  }

  TreeReducer& tree_reducer(int rank) {
    return tree_reducers_[static_cast<std::size_t>(rank)];
  }

  void tree_emit(std::vector<TreeMsg> msgs) {
    for (TreeMsg& m : msgs) {
      ++tree_frames_;
      WireFrame frame;
      frame.kind = FrameKind::kTree;
      frame.cls = StreamClass::kControl;
      frame.tree_up = m.up;
      frame.tree_wave = m.wave;
      frame.tree_val = m.val;
      network_.transmit(m.from, m.to, spec_.control_msg_bytes, std::move(frame), owner_of(m.to));
    }
  }

  void tree_maybe_resume(int rank, std::uint64_t wave) {
    TreeReducer& reducer = tree_reducer(rank);
    if (!reducer.has_result(wave)) return;
    auto& waiters = tree_waiters_[static_cast<std::size_t>(rank)];
    const auto it = waiters.find(wave);
    CAGVT_CHECK_MSG(it != waiters.end(), "tree wave completed with no local caller");
    TreeAwaiter* awaiter = it->second;
    waiters.erase(it);
    awaiter->result = reducer.take_result(wave);
    tree_block_time_ += engine_.now() - awaiter->arrived_at;
    metasim::resume_at(engine_, engine_.now(), awaiter->handle);
  }

  void on_wire_deliver(int src, int dst, WireFrame frame) {
    // Tree collective hops are dispatched before any fault handling:
    // collectives are modelled as reliable (exactly like the flat barriers
    // above — loss applies to point-to-point traffic only), and a crashed
    // rank's fabric still relays partials so a reduction in flight across
    // its subtree can never wedge the live ranks.
    if (frame.kind == FrameKind::kTree) {
      tree_emit(tree_reducer(dst).deliver(
          TreeMsg{src, dst, frame.tree_up, frame.tree_wave, frame.tree_val}));
      tree_maybe_resume(dst, frame.tree_wave);
      return;
    }
    // A crash that opened while the frame was in flight eats it; the
    // sender's unacked copy is replayed after the restart.
    if (faults_ != nullptr && (faults_->node_down(src) || faults_->node_down(dst))) {
      ++down_drops_;
      return;
    }
    if (!frame.reliable) {
      inboxes_[static_cast<std::size_t>(dst)]->send(std::move(frame.payload));
      return;
    }
    if (frame.kind == FrameKind::kAck) {
      on_ack(/*owner=*/dst, /*peer=*/src, frame);
      return;
    }
    auto& rs = recv_streams_[idx(frame.cls, src, dst)];
    if (frame.epoch > rs.epoch) {
      // First frame of a newer data-plane incarnation; defensive — restore
      // rounds reset both ends before traffic resumes.
      rs.epoch = frame.epoch;
      rs.expected = frame.seq;
      rs.reorder.clear();
    } else if (frame.epoch < rs.epoch) {
      return;  // stale pre-restore frame
    }
    if (frame.seq < rs.expected) {
      ++duplicates_dropped_;
      send_ack(dst, src, frame.cls, rs);  // re-ack so the sender stops resending
      return;
    }
    if (frame.seq == rs.expected) {
      ++rs.expected;
      inboxes_[static_cast<std::size_t>(dst)]->send(std::move(frame.payload));
      while (!rs.reorder.empty() && rs.reorder.begin()->first == rs.expected) {
        inboxes_[static_cast<std::size_t>(dst)]->send(std::move(rs.reorder.begin()->second));
        rs.reorder.erase(rs.reorder.begin());
        ++rs.expected;
      }
    } else {
      rs.reorder.emplace(frame.seq, std::move(frame.payload));
    }
    send_ack(dst, src, frame.cls, rs);
  }

  /// Cumulative ack for stream (owner -> peer) arrived back at `owner`.
  void on_ack(int owner, int peer, const WireFrame& ack) {
    auto& ss = send_streams_[idx(ack.cls, owner, peer)];
    if (ack.epoch != ss.epoch) return;  // acks a pre-restore incarnation
    // RTT sampling rule: only an ack that clears exactly ONE never-resent
    // frame yields a sample. A batch clear means the head was lost and the
    // trailing frames waited on its recovery — their send-to-clear time is
    // the recovery latency, not the link RTT, and feeding it into the EWMA
    // inflates the RTO which slows the NEXT recovery (a feedback spiral).
    // Skipping resent frames is Karn's rule (their ack is ambiguous).
    const auto first = ss.unacked.begin();
    const bool single_clean = first != ss.unacked.end() && first->first + 1 == ack.seq &&
                              !first->second.resent;
    if (single_clean) {
      const metasim::SimTime rtt = engine_.now() - first->second.sent_at;
      ss.srtt = ss.srtt == 0 ? rtt : ss.srtt + (rtt - ss.srtt) / 8;
    }
    bool progress = false;
    for (auto it = ss.unacked.begin(); it != ss.unacked.end() && it->first < ack.seq;) {
      it = ss.unacked.erase(it);
      progress = true;
    }
    if (progress) ss.attempts = 0;
  }

  void send_ack(int from, int to, StreamClass cls, const RecvStream<Payload>& rs) {
    ++acks_sent_;
    WireFrame ack;
    ack.kind = FrameKind::kAck;
    ack.cls = cls;
    ack.reliable = true;
    ack.epoch = rs.epoch;
    ack.seq = rs.expected;
    wire_send(from, to, spec_.ack_msg_bytes, std::move(ack));
  }

  /// Backoff delay before the next retransmit sweep of a link stream:
  /// exponential in the consecutive-expiry count, plus deterministic jitter
  /// (so two links with identical timeouts don't resend in lockstep and
  /// replays with the same seed still match byte-for-byte).
  metasim::SimTime rto_delay(StreamClass cls, int src, int dst) {
    auto& ss = send_streams_[idx(cls, src, dst)];
    const int shift = ss.attempts < 5 ? ss.attempts : 5;
    const metasim::SimTime base = std::max(spec_.retransmit_timeout, 2 * ss.srtt);
    metasim::SimTime delay = base << shift;
    auto& counter = rto_counters_[idx(cls, src, dst)];
    CounterRng rng(hash_combine(hash_combine(seed_, 0x72746f00u + static_cast<int>(cls)),
                                static_cast<std::uint64_t>(src) * 8192 +
                                    static_cast<std::uint64_t>(dst)),
                   counter);
    delay += static_cast<metasim::SimTime>(
        rng.next_below(static_cast<std::uint64_t>(spec_.retransmit_timeout / 4) + 1));
    counter = rng.counter();
    return delay;
  }

  void arm_timer(StreamClass cls, int src, int dst) {
    auto& ss = send_streams_[idx(cls, src, dst)];
    if (ss.timer_armed || ss.unacked.empty()) return;
    ss.timer_armed = true;
    engine_.call_at_daemon(engine_.now() + rto_delay(cls, src, dst), owner_of(src),
                           [this, cls, src, dst] { on_timer(cls, src, dst); });
  }

  void on_timer(StreamClass cls, int src, int dst) {
    auto& ss = send_streams_[idx(cls, src, dst)];
    ss.timer_armed = false;
    if (ss.unacked.empty()) return;
    if (faults_ != nullptr) {
      // An endpoint inside a crash window would eat the resend; sleep the
      // timer until the restart instead of burning backoff cycles.
      const metasim::SimTime wake =
          std::max(faults_->node_restart_at(src), faults_->node_restart_at(dst));
      if (wake > 0) {
        ss.timer_armed = true;
        engine_.call_at_daemon(wake, owner_of(src),
                               [this, cls, src, dst] { on_timer(cls, src, dst); });
        return;
      }
    }
    auto& [seq, pending] = *ss.unacked.begin();
    // The timer is per-stream, so it may have been armed for an earlier
    // frame that has since been acked. Only the current head's own age
    // counts: if it has been outstanding for less than the timeout, its ack
    // is plausibly still in flight — push the timer out relative to the
    // head's send time instead of retransmitting.
    const metasim::SimTime rto = std::max(spec_.retransmit_timeout, 2 * ss.srtt);
    if (engine_.now() - pending.sent_at < rto) {
      ss.timer_armed = true;
      engine_.call_at_daemon(pending.sent_at + rto_delay(cls, src, dst), owner_of(src),
                             [this, cls, src, dst] { on_timer(cls, src, dst); });
      return;
    }
    ++ss.attempts;
    // Retransmit only the head of the window (TCP-style probe): the ack is
    // cumulative, so recovering the head releases everything behind it.
    // Resending the whole window would congest the serialized link —
    // delaying the very acks that would stop the resends.
    pending.resent = true;
    ++retransmits_;
    if (trace_ != nullptr) trace_->retransmit(src, dst, pending.bytes, to_string(cls));
    WireFrame frame;
    frame.cls = cls;
    frame.reliable = true;
    frame.epoch = ss.epoch;
    frame.seq = seq;
    frame.payload = pending.payload;
    wire_send(src, dst, pending.bytes, std::move(frame));
    arm_timer(cls, src, dst);
  }

  metasim::Engine& engine_;
  const ClusterSpec& spec_;
  obs::TraceRecorder* trace_ = nullptr;
  fault::FaultEngine* faults_ = nullptr;
  int nranks_;
  std::vector<std::uint32_t> owners_;  // per rank; empty when none was set
  Network<WireFrame> network_;
  std::vector<std::unique_ptr<metasim::Channel<Payload>>> inboxes_;
  metasim::Barrier barrier_;
  metasim::ReduceBarrier<std::int64_t> sum_barrier_;
  metasim::ReduceBarrier<double> min_barrier_;

  bool tree_enabled_ = false;
  TreeTopology tree_topo_{};
  std::vector<TreeReducer> tree_reducers_;
  /// Per-rank monotone collective-call counter: wave k here reduces with
  /// wave k everywhere (all ranks issue the identical call sequence).
  std::vector<std::uint64_t> tree_waves_;
  std::vector<std::map<std::uint64_t, TreeAwaiter*>> tree_waiters_;
  metasim::SimTime tree_block_time_ = 0;
  std::uint64_t tree_frames_ = 0;

  bool reliable_ = false;
  std::uint64_t seed_ = 0;
  std::vector<SendStream<Payload>> send_streams_;
  std::vector<RecvStream<Payload>> recv_streams_;
  std::vector<std::uint64_t> rto_counters_;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t down_drops_ = 0;
};

}  // namespace cagvt::net
