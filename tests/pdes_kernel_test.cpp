// Time Warp kernel mechanics: optimistic processing, straggler rollbacks,
// anti-message annihilation, cascades, fossil collection.
#include "pdes/kernel.hpp"

#include <gtest/gtest.h>

#include <string>

#include "test_model.hpp"

namespace cagvt::pdes {
namespace {

using testing::TestModel;
using testing::TestModelCfg;

Event positive(double ts, std::uint64_t uid, LpId src, LpId dst) {
  Event e;
  e.recv_ts = ts;
  e.send_ts = 0;
  e.uid = uid;
  e.src_lp = src;
  e.dst_lp = dst;
  return e;
}

const TestModel::State& state_of(const ThreadKernel& kernel, LpId lp) {
  return *reinterpret_cast<const TestModel::State*>(kernel.lp_state(lp).data());
}

TEST(KernelTest, ProcessesInTimestampOrder) {
  LpMap map(1, 1, 4);
  TestModelCfg cfg;
  cfg.generate = false;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();
  // LP k starts at 1.0 + 0.25k: order 0,1,2,3.
  for (LpId expected = 0; expected < 4; ++expected) {
    const Outcome out = kernel.process_next();
    ASSERT_TRUE(out.processed);
    EXPECT_DOUBLE_EQ(out.cost_units, 10.0);
    EXPECT_EQ(state_of(kernel, expected).count, 1u);
  }
  EXPECT_FALSE(kernel.process_next().processed);
  EXPECT_EQ(kernel.stats().processed, 4u);
}

TEST(KernelTest, EndTimeBoundsProcessing) {
  LpMap map(1, 1, 2);
  TestModelCfg cfg;
  cfg.generate = true;
  cfg.delay = 10.0;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 5.0, .seed = 1});
  kernel.init();
  // Starts at 1.0 and 1.25 are processed; follow-ups at 11.0/11.25 are not.
  EXPECT_TRUE(kernel.process_next().processed);
  EXPECT_TRUE(kernel.process_next().processed);
  EXPECT_FALSE(kernel.process_next().processed);
  EXPECT_TRUE(kernel.idle());
  EXPECT_DOUBLE_EQ(kernel.local_min_ts(), 11.0);  // still visible to GVT
}

TEST(KernelTest, ExternalOutputsAreReturnedForRouting) {
  LpMap map(1, 2, 2);  // worker 0: LPs 0,1; worker 1: LPs 2,3
  TestModelCfg cfg;
  cfg.stride = 2;  // LP0 -> LP2 (off-thread)
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();
  const Outcome out = kernel.process_next();  // LP0@1.0 -> LP2@2.0
  ASSERT_EQ(out.external.size(), 1u);
  EXPECT_EQ(out.external[0].dst_lp, 2);
  EXPECT_DOUBLE_EQ(out.external[0].recv_ts, 2.0);
  EXPECT_FALSE(out.external[0].anti);
}

TEST(KernelTest, StragglerRollsBackAndEmitsMatchingAntis) {
  LpMap map(1, 2, 2);
  TestModelCfg cfg;
  cfg.stride = 2;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();

  const Outcome first = kernel.process_next();  // LP0@1.0 -> LP2@2.0
  ASSERT_EQ(first.external.size(), 1u);
  const Event original_output = first.external[0];
  const auto pre_state = state_of(kernel, 0);
  EXPECT_EQ(pre_state.count, 1u);

  // A straggler for LP0 at t=0.5 undoes the t=1.0 execution.
  const Outcome hit = kernel.deposit(positive(0.5, 999, /*src=*/2, /*dst=*/0));
  EXPECT_TRUE(hit.was_straggler);
  EXPECT_EQ(hit.rolled_back, 1);
  EXPECT_EQ(hit.antimessages, 1);
  ASSERT_EQ(hit.external.size(), 1u);
  EXPECT_TRUE(hit.external[0].anti);
  EXPECT_EQ(hit.external[0].uid, original_output.uid);  // cancels the exact twin
  EXPECT_EQ(state_of(kernel, 0).count, 0u);             // checkpoint restored
  EXPECT_EQ(kernel.lp_history_size(0), 0u);

  // Straggler runs first, then the rolled-back event re-executes and
  // regenerates a bit-identical output (replay-stable uid).
  const Outcome straggler_run = kernel.process_next();
  ASSERT_TRUE(straggler_run.processed);
  EXPECT_EQ(state_of(kernel, 0).last_ts, 0.5);
  const Outcome replay = kernel.process_next();
  ASSERT_TRUE(replay.processed);
  ASSERT_EQ(replay.external.size(), 1u);
  EXPECT_EQ(replay.external[0].uid, original_output.uid);
  EXPECT_DOUBLE_EQ(replay.external[0].recv_ts, original_output.recv_ts);

  EXPECT_EQ(kernel.stats().stragglers, 1u);
  EXPECT_EQ(kernel.stats().primary_rollbacks, 1u);
  EXPECT_EQ(kernel.stats().rolled_back, 1u);
}

TEST(KernelTest, AntiAnnihilatesPendingEvent) {
  LpMap map(1, 2, 2);
  TestModelCfg cfg;
  cfg.generate = false;
  cfg.start_event = false;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();

  const Event p = positive(5.0, 42, 2, 0);
  kernel.deposit(p);
  EXPECT_EQ(kernel.pending_size(), 1u);
  const Outcome out = kernel.deposit(p.make_anti());
  EXPECT_TRUE(out.annihilated);
  EXPECT_EQ(out.rolled_back, 0);
  EXPECT_EQ(kernel.pending_size(), 0u);
  EXPECT_FALSE(kernel.process_next().processed);
  EXPECT_EQ(kernel.stats().annihilated_pending, 1u);
}

TEST(KernelTest, AntiForProcessedEventTriggersSecondaryRollback) {
  LpMap map(1, 2, 2);
  TestModelCfg cfg;
  cfg.stride = 2;
  cfg.start_event = false;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();

  const Event p = positive(5.0, 42, 2, 0);
  kernel.deposit(p);
  const Outcome run = kernel.process_next();
  ASSERT_TRUE(run.processed);
  ASSERT_EQ(run.external.size(), 1u);

  const Outcome out = kernel.deposit(p.make_anti());
  EXPECT_TRUE(out.annihilated);
  EXPECT_EQ(out.rolled_back, 1);
  ASSERT_EQ(out.external.size(), 1u);  // cancels what the execution sent
  EXPECT_TRUE(out.external[0].anti);
  EXPECT_EQ(out.external[0].uid, run.external[0].uid);
  EXPECT_EQ(kernel.lp_history_size(0), 0u);
  EXPECT_EQ(state_of(kernel, 0).count, 0u);
  // The annihilated event is NOT reinserted.
  EXPECT_FALSE(kernel.process_next().processed);
  EXPECT_EQ(kernel.stats().secondary_rollbacks, 1u);
}

TEST(KernelTest, EarlyAntiAnnihilatesLaterPositive) {
  LpMap map(1, 2, 2);
  TestModelCfg cfg;
  cfg.generate = false;
  cfg.start_event = false;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();

  const Event p = positive(5.0, 42, 2, 0);
  kernel.deposit(p.make_anti());  // overtook its positive
  EXPECT_EQ(kernel.stats().annihilated_early, 0u);  // parked, not yet matched
  const Outcome out = kernel.deposit(p);
  EXPECT_TRUE(out.annihilated);
  EXPECT_EQ(kernel.pending_size(), 0u);
  EXPECT_EQ(kernel.stats().annihilated_early, 1u);
}

TEST(KernelTest, LocalCascadeRollsBackChain) {
  // One kernel owns a 4-LP local chain 0->1->2->3. After the chain runs, a
  // straggler at LP0 must unwind every downstream execution via local
  // cancellations (no external messages exist).
  LpMap map(1, 1, 4);
  TestModelCfg cfg;
  cfg.stride = 1;
  cfg.delay = 1.0;
  cfg.start_event = false;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 4.0, .seed = 1});
  kernel.init();

  kernel.deposit(positive(1.0, 7, 3, 0));
  while (kernel.process_next().processed) {
  }
  // Chain executed: LP0@1, LP1@2, LP2@3, LP3@4; LP0@5 pending beyond end.
  ASSERT_EQ(kernel.stats().processed, 4u);

  const Outcome hit = kernel.deposit(positive(0.5, 8, 3, 0));
  EXPECT_TRUE(hit.was_straggler);
  // Direct undo of LP0@1, then the anti-cascade unwinds LP1@2, LP2@3,
  // LP3@4; LP3's output (LP0@5) is annihilated while pending.
  EXPECT_EQ(hit.rolled_back, 4);
  EXPECT_TRUE(hit.external.empty());  // everything stayed on-thread
  EXPECT_EQ(kernel.stats().local_cancellations, 4u);
  EXPECT_EQ(kernel.stats().secondary_rollbacks, 3u);
  EXPECT_EQ(kernel.stats().annihilated_pending, 1u);

  while (kernel.process_next().processed) {
  }
  // Straggler chain (0.5, 1.5, 2.5, 3.5) plus the original chain re-runs.
  EXPECT_EQ(kernel.stats().processed, 12u);
  EXPECT_EQ(state_of(kernel, 0).count, 2u);  // events at 0.5 and 1.0
  EXPECT_EQ(kernel.stats().rolled_back, 4u);
}

TEST(KernelTest, FossilCollectionCommitsAndFrees) {
  LpMap map(1, 1, 2);
  TestModelCfg cfg;
  cfg.generate = false;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();
  kernel.process_next();  // LP0@1.0
  kernel.process_next();  // LP1@1.25
  EXPECT_EQ(kernel.lp_history_size(0), 1u);

  EXPECT_EQ(kernel.fossil_collect(1.1), 1u);  // commits only the t=1.0 event
  EXPECT_EQ(kernel.stats().committed, 1u);
  EXPECT_EQ(kernel.lp_history_size(0), 0u);
  EXPECT_EQ(kernel.lp_history_size(1), 1u);

  EXPECT_EQ(kernel.final_commit(), 1u);
  EXPECT_EQ(kernel.stats().committed, 2u);
  EXPECT_NE(kernel.committed_fingerprint(), 0u);
}

TEST(KernelTest, FossilIsStrictlyBelowGvt) {
  LpMap map(1, 1, 1);
  TestModelCfg cfg;
  cfg.generate = false;
  cfg.start_base = 2.0;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();
  kernel.process_next();
  EXPECT_EQ(kernel.fossil_collect(2.0), 0u);  // GVT == ts: must NOT commit
  EXPECT_EQ(kernel.fossil_collect(2.0000001), 1u);
}

TEST(KernelDeathTest, DepositToWrongKernelAborts) {
  LpMap map(1, 2, 2);
  TestModel model(map, {});
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();
  EXPECT_DEATH(kernel.deposit(positive(1.0, 1, 0, /*dst=*/3)), "wrong kernel");
}

TEST(KernelTest, MaxHistoryTracksPeakMemory) {
  LpMap map(1, 1, 2);
  TestModelCfg cfg;
  cfg.generate = false;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();
  kernel.process_next();
  kernel.process_next();
  kernel.final_commit();
  EXPECT_EQ(kernel.stats().max_history, 2u);
}

TEST(KernelTest, CheckpointBytesCountFieldWidthsNotStructLayout) {
  LpMap map(1, 1, 2);  // LP0 -> LP1, both on this kernel
  TestModel model(map, {});
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();
  ASSERT_TRUE(kernel.process_next().processed);  // LP0@1.0 sends LP1@2.0

  // Per LP: id 4, LVT 8, last key 16, window work 8, state 24 bytes.
  constexpr std::int64_t kLp = 4 + 8 + 16 + 8 + 24;
  // LP0's record: its event and one output (48 bytes each), 24 pre-state.
  constexpr std::int64_t kRecord = 48 + 48 + 24;
  // Pending: LP1's start event and LP0's output.
  constexpr std::int64_t kPending = 2 * 48;
  EXPECT_EQ(kernel.snapshot().bytes(), 2 * kLp + kRecord + kPending);
  EXPECT_EQ(kernel.extract_lp(0).bytes(), kLp + kRecord);
  EXPECT_EQ(kernel.extract_lp(1).bytes(), kLp + kPending);
}

TEST(KernelHistoryPoolTest, IdleKernelHoldsNoHistoryStorage) {
  LpMap map(1, 1, 512);
  TestModel model(map, {});
  ThreadKernel kernel(model, map, 0, {.end_vt = 100, .seed = 1});
  kernel.init();
  EXPECT_EQ(kernel.history_capacity(), 0u);
  for (LpId lp = 0; lp < 512; ++lp) EXPECT_EQ(kernel.lp_history_size(lp), 0u);
}

TEST(KernelHistoryPoolTest, FossilCyclesReuseFreedRecords) {
  LpMap map(1, 1, 64);
  TestModelCfg cfg;
  cfg.delay = 0.5;
  TestModel model(map, cfg);
  ThreadKernel kernel(model, map, 0, {.end_vt = 1000, .seed = 1});
  kernel.init();
  auto round_up = [](std::size_t n) {
    return (n + ThreadKernel::kHistoryBlock - 1) / ThreadKernel::kHistoryBlock *
           ThreadKernel::kHistoryBlock;
  };
  // Each cycle processes 3 * 64 events, then commits what lies below the
  // pending minimum. The pool never holds more than the peak live history
  // (rounded up to a block), though the cycles process several times that.
  for (int cycle = 1; cycle <= 4; ++cycle) {
    for (int i = 0; i < 3 * 64; ++i) ASSERT_TRUE(kernel.process_next().processed);
    kernel.fossil_collect(kernel.local_min_ts());
    EXPECT_LT(kernel.live_history(), 64u) << "cycle " << cycle;
    EXPECT_EQ(kernel.history_capacity(), round_up(kernel.stats().max_history)) << "cycle " << cycle;
  }
  EXPECT_GT(kernel.stats().processed, 3 * kernel.history_capacity());
}

// A rollback re-executes to the same results whether the kernel was
// checkpointed and restored, or its LP migrated out and back in between.
class KernelHistoryReplayTest : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelHistoryReplayTest, RollbackAfterRewindMatchesAnUntouchedKernel) {
  const std::string how = GetParam();
  const LpMap map(1, 2, 4);  // worker 0: LPs 0-3; worker 1: LPs 4-7
  TestModelCfg cfg;
  cfg.stride = 1;
  TestModel model(map, cfg);
  const KernelConfig kcfg{.end_vt = 40, .seed = 1, .dynamic_placement = true};
  std::uint64_t fingerprint = 0;
  std::uint64_t state = 0;
  auto run = [&](bool rewind) {
    ThreadKernel kernel(model, map, 0, kcfg);
    ThreadKernel other(model, map, 1, kcfg);
    kernel.init();
    other.init();
    for (int i = 0; i < 6; ++i) ASSERT_TRUE(kernel.process_next().processed);
    if (rewind && how == std::string("restore")) {
      const ThreadKernel::Snapshot snap = kernel.snapshot();
      while (kernel.process_next().processed) {
      }
      kernel.restore(snap);
    } else if (rewind) {
      other.install_lp(kernel.extract_lp(1));
      kernel.install_lp(other.extract_lp(1));
    }
    // A straggler for LP 1 rolls back the history the rewind rebuilt.
    const Outcome hit = kernel.deposit(positive(1.5, 4242, /*src=*/4, /*dst=*/1));
    EXPECT_GT(hit.rolled_back, 0);
    while (kernel.process_next().processed) {
    }
    kernel.final_commit();
    fingerprint = kernel.committed_fingerprint();
    state = kernel.state_hash();
  };
  run(false);
  const std::uint64_t want_fp = fingerprint, want_state = state;
  run(true);
  EXPECT_EQ(fingerprint, want_fp);
  EXPECT_EQ(state, want_state);
}

INSTANTIATE_TEST_SUITE_P(Rewinds, KernelHistoryReplayTest,
                         ::testing::Values("restore", "migrate"));

// The kernel finds a home-block LP through its slot index and an LP that
// migrated in from outside that block by binary search; both views must
// follow every extract/install and every restore.
class KernelSlotTest : public ::testing::Test {
 protected:
  // Worker 0: LPs 0,1; worker 1 (under test): LPs 2,3; worker 2: LPs 4,5.
  KernelSlotTest() : map_(1, 3, 2), model_(map_, model_cfg()) {
    for (int w = 0; w < 3; ++w) {
      kernels_.emplace_back(model_, map_, w, KernelConfig{.end_vt = 100, .seed = 1});
      kernels_.back().init();
    }
  }
  static TestModelCfg model_cfg() {
    TestModelCfg cfg;
    cfg.generate = false;  // each LP holds just its start event at 1.0 + 0.25k
    return cfg;
  }
  void move(LpId lp, int from, int to) {
    kernels_[static_cast<std::size_t>(to)].install_lp(
        kernels_[static_cast<std::size_t>(from)].extract_lp(lp));
  }

  LpMap map_;
  TestModel model_;
  std::vector<ThreadKernel> kernels_;
};

TEST_F(KernelSlotTest, ForeignLpsAreFoundAlongsideTheHomeBlock) {
  ThreadKernel& kernel = kernels_[1];
  move(2, 1, 0);  // a home LP leaves
  move(0, 0, 1);  // foreign LPs arrive from below and above the home block
  move(5, 2, 1);

  EXPECT_EQ(kernel.owned_lps(), (std::vector<LpId>{0, 3, 5}));
  EXPECT_EQ(kernel.lp_count(), 3);
  for (LpId lp = 0; lp < map_.total_lps(); ++lp)
    EXPECT_EQ(kernel.owns_lp(lp), lp == 0 || lp == 3 || lp == 5) << "lp " << lp;
  EXPECT_EQ(kernels_[0].owned_lps(), (std::vector<LpId>{1, 2}));
  EXPECT_TRUE(kernels_[0].owns_lp(2));

  // A deposit reaches the installed LP; its start event came along.
  EXPECT_FALSE(kernel.deposit(positive(3.0, 901, /*src=*/1, /*dst=*/5)).annihilated);
  EXPECT_EQ(kernel.pending_size(), 4u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(kernel.process_next().processed);
  EXPECT_FALSE(kernel.process_next().processed);
  EXPECT_EQ(state_of(kernel, 5).count, 2u);
  EXPECT_DOUBLE_EQ(kernel.lp_lvt(5), 3.0);
  EXPECT_DOUBLE_EQ(kernel.lp_lvt(0), 1.0);
  EXPECT_DOUBLE_EQ(kernel.lp_lvt(3), 1.75);

  // A home LP can come back between foreign ones.
  move(2, 0, 1);
  EXPECT_EQ(kernel.owned_lps(), (std::vector<LpId>{0, 2, 3, 5}));
  ASSERT_TRUE(kernel.process_next().processed);  // LP2's start event, 1.5
  EXPECT_EQ(state_of(kernel, 2).count, 1u);
  EXPECT_EQ(state_of(kernel, 5).count, 2u);
}

TEST_F(KernelSlotTest, RestoreRebuildsTheSlotIndexAcrossAMigration) {
  ThreadKernel& kernel = kernels_[1];
  const ThreadKernel::Snapshot home_only = kernel.snapshot();

  move(2, 1, 0);
  move(5, 2, 1);
  const ThreadKernel::Snapshot migrated = kernel.snapshot();
  ASSERT_EQ(migrated.lps.size(), 2u);
  EXPECT_EQ(migrated.lps[0].first, 3);
  EXPECT_EQ(migrated.lps[1].first, 5);

  // Back to the home block: LP 2 is found again, LP 5 is gone.
  kernel.restore(home_only);
  EXPECT_EQ(kernel.owned_lps(), (std::vector<LpId>{2, 3}));
  EXPECT_TRUE(kernel.owns_lp(2));
  EXPECT_FALSE(kernel.owns_lp(5));
  kernel.deposit(positive(4.0, 902, /*src=*/0, /*dst=*/2));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(kernel.process_next().processed);
  EXPECT_EQ(state_of(kernel, 2).count, 2u);
  EXPECT_DOUBLE_EQ(kernel.lp_lvt(2), 4.0);

  // Forward again to the migrated cut: LP 2 is away, LP 5 is back with its
  // pending start event, and a deposit reaches it.
  kernel.restore(migrated);
  EXPECT_EQ(kernel.owned_lps(), (std::vector<LpId>{3, 5}));
  EXPECT_FALSE(kernel.owns_lp(2));
  EXPECT_TRUE(kernel.owns_lp(5));
  EXPECT_EQ(kernel.pending_size(), 2u);
  kernel.deposit(positive(6.0, 903, /*src=*/0, /*dst=*/5));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(kernel.process_next().processed);
  EXPECT_FALSE(kernel.process_next().processed);
  EXPECT_EQ(state_of(kernel, 5).count, 2u);
  EXPECT_DOUBLE_EQ(kernel.lp_lvt(5), 6.0);
}

}  // namespace
}  // namespace cagvt::pdes
