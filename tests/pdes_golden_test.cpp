// Golden-model equivalence: any Time Warp execution must commit exactly
// the same events as the sequential reference, regardless of message
// delays and the rollbacks they cause. The laggy in-test transport below
// deliberately delivers cross-kernel messages late to force stragglers.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <ostream>
#include <string>

#include "models/phold.hpp"
#include "pdes/kernel.hpp"
#include "pdes/seqref.hpp"
#include "test_model.hpp"

namespace cagvt::pdes {
namespace {

TEST(GoldenTest, SingleKernelMatchesSequentialReference) {
  LpMap map(1, 1, 16);
  models::PholdParams params;
  params.remote_pct = 0;
  params.regional_pct = 0;
  params.epg_units = 10;
  models::PholdModel model(map, params);
  const KernelConfig cfg{.end_vt = 50.0, .seed = 7};

  SequentialReference ref(model, map, cfg);
  ref.run();
  ASSERT_GT(ref.committed(), 100u);

  ThreadKernel kernel(model, map, 0, cfg);
  kernel.init();
  while (kernel.process_next().processed) {
  }
  kernel.final_commit();

  EXPECT_EQ(kernel.stats().committed, ref.committed());
  EXPECT_EQ(kernel.committed_fingerprint(), ref.fingerprint());
  EXPECT_EQ(kernel.stats().rolled_back, 0u);  // single thread: no stragglers
  for (LpId lp = 0; lp < map.total_lps(); ++lp) {
    EXPECT_EQ(std::memcmp(kernel.lp_state(lp).data(), ref.lp_state(lp).data(),
                          model.state_size()),
              0)
        << "state mismatch at lp " << lp;
  }
}

/// Multi-kernel harness with an artificial delivery lag measured in
/// scheduler rounds. Lag > 0 makes cross-thread messages arrive after the
/// receiver has optimistically advanced — the straggler storm a real
/// cluster produces.
struct LaggyCluster {
  LaggyCluster(const Model& model, const LpMap& map, KernelConfig cfg, int lag)
      : map_(map), lag_(lag) {
    for (int w = 0; w < map.total_workers(); ++w) {
      kernels_.emplace_back(model, map, w, cfg);
      kernels_.back().init();
    }
  }

  struct InFlight {
    std::uint64_t due_round;
    Event event;
  };

  void route(std::uint64_t round, const std::vector<Event>& events) {
    for (const Event& e : events)
      wire_.push_back({round + static_cast<std::uint64_t>(lag_), e});
  }

  /// Runs to quiescence; returns the number of scheduler rounds.
  std::uint64_t run() {
    std::uint64_t round = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      ++round;
      // Deliver due messages (FIFO preserves per-pair order).
      for (std::size_t i = 0; i < wire_.size();) {
        if (wire_[i].due_round <= round) {
          const Event e = wire_[i].event;
          wire_.erase(wire_.begin() + static_cast<std::ptrdiff_t>(i));
          const Outcome out = kernels_[static_cast<std::size_t>(map_.worker_of(e.dst_lp))]
                                  .deposit(e);
          route(round, out.external);
          progress = true;
        } else {
          ++i;
        }
      }
      // Each kernel processes a small batch per round.
      for (auto& kernel : kernels_) {
        for (int b = 0; b < 2; ++b) {
          const Outcome out = kernel.process_next();
          if (!out.processed) break;
          route(round, out.external);
          progress = true;
        }
      }
      if (!progress && !wire_.empty()) {
        // Only future deliveries left; jump time forward.
        progress = true;
      }
      CAGVT_CHECK_MSG(round < 1000000, "laggy cluster failed to quiesce");
    }
    return round;
  }

  std::uint64_t total_committed() {
    std::uint64_t total = 0;
    for (auto& k : kernels_) {
      k.final_commit();
      total += k.stats().committed;
    }
    return total;
  }

  std::uint64_t total_fingerprint() const {
    std::uint64_t total = 0;
    for (const auto& k : kernels_) total += k.committed_fingerprint();
    return total;
  }

  KernelStats total_stats() const {
    KernelStats s;
    for (const auto& k : kernels_) s += k.stats();
    return s;
  }

  const LpMap& map_;
  int lag_;
  std::vector<ThreadKernel> kernels_;
  std::deque<InFlight> wire_;
};

struct GoldenCase {
  int nodes;
  int workers;
  int lps;
  int lag;
  double remote;
  double regional;
  std::uint64_t seed;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << "nodes=" << c.nodes << " workers=" << c.workers << " lps=" << c.lps << " lag=" << c.lag
      << " remote=" << c.remote << " regional=" << c.regional << " seed=" << c.seed;
}

class GoldenSweep : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenSweep, LaggyTimeWarpMatchesSequentialReference) {
  const GoldenCase c = GetParam();
  LpMap map(c.nodes, c.workers, c.lps);
  models::PholdParams params;
  params.remote_pct = c.remote;
  params.regional_pct = c.regional;
  params.epg_units = 10;
  params.seed = c.seed * 31 + 5;
  models::PholdModel model(map, params);
  const KernelConfig cfg{.end_vt = 25.0, .seed = c.seed};

  SequentialReference ref(model, map, cfg);
  ref.run();
  ASSERT_GT(ref.committed(), 50u);

  LaggyCluster cluster(model, map, cfg, c.lag);
  cluster.run();

  EXPECT_EQ(cluster.total_committed(), ref.committed());
  EXPECT_EQ(cluster.total_fingerprint(), ref.fingerprint());

  // Every LP's final state must match the reference.
  for (LpId lp = 0; lp < map.total_lps(); ++lp) {
    const auto& kernel = cluster.kernels_[static_cast<std::size_t>(map.worker_of(lp))];
    EXPECT_EQ(std::memcmp(kernel.lp_state(lp).data(), ref.lp_state(lp).data(),
                          model.state_size()),
              0)
        << "state mismatch at lp " << lp;
  }

  if (c.lag > 0) {
    // The run must have actually exercised the rollback machinery.
    EXPECT_GT(cluster.total_stats().rolled_back, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GoldenSweep,
    ::testing::Values(
        GoldenCase{1, 2, 8, 0, 0.0, 0.5, 1},   // in-order cross-thread
        GoldenCase{1, 2, 8, 3, 0.0, 0.5, 2},   // laggy, heavy regional
        GoldenCase{1, 4, 4, 5, 0.0, 0.3, 3},   // more threads, laggier
        GoldenCase{2, 2, 8, 3, 0.2, 0.3, 4},   // cross-node traffic
        GoldenCase{4, 2, 4, 7, 0.3, 0.3, 5},   // many nodes, very late
        GoldenCase{2, 3, 5, 2, 0.1, 0.6, 6},   // odd sizes
        GoldenCase{8, 1, 4, 4, 0.5, 0.0, 7},   // remote-only traffic
        GoldenCase{1, 8, 2, 6, 0.0, 0.9, 8}),  // tiny LPs, extreme lag
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      // Appended piece by piece: GCC 12's -Wrestrict misfires on a chain of
      // operator+ over temporaries in Release builds.
      const auto& c = info.param;
      std::string name = "n";
      name.append(std::to_string(c.nodes)).append("w").append(std::to_string(c.workers));
      name.append("lp").append(std::to_string(c.lps)).append("lag");
      name.append(std::to_string(c.lag)).append("s").append(std::to_string(c.seed));
      return name;
    });

TEST(GoldenTest, TestModelChainAcrossKernels) {
  LpMap map(1, 4, 2);
  testing::TestModelCfg tcfg;
  tcfg.stride = 3;  // hop across workers
  tcfg.delay = 0.7;
  testing::TestModel model(map, tcfg);
  const KernelConfig cfg{.end_vt = 20.0, .seed = 3};

  SequentialReference ref(model, map, cfg);
  ref.run();

  LaggyCluster cluster(model, map, cfg, 4);
  cluster.run();
  EXPECT_EQ(cluster.total_committed(), ref.committed());
  EXPECT_EQ(cluster.total_fingerprint(), ref.fingerprint());
}

}  // namespace
}  // namespace cagvt::pdes
