// --flow parsing and configuration-surface validation: mode/parameter
// parsing, the valid-value listings in parse errors, to_string round-trips,
// and the SimulationConfig combination rules (flow vs --sync, `mem:` fault
// specs targeting workers outside the cluster).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/config.hpp"
#include "cons/cons_config.hpp"
#include "fault/fault_parse.hpp"
#include "flow/flow_config.hpp"

namespace cagvt::flow {
namespace {

/// Runs `fn`, expecting std::invalid_argument whose message contains every
/// string in `needles`.
template <typename Fn>
void expect_error_mentions(Fn&& fn, std::initializer_list<const char*> needles) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* needle : needles)
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "message '" << msg << "' should mention '" << needle << "'";
  }
}

TEST(FlowParseTest, ParsesModes) {
  EXPECT_EQ(parse_flow("off").kind, FlowKind::kOff);
  EXPECT_EQ(parse_flow("").kind, FlowKind::kOff);

  const FlowConfig b = parse_flow("bounded");
  EXPECT_EQ(b.kind, FlowKind::kBounded);
  EXPECT_EQ(b.mem, 4096);
  EXPECT_DOUBLE_EQ(b.storm, 0.5);
  EXPECT_DOUBLE_EQ(b.clamp, 4.0);

  const FlowConfig full = parse_flow("bounded,mem=512,storm=0.7,clamp=2.5");
  EXPECT_EQ(full.mem, 512);
  EXPECT_DOUBLE_EQ(full.storm, 0.7);
  EXPECT_DOUBLE_EQ(full.clamp, 2.5);
}

TEST(FlowParseTest, EnabledOnlyForBounded) {
  EXPECT_FALSE(parse_flow("off").enabled());
  EXPECT_TRUE(parse_flow("bounded").enabled());
}

TEST(FlowParseTest, UnknownModeListsValidModes) {
  expect_error_mentions([] { parse_flow("bogus"); }, {"bogus", "off", "bounded"});
}

TEST(FlowParseTest, RejectsBadParameters) {
  // Parameters are meaningless on "off".
  EXPECT_THROW(parse_flow("off,mem=512"), std::invalid_argument);
  // Out-of-range values.
  EXPECT_THROW(parse_flow("bounded,mem=0"), std::invalid_argument);
  EXPECT_THROW(parse_flow("bounded,mem=-5"), std::invalid_argument);
  EXPECT_THROW(parse_flow("bounded,storm=0"), std::invalid_argument);
  EXPECT_THROW(parse_flow("bounded,storm=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_flow("bounded,clamp=0"), std::invalid_argument);
  EXPECT_THROW(parse_flow("bounded,clamp=0.5"), std::invalid_argument);
  // Typos name the offending key.
  expect_error_mentions([] { parse_flow("bounded,memm=512"); }, {"memm"});
}

TEST(FlowParseTest, ToStringRoundTrips) {
  for (const char* text :
       {"off", "bounded", "bounded,mem=512", "bounded,mem=512,storm=0.700000",
        "bounded,clamp=2.500000"}) {
    EXPECT_EQ(to_string(parse_flow(text)), text);
  }
  EXPECT_STREQ(to_string(FlowKind::kBounded), "bounded");
}

TEST(FlowConfigTest, RejectsConservativeCombination) {
  // Conservative execution never over-commits; there is no optimism for
  // flow control to bound, so the combination is a configuration error.
  core::SimulationConfig cfg;
  cfg.flow = parse_flow("bounded");
  cfg.sync = cons::parse_cons("cmb");
  expect_error_mentions([&] { cfg.validate(); }, {"--flow=bounded", "--sync"});
}

TEST(FlowConfigTest, FlowComposesWithOptimisticSubsystems) {
  core::SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.flow = parse_flow("bounded,mem=256");
  cfg.ckpt_every = 4;
  cfg.faults = fault::parse_fault_schedule("crash:node=1,t=2ms,down=1ms");
  EXPECT_NO_THROW(cfg.validate());
}

TEST(FlowConfigTest, MemSqueezeWorkerMustBeInCluster) {
  core::SimulationConfig cfg;  // 1 node x default threads
  cfg.nodes = 2;
  cfg.threads_per_node = 3;    // 2 workers per node with dedicated MPI
  const int workers = cfg.nodes * cfg.workers_per_node();
  cfg.faults = fault::parse_fault_schedule(
      "mem:worker=" + std::to_string(workers) + ",budget=64,t=1ms..2ms");
  expect_error_mentions([&] { cfg.validate(); },
                        {"worker=", "outside the cluster"});

  cfg.faults = fault::parse_fault_schedule(
      "mem:worker=" + std::to_string(workers - 1) + ",budget=64,t=1ms..2ms");
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace cagvt::flow
