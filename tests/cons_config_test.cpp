// --sync parsing and configuration-surface validation: mode/parameter
// parsing, the valid-value listings in parse errors (--sync, --gvt, --mpi),
// and the SimulationConfig combination rules that keep conservative runs
// away from subsystems defined against rollbacks.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <cctype>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cons/cons_config.hpp"
#include "core/experiment.hpp"
#include "core/config.hpp"
#include "fault/fault_parse.hpp"
#include "lb/lb_config.hpp"

namespace cagvt::cons {
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

TEST(ConsParseTest, ParsesModes) {
  EXPECT_EQ(parse_cons("optimistic").kind, SyncKind::kOptimistic);
  EXPECT_EQ(parse_cons("").kind, SyncKind::kOptimistic);
  EXPECT_EQ(parse_cons("cmb").kind, SyncKind::kCmb);

  const ConsConfig w = parse_cons("window");
  EXPECT_EQ(w.kind, SyncKind::kWindow);
  EXPECT_EQ(w.window, std::numeric_limits<double>::infinity());

  const ConsConfig wb = parse_cons("window,window=0.25");
  EXPECT_EQ(wb.kind, SyncKind::kWindow);
  EXPECT_DOUBLE_EQ(wb.window, 0.25);
}

TEST(ConsParseTest, EnabledOnlyForConservativeModes) {
  EXPECT_FALSE(parse_cons("optimistic").enabled());
  EXPECT_TRUE(parse_cons("cmb").enabled());
  EXPECT_TRUE(parse_cons("window").enabled());
}

TEST(ConsParseTest, UnknownModeListsValidModes) {
  expect_error_mentions([] { parse_cons("bogus"); },
                        {"bogus", "optimistic", "cmb", "window"});
}

TEST(ConsParseTest, RejectsBadParameters) {
  EXPECT_THROW(parse_cons("optimistic,window=1"), std::invalid_argument);
  EXPECT_THROW(parse_cons("cmb,window=1"), std::invalid_argument);
  EXPECT_THROW(parse_cons("window,window=0"), std::invalid_argument);
  EXPECT_THROW(parse_cons("window,window=-2"), std::invalid_argument);
  expect_error_mentions([] { parse_cons("window,widnow=1"); }, {"widnow"});
}

TEST(ConsParseTest, ToStringRoundTrips) {
  for (const char* text : {"optimistic", "cmb", "window", "window,window=0.500000"}) {
    EXPECT_EQ(to_string(parse_cons(text)), text);
  }
  EXPECT_STREQ(to_string(SyncKind::kCmb), "cmb");
}

TEST(ConfigErrorTest, GvtKindErrorListsValidValues) {
  expect_error_mentions([] { (void)core::gvt_kind_from("matern"); },
                        {"matern", "barrier", "mattern", "ca-gvt", "epoch"});
}

TEST(ConfigErrorTest, GvtParserFuzz) {
  // Exactly these spellings parse; every mutation must throw an
  // invalid_argument that echoes the bad input and lists the valid kinds.
  const std::pair<const char*, core::GvtKind> valid[] = {
      {"barrier", core::GvtKind::kBarrier},
      {"mattern", core::GvtKind::kMattern},
      {"ca-gvt", core::GvtKind::kControlledAsync},
      {"ca", core::GvtKind::kControlledAsync},
      {"cagvt", core::GvtKind::kControlledAsync},
      {"epoch", core::GvtKind::kEpoch},
  };
  for (const auto& [name, kind] : valid) EXPECT_EQ(core::gvt_kind_from(name), kind);

  std::mt19937_64 rng(2024);
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz-_0123456789 ";
  std::vector<std::string> inputs;
  // Mutations of the valid spellings: drop, duplicate, or swap a character,
  // change case, add whitespace — near-misses a CLI typo would produce.
  for (const auto& [name, kind] : valid) {
    const std::string s = name;
    for (std::size_t i = 0; i < s.size(); ++i) {
      inputs.push_back(s.substr(0, i) + s.substr(i + 1));           // drop
      inputs.push_back(s.substr(0, i) + s[i] + s.substr(i));        // dup
      std::string upper = s;
      upper[i] = static_cast<char>(std::toupper(upper[i]));
      inputs.push_back(upper);                                      // case
    }
    inputs.push_back(" " + s);
    inputs.push_back(s + " ");
    inputs.push_back(s + ",");
  }
  // Plus purely random garbage.
  for (int i = 0; i < 500; ++i) {
    std::string s;
    const int len = std::uniform_int_distribution<int>(0, 12)(rng);
    for (int j = 0; j < len; ++j)
      s += alphabet[std::uniform_int_distribution<std::size_t>(
          0, alphabet.size() - 1)(rng)];
    inputs.push_back(s);
  }
  for (const std::string& input : inputs) {
    bool is_valid = false;
    for (const auto& [name, kind] : valid) is_valid |= input == name;
    if (is_valid) continue;
    expect_error_mentions([&] { (void)core::gvt_kind_from(input); },
                          {"barrier", "mattern", "ca-gvt", "epoch"});
  }
}

TEST(ConfigErrorTest, MpiPlacementErrorListsValidValues) {
  expect_error_mentions([] { (void)core::mpi_placement_from("shared"); },
                        {"shared", "dedicated", "combined", "everywhere"});
}

core::SimulationConfig conservative_config() {
  core::SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 2;
  cfg.lps_per_worker = 2;
  cfg.sync = parse_cons("cmb");
  return cfg;
}

TEST(ConsValidateTest, ConservativeConfigAloneIsValid) {
  EXPECT_NO_THROW(conservative_config().validate());
}

TEST(ConsValidateTest, RejectsLoadBalancer) {
  core::SimulationConfig cfg = conservative_config();
  cfg.lb = lb::parse_lb("roughness");
  expect_error_mentions([&] { cfg.validate(); }, {"--sync=cmb", "--lb"});
}

TEST(ConsValidateTest, RejectsFaultInjection) {
  core::SimulationConfig cfg = conservative_config();
  cfg.sync = parse_cons("window");
  cfg.faults = fault::parse_fault_schedule("straggler:node=0,t=0..,slow=2x");
  expect_error_mentions([&] { cfg.validate(); }, {"--sync=window", "--fault"});
}

TEST(ConsValidateTest, RejectsCheckpoints) {
  core::SimulationConfig cfg = conservative_config();
  cfg.ckpt_every = 3;
  expect_error_mentions([&] { cfg.validate(); }, {"--sync=cmb", "--ckpt-every"});
}

TEST(ConsValidateTest, RejectsEpochGvtWithBoundedWindow) {
  // The window executor drives every advance through a synchronous GVT
  // round; the epoch pipeline has none to offer it. The error must
  // name both sides of the conflict and the usable alternatives.
  core::SimulationConfig cfg = conservative_config();
  cfg.gvt = core::GvtKind::kEpoch;
  cfg.sync = parse_cons("window,window=0.5");
  expect_error_mentions([&] { cfg.validate(); },
                        {"--gvt=epoch", "--sync=window", "barrier", "mattern",
                         "ca-gvt"});
}

TEST(ConsValidateTest, EpochGvtWithCmbIsValid) {
  // Only the window executor conflicts: CMB null messages ride the normal
  // event path and drain like any other transient.
  core::SimulationConfig cfg = conservative_config();
  cfg.gvt = core::GvtKind::kEpoch;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConsValidateTest, EpochWindowRejectionSurfacesThroughCliWiring) {
  // Pin the CLI path the example binaries use: Options::parse ->
  // gvt_kind_from + apply_sync_options -> validate. The user typing
  // `--gvt=epoch --sync=window` must see the conflict error verbatim.
  const char* argv[] = {"phold_cluster", "--gvt=epoch", "--sync=window"};
  const Options opts = Options::parse(3, argv);
  core::SimulationConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 2;
  cfg.lps_per_worker = 2;
  cfg.gvt = core::gvt_kind_from(opts.get_string("gvt", "ca-gvt"));
  core::apply_sync_options(cfg, opts);
  expect_error_mentions([&] { cfg.validate(); },
                        {"--gvt=epoch", "--sync=window"});
}

}  // namespace
}  // namespace cagvt::cons
